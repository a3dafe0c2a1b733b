// Benchmark driver: runs one workload through the apps' public run() /
// run_sequential() entry points for a fixed number of seconds and prints
// raw per-operation records as one JSON document on stdout. run.py (next
// to this file) builds the driver, runs it, and turns the records into the
// benchmark's metrics; the driver itself computes no statistics.
//
//   perfbench_driver --workload=<name> --seed=<n> --seconds=<s>
//                    [--trace=0|1] [--trace-out=<path>]
//
// Every operation is checked against its oracle. After every operation
// and before every set-up the driver also times a fixed calibration probe
// under the same load, so run.py can express times in reference seconds
// (see perfbench/README.md). With --trace=1 every other operation runs
// with its own obs::Session attached, and the counters and histograms the
// program publishes into it are recorded per operation; the driver's own
// spans (setup, run, tree build, oracle, check) are kept in memory and
// written as a Chrome trace to --trace-out.

#include <sched.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <latch>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "apps/barnes/app.h"
#include "apps/barnes/tree.h"
#include "apps/em3d/em3d.h"
#include "exec/native_backend.h"
#include "exec/proc_backend.h"
#include "gas/heap.h"
#include "obs/session.h"
#include "runtime/config.h"
#include "sim/network.h"
#include "support/json.h"
#include "support/options.h"

namespace {

using namespace dpa;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_epoch = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - g_epoch).count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double tv_s(const timeval& tv) {
  return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
}

// CPU of this process plus every child it has reaped (the multi-process
// backend's workers are waited for before run() returns).
double process_cpu_s() {
  rusage self{}, kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return tv_s(self.ru_utime) + tv_s(self.ru_stime) + tv_s(kids.ru_utime) +
         tv_s(kids.ru_stime);
}

double peak_rss_mb() {
  rusage self{}, kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return double(std::max(self.ru_maxrss, kids.ru_maxrss)) / 1024.0;
}

std::uint32_t host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return std::max(1, CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Aggregate "cpu" line of /proc/stat: steal ticks and all ticks.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

CpuTicks read_cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTicks t;
  if (label != "cpu") return t;
  for (int i = 0; i < 10; ++i) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

// ---------------------------------------------------------- calibration

// The calibration probe faults in 16 MB of fresh anonymous memory (map,
// write one byte per page, unmap), about 10 ms on the reference host.
// Nothing in the program can change its speed, so its time tracks only
// how fast the host runs now. Page faults are what it times because, on
// the VM the benchmark was tuned on, they tracked the operations' drift
// best: the apps allocate every operation's cluster, heap and buffers
// afresh (see perfbench/README.md, Steadiness).
//
// After an operation the probe maps the 16 MB at once: in chunks, threads
// probing side by side would time each other's unmap TLB shootdowns.
// Before a set-up repeat, which is single-threaded and precedes the peak
// RSS reading, it goes 256 KB at a time so that it stays out of that
// reading.
constexpr std::size_t kProbeBytes = std::size_t(16) << 20;
constexpr std::size_t kSetupProbeChunk = std::size_t(256) << 10;
constexpr std::size_t kPageBytes = 4096;

double calibration_probe(std::size_t chunk_bytes = kProbeBytes) {
  const double t0 = now_s();
  for (std::size_t done = 0; done < kProbeBytes; done += chunk_bytes) {
    void* mem = mmap(nullptr, chunk_bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) {
      std::perror("perfbench_driver: mmap");
      std::exit(2);
    }
    auto* bytes = static_cast<volatile char*>(mem);
    for (std::size_t i = 0; i < chunk_bytes; i += kPageBytes) bytes[i] = 1;
    munmap(mem, chunk_bytes);
  }
  return now_s() - t0;
}

// The probe on `ncpu` threads at once, for an operation that itself
// spreads over every core: the median of their times.
double calibrate_all_cores(std::uint32_t ncpu) {
  std::vector<double> t(ncpu);
  std::latch ready(ncpu);
  std::vector<std::thread> threads;
  for (std::uint32_t i = 0; i < ncpu; ++i) {
    threads.emplace_back([&, i] {
      ready.arrive_and_wait();
      t[i] = calibration_probe();
    });
  }
  for (auto& th : threads) th.join();
  std::sort(t.begin(), t.end());
  return ncpu % 2 ? t[ncpu / 2] : 0.5 * (t[ncpu / 2 - 1] + t[ncpu / 2]);
}

// ---------------------------------------------------------------- spans

struct Span {
  std::string name;
  std::uint64_t op = 0;  // shared by every span of one operation
  std::uint32_t tid = 0;
  double t0 = 0;
  double t1 = 0;
};

// One per thread; null when spans are off (untraced runs).
using SpanLog = std::vector<Span>;

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, std::uint64_t op,
             std::uint32_t tid)
      : log_(log), name_(std::move(name)), op_(op), tid_(tid), t0_(now_s()) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->push_back(Span{name_, op_, tid_, t0_, now_s()});
  }
  double elapsed() const { return now_s() - t0_; }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::string name_;
  std::uint64_t op_;
  std::uint32_t tid_;
  double t0_;
};

void write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans) {
  JsonWriter w;
  {
    auto root = w.obj();
    auto events = w.arr("traceEvents");
    for (const Span& s : spans) {
      auto e = w.obj();
      w.field("name", s.name);
      w.field("ph", "X");
      w.field("pid", std::int64_t(0));
      w.field("tid", std::int64_t(s.tid));
      w.field("ts", s.t0 * 1e6);
      w.field("dur", (s.t1 - s.t0) * 1e6);
      auto args = w.obj("args");
      w.field("op", std::uint64_t(s.op));
    }
  }
  std::ofstream out(path);
  out << w.str() << "\n";
}

// ------------------------------------------------------------ operations

// What one checked operation produced. `layer` holds the per-layer values
// (published counters plus the benchmark's own timings) and is filled only
// for traced operations.
struct OpRecord {
  std::uint32_t tid = 0;
  std::uint32_t input = 0;
  bool warmup = false;
  bool traced = false;
  bool ok = false;
  std::string why;  // first failed check
  double wall_s = 0;
  double cpu_s = 0;
  double calib_s = 0;  // calibration probe right after the operation
  double work = 0;
  double model_s = 0;
  std::uint64_t events = 0;
  std::map<std::string, double> layer;
};

// Per-thread context an operation records into.
struct OpCtx {
  std::uint32_t tid = 0;
  std::uint64_t op = 0;
  SpanLog* spans = nullptr;
  obs::Session* session = nullptr;  // non-null for traced operations
};

void harvest_session(const obs::Session& s, OpRecord& rec,
                     std::map<std::string, Pow2Histogram>& hists) {
  s.metrics.for_each_counter([&](const std::string& name, std::uint64_t v) {
    rec.layer[name] = double(v);
  });
  s.metrics.for_each_histogram(
      [&](const std::string& name, const Pow2Histogram& h) {
        hists[name].merge(h);
      });
}

void add_model_breakdown(const std::vector<apps::barnes::BarnesStep>& steps,
                         OpRecord& rec) {
  double compute = 0, overhead = 0, comm = 0, idle = 0;
  for (const auto& st : steps) {
    compute += st.phase.mean_compute_s();
    overhead += st.phase.mean_runtime_s();
    comm += st.phase.mean_comm_s();
    idle += st.phase.mean_idle_s();
  }
  rec.layer["model.compute_s"] = compute;
  rec.layer["model.overhead_s"] = overhead;
  rec.layer["model.comm_s"] = comm;
  rec.layer["model.idle_s"] = idle;
}

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds every input, app and oracle; called several times, the last
  // call's state is what operations run on. Returns app-construction
  // seconds (the input generation inside the constructors included).
  virtual double setup(std::uint64_t seed, SpanLog* spans) = 0;
  virtual std::uint32_t inputs() const = 0;
  // Cells in flight at once; 1 means the operation itself spreads.
  virtual std::uint32_t cells() const = 0;
  virtual exec::BackendKind backend() const = 0;
  virtual void run_op(std::uint32_t input, OpCtx& ctx, OpRecord& rec) = 0;
  // Histograms merged over traced operations (exec profiles).
  std::map<std::string, Pow2Histogram> hists;
  std::mutex hists_mu;
};

bool near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

// --- Barnes-Hut -------------------------------------------------------

class BarnesWorkload : public Workload {
 public:
  BarnesWorkload(std::uint32_t nodes, rt::RuntimeConfig rcfg,
                 exec::BackendKind backend, std::uint32_t inputs,
                 std::uint32_t cells)
      : nodes_(nodes),
        rcfg_(std::move(rcfg)),
        backend_(backend),
        inputs_(inputs),
        cells_(cells) {}

  double setup(std::uint64_t seed, SpanLog* spans) override {
    apps_.clear();
    oracle_.clear();
    refs_.assign(inputs_, Ref{});
    double build_s = 0;
    for (std::uint32_t k = 0; k < inputs_; ++k) {
      apps::barnes::BarnesConfig cfg;
      cfg.nbodies = 8192;
      cfg.nsteps = 1;
      cfg.seed = seed * 1000003u + k;
      {
        ScopedSpan s(spans, "setup.build", 0, 0);
        apps_.push_back(std::make_unique<apps::barnes::BarnesApp>(cfg));
        build_s += s.elapsed();
      }
      ScopedSpan s(spans, "setup.oracle", 0, 0);
      oracle_.push_back(apps_.back()->run_sequential());
    }
    return build_s;
  }

  std::uint32_t inputs() const override { return inputs_; }
  std::uint32_t cells() const override { return cells_; }
  exec::BackendKind backend() const override { return backend_; }

  void run_op(std::uint32_t input, OpCtx& ctx, OpRecord& rec) override {
    const apps::barnes::BarnesApp& app = *apps_[input];
    const auto& seq = oracle_[input];
    apps::barnes::BarnesRun run;
    {
      ScopedSpan s(ctx.spans, "op.run", ctx.op, ctx.tid);
      run = app.run(nodes_, sim::NetParams{}, rcfg_, ctx.session, backend_);
      rec.wall_s = s.elapsed();
    }
    rec.work = double(run.total_interactions());
    rec.model_s = run.total_parallel_seconds();
    for (const auto& st : run.steps) rec.events += st.phase.sim_events;

    {
      ScopedSpan s(ctx.spans, "op.check", ctx.op, ctx.tid);
      check(input, run, seq, rec);
    }
    if (ctx.session == nullptr) return;
    if (backend_ == exec::BackendKind::kSim)
      add_model_breakdown(run.steps, rec);
    time_tree(app, ctx, rec);
    {
      ScopedSpan s(ctx.spans, "op.seq", ctx.op, ctx.tid);
      (void)app.run_sequential();
      rec.layer["apps.seq_s"] = s.elapsed();
    }
  }

 private:
  // Exact values an input's first operation produced; every later
  // operation on a deterministic backend must reproduce them.
  struct Ref {
    bool set = false;
    double model_s = 0;
    std::uint64_t events = 0;
    double work = 0;
  };

  void check(std::uint32_t input, const apps::barnes::BarnesRun& run,
             const std::vector<apps::barnes::BarnesApp::SeqStep>& seq,
             OpRecord& rec) {
    rec.ok = false;
    if (!run.all_completed() || run.steps.size() != seq.size()) {
      rec.why = "phase not completed";
      return;
    }
    if (run.total_interactions() != seq[0].counts.interactions) {
      rec.why = "interaction count differs from run_sequential()";
      return;
    }
    // Relative tolerance on each acceleration component, scaled by the
    // oracle's magnitude (floor 1): parallel walks only reassociate sums.
    for (std::size_t i = 0; i < seq[0].acc.size(); ++i) {
      const auto& a = seq[0].acc[i];
      const auto& b = run.final_bodies[i].acc;
      const double tol = 1e-9 * std::max(1.0, a.norm());
      if (!near(a.x, b.x, tol) || !near(a.y, b.y, tol) ||
          !near(a.z, b.z, tol)) {
        rec.why = "acceleration outside 1e-9 relative tolerance";
        return;
      }
    }
    if (backend_ == exec::BackendKind::kSim) {
      std::lock_guard<std::mutex> lock(refs_mu_);
      Ref& ref = refs_[input];
      if (!ref.set) {
        ref = Ref{true, rec.model_s, rec.events, rec.work};
      } else if (ref.model_s != rec.model_s || ref.events != rec.events ||
                 ref.work != rec.work) {
        rec.why = "simulator not deterministic: model_s/sim.events/work "
                  "differ from an earlier run of the same input";
        return;
      }
    }
    rec.ok = true;
  }

  // The untimed per-step setup of BarnesApp::run, each call made directly.
  // run_sequential() builds the tree and its centres of mass too, so only
  // cost zones and materialization (apps.place_s) are outside apps.seq_s.
  void time_tree(const apps::barnes::BarnesApp& app, OpCtx& ctx,
                 OpRecord& rec) {
    const auto& bodies = app.initial_bodies();
    ScopedSpan all(ctx.spans, "op.tree", ctx.op, ctx.tid);
    apps::barnes::BhTree tree;
    {
      ScopedSpan s(ctx.spans, "op.tree.build", ctx.op, ctx.tid);
      tree = apps::barnes::BhTree::build(bodies);
    }
    {
      ScopedSpan s(ctx.spans, "op.tree.com", ctx.op, ctx.tid);
      tree.compute_com(bodies);
    }
    std::vector<sim::NodeId> owner;
    double place_s = 0;
    {
      ScopedSpan s(ctx.spans, "op.tree.costzones", ctx.op, ctx.tid);
      owner = apps::barnes::costzone_owners(tree, bodies, nodes_);
      place_s += s.elapsed();
    }
    {
      ScopedSpan s(ctx.spans, "op.tree.materialize", ctx.op, ctx.tid);
      gas::GlobalHeap heap(nodes_);
      (void)apps::barnes::materialize(tree, bodies, owner, heap);
      place_s += s.elapsed();
    }
    rec.layer["apps.place_s"] = place_s;
    rec.layer["apps.tree_s"] = all.elapsed();
  }

  std::uint32_t nodes_;
  rt::RuntimeConfig rcfg_;
  exec::BackendKind backend_;
  std::uint32_t inputs_;
  std::uint32_t cells_;
  std::vector<std::unique_ptr<apps::barnes::BarnesApp>> apps_;
  std::vector<std::vector<apps::barnes::BarnesApp::SeqStep>> oracle_;
  std::mutex refs_mu_;
  std::vector<Ref> refs_;
};

// --- em3d -------------------------------------------------------------

// em3d on 64 simulated nodes of 1024 E + 1024 H nodes each, DPA(50), on
// the native worker pool (one operation in flight spreads over the pool).
class Em3dWorkload : public Workload {
 public:
  double setup(std::uint64_t seed, SpanLog* spans) override {
    apps::em3d::Em3dConfig cfg;
    cfg.e_per_node = 1024;
    cfg.h_per_node = 1024;
    cfg.degree = 8;
    cfg.remote_prob = 0.2;
    cfg.iters = 4;
    cfg.seed = seed * 1000003u;
    double build_s = 0;
    {
      ScopedSpan s(spans, "setup.build", 0, 0);
      app_ = std::make_unique<apps::em3d::Em3dApp>(cfg, 64);
      build_s = s.elapsed();
    }
    ScopedSpan s(spans, "setup.oracle", 0, 0);
    oracle_ = app_->run_sequential();
    return build_s;
  }

  std::uint32_t inputs() const override { return 1; }
  std::uint32_t cells() const override { return 1; }
  exec::BackendKind backend() const override {
    return exec::BackendKind::kNative;
  }

  void run_op(std::uint32_t, OpCtx& ctx, OpRecord& rec) override {
    apps::em3d::Em3dRun run;
    {
      ScopedSpan s(ctx.spans, "op.run", ctx.op, ctx.tid);
      run = app_->run(sim::NetParams{}, rt::RuntimeConfig::dpa(50),
                      ctx.session, exec::BackendKind::kNative);
      rec.wall_s = s.elapsed();
    }
    // Dependency edges relaxed: every edge once per E/H round.
    rec.work = double(app_->total_edges()) * double(app_->config().iters);
    for (const auto& st : run.steps) rec.events += st.phase.sim_events;
    {
      ScopedSpan s(ctx.spans, "op.check", ctx.op, ctx.tid);
      check(run, rec);
    }
    if (ctx.session == nullptr) return;
    ScopedSpan s(ctx.spans, "op.seq", ctx.op, ctx.tid);
    (void)app_->run_sequential();
    rec.layer["apps.seq_s"] = s.elapsed();
  }

 private:
  void check(const apps::em3d::Em3dRun& run, OpRecord& rec) const {
    rec.ok = false;
    if (!run.all_completed() ||
        run.steps.size() != 2 * std::size_t(app_->config().iters)) {
      rec.why = "phase not completed";
      return;
    }
    auto within = [](const std::vector<double>& got,
                     const std::vector<double>& want) {
      if (got.size() != want.size()) return false;
      for (std::size_t i = 0; i < got.size(); ++i)
        if (!near(got[i], want[i], 1e-12)) return false;
      return true;
    };
    if (!within(run.e_values, oracle_.e_values) ||
        !within(run.h_values, oracle_.h_values)) {
      rec.why = "field values outside 1e-12 of run_sequential()";
      return;
    }
    rec.ok = true;
  }

  std::unique_ptr<apps::em3d::Em3dApp> app_;
  apps::em3d::Em3dApp::SeqResult oracle_;
};

// --- workload table -----------------------------------------------------

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint32_t ncpu) {
  if (name == "bh-sim-dpa") {
    // Independent simulator cells, one per core, cycling through 4 inputs.
    return std::make_unique<BarnesWorkload>(16, rt::RuntimeConfig::dpa(50),
                                            exec::BackendKind::kSim, 4, ncpu);
  }
  if (name == "em3d-native-dpa") {
    exec::NativeBackend::Tuning tuning;
    tuning.workers = ncpu;
    exec::NativeBackend::set_default_tuning(tuning);
    return std::make_unique<Em3dWorkload>();
  }
  if (name == "bh-proc-caching") {
    // 2 worker processes x 2 pool workers each (the pool each worker
    // process runs takes the process-wide native default). One operation
    // in flight cycles through 4 inputs: a single Plummer input's
    // interaction count moves by up to 8% from seed to seed, and averaging
    // four keeps that out of the seed-to-seed spread.
    exec::ProcBackend::Config pc;
    pc.procs = 2;
    exec::ProcBackend::set_default_config(pc);
    exec::NativeBackend::Tuning tuning;
    tuning.workers = 2;
    exec::NativeBackend::set_default_tuning(tuning);
    return std::make_unique<BarnesWorkload>(8, rt::RuntimeConfig::caching(),
                                            exec::BackendKind::kProc, 4, 1);
  }
  return nullptr;
}

const char* backend_name(exec::BackendKind kind) {
  switch (kind) {
    case exec::BackendKind::kSim:
      return "sim";
    case exec::BackendKind::kNative:
      return "native";
    case exec::BackendKind::kProc:
      return "proc";
  }
  return "unknown";
}

// Sum of a histogram's samples, each taken at its bucket's midpoint (1 for
// bucket 0, which counts samples <= 1; 0.75 * 2^i for (2^(i-1), 2^i]): an
// estimate, since the buckets keep no sums.
double hist_sum_estimate(const Pow2Histogram& h) {
  double sum = 0;
  for (std::size_t i = 0; i < h.num_buckets(); ++i)
    sum += double(h.bucket(i)) * (i == 0 ? 1.0 : 0.75 * std::ldexp(1.0, int(i)));
  return sum;
}

void write_histogram(JsonWriter& w, const std::string& name,
                     const Pow2Histogram& h) {
  auto o = w.obj(name);
  w.field("count", std::uint64_t(h.count()));
  w.field("p50", std::uint64_t(h.quantile_bound(0.50)));
  w.field("p99", std::uint64_t(h.quantile_bound(0.99)));
  const double sum = hist_sum_estimate(h);
  w.field("sum", sum);
  w.field("mean", h.count() ? sum / double(h.count()) : 0.0);
}

void write_record(JsonWriter& w, const OpRecord& r) {
  auto o = w.obj();
  w.field("tid", std::uint64_t(r.tid));
  w.field("input", std::uint64_t(r.input));
  w.field("warmup", r.warmup);
  w.field("traced", r.traced);
  w.field("ok", r.ok);
  if (!r.ok) w.field("why", r.why);
  w.field("wall_s", r.wall_s);
  w.field("cpu_s", r.cpu_s);
  w.field("calib_s", r.calib_s);
  w.field("work", r.work);
  w.field("model_s", r.model_s);
  w.field("events", std::uint64_t(r.events));
  if (!r.layer.empty()) {
    auto l = w.obj("layer");
    for (const auto& [k, v] : r.layer) w.field(k, v);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::uint64_t trace_flag = 0;
  std::string trace_out;
  Options opts;
  opts.str("workload", &workload_name,
           "bh-sim-dpa | em3d-native-dpa | bh-proc-caching")
      .u64("seed", &seed, "input seed")
      .f64("seconds", &seconds, "measurement window in seconds")
      .u64("trace", &trace_flag, "1 = traced run (per-layer records)")
      .str("trace-out", &trace_out, "Chrome trace of the benchmark's spans");
  if (!opts.parse(argc, argv)) return 0;
  const bool trace = trace_flag != 0;

  const std::uint32_t ncpu = host_cpus();
  std::unique_ptr<Workload> wl = make_workload(workload_name, ncpu);
  if (wl == nullptr) {
    std::fprintf(stderr, "perfbench_driver: unknown workload '%s'\n",
                 workload_name.c_str());
    return 2;
  }

  // Set up at least 10 times and for at least 3 seconds in all, each
  // repeat preceded by the calibration probe (a short set-up is otherwise
  // dominated by host noise); run.py reports the median. The last set-up
  // is the one operations run on.
  std::vector<SpanLog> spans(wl->cells());
  SpanLog* setup_spans = trace ? &spans[0] : nullptr;
  std::vector<double> setup_s, setup_calib_s, build_s;
  const double setup_start = now_s();
  while (setup_s.size() < 10 ||
         (now_s() - setup_start < 3.0 && setup_s.size() < 200)) {
    setup_calib_s.push_back(calibration_probe(kSetupProbeChunk));
    const double t0 = now_s();
    build_s.push_back(wl->setup(seed, setup_spans));
    setup_s.push_back(now_s() - t0);
  }

  const std::uint32_t cells = wl->cells();
  std::vector<std::vector<OpRecord>> records(cells);
  std::atomic<std::uint64_t> next_op{1};
  double window_start = 0;
  std::vector<double> last_end(cells, 0.0);

  auto one_op = [&](std::uint32_t tid, std::uint32_t input, bool warmup,
                    bool traced) {
    OpRecord rec;
    rec.tid = tid;
    rec.input = input;
    rec.warmup = warmup;
    rec.traced = traced;
    OpCtx ctx;
    ctx.tid = tid;
    ctx.op = next_op.fetch_add(1);
    ctx.spans = trace ? &spans[tid] : nullptr;
    std::unique_ptr<obs::Session> session;
    if (traced) {
      session = std::make_unique<obs::Session>();
      ctx.session = session.get();
    }
    // A single cell in flight owns the whole process, so process CPU
    // (reaped children included) is the operation's CPU; concurrent cells
    // each run on one thread.
    const bool per_thread = cells > 1;
    const double c0 = per_thread ? thread_cpu_s() : process_cpu_s();
    wl->run_op(input, ctx, rec);
    rec.cpu_s = (per_thread ? thread_cpu_s() : process_cpu_s()) - c0;
    if (!warmup)
      rec.calib_s = per_thread ? calibration_probe() : calibrate_all_cores(ncpu);
    if (traced) {
      std::lock_guard<std::mutex> lock(wl->hists_mu);
      harvest_session(*session, rec, wl->hists);
    }
    records[tid].push_back(std::move(rec));
  };
  // One untimed, checked operation per cell, which also pins each
  // deterministic input's reference values. It runs no probe, so the peak
  // RSS read after the warm-ups is the program's own: the window repeats
  // the same operations on the same inputs.
  auto warmup = [&](std::uint32_t tid) {
    one_op(tid, tid % wl->inputs(), /*warmup=*/true, /*traced=*/false);
  };
  // Closed loop: the next operation starts when the previous one ends,
  // until the window closes.
  auto measure = [&](std::uint32_t tid) {
    const std::uint32_t k = wl->inputs();
    const double deadline = window_start + seconds;
    for (std::uint64_t j = 0; now_s() < deadline; ++j) {
      const bool traced = trace && (j % 2 == 1);
      one_op(tid, std::uint32_t((tid + j) % k), false, traced);
      last_end[tid] = now_s();
    }
  };

  CpuTicks ticks0, ticks1;
  double peak_mb = 0;
  if (cells == 1) {
    // Inline on the main thread: the multi-process backend forks, and a
    // single cell needs no helper threads.
    warmup(0);
    peak_mb = peak_rss_mb();
    ticks0 = read_cpu_ticks();
    window_start = now_s();
    measure(0);
  } else {
    std::latch warmed(cells);
    std::latch go(1);
    std::vector<std::thread> threads;
    for (std::uint32_t t = 0; t < cells; ++t) {
      threads.emplace_back([&, t] {
        warmup(t);
        warmed.count_down();
        go.wait();
        measure(t);
      });
    }
    warmed.wait();
    peak_mb = peak_rss_mb();
    ticks0 = read_cpu_ticks();
    window_start = now_s();
    go.count_down();
    for (auto& th : threads) th.join();
  }
  ticks1 = read_cpu_ticks();
  const double window_s =
      *std::max_element(last_end.begin(), last_end.end()) - window_start;
  const double steal_frac =
      ticks1.total > ticks0.total
          ? double(ticks1.steal - ticks0.steal) /
                double(ticks1.total - ticks0.total)
          : 0.0;

  JsonWriter w;
  {
    auto root = w.obj();
    w.field("workload", workload_name);
    w.field("backend", backend_name(wl->backend()));
    w.field("seed", std::uint64_t(seed));
    w.field("cells", std::uint64_t(cells));
    w.field("inputs", std::uint64_t(wl->inputs()));
    w.field("nproc", std::uint64_t(ncpu));
    w.field("cpu_model", cpu_model());
    w.field("steal_frac", steal_frac);
    w.field("window_s", window_s);
    w.field("peak_rss_mb", peak_mb);
    {
      auto a = w.arr("setup_s");
      for (double v : setup_s) w.value(v);
    }
    {
      auto a = w.arr("setup_calib_s");
      for (double v : setup_calib_s) w.value(v);
    }
    {
      auto a = w.arr("build_s");
      for (double v : build_s) w.value(v);
    }
    {
      auto a = w.arr("ops");
      for (const auto& per_cell : records)
        for (const OpRecord& r : per_cell) write_record(w, r);
    }
    {
      auto h = w.obj("histograms");
      for (const auto& [name, hist] : wl->hists)
        write_histogram(w, name, hist);
    }
  }
  std::printf("%s\n", w.str().c_str());

  if (trace && !trace_out.empty()) {
    std::vector<Span> all;
    for (auto& log : spans) all.insert(all.end(), log.begin(), log.end());
    std::sort(all.begin(), all.end(),
              [](const Span& a, const Span& b) { return a.t0 < b.t0; });
    write_chrome_trace(trace_out, all);
  }
  return 0;
}
