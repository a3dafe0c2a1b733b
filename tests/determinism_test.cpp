// Determinism snapshots: two runs with the same seeds must be perfect
// replicas all the way out to the observability layer — byte-identical
// `dpa.metrics.v1` JSON snapshots and identical trace-event counts. This is
// what makes fault-injection runs debuggable: any chaos run can be replayed
// exactly by rerunning with the same --fault-seed.
//
// The grid below also locks down the host-parallel sweep driver: every
// (engine x app) cell is a self-contained single-threaded simulation, so
// running the grid on a `--jobs=4` worker pool must produce byte-for-byte
// the same snapshots as running it serially in index order.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "apps/barnes/app.h"
#include "apps/em3d/em3d.h"
#include "apps/fmm/app.h"
#include "apps/olden/perimeter.h"
#include "apps/olden/power.h"
#include "apps/olden/treeadd.h"
#include "compiler/interp.h"
#include "compiler/parser.h"
#include "compiler/partition.h"
#include "exec/backend.h"
#include "exec/native_backend.h"
#include "exec/proc_backend.h"
#include "obs/session.h"
#include "runtime/config.h"
#include "sim/fault.h"
#include "sim/network.h"
#include "support/parallel.h"
#include "support/rng.h"

namespace dpa {
namespace {

sim::NetParams net(bool faulty) {
  sim::NetParams p;
  p.send_overhead = 400;
  p.recv_overhead = 500;
  p.latency = 1200;
  p.ns_per_byte = 3.0;
  p.nic_serialize = true;
  if (faulty) {
    p.faults = sim::FaultPlan::parse("chaos,drop=0.06,seed=99");
  }
  return p;
}

// One instrumented em3d run; returns (metrics snapshot, trace event count).
std::pair<std::string, std::uint64_t> run_once(bool faulty) {
  apps::em3d::Em3dConfig cfg;
  cfg.e_per_node = 192;
  cfg.h_per_node = 192;
  cfg.remote_prob = 0.3;
  const apps::em3d::Em3dApp app(cfg, 4);
  obs::Session session;
  const auto run =
      app.run(net(faulty), rt::RuntimeConfig::dpa(64), &session);
  EXPECT_TRUE(run.all_completed());
  return {session.metrics.to_json(), session.tracer.recorded()};
}

TEST(Determinism, MetricsSnapshotsAreByteIdentical) {
  const auto a = run_once(/*faulty=*/false);
  const auto b = run_once(/*faulty=*/false);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(Determinism, FaultedRunsReplayByteIdentically) {
  const auto a = run_once(/*faulty=*/true);
  const auto b = run_once(/*faulty=*/true);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(Determinism, FaultsActuallyPerturbTheRun) {
  // Guard against the two cases above passing vacuously: the faulted
  // snapshot must differ from the clean one (retry counters, fault
  // counters, timings all move).
  const auto clean = run_once(/*faulty=*/false);
  const auto faulted = run_once(/*faulty=*/true);
  EXPECT_NE(clean.first, faulted.first);
}

// ---------- full engine x app grid ----------

rt::RuntimeConfig engine_config(std::size_t which) {
  switch (which) {
    case 0: return rt::RuntimeConfig::dpa(32);
    case 1: return rt::RuntimeConfig::caching();
    case 2: return rt::RuntimeConfig::blocking();
    default: return rt::RuntimeConfig::prefetching(8);
  }
}

constexpr std::size_t kEngines = 4;
constexpr std::size_t kApps = 6;  // barnes, fmm, em3d, treeadd, power, perim
// The physics grid adds the compiled list walk and tree walk.
constexpr std::size_t kPhysicsApps = kApps + 2;

// Packs doubles byte-for-byte: equality of these strings is bit-identity of
// the physics, not approximate agreement.
void append_doubles(std::string& out, const double* p, std::size_t n) {
  out.append(reinterpret_cast<const char*>(p), n * sizeof(double));
}

// One (engine, app) cell: fresh apps + cluster + private obs::Session, so
// cells share no mutable state and can run on any host thread. The first
// three apps snapshot the metrics registry; the Olden kernels (which report
// no metrics) snapshot their physics outputs byte-for-byte instead.
std::string run_cell(std::size_t index) {
  const std::size_t engine = index / kApps;
  const std::size_t app = index % kApps;
  const auto rcfg = engine_config(engine);
  obs::Session session;
  switch (app) {
    case 0: {
      apps::barnes::BarnesConfig cfg;
      cfg.nbodies = 256;
      const apps::barnes::BarnesApp bh(cfg);
      const auto run = bh.run(4, net(false), rcfg, &session);
      EXPECT_FALSE(run.steps.empty());
      break;
    }
    case 1: {
      apps::fmm::FmmConfig cfg;
      cfg.nparticles = 256;
      cfg.terms = 4;
      const apps::fmm::FmmApp fmm(cfg);
      const auto run = fmm.run(4, net(false), rcfg, &session);
      EXPECT_FALSE(run.steps.empty());
      break;
    }
    case 2: {
      apps::em3d::Em3dConfig cfg;
      cfg.e_per_node = 128;
      cfg.h_per_node = 128;
      cfg.remote_prob = 0.3;
      const apps::em3d::Em3dApp em(cfg, 4);
      const auto run = em.run(net(false), rcfg, &session);
      EXPECT_TRUE(run.all_completed());
      break;
    }
    case 3: {
      apps::olden::TreeAddConfig cfg;
      cfg.depth = 9;
      const apps::olden::TreeAddApp app_(cfg, 4);
      const auto r = app_.run(net(false), rcfg);
      EXPECT_TRUE(r.phase.completed);
      std::string snap;
      append_doubles(snap, &r.sum, 1);
      const double elapsed = double(r.phase.elapsed);
      append_doubles(snap, &elapsed, 1);
      return snap;
    }
    case 4: {
      apps::olden::PowerConfig cfg;
      cfg.feeders = 4;
      cfg.laterals = 4;
      const apps::olden::PowerApp app_(cfg, 4);
      const auto r = app_.run(net(false), rcfg);
      EXPECT_TRUE(r.all_completed());
      std::string snap;
      append_doubles(snap, r.branch_prices.data(), r.branch_prices.size());
      append_doubles(snap, &r.final_root_demand, 1);
      return snap;
    }
    default: {
      apps::olden::PerimeterConfig cfg;
      cfg.log_size = 5;
      const apps::olden::PerimeterApp app_(cfg, 4);
      const auto r = app_.run(net(false), rcfg);
      EXPECT_TRUE(r.phase.completed);
      EXPECT_EQ(r.perimeter, r.expected);
      std::string snap;
      const double per = double(r.perimeter);
      const double elapsed = double(r.phase.elapsed);
      append_doubles(snap, &per, 1);
      append_doubles(snap, &elapsed, 1);
      return snap;
    }
  }
  return session.metrics.to_json();
}

std::vector<std::string> run_grid(std::size_t jobs) {
  std::vector<std::string> snaps(kEngines * kApps);
  parallel_for_cells(jobs, snaps.size(),
                     [&](std::size_t i) { snaps[i] = run_cell(i); });
  return snaps;
}

TEST(Determinism, AllEnginesAllAppsSnapshotIdenticallyAcrossRuns) {
  const auto a = run_grid(/*jobs=*/1);
  const auto b = run_grid(/*jobs=*/1);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "engine " << i / kApps << " app " << i % kApps;
    EXPECT_FALSE(a[i].empty());
  }
  // Engines really differ from each other on the same app (non-vacuous).
  EXPECT_NE(a[0], a[kApps]);  // dpa vs caching on barnes
}

// ---------- sim vs native physics equivalence ----------
//
// The Backend refactor's headline claim: the same program computes the same
// bits whether the substrate is the discrete-event simulator or real host
// threads. DPA runs in deterministic mode (in-order tile dispatch); the
// sync/prefetch engines consume in program order already; remote
// accumulations commit in (src, seq) order at the phase barrier. Together
// those make floating-point accumulation order a function of the program,
// not of message timing — so the physics must match byte-for-byte.

rt::RuntimeConfig equivalence_config(std::size_t which) {
  switch (which) {
    case 0: return rt::RuntimeConfig::dpa_deterministic(32);
    case 1: return rt::RuntimeConfig::caching();
    case 2: return rt::RuntimeConfig::blocking();
    default: return rt::RuntimeConfig::prefetching(8);
  }
}

// The compiled programs: IR source partitioned into thread templates and
// run by compiler::ProgramRunner. The list walk splits at a foreign peer
// dereference; the tree walk branches and spawns per child.
constexpr const char* kCompiledListSource = R"(
class Node { scalar val; ptr next : Node; ptr peer : Node; }
fn walk(n : Node) {
  v = n->val;
  pr = n->peer;
  nx = n->next;
  charge 100;
  pv = pr->val;
  sum += v * pv;
  spawn walk(nx);
}
)";

constexpr const char* kCompiledTreeSource = R"(
class Tree { scalar val; scalar leaf; ptr l : Tree; ptr r : Tree; }
fn walk(t : Tree) {
  v = t->val;
  leaf = t->leaf;
  if (leaf > 0.5) {
    sum += v;
    charge 200;
  } else {
    sum += 0.5 * v;
    charge 50;
    spawn_children walk(t);
  }
}
)";

using RecordPtr = gas::GPtr<compiler::Record>;

RecordPtr place(rt::Cluster& cluster, Rng& rng, compiler::Record r) {
  return cluster.heap.make<compiler::Record>(
      sim::NodeId(rng.next_below(cluster.num_nodes())), std::move(r));
}

RecordPtr build_list(rt::Cluster& cluster, const compiler::Module& m,
                     Rng& rng, int len) {
  std::vector<RecordPtr> nodes;
  for (int i = 0; i < len; ++i) {
    compiler::Record r = compiler::make_record(m, "Node");
    r.scalars[0] = rng.uniform(0, 1);
    nodes.push_back(place(cluster, rng, std::move(r)));
  }
  for (int i = 0; i < len; ++i) {
    auto* mut = gas::GlobalHeap::mutate(nodes[std::size_t(i)]);
    if (i + 1 < len) mut->ptrs[0] = nodes[std::size_t(i + 1)];
    mut->ptrs[1] = nodes[rng.next_below(std::uint64_t(len))];
  }
  return nodes[0];
}

RecordPtr build_tree(rt::Cluster& cluster, const compiler::Module& m,
                     Rng& rng, int depth) {
  compiler::Record r = compiler::make_record(m, "Tree");
  r.scalars[0] = rng.uniform(0, 10);
  r.scalars[1] = depth == 0 ? 1.0 : 0.0;
  const RecordPtr self = place(cluster, rng, std::move(r));
  if (depth > 0) {
    auto* mut = gas::GlobalHeap::mutate(self);
    mut->ptrs[0] = build_tree(cluster, m, rng, depth - 1);
    if (rng.chance(0.8)) mut->ptrs[1] = build_tree(cluster, m, rng, depth - 1);
  }
  return self;
}

// One compiled program, one root per node. The reduced accumulator must
// match direct interpretation on the host (up to reassociation) and is the
// cell's snapshot.
std::string compiled_snapshot(bool tree, const rt::RuntimeConfig& rcfg,
                              exec::BackendKind backend) {
  const compiler::Module m =
      compiler::parse_module(tree ? kCompiledTreeSource : kCompiledListSource);
  const compiler::ThreadProgram program = compiler::partition(m);
  rt::Cluster cluster(4, backend, net(false));
  Rng rng(tree ? 7 : 5);
  std::vector<std::vector<RecordPtr>> roots(cluster.num_nodes());
  compiler::Accums direct;
  for (auto& mine : roots) {
    mine.push_back(tree ? build_tree(cluster, m, rng, 6)
                        : build_list(cluster, m, rng, 48));
    compiler::interp_direct(m, "walk", mine[0].addr, direct);
  }
  const auto result = compiler::ProgramRunner(m, program)
                          .run(cluster, rcfg, "walk", std::move(roots));
  EXPECT_TRUE(result.phase.completed) << result.phase.diagnostics;
  const double sum = result.accums.at("sum");
  EXPECT_NEAR(sum, direct["sum"], 1e-9 * std::abs(direct["sum"]));
  std::string snap;
  append_doubles(snap, &sum, 1);
  return snap;
}

std::string physics_snapshot(std::size_t engine, std::size_t app,
                             exec::BackendKind backend) {
  const auto rcfg = equivalence_config(engine);
  std::string snap;
  switch (app) {
    case 0: {
      apps::barnes::BarnesConfig cfg;
      cfg.nbodies = 192;
      cfg.nsteps = 2;
      const apps::barnes::BarnesApp bh(cfg);
      const auto run = bh.run(4, net(false), rcfg, nullptr, backend);
      EXPECT_TRUE(run.all_completed());
      for (const auto& b : run.final_bodies) {
        append_doubles(snap, &b.pos.x, 3);
        append_doubles(snap, &b.vel.x, 3);
        append_doubles(snap, &b.acc.x, 3);
      }
      break;
    }
    case 1: {
      apps::fmm::FmmConfig cfg;
      cfg.nparticles = 192;
      cfg.terms = 4;
      const apps::fmm::FmmApp fmm(cfg);
      const auto run = fmm.run(4, net(false), rcfg, nullptr, backend);
      EXPECT_TRUE(run.all_completed());
      for (const auto& p : run.final_particles) {
        const double vals[6] = {p.z.real(),     p.z.imag(),
                                p.vel.real(),   p.vel.imag(),
                                p.force.real(), p.force.imag()};
        append_doubles(snap, vals, 6);
      }
      break;
    }
    case 2: {
      apps::em3d::Em3dConfig cfg;
      cfg.e_per_node = 128;
      cfg.h_per_node = 128;
      cfg.remote_prob = 0.3;
      cfg.iters = 2;
      const apps::em3d::Em3dApp em(cfg, 4);
      const auto run = em.run(net(false), rcfg, nullptr, backend);
      EXPECT_TRUE(run.all_completed());
      append_doubles(snap, run.e_values.data(), run.e_values.size());
      append_doubles(snap, run.h_values.data(), run.h_values.size());
      break;
    }
    // The Olden kernels also check their oracles: a result the backend
    // loses (say, a per-node partial a worker process never ships home)
    // would otherwise be identical across engines and pass the grid.
    case 3: {
      apps::olden::TreeAddConfig cfg;
      cfg.depth = 9;
      const apps::olden::TreeAddApp app_(cfg, 4);
      const auto r = app_.run(net(false), rcfg, backend);
      EXPECT_TRUE(r.phase.completed);
      EXPECT_NEAR(r.sum, r.expected, 1e-9 * r.expected);
      append_doubles(snap, &r.sum, 1);
      break;
    }
    case 4: {
      apps::olden::PowerConfig cfg;
      cfg.feeders = 4;
      cfg.laterals = 4;
      const apps::olden::PowerApp app_(cfg, 4);
      const auto r = app_.run(net(false), rcfg, backend);
      EXPECT_TRUE(r.all_completed());
      const double oracle = app_.run_sequential().final_root_demand;
      EXPECT_NEAR(r.final_root_demand, oracle, 1e-9 * oracle);
      append_doubles(snap, r.branch_prices.data(), r.branch_prices.size());
      append_doubles(snap, &r.final_root_demand, 1);
      break;
    }
    case 5: {
      apps::olden::PerimeterConfig cfg;
      cfg.log_size = 5;
      const apps::olden::PerimeterApp app_(cfg, 4);
      const auto r = app_.run(net(false), rcfg, backend);
      EXPECT_TRUE(r.phase.completed);
      EXPECT_EQ(r.perimeter, r.expected);
      const double per = double(r.perimeter);
      append_doubles(snap, &per, 1);
      break;
    }
    case 6:
      snap = compiled_snapshot(/*tree=*/false, rcfg, backend);
      break;
    default:
      snap = compiled_snapshot(/*tree=*/true, rcfg, backend);
      break;
  }
  EXPECT_FALSE(snap.empty());
  return snap;
}

TEST(SimVsNative, PhysicsAreByteIdenticalForEveryEngineAndApp) {
  for (std::size_t engine = 0; engine < kEngines; ++engine) {
    for (std::size_t app = 0; app < kPhysicsApps; ++app) {
      const std::string sim =
          physics_snapshot(engine, app, exec::BackendKind::kSim);
      const std::string native =
          physics_snapshot(engine, app, exec::BackendKind::kNative);
      EXPECT_EQ(sim, native) << "engine " << engine << " app " << app;
    }
  }
}

TEST(SimVsNative, OversubscribedEm3dIsByteIdenticalAt64Nodes) {
  // 64 native workers on a CPU-constrained runner: deliveries ride message
  // trains, idle workers park, and the sharded quiescence scan terminates
  // the phases — none of which may perturb a single bit of physics relative
  // to the discrete-event simulator.
  apps::em3d::Em3dConfig cfg;
  cfg.e_per_node = 8;
  cfg.h_per_node = 8;
  cfg.remote_prob = 0.5;
  cfg.iters = 2;
  const apps::em3d::Em3dApp em(cfg, 64);
  for (std::size_t engine = 0; engine < kEngines; ++engine) {
    const auto rcfg = equivalence_config(engine);
    const auto sim =
        em.run(net(false), rcfg, nullptr, exec::BackendKind::kSim);
    const auto native =
        em.run(net(false), rcfg, nullptr, exec::BackendKind::kNative);
    ASSERT_TRUE(sim.all_completed() && native.all_completed())
        << "engine " << engine;
    std::string a, b;
    append_doubles(a, sim.e_values.data(), sim.e_values.size());
    append_doubles(a, sim.h_values.data(), sim.h_values.size());
    append_doubles(b, native.e_values.data(), native.e_values.size());
    append_doubles(b, native.h_values.data(), native.h_values.size());
    EXPECT_EQ(a, b) << "engine " << engine;
  }
}

TEST(SimVsNative, WorkerPoolSizeNeverPerturbsPhysics) {
  // The M:N scheduler's determinism claim quantified over the pool size:
  // the same 64-node em3d program must compute the same bits whether one
  // worker multiplexes all 64 nodes, a handful of workers steal from each
  // other, or the pool matches the host core count (--workers=0). The sim
  // oracle is computed once per engine; every pool size is compared
  // byte-for-byte against it.
  apps::em3d::Em3dConfig cfg;
  cfg.e_per_node = 8;
  cfg.h_per_node = 8;
  cfg.remote_prob = 0.5;
  cfg.iters = 2;
  const apps::em3d::Em3dApp em(cfg, 64);
  const std::uint32_t worker_axis[] = {1, 2, 4, 0};  // 0 = one per core
  for (std::size_t engine = 0; engine < kEngines; ++engine) {
    const auto rcfg = equivalence_config(engine);
    const auto sim =
        em.run(net(false), rcfg, nullptr, exec::BackendKind::kSim);
    ASSERT_TRUE(sim.all_completed()) << "engine " << engine;
    std::string oracle;
    append_doubles(oracle, sim.e_values.data(), sim.e_values.size());
    append_doubles(oracle, sim.h_values.data(), sim.h_values.size());
    for (const std::uint32_t workers : worker_axis) {
      exec::NativeBackend::Tuning tuning;
      tuning.workers = workers;
      exec::ScopedDefaultTuning guard(tuning);
      const auto native =
          em.run(net(false), rcfg, nullptr, exec::BackendKind::kNative);
      ASSERT_TRUE(native.all_completed())
          << "engine " << engine << " workers " << workers;
      std::string got;
      append_doubles(got, native.e_values.data(), native.e_values.size());
      append_doubles(got, native.h_values.data(), native.h_values.size());
      EXPECT_EQ(oracle, got) << "engine " << engine << " workers " << workers;
    }
  }
}

// ---------- sim vs native vs proc: the three-way oracle ----------
//
// The multi-process backend's headline claim, extending SimVsNative: the
// same program computes the same bits whether it runs on the simulator,
// on one process full of threads, or partitioned across worker *processes*
// that exchange encoded frames over socketpairs. Remote accumulations
// commit (src, seq)-sorted in the owning worker; replies carry fork-time
// (= phase-start) object state; span merges are disjoint by ownership.

// Sets the process-wide ProcBackend config for a scope, restoring the
// previous default on exit (mirrors exec::ScopedDefaultTuning).
class ScopedProcConfig {
 public:
  explicit ScopedProcConfig(const exec::ProcBackend::Config& cfg)
      : saved_(exec::ProcBackend::default_config()) {
    exec::ProcBackend::set_default_config(cfg);
  }
  ~ScopedProcConfig() { exec::ProcBackend::set_default_config(saved_); }

 private:
  exec::ProcBackend::Config saved_;
};

TEST(ProcEquivalence, PhysicsAreByteIdenticalAcrossAllThreeBackends) {
  exec::ProcBackend::Config cfg;
  cfg.procs = 2;
  const ScopedProcConfig guard(cfg);
  for (std::size_t engine = 0; engine < kEngines; ++engine) {
    for (std::size_t app = 0; app < kPhysicsApps; ++app) {
      const std::string sim =
          physics_snapshot(engine, app, exec::BackendKind::kSim);
      const std::string native =
          physics_snapshot(engine, app, exec::BackendKind::kNative);
      const std::string proc =
          physics_snapshot(engine, app, exec::BackendKind::kProc);
      EXPECT_EQ(sim, native) << "engine " << engine << " app " << app;
      EXPECT_EQ(sim, proc) << "engine " << engine << " app " << app;
    }
  }
}

TEST(ProcEquivalence, ProcessCountNeverPerturbsPhysics) {
  // Quantified over the partition: 8-node em3d must compute the same bits
  // whether one process owns all nodes, or they are split 2/4/8 ways (8 =
  // every node its own process, maximum cross-process traffic).
  apps::em3d::Em3dConfig cfg;
  cfg.e_per_node = 32;
  cfg.h_per_node = 32;
  cfg.remote_prob = 0.5;
  cfg.iters = 2;
  const apps::em3d::Em3dApp em(cfg, 8);
  for (std::size_t engine = 0; engine < kEngines; ++engine) {
    const auto rcfg = equivalence_config(engine);
    const auto sim =
        em.run(net(false), rcfg, nullptr, exec::BackendKind::kSim);
    ASSERT_TRUE(sim.all_completed()) << "engine " << engine;
    std::string oracle;
    append_doubles(oracle, sim.e_values.data(), sim.e_values.size());
    append_doubles(oracle, sim.h_values.data(), sim.h_values.size());
    for (const std::uint32_t procs : {1u, 2u, 4u, 8u}) {
      exec::ProcBackend::Config pcfg;
      pcfg.procs = procs;
      const ScopedProcConfig guard(pcfg);
      const auto proc =
          em.run(net(false), rcfg, nullptr, exec::BackendKind::kProc);
      ASSERT_TRUE(proc.all_completed())
          << "engine " << engine << " procs " << procs;
      std::string got;
      append_doubles(got, proc.e_values.data(), proc.e_values.size());
      append_doubles(got, proc.h_values.data(), proc.h_values.size());
      EXPECT_EQ(oracle, got) << "engine " << engine << " procs " << procs;
    }
  }
}

TEST(Determinism, ParallelSweepMatchesSerialByteForByte) {
  // The sweep driver's contract: a --jobs=N pool computes exactly what the
  // serial loop computes. Each snapshot is byte-compared, not approximated.
  const auto serial = run_grid(/*jobs=*/1);
  const auto pooled = run_grid(/*jobs=*/4);
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], pooled[i])
        << "engine " << i / kApps << " app " << i % kApps;
  }
}

}  // namespace
}  // namespace dpa
