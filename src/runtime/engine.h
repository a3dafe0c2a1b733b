// Engine interface: what an application phase programs against, and what the
// three scheduling policies (DPA / caching / blocking) implement.
//
// The application expresses its computation as non-blocking threads — the
// form the paper's compiler produces. A thread is a continuation plus the
// global pointer it is labeled with:
//
//   ctx.require(cell_ptr, [=](Ctx& ctx, const Cell& cell) {
//     ctx.charge(interaction_cost);
//     ... read cell's fields, create more threads ...
//   });
//
// How `require` is satisfied is the engine's policy:
//   * DPA       — registers the thread in M[ptr]; tiles, pipelines,
//                 aggregates (the paper's contribution).
//   * caching   — hash-probe a software cache; blocking fetch on miss.
//   * blocking  — synchronous fetch on every remote access.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/backend.h"
#include "fm/fm.h"
#include "gas/global_ptr.h"
#include "gas/heap.h"
#include "obs/session.h"
#include "runtime/config.h"
#include "runtime/stats.h"
#include "sim/machine.h"
#include "support/arena.h"
#include "support/flat_map.h"
#include "support/inline_fn.h"

namespace dpa::rt {

using gas::GlobalRef;
using gas::GPtr;
using sim::NodeId;
using sim::Time;

class Ctx;

// A non-blocking thread body: runs to completion with its object available.
// Move-only with a 48-byte inline capture buffer — every thread creation in
// the timed phases stays allocation-free (the apps capture a couple of
// pointers; oversized captures still work via a heap fallback).
using ThreadFn = InlineFn<void(Ctx&, const void*), 48>;

// A commutative update applied to an object at its home node (the paper's
// "reductions" extension: remote writes that need no reply).
using AccumFn = InlineFn<void(void*), 48>;

// One node's share of a phase: a top-level conc loop of `count` iterations.
// `item(ctx, i)` creates the root thread(s) of iteration i. InlineFn like
// every other phase-hot callable; app captures that exceed the buffer fall
// back to one heap block per *phase*, not per message.
struct NodeWork {
  std::uint64_t count = 0;
  InlineFn<void(Ctx&, std::uint64_t), 64> item;
};

// Execution substrate + messaging + heap: everything an application needs
// to build and run a distributed pointer-based computation. The substrate
// is either the deterministic simulator (default) or the native threaded
// backend — apps and engines program against this struct either way.
struct Cluster {
  std::unique_ptr<exec::Backend> backend;
  gas::GlobalHeap heap;
  obs::Session* obs = nullptr;  // optional, non-owning

  Cluster(std::uint32_t num_nodes, sim::NetParams params)
      : Cluster(num_nodes, exec::BackendKind::kSim, params) {}

  Cluster(std::uint32_t num_nodes, exec::BackendKind kind,
          sim::NetParams params = sim::NetParams{})
      : backend(exec::make_backend(kind, num_nodes, params)),
        heap(num_nodes) {
    // Multi-process backends snapshot/diff registered memory spans at the
    // phase barrier; every global-heap object is such a span. No-op on
    // single-process backends.
    backend->set_span_source([h = &heap](std::vector<exec::PhaseSpan>& out) {
      for (const gas::GlobalHeap::Span& s : h->object_spans())
        out.push_back(exec::PhaseSpan{s.addr, s.bytes});
    });
  }

  std::uint32_t num_nodes() const { return backend->num_nodes(); }
  exec::Backend& exec() { return *backend; }
  const exec::Backend& exec() const { return *backend; }

  // Sim-only accessors for tests and harnesses that poke the simulator
  // directly (network stats, targeted fault injection, trace plumbing).
  sim::Machine& machine() {
    sim::Machine* m = backend->sim_machine();
    DPA_CHECK(m != nullptr) << "cluster is not on the sim backend";
    return *m;
  }
  fm::FmLayer& fm();

  // Attaches (or detaches, with nullptr) an observability session: the
  // machine and network report task/wire events into its tracer, engines
  // record structured events and histograms, and the phase runner publishes
  // per-phase totals into its metrics registry. In DPA_TRACE=OFF builds no
  // trace sink is ever hooked up; metrics publication still works. On the
  // native backend engines record into per-worker shards (one lock-free
  // ring + histogram set per worker, see obs/shard_sink.h) instead of the
  // single-threaded tracer ring.
  void attach_obs(obs::Session* session) {
    obs = session;
    if (sim::Machine* m = backend->sim_machine()) {
      m->set_trace(session != nullptr && obs::kTraceEnabled
                       ? &session->tracer
                       : nullptr);
    } else if (backend->supports_tracing()) {
      backend->attach_shards(session != nullptr && obs::kTraceEnabled
                                 ? session->ensure_shards(backend->num_nodes())
                                 : nullptr);
    }
  }
};

// A request or reply's ref list, sized to its message: exactly size() refs
// in one block of the sending node's ReturnPool, recycled from whichever
// thread drops the payload. Lists decoded off a process boundary have no
// pool and use the heap.
class RefList {
 public:
  RefList() = default;
  // `n` refs for the caller to fill through data().
  RefList(ReturnPool* pool, std::size_t n)
      : pool_(pool), size_(std::uint32_t(n)) {
    if (n == 0) return;
    data_ = static_cast<GlobalRef*>(
        pool != nullptr ? pool->allocate(bytes(), alignof(GlobalRef))
                        : ::operator new(bytes()));
  }
  RefList(ReturnPool* pool, std::span<const GlobalRef> refs)
      : RefList(pool, refs.size()) {
    std::copy(refs.begin(), refs.end(), data_);
  }

  RefList(RefList&& other) noexcept { take(other); }
  RefList& operator=(RefList&& other) noexcept {
    if (this != &other) {
      release();
      take(other);
    }
    return *this;
  }
  ~RefList() { release(); }

  GlobalRef* data() { return data_; }
  const GlobalRef* data() const { return data_; }
  std::size_t size() const { return size_; }
  const GlobalRef& operator[](std::size_t i) const { return data_[i]; }
  const GlobalRef* begin() const { return data_; }
  const GlobalRef* end() const { return data_ + size_; }

 private:
  std::size_t bytes() const { return std::size_t(size_) * sizeof(GlobalRef); }
  void take(RefList& other) {
    pool_ = other.pool_;
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  void release() {
    if (data_ == nullptr) return;
    if (pool_ != nullptr) {
      pool_->recycle(data_, bytes());
    } else {
      ::operator delete(data_);
    }
    data_ = nullptr;
  }

  ReturnPool* pool_ = nullptr;
  GlobalRef* data_ = nullptr;
  std::uint32_t size_ = 0;
};

// Wire payloads. The simulation shares one address space; `bytes` on the FM
// packet models the marshalled size. Every backend delivers each payload
// exactly once (see exec/backend.h), so they carry no sequence numbers.
struct ReqPayload {
  NodeId requester = 0;
  RefList refs;
};
struct ReplyPayload {
  RefList refs;
};
struct AccumPayload {
  // Per-sender accumulation sequence number: the receiver stages arriving
  // messages and commits them in (src, accum_seq) order at the phase
  // barrier, so floating-point reduction order is a function of the
  // program, not of message timing — the property that makes physics
  // byte-identical across the sim and native backends.
  std::uint64_t accum_seq = 0;
  std::vector<std::pair<GlobalRef, AccumFn>> items;
};

class EngineBase {
 public:
  // `pool` is the node's payload pool (owned by PhaseRunner beside the
  // node's phase arena it draws from, reset between runs): wire payloads
  // never touch the general-purpose allocator inside a timed phase. The
  // engines back their scheduling queues with the arena itself.
  EngineBase(Cluster& cluster, NodeId node, const RuntimeConfig& cfg,
             ReturnPool& pool, fm::HandlerId h_req, fm::HandlerId h_reply,
             fm::HandlerId h_accum);
  virtual ~EngineBase() = default;

  EngineBase(const EngineBase&) = delete;
  EngineBase& operator=(const EngineBase&) = delete;

  // Begins the node's conc loop; posts the first scheduler task.
  void start(NodeWork work);

  // Creates a thread dependent on `ref`; called from app code via Ctx.
  virtual void require(sim::Cpu& cpu, GlobalRef ref, ThreadFn thread) = 0;

  // Sends a commutative update to `ref`'s home (fire and forget). Local
  // homes apply immediately; the DPA engine batches remote ones per
  // destination alongside its request aggregation. No ordering guarantee
  // within a phase — updates must commute.
  virtual void accumulate(sim::Cpu& cpu, GlobalRef ref, AccumFn update);

  // Reply arrived for refs this node requested.
  virtual void on_reply(sim::Cpu& cpu, const ReplyPayload& reply) = 0;

  // True once the conc loop completed and all queues drained.
  virtual bool done() const = 0;

  // One-line state summary for deadlock diagnostics.
  virtual std::string state_dump() const = 0;

  // Home side: serve a request message (shared by all engines).
  void serve_request(sim::Cpu& cpu, const ReqPayload& req);

  // Home side: an accumulation message arrived. Charges the per-item apply
  // cost now (arrival-time costs are part of the model) but stages the
  // payload; the updates mutate their objects in commit_accums().
  void serve_accum(sim::Cpu& cpu, NodeId src,
                   std::shared_ptr<AccumPayload> payload);

  // Applies every staged accumulation in (src, accum_seq) order. Called by
  // the phase runner at the phase barrier, after global quiescence — the
  // deterministic half of the two-level reduction.
  void commit_accums();

  NodeId node_id() const { return node_; }
  Cluster& cluster() { return cluster_; }
  RtNodeStats& stats() { return stats_; }
  const RtNodeStats& stats() const { return stats_; }

 protected:
  // Posts a scheduler task if one is not already pending.
  void kick();
  // One scheduler task: processes up to cfg.poll_batch units.
  virtual void sched(sim::Cpu& cpu) = 0;

  // Sends a request for `refs` to their (common) home node. The refs are
  // copied into the payload, so the caller keeps its buffer.
  void send_request(sim::Cpu& cpu, NodeId home,
                    std::span<const GlobalRef> refs);

  // Runs one thread with its data; charges dispatch cost.
  void run_thread(sim::Cpu& cpu, const ThreadFn& fn, const void* data);

  // Sends one accumulation message with `items` to `home`.
  void send_accum(sim::Cpu& cpu, NodeId home,
                  std::vector<std::pair<GlobalRef, AccumFn>> items);

  // Allocates a wire payload: object and shared_ptr control block in one
  // block of this node's ReturnPool, recycled from whichever thread drops
  // the last reference.
  template <class Payload>
  std::shared_ptr<Payload> alloc_payload() {
    return std::allocate_shared<Payload>(
        ArenaAllocator<Payload, ReturnPool>(&pool_));
  }

  Cluster& cluster_;
  NodeId node_;
  const RuntimeConfig& cfg_;
  ReturnPool& pool_;
  fm::HandlerId h_req_;
  fm::HandlerId h_reply_;
  fm::HandlerId h_accum_;
  NodeWork work_;
  std::uint64_t next_root_ = 0;
  bool sched_pending_ = false;
  RtNodeStats stats_;

  // Observability handles, resolved once at construction (null when no
  // session is attached). trace_ is used through DPA_TRACE_EVT only; on the
  // sim backend it is the session tracer, on the native backend this
  // engine's worker shard (single-writer either way).
  obs::EventSink* trace_ = nullptr;
  Pow2Histogram* h_msg_bytes_ = nullptr;  // request/reply/accum wire sizes

 private:
  // Outgoing accumulation-message sequence (stamped into accum_seq) and
  // the home-side staging buffer for the two-level reduction.
  struct StagedAccum {
    NodeId src = 0;
    std::uint64_t seq = 0;
    std::shared_ptr<AccumPayload> payload;
  };
  std::uint64_t accum_seq_next_ = 0;
  std::vector<StagedAccum> staged_accums_;
};

// The per-thread execution context: thin wrapper over the node Cpu plus the
// engine, giving app code `charge` and `require`.
class Ctx {
 public:
  Ctx(EngineBase& engine, sim::Cpu& cpu) : engine_(engine), cpu_(cpu) {}

  NodeId node() const { return engine_.node_id(); }
  std::uint32_t num_nodes() const;

  // Charges application compute time.
  void charge(Time ns) { cpu_.charge(ns, sim::Work::kCompute); }

  // Creates a thread labeled with `ref`.
  void require(GlobalRef ref, ThreadFn thread) {
    engine_.require(cpu_, ref, std::move(thread));
  }

  // Typed convenience wrapper.
  template <class T, class F>
  void require(GPtr<T> ptr, F&& fn) {
    require_bytes(ptr, sizeof(T), std::forward<F>(fn));
  }

  // As `require`, but models a marshalled size different from sizeof(T)
  // (e.g. an expansion truncated to the configured number of terms).
  template <class T, class F>
  void require_bytes(GPtr<T> ptr, std::uint32_t bytes, F&& fn) {
    GlobalRef ref = ptr.ref();
    ref.bytes = bytes;
    require(ref, [fn = std::forward<F>(fn)](Ctx& ctx, const void* data) {
      fn(ctx, *static_cast<const T*>(data));
    });
  }

  // Fire-and-forget commutative update applied at the object's home
  // (DPA aggregates these alongside its read requests). `fn(T&)` must
  // commute with every other update to the same object in the phase.
  template <class T, class F>
  void accumulate(GPtr<T> ptr, F&& fn) {
    engine_.accumulate(cpu_, ptr.ref(),
                       [fn = std::forward<F>(fn)](void* obj) {
                         fn(*static_cast<T*>(obj));
                       });
  }

  sim::Cpu& cpu() { return cpu_; }
  EngineBase& engine() { return engine_; }

 private:
  EngineBase& engine_;
  sim::Cpu& cpu_;
};

// A phase result with one slot per node. A thread writes only the slot of
// the node it runs on, `slot(ctx)`, and a node's tasks run serially, so a
// slot needs no synchronization (each is padded to a cache line so
// neighbours never contend). For its lifetime the slot array is a phase
// span, so the multi-process backend ships every slot home from the one
// worker that owns its node. reduce() folds the slots in node order, which
// keeps floating-point results bit-identical on every backend.
template <typename T>
class NodeLocal {
  static_assert(std::is_trivially_copyable_v<T>,
                "NodeLocal slots cross processes as raw bytes");

 public:
  explicit NodeLocal(Cluster& cluster)
      : slots_(cluster.num_nodes()),
        span_(cluster.exec(),
              exec::PhaseSpan{slots_.data(), slots_.size() * sizeof(Slot)}) {}

  T& slot(const Ctx& ctx) { return slots_[ctx.node()].value; }

  // ((T{} + slot 0) + slot 1) + ... + slot N-1.
  T reduce() const {
    T acc{};
    for (const Slot& s : slots_) acc = acc + s.value;
    return acc;
  }

 private:
  struct alignas(64) Slot {
    T value{};
  };
  std::vector<Slot> slots_;
  exec::ScopedPhaseSpan span_;
};

}  // namespace dpa::rt
