// The DPA engine: the paper's runtime.
//
// State per node:
//   M     — pointer -> tile {request state, waiting threads}. Updated at
//           every thread-creation site; this is the explicit mapping the
//           paper uses to schedule both threads and communication.
//   ready — tiles whose data arrived: their threads execute back to back
//           (tiling / data reuse).
//   local — threads on node-local pointers (no communication needed).
//   agg   — per-destination buffers of not-yet-requested refs (aggregation).
//
// Strip-mining: the node's top-level conc loop is executed strip_size
// iterations at a time; M is cleared between strips, which bounds the memory
// held by suspended threads and renamed objects (the paper's k-bounded
// loops). Within a strip, every thread that names the same pointer shares
// one fetch and executes in the same tile.
//
// Configurations:
//   pipelining off  -> each new remote ref is requested synchronously; the
//                      node stalls until the reply (Base in the breakdown
//                      figures; tiling still works).
//   aggregation off -> each ref is requested in its own message as soon as
//                      it is created (+Pipelining).
//   both on         -> refs accumulate per destination and flush when a
//                      buffer fills or the scheduler runs out of ready work
//                      (+Aggregation; full DPA).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "runtime/engine.h"
#include "support/small_vector.h"

namespace dpa::rt {

class DpaEngine final : public EngineBase {
 public:
  DpaEngine(Cluster& cluster, NodeId node, const RuntimeConfig& cfg,
            Arena& arena, ReturnPool& pool, fm::HandlerId h_req,
            fm::HandlerId h_reply, fm::HandlerId h_accum);

  void require(sim::Cpu& cpu, GlobalRef ref, ThreadFn thread) override;
  void accumulate(sim::Cpu& cpu, GlobalRef ref, AccumFn update) override;
  void on_reply(sim::Cpu& cpu, const ReplyPayload& reply) override;
  bool done() const override;
  std::string state_dump() const override;

 private:
  struct Tile {
    enum class St : std::uint8_t {
      kFresh,      // in an aggregation buffer, not yet requested
      kRequested,  // request in flight
      kReady,      // data available locally (renamed)
    };
    GlobalRef ref;
    St st = St::kFresh;
    bool queued = false;  // present in ready_tiles_ / order_
    sim::Time requested_at = 0;  // when the fetch left (ref-latency metric)
    SmallVector<ThreadFn, 2> waiters;
  };

  // Deterministic mode (cfg.deterministic): one entry per dispatchable unit
  // in thread-creation order — either a tile (by address) or a single
  // local-pointer thread. Consumed strictly head-first; a head tile whose
  // reply has not arrived stalls consumption (head-of-line wait), which is
  // what makes the execution order — and the floating-point accumulation
  // order — independent of message timing.
  struct OrderUnit {
    const void* tile = nullptr;  // null => local thread below
    GlobalRef ref;
    ThreadFn fn;
  };

  void sched(sim::Cpu& cpu) override;

  // Scheduler actions; each returns true if it did a unit of work.
  bool run_ready_tile(sim::Cpu& cpu);
  bool run_in_order(sim::Cpu& cpu);  // deterministic-mode consumer
  bool run_local_threads(sim::Cpu& cpu);
  bool create_next_root(sim::Cpu& cpu);
  bool flush_all(sim::Cpu& cpu);       // requests + accumulations
  bool flush_requests(sim::Cpu& cpu);  // request buffers only

  // Dispatches the tile at `addr`: runs its waiters back to back. Looks the
  // tile up itself and drops the reference before running threads — a
  // nested require() may grow m_, and the flat table relocates entries.
  void dispatch_tile(sim::Cpu& cpu, const void* addr);
  void flush_dest(sim::Cpu& cpu, NodeId dest);
  bool strip_boundary(sim::Cpu& cpu);
  bool strip_has_uncreated() const;

  // Scheduler queues live on the phase arena: entries churn at thread rate
  // and all die by phase end, so the deques' node blocks recycle through the
  // arena's free lists instead of the global allocator.
  template <class T>
  using ArenaDeque = std::deque<T, ArenaAllocator<T>>;
  template <class T>
  using ArenaVector = std::vector<T, ArenaAllocator<T>>;
  // Aggregation buffers live on the payload pool, whose size classes take a
  // block back and hand it out again in O(1).
  using RefBuffer =
      std::vector<GlobalRef, ArenaAllocator<GlobalRef, ReturnPool>>;

  FlatMap<const void*, Tile> m_;
  ArenaDeque<const void*> ready_tiles_;
  ArenaDeque<std::pair<GlobalRef, ThreadFn>> local_ready_;
  ArenaDeque<OrderUnit> order_;  // deterministic mode only
  ArenaVector<RefBuffer> agg_;  // per-destination Fresh refs
  std::uint32_t agg_total_ = 0;
  // Per-destination buffered accumulations (flushed with the requests).
  std::vector<std::vector<std::pair<GlobalRef, AccumFn>>> acc_;
  std::uint32_t acc_total_ = 0;
  std::uint64_t strip_end_ = 0;    // roots [strip_begin, strip_end) created
  std::uint64_t outstanding_ = 0;  // refs requested, reply pending
  const void* sync_wait_ = nullptr;  // pipelining off: ref being awaited
  bool loop_done_ = false;

  // Observability histograms (null when no session is attached).
  Pow2Histogram* h_ref_latency_ = nullptr;     // request depart -> reply, ns
  Pow2Histogram* h_tile_occupancy_ = nullptr;  // threads per dispatched tile
  Pow2Histogram* h_m_residency_ = nullptr;     // |M| at each strip boundary
};

}  // namespace dpa::rt
