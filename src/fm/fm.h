// Active message layer modeled on Illinois Fast Messages (FM), the messaging
// substrate the paper used on the Cray T3D.
//
// Semantics: `send` injects a message addressed to a handler on the
// destination node; on arrival the destination processor is charged the
// receive overhead and the handler runs as a task on that node. Payloads
// larger than the network MTU are segmented into fragments (each paying
// per-message costs) and the handler fires when the last fragment lands —
// this is what makes "aggregation wins until the MTU" measurable.
//
// Payload representation: the simulation shares one host address space, so
// payloads travel as shared_ptr<void> plus a declared byte size used for
// costing. Marshalling cost is charged explicitly by the runtime layer.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/types.h"
#include "sim/machine.h"
#include "sim/network.h"
#include "support/flat_map.h"

namespace dpa::fm {

using sim::NodeId;
using sim::Time;

// Packets, handlers, and messaging stats are the backend-neutral active-
// message vocabulary (exec/types.h); the FM layer is the simulator-side
// implementation of it. Handler is an InlineFn, so registering and invoking
// a handler never touches std::function's type-erasure allocations.
using exec::HandlerId;
using exec::Packet;
using Handler = exec::Handler;
using FmNodeStats = exec::MsgStats;

class FmLayer {
 public:
  explicit FmLayer(sim::Machine& machine);

  FmLayer(const FmLayer&) = delete;
  FmLayer& operator=(const FmLayer&) = delete;

  // Registers a handler (same id on every node). Must happen before sends.
  HandlerId register_handler(std::string name, Handler fn);

  // Sends from node `src`, called from inside a task running on `src`.
  // Charges send overhead (Work::kComm) per fragment to `cpu`; the message
  // departs at the sender's logical time. `seq` rides on the Packet for a
  // recovering fabric above (exec::SimChannel); FM itself ignores it.
  void send(sim::Cpu& cpu, NodeId src, NodeId dst, HandlerId handler,
            std::shared_ptr<void> data, std::uint32_t bytes,
            std::uint64_t seq = 0);

  const FmNodeStats& node_stats(NodeId id) const { return stats_[id]; }
  FmNodeStats aggregate_stats() const;
  void reset_stats();

  const std::string& handler_name(HandlerId id) const {
    return handlers_[id].name;
  }
  sim::Machine& machine() { return machine_; }

  // Targeted fault injection (deterministic, for tests): silently drop the
  // `nth` message sent from now on (1 = the very next). Unlike the
  // probabilistic FaultPlan on the network, this drops one specific message,
  // which is what tests of unrecovered loss need: without a FaultPlan the
  // sim fabric runs no recovery (exec::SimChannel), so the phase must
  // surface as incomplete with diagnostics.
  void drop_nth_message(std::uint64_t nth) { drop_at_ = sends_seen_ + nth; }
  std::uint64_t dropped_messages() const { return dropped_; }

 private:
  struct Entry {
    std::string name;
    Handler fn;
  };

  // One fragment train = one logical message on the wire. Whole-message
  // faults (drop/dup) apply to trains: a duplicated message is re-sent as a
  // complete second train with its own id, and the handler fires once per
  // completed train (so the layer above sees a genuine duplicate delivery).
  void send_train(sim::Cpu* cpu, sim::Time depart, const Packet& packet,
                  std::uint32_t nfrags, bool lost);
  void deliver(const Packet& packet, std::uint64_t train,
               std::uint32_t nfrags, std::uint32_t frag_bytes);

  sim::Machine& machine_;
  std::vector<Entry> handlers_;
  std::vector<FmNodeStats> stats_;
  std::uint64_t sends_seen_ = 0;
  std::uint64_t drop_at_ = 0;  // 0 = disabled
  std::uint64_t dropped_ = 0;
  std::uint64_t next_train_ = 0;
  // Fragments received per incomplete multi-fragment train. With timing
  // faults fragments may arrive out of order, so completion is by count,
  // not by which fragment was sent last.
  FlatMap<std::uint64_t, std::uint32_t> partial_;
};

}  // namespace dpa::fm
