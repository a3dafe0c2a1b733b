// SimChannel: SimBackend's modeled fabric — sends into fm::FmLayer over
// sim::Network — and the simulator's exactly-once delivery.
//
// Forwards each message eagerly to the FM layer (the simulator models
// train aggregation in *time*, not in buffering: the engine's aggregation
// decides what shares a message, and the LogGP network charges the wire).
// On a fault-free network the one send path calls the same
// fm::FmLayer::send in the same order with the same arguments, and sends
// no sequence number, ack or timer, so modeled costs, event order, and
// goldens are unchanged.
//
// Under a FaultPlan the network drops, duplicates, reorders and delays
// messages, and the channel recovers them itself, as Illinois Fast
// Messages does for the paper's runtime: whatever registers a handler only
// ever sees exactly-once delivery. It drives one transport::Reliable per
// node:
//   * send: stamps the sender's next sequence number on the Packet, tracks
//     the message and arms its retransmit deadline on the simulator's own
//     event queue;
//   * arrival: before the registered handler runs, acks the copy (a
//     header-only message back to the sender; every copy, since the ack of
//     an earlier one may itself be lost) and drops it if its (src, seq)
//     was delivered already;
//   * deadline: if the message is still unacked, a task on the sender
//     re-sends it under the same seq and re-arms with the backed-off
//     interval.
// Acks and retransmits are modeled messages like any other: they pay FM
// overheads, occupy the wire and can themselves be lost.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fm/fm.h"
#include "transport/reliable.h"

namespace dpa::exec {

class SimChannel {
 public:
  // An ack's modeled wire size: one bare message header.
  static constexpr std::uint32_t kAckBytes = 32;

  // Recovers faults iff the network was built with a FaultPlan.
  explicit SimChannel(fm::FmLayer& fm);

  SimChannel(const SimChannel&) = delete;
  SimChannel& operator=(const SimChannel&) = delete;

  // Registers `fn` with the FM layer, behind the ack/dedup filter when the
  // channel recovers faults.
  HandlerId register_handler(std::string name, Handler fn);

  // Sends `pkt` from the task running on `cpu`, sequenced for recovery
  // when the network is faulted.
  void send(Cpu& cpu, Packet pkt);

  // Starts a phase: fresh sequence spaces and zeroed counters. The
  // previous phase ran to quiescence, so no message or timer is in flight.
  void reset();

  bool recovering() const { return !rel_.empty(); }
  // Recovery counters for the current phase (all zero fault-free; the
  // frame counters stay zero on the modeled network).
  const WireStatsTotal& stats() const { return stats_; }

 private:
  // Receiver side of a sequenced arrival: acks it and reports whether it
  // is the first copy.
  bool accept(Cpu& cpu, const Packet& pkt);
  void arm(NodeId src, std::uint64_t seq, Time at);
  void retry(Cpu& cpu, NodeId src, std::uint64_t seq);

  fm::FmLayer& fm_;
  // One per node; empty when fault-free.
  std::vector<transport::Reliable> rel_;
  HandlerId h_ack_ = 0;  // an ack's Packet::seq names the acked message
  WireStatsTotal stats_;
};

}  // namespace dpa::exec
