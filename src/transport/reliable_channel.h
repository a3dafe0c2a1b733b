// ReliableChannel: exactly-once delivery over a possibly lossy PipeChannel
// — the transport::Reliable protocol core wired up as a decorator.
//
// The same state machine exec::SimChannel drives through the simulator's
// event queue (seq/ack/backoff-retransmit, receiver dedup) runs here
// against a real wire: the decorator stamps each outgoing payload with a
// per-sender sequence number, tracks it until the matching ack frame comes
// back, and retransmits past-deadline messages when the caller pumps the
// clock forward. Receivers ack every sequenced copy (duplicates included —
// the earlier ack may itself be lost) and pass exactly the first copy of
// each (src, seq) up to the application.
//
// Clocking is explicit: pump(now) advances the retransmit scan to `now`
// (any monotonic nanosecond count — tests drive it with virtual time,
// which keeps chaos runs deterministic). The decorator covers all nodes
// sharing the inner channel, one protocol instance per sending node, so
// sequence spaces are per sender exactly as on the sim fabric.
//
// Acks travel as control frames: a payload tagged kAckTag whose 8 bytes
// are the acked seq (little-endian), flushed eagerly so ack latency does
// not depend on the receiver's batching.
#pragma once

#include <cstdint>
#include <vector>

#include "transport/pipe_channel.h"
#include "transport/reliable.h"

namespace dpa::transport {

class ReliableChannel {
 public:
  struct Stats {
    std::uint64_t retries = 0;
    std::uint64_t acks_sent = 0;
    std::uint64_t acks_recv = 0;
    std::uint64_t dup_msgs_dropped = 0;
    std::uint64_t gave_up = 0;  // messages abandoned after max_retries
  };

  // The decorator installs itself as the inner delivery callback. `now`
  // starts at 0; pump() advances it.
  ReliableChannel(PipeChannel& inner, std::uint32_t num_nodes,
                  const RetryPolicy& policy);

  ReliableChannel(const ReliableChannel&) = delete;
  ReliableChannel& operator=(const ReliableChannel&) = delete;

  // The application's sink (sequenced duplicates and ack frames are
  // filtered out before it).
  void set_deliver(FrameDeliverFn fn) { deliver_ = std::move(fn); }

  // Stamps a sequence number (cross-node sends only) and tracks the bytes
  // for retransmission before forwarding.
  void send(NodeId src, NodeId dst, FramePayload payload);

  bool flush(NodeId src) { return inner_.flush(src); }
  std::size_t poll() { return inner_.poll(); }

  // Installs one give-up handler across every sending node's protocol
  // instance (the callbacks run with the pending entry already erased).
  // Unset, a message that exhausts max_retries aborts the process.
  void set_on_peer_dead(Reliable::PeerDeadFn fn) {
    for (Reliable& r : rel_) r.set_on_peer_dead(fn);
  }

  // Advances the protocol clock to `now` and retransmits every in-flight
  // message whose deadline passed; returns retransmissions issued.
  std::size_t pump(Time now);

  std::uint64_t in_flight() const {
    std::uint64_t n = 0;
    for (const Reliable& r : rel_) n += r.in_flight();
    return n;
  }
  const Stats& stats() const { return stats_; }

 private:
  struct Deadline {
    NodeId src = 0;
    std::uint64_t seq = 0;
    Time at = 0;
  };

  void on_frame(const FrameHeader& h, const FramePayload& p);

  PipeChannel& inner_;
  FrameDeliverFn deliver_;
  std::vector<Reliable> rel_;  // one protocol instance per sending node
  std::vector<Deadline> timers_;
  Time now_ = 0;
  Stats stats_;
};

}  // namespace dpa::transport
