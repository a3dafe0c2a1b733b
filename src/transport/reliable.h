// transport::Reliable — the seq/ack/timeout/retransmit + receiver-dedup
// protocol core, the one implementation of recovery in the tree.
//
// This is the substrate-agnostic state machine: per-sender sequence
// numbers, the in-flight (unacked) message table with exponential-backoff
// deadlines, and the per-source sets of delivered sequence numbers that
// make retransmitted or fabric-duplicated copies droppable. What it
// deliberately does NOT own is the clock and the wire: the caller charges
// costs, sends bytes/payloads, and arms timers, because those are
// substrate properties —
//
//   * exec::SimChannel drives it on a faulted simulator, arming retransmit
//     deadlines on the simulator's event queue, where retransmission
//     timing is part of the modeled phase and replays deterministically;
//   * ReliableChannel drives it with an explicit pump(now) over a
//     PipeChannel, where retransmission is real I/O.
//
// Same protocol, one implementation, two substrates. Both sit below
// exec::Backend, so the runtime engines only ever see exactly-once
// delivery.
//
// Protocol invariants (unchanged from PR 2):
//   * seq 0 means "unsequenced": the sender runs without the protocol and
//     receivers pass the message straight through.
//   * Every sequenced copy is acked, duplicates included — the ack for an
//     earlier copy may itself have been lost, and acks are idempotent at
//     the sender. Acks are unsequenced and never retried.
//   * accept() is exactly-once per (src, seq): the first copy is
//     delivered, every later copy reports false and must be dropped.
//   * retry() applies capped exponential backoff (attempt n waits
//     timeout * backoff^n); after max_retries retransmissions it gives the
//     message up through on_peer_dead. The default callback dies loudly —
//     on a single-process fabric an undeliverable message is a bug, not a
//     steady state — but a multi-process coordinator overrides it so one
//     lost worker becomes a reported error instead of a crash.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "exec/types.h"
#include "support/flat_map.h"

namespace dpa::transport {

using exec::NodeId;
using exec::Time;

// Retransmission policy. The sim fabric runs the defaults.
struct RetryPolicy {
  Time timeout_ns = 2'000'000;        // first retransmit deadline
  double backoff = 2.0;               // deadline multiplier per attempt
  Time max_timeout_ns = 64'000'000;   // backoff cap
  std::uint32_t max_retries = 100;    // attempts before giving up (fatal)
};

class Reliable {
 public:
  // One unacked in-flight message. Either `data` (in-memory payload, the
  // sim-fabric path) or `wire` (encoded payload, the framed-channel path)
  // keeps the bytes alive for retransmission; a retry re-sends the same
  // representation under the same seq.
  struct Pending {
    NodeId dst = 0;
    std::uint16_t handler = 0;  // handler id / frame tag
    std::shared_ptr<void> data;
    std::vector<std::uint8_t> wire;
    std::uint32_t bytes = 0;
    std::uint32_t attempts = 0;  // retransmissions so far
    Time timeout = 0;            // current (backed-off) timer interval
  };

  Reliable() = default;

  Reliable(const Reliable&) = delete;
  Reliable& operator=(const Reliable&) = delete;
  Reliable(Reliable&&) = default;
  Reliable& operator=(Reliable&&) = default;

  // Turns the protocol on for a node talking to num_nodes peers. Before
  // engage() every path is dead: next_seq() panics, accept() only passes
  // unsequenced messages.
  void engage(std::uint32_t num_nodes, const RetryPolicy& policy,
              NodeId self) {
    engaged_ = true;
    policy_ = policy;
    self_ = self;
    seen_.resize(num_nodes);
  }

  bool engaged() const { return engaged_; }
  const RetryPolicy& policy() const { return policy_; }

  // --- Sender side ---------------------------------------------------

  // Next per-sender sequence number (1-based; 0 stays "unsequenced").
  std::uint64_t next_seq() {
    DPA_DCHECK(engaged_);
    return ++next_seq_;
  }

  // Registers an in-flight message under `seq`; returns the absolute
  // deadline (now + the policy's initial timeout) the caller must arm a
  // timer for.
  Time track(std::uint64_t seq, Pending pending, Time now) {
    pending.timeout = policy_.timeout_ns;
    const Time deadline = now + pending.timeout;
    pending_.emplace(seq, std::move(pending));
    return deadline;
  }

  // Whether `seq` is still unacked (a timer firing for an acked seq does
  // nothing and charges nothing — it cannot perturb timing).
  bool is_pending(std::uint64_t seq) const {
    return pending_.find(seq) != pending_.end();
  }

  // Invoked when a message exhausts max_retries: (dst, seq, sends) where
  // `sends` counts every transmission attempted — 1 original plus
  // max_retries retransmissions. The pending entry is already erased when
  // this runs; the callback decides what giving up means (the default
  // panics, a multi-process coordinator reports the peer dead).
  using PeerDeadFn =
      std::function<void(NodeId dst, std::uint64_t seq, std::uint32_t sends)>;
  void set_on_peer_dead(PeerDeadFn fn) { on_peer_dead_ = std::move(fn); }

  // A retransmit deadline fired: bumps the attempt count, applies backoff,
  // and returns the record the caller must re-send — or null if the ack
  // raced the timer, or if max_retries was exhausted (the entry is dropped
  // and on_peer_dead runs before returning). The pointer is into the
  // pending table: invalidated by the next track/retry/on_ack.
  const Pending* retry(std::uint64_t seq);

  // An ack arrived for `seq`; true if it cleared an in-flight entry
  // (false: duplicate ack, already cleared).
  bool on_ack(std::uint64_t seq) { return pending_.erase(seq) > 0; }

  std::size_t in_flight() const { return pending_.size(); }

  // --- Receiver side -------------------------------------------------

  // First delivery of (src, seq)? The caller acks every copy *before*
  // asking (ack-always, see header comment) and drops the message when
  // this returns false. seq 0 always passes.
  bool accept(NodeId src, std::uint64_t seq) {
    if (seq == 0) return true;
    DPA_DCHECK(engaged_);
    return seen_[src].insert(seq).second;
  }

 private:
  bool engaged_ = false;
  NodeId self_ = 0;
  RetryPolicy policy_;
  std::uint64_t next_seq_ = 0;
  PeerDeadFn on_peer_dead_;  // empty = the default abort in retry()
  FlatMap<std::uint64_t, Pending> pending_;
  // Per-source sets of delivered sequence numbers (receiver-side dedup).
  std::vector<FlatSet<std::uint64_t>> seen_;
};

}  // namespace dpa::transport
