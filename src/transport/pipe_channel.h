// PipeChannel: the frame codec exercised over a real byte stream — a
// non-blocking AF_UNIX socketpair() on localhost.
//
// Proof-of-concept for the multi-process backend: every train a node
// flushes is encoded into one frame (transport/frame.h), written to the
// socket, read back, reassembled from the byte stream, decoded, and
// delivered payload by payload. All nodes share the one loopback stream;
// the frame header's src/dst route delivery. The bytes on this wire are
// exactly the bytes a TCP transport will carry.
//
// I/O model — a miniature event loop, single-threaded and non-blocking:
//   * transmit appends encoded frames to a TX backlog (after optional
//     fault injection, below);
//   * pump() writes as much backlog as the kernel buffer takes (partial
//     writes resume mid-frame), then reads everything available,
//     decodes complete frames from the reassembly buffer, and delivers.
// Because writes never block and delivery callbacks only ever *append*
// to the backlog (acks from ReliableChannel, say), re-entrancy cannot
// deadlock: the loop makes progress as long as someone keeps pumping —
// which is what the caller's poll() loop is.
//
// Fault injection (seeded, deterministic) corrupts the *schedule*, never
// the bytes: whole encoded frames are dropped, duplicated, or held back
// one slot before they reach the wire, so the stream stays well-formed
// and any decode failure is a real codec bug (and panics). Byte-level
// corruption is the fuzz suite's job, directly against decode_frame.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "support/rng.h"
#include "transport/frame.h"

namespace dpa::transport {

// Liveness of the peer on the other end of a channel. A byte-stream
// channel whose counterpart process died (EPIPE/ECONNRESET on write, EOF
// on read) reports kPeerDown instead of aborting, so a coordinator can
// detect the loss, name the dead peer, and fail the phase cleanly. Once
// kPeerDown, a channel stays down: sends are silently discarded and poll()
// makes no further progress.
enum class ChannelStatus : std::uint8_t { kOk, kPeerDown };

// Delivery callback: one decoded payload, with the frame header that
// carried it (routing + epoch).
using FrameDeliverFn =
    std::function<void(const FrameHeader&, const FramePayload&)>;

// Whole-frame fault schedule for PipeChannel (the transport-level analog
// of sim::FaultPlan — same idea, applied to frames instead of fragments).
struct ChannelFaults {
  double drop = 0.0;     // P(frame silently discarded before the wire)
  double dup = 0.0;      // P(frame written twice)
  double reorder = 0.0;  // P(frame held back one slot — swaps with the next)
  std::uint64_t seed = 1;

  bool any() const { return drop > 0 || dup > 0 || reorder > 0; }
};

class PipeChannel {
 public:
  struct WireStats {
    std::uint64_t frames_sent = 0;   // frames that reached the wire
    std::uint64_t frames_recv = 0;
    std::uint64_t payloads_recv = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t dropped_frames = 0;
    std::uint64_t dup_frames = 0;
    std::uint64_t reordered_frames = 0;
  };

  PipeChannel(std::uint32_t num_nodes, std::uint32_t train_max);

  // Endpoint mode: adopt one duplex fd (our half of a socketpair whose
  // other half lives in a different process). Writes and reads both use
  // `fd`; the channel owns it and closes it on destruction. This is the
  // multi-process transport: each worker holds one PipeChannel per peer.
  struct Endpoint {
    int fd = -1;
  };
  PipeChannel(std::uint32_t num_nodes, std::uint32_t train_max, Endpoint ep);

  ~PipeChannel();

  PipeChannel(const PipeChannel&) = delete;
  PipeChannel& operator=(const PipeChannel&) = delete;

  // Frames carry the phase epoch; the phase driver stamps it.
  void set_epoch(std::uint64_t epoch) { epoch_ = epoch; }
  // Marks every frame this channel sends as a control frame
  // (kFrameFlagControl) — used by the multi-process coordinator's
  // termination-protocol channel, whose traffic a prioritizing transport
  // must tell apart from data without decoding bodies.
  void set_control(bool control) { mark_control_ = control; }
  // Arms (or disarms, with {}) the fault schedule. Faulted delivery is
  // only exactly-once under a ReliableChannel wrapper.
  void set_faults(const ChannelFaults& faults);

  // Installs the delivery callback (ReliableChannel interposes here).
  void set_deliver(FrameDeliverFn fn) { deliver_ = std::move(fn); }

  // Buffers one payload on src's train for dst; the train departs as one
  // frame at train_max depth or at flush().
  void send(NodeId src, NodeId dst, FramePayload payload);

  // Encodes each non-empty train of src as one frame, queues it for the
  // wire, and pumps. True if anything departed.
  bool flush(NodeId src);

  // Writes backlog / reads / decodes / delivers; returns payloads
  // delivered by this call. Once the peer is down this returns 0 forever
  // (status() says why) instead of aborting — see ChannelStatus.
  std::size_t poll() { return pump(); }

  ChannelStatus status() const {
    return peer_down_ ? ChannelStatus::kPeerDown : ChannelStatus::kOk;
  }

  // Trains src handed to the wire since construction.
  std::uint64_t trains_sent(NodeId src) const { return srcs_[src].trains; }

  // Forces everything queued — including a fault-held frame — onto the
  // wire and drains until no progress. Phase-end barrier for unfaulted
  // runs; faulted runs converge through ReliableChannel retransmission
  // instead.
  void drain();

  const WireStats& wire_stats() const { return stats_; }
  std::size_t tx_backlog() const { return tx_.size(); }

  // The fd arrivals land on — what a multi-process event loop hands to
  // poll(2) to sleep until this channel has bytes to read.
  int wire_fd() const { return fds_[1]; }

 private:
  struct SrcState {
    std::vector<std::vector<FramePayload>> train;
    std::uint32_t pending = 0;
    std::uint64_t trains = 0;
  };

  void flush_dest(NodeId src, NodeId dst);
  // Applies the fault schedule to one encoded frame, then queues the
  // survivors (and any held-back predecessor) for the wire.
  void transmit(std::vector<std::uint8_t> frame);
  void enqueue_wire(std::vector<std::uint8_t> frame);
  std::size_t pump();

  std::uint32_t train_max_;
  std::uint64_t epoch_ = 0;
  bool mark_control_ = false;
  std::vector<SrcState> srcs_;
  FrameDeliverFn deliver_;

  // Loopback mode: [0] write end, [1] read end of an in-process
  // socketpair. Endpoint mode: both entries hold the one adopted duplex
  // fd (guarded against double-close in the destructor).
  int fds_[2] = {-1, -1};
  bool peer_down_ = false;  // EPIPE/ECONNRESET on write or EOF on read
  std::deque<std::vector<std::uint8_t>> tx_;  // encoded frames awaiting write
  std::size_t tx_off_ = 0;                    // partial-write offset in front
  std::vector<std::uint8_t> rx_;              // reassembly buffer
  std::size_t rx_pos_ = 0;                    // decoded-up-to offset in rx_
  bool pumping_ = false;                      // re-entrancy guard

  ChannelFaults faults_;
  Rng fault_rng_;
  std::vector<std::uint8_t> held_;  // reorder: frame held back one slot
  WireStats stats_;
};

}  // namespace dpa::transport
