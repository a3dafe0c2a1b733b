#include "transport/reliable_channel.h"

#include <utility>

#include "support/assert.h"

namespace dpa::transport {

namespace {

std::vector<std::uint8_t> encode_ack(std::uint64_t seq) {
  std::vector<std::uint8_t> out(8);
  for (int i = 0; i < 8; ++i) out[i] = std::uint8_t((seq >> (8 * i)) & 0xff);
  return out;
}

std::uint64_t decode_ack(const std::vector<std::uint8_t>& bytes) {
  DPA_CHECK(bytes.size() == 8) << "malformed ack payload";
  std::uint64_t seq = 0;
  for (int i = 8; i-- > 0;) seq = (seq << 8) | bytes[std::size_t(i)];
  return seq;
}

}  // namespace

ReliableChannel::ReliableChannel(PipeChannel& inner,
                                 std::uint32_t num_nodes,
                                 const RetryPolicy& policy)
    : inner_(inner), rel_(num_nodes) {
  for (NodeId n = 0; n < num_nodes; ++n)
    rel_[n].engage(num_nodes, policy, n);
  inner_.set_deliver(
      [this](const FrameHeader& h, const FramePayload& p) { on_frame(h, p); });
}

void ReliableChannel::send(NodeId src, NodeId dst, FramePayload payload) {
  DPA_CHECK(payload.tag < kAckTag)
      << "application tag collides with the ack tag";
  if (dst != src) {
    payload.seq = rel_[src].next_seq();
    Reliable::Pending pending;
    pending.dst = dst;
    pending.handler = payload.tag;
    pending.wire = payload.bytes;  // retransmission copy
    pending.bytes = std::uint32_t(payload.bytes.size());
    const Time deadline =
        rel_[src].track(payload.seq, std::move(pending), now_);
    timers_.push_back(Deadline{src, payload.seq, deadline});
  }
  inner_.send(src, dst, std::move(payload));
}

std::size_t ReliableChannel::pump(Time now) {
  now_ = now;
  std::size_t resent = 0;
  std::vector<Deadline> next;
  next.reserve(timers_.size());
  bool flushed_any = false;
  for (const Deadline& t : timers_) {
    if (!rel_[t.src].is_pending(t.seq)) continue;  // acked: timer lapses
    if (t.at > now_) {
      next.push_back(t);
      continue;
    }
    const Reliable::Pending* p = rel_[t.src].retry(t.seq);
    if (p == nullptr) {
      // max_retries exhausted: the entry was dropped (and on_peer_dead
      // already ran). The timer lapses — nothing left to re-arm.
      ++stats_.gave_up;
      continue;
    }
    ++stats_.retries;
    const Time timeout = p->timeout;  // post-backoff interval
    inner_.send(t.src, p->dst, FramePayload{p->handler, t.seq, p->wire});
    inner_.flush(t.src);
    flushed_any = true;
    ++resent;
    next.push_back(Deadline{t.src, t.seq, now_ + timeout});
  }
  timers_ = std::move(next);
  if (flushed_any) inner_.poll();
  return resent;
}

void ReliableChannel::on_frame(const FrameHeader& h, const FramePayload& p) {
  if (p.tag == kAckTag) {
    if (rel_[h.dst].on_ack(decode_ack(p.bytes))) ++stats_.acks_recv;
    return;
  }
  if (p.seq != 0) {
    // Ack every copy, duplicates included: the ack for an earlier copy may
    // itself have been lost, and acks are idempotent at the sender.
    ++stats_.acks_sent;
    inner_.send(h.dst, h.src, FramePayload{kAckTag, 0, encode_ack(p.seq)});
    inner_.flush(h.dst);
    if (!rel_[h.dst].accept(h.src, p.seq)) {
      ++stats_.dup_msgs_dropped;
      return;
    }
  }
  DPA_CHECK(deliver_ != nullptr)
      << "reliable frame arrived with no delivery callback installed";
  deliver_(h, p);
}

}  // namespace dpa::transport
