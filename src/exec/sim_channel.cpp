#include "exec/sim_channel.h"

#include <utility>

#include "support/assert.h"

namespace dpa::exec {

SimChannel::SimChannel(fm::FmLayer& fm) : fm_(fm) {
  if (fm_.machine().network().injector() == nullptr) return;
  h_ack_ = fm_.register_handler("sim.ack", [this](Cpu&, const Packet& ack) {
    if (rel_[ack.dst].on_ack(ack.seq)) ++stats_.acks_recv;
  });
  rel_.resize(fm_.machine().num_nodes());
  reset();
}

HandlerId SimChannel::register_handler(std::string name, Handler fn) {
  if (!recovering()) return fm_.register_handler(std::move(name), std::move(fn));
  return fm_.register_handler(
      std::move(name),
      [this, fn = std::move(fn)](Cpu& cpu, const Packet& pkt) {
        if (pkt.seq == 0 || accept(cpu, pkt)) fn(cpu, pkt);
      });
}

void SimChannel::reset() {
  stats_ = WireStatsTotal{};
  const auto nodes = std::uint32_t(rel_.size());
  for (NodeId n = 0; n < nodes; ++n) {
    rel_[n] = transport::Reliable();
    rel_[n].engage(nodes, transport::RetryPolicy{}, n);
  }
}

void SimChannel::send(Cpu& cpu, Packet p) {
  std::uint64_t seq = 0;
  if (recovering() && p.src != p.dst) {
    seq = rel_[p.src].next_seq();
    transport::Reliable::Pending pending;
    pending.dst = p.dst;
    pending.handler = p.handler;
    pending.data = p.data;
    pending.bytes = p.bytes;
    arm(p.src, seq,
        rel_[p.src].track(seq, std::move(pending), cpu.logical_now()));
  }
  fm_.send(cpu, p.src, p.dst, p.handler, std::move(p.data), p.bytes, seq);
}

bool SimChannel::accept(Cpu& cpu, const Packet& pkt) {
  ++stats_.acks_sent;
  fm_.send(cpu, pkt.dst, pkt.src, h_ack_, nullptr, kAckBytes, pkt.seq);
  if (rel_[pkt.dst].accept(pkt.src, pkt.seq)) return true;
  ++stats_.dup_msgs_dropped;
  return false;
}

void SimChannel::arm(NodeId src, std::uint64_t seq, Time at) {
  // A deadline for an already-acked message does nothing and charges
  // nothing, so stale timers cannot perturb the phase.
  fm_.machine().engine().schedule_at(at, [this, src, seq] {
    if (!rel_[src].is_pending(seq)) return;
    fm_.machine().node(src).post(
        [this, src, seq](Cpu& cpu) { retry(cpu, src, seq); });
  });
}

void SimChannel::retry(Cpu& cpu, NodeId src, std::uint64_t seq) {
  // retry() bumps the attempt count (fatal past max_retries) and backs the
  // interval off; null means the ack raced the posted task.
  const transport::Reliable::Pending* p = rel_[src].retry(seq);
  if (p == nullptr) return;
  ++stats_.retries;
  const Time timeout = p->timeout;
  fm_.send(cpu, src, p->dst, p->handler, p->data, p->bytes, seq);
  arm(src, seq, cpu.logical_now() + timeout);
}

}  // namespace dpa::exec
