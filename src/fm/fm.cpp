#include "fm/fm.h"

#include <algorithm>
#include <utility>

#include "support/assert.h"

namespace dpa::fm {

FmLayer::FmLayer(sim::Machine& machine)
    : machine_(machine), stats_(machine.num_nodes()) {}

HandlerId FmLayer::register_handler(std::string name, Handler fn) {
  DPA_CHECK(handlers_.size() < 0xffff) << "handler table full";
  handlers_.push_back(Entry{std::move(name), std::move(fn)});
  return HandlerId(handlers_.size() - 1);
}

void FmLayer::send(sim::Cpu& cpu, NodeId src, NodeId dst, HandlerId handler,
                   std::shared_ptr<void> data, std::uint32_t bytes,
                   std::uint64_t seq) {
  DPA_CHECK(handler < handlers_.size()) << "unregistered handler " << handler;
  DPA_CHECK(src < machine_.num_nodes() && dst < machine_.num_nodes());

  auto& net = machine_.network();
  const std::uint32_t mtu = net.params().mtu_bytes;
  const std::uint32_t nfrags = bytes == 0 ? 1 : (bytes + mtu - 1) / mtu;

  auto& st = stats_[src];
  ++st.msgs_sent;
  st.frags_sent += nfrags;
  st.bytes_sent += bytes;

  ++sends_seen_;
  bool lost = false;
  if (drop_at_ != 0 && sends_seen_ == drop_at_) {
    // Targeted fault injection: the message vanishes after paying the send
    // cost and occupying the wire.
    ++dropped_;
    lost = true;
  }

  Packet packet{src, dst, handler, bytes, std::move(data), seq};

  auto* injector = net.injector();
  if (injector != nullptr && !lost && injector->roll_msg_drop(src, dst)) {
    ++dropped_;
    lost = true;
  }
  send_train(&cpu, cpu.logical_now(), packet, nfrags, lost);
  if (injector != nullptr && !lost && injector->roll_msg_dup(src, dst)) {
    // The fabric duplicated the message: the copy occupies the NIC and wire
    // but costs the sending processor nothing (it never re-entered software).
    send_train(nullptr, cpu.logical_now(), packet, nfrags, /*lost=*/false);
  }
}

void FmLayer::send_train(sim::Cpu* cpu, sim::Time depart, const Packet& packet,
                         std::uint32_t nfrags, bool lost) {
  auto& net = machine_.network();
  const std::uint32_t mtu = net.params().mtu_bytes;
  const std::uint64_t train = ++next_train_;
  std::uint32_t remaining = packet.bytes;
  for (std::uint32_t f = 0; f < nfrags; ++f) {
    const std::uint32_t frag_bytes = std::min(remaining, mtu);
    remaining -= frag_bytes;
    // Per-fragment software send overhead on the source processor.
    if (cpu != nullptr) {
      cpu->charge(net.params().send_overhead, sim::Work::kComm);
      depart = cpu->logical_now();
    }
    if (lost) {
      net.send_lost(packet.src, packet.dst, frag_bytes, depart);
      continue;
    }
    Packet copy = packet;  // shared_ptr copy; payload itself is shared
    net.send(packet.src, packet.dst, frag_bytes, depart,
             [this, copy = std::move(copy), train, nfrags,
              frag_bytes]() mutable { deliver(copy, train, nfrags, frag_bytes); });
  }
}

void FmLayer::deliver(const Packet& packet, std::uint64_t train,
                      std::uint32_t nfrags, std::uint32_t frag_bytes) {
  auto& node = machine_.node(packet.dst);
  auto& st = stats_[packet.dst];
  st.bytes_recv += frag_bytes;
  bool complete = true;
  if (nfrags > 1) {
    const std::uint32_t got = ++partial_[train];
    complete = (got == nfrags);
    if (complete) partial_.erase(train);
  }
  if (complete) ++st.msgs_recv;

  const Time recv_overhead = machine_.network().params().recv_overhead;
  const Handler* fn = complete ? &handlers_[packet.handler].fn : nullptr;
  node.post([recv_overhead, fn, packet](sim::Cpu& cpu) {
    cpu.charge(recv_overhead, sim::Work::kComm);
    if (fn != nullptr) (*fn)(cpu, packet);
  });
}

FmNodeStats FmLayer::aggregate_stats() const {
  FmNodeStats total;
  for (const auto& s : stats_) {
    total.msgs_sent += s.msgs_sent;
    total.frags_sent += s.frags_sent;
    total.msgs_recv += s.msgs_recv;
    total.bytes_sent += s.bytes_sent;
    total.bytes_recv += s.bytes_recv;
  }
  return total;
}

void FmLayer::reset_stats() {
  for (auto& s : stats_) s.reset();
}

}  // namespace dpa::fm
