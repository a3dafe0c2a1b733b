// SimBackend: the discrete-event simulator behind the Backend interface.
//
// Owns the sim::Machine (engine + LogGP network + node processors), the
// fm::FmLayer (active messages with MTU segmentation) and the SimChannel
// every send and handler goes through. Fault-free, every call forwards to
// the same machine/fm entry points in the same order, so simulations are
// byte-identical to the pre-Backend tree (golden-checked). Under a
// FaultPlan the channel recovers the network's drops and duplicates, so the
// runtime always sees an exactly-once fabric.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "exec/backend.h"
#include "fm/fm.h"
#include "exec/sim_channel.h"
#include "sim/machine.h"

namespace dpa::exec {

class SimBackend final : public Backend {
 public:
  SimBackend(std::uint32_t num_nodes, const sim::NetParams& params)
      : machine_(num_nodes, params), fm_(machine_) {}

  BackendKind kind() const override { return BackendKind::kSim; }
  std::uint32_t num_nodes() const override { return machine_.num_nodes(); }

  HandlerId register_handler(std::string name, Handler fn) override {
    return channel_.register_handler(std::move(name), std::move(fn));
  }
  const std::string& handler_name(HandlerId id) const override {
    return fm_.handler_name(id);
  }

  void send(Cpu& cpu, NodeId src, NodeId dst, HandlerId handler,
            std::shared_ptr<void> data, std::uint32_t bytes) override {
    // Fault-free, the channel makes the one fm::FmLayer::send call, so
    // modeled time and goldens are unchanged. Under a FaultPlan it also
    // sequences the message for recovery.
    channel_.send(cpu, Packet{src, dst, handler, bytes, std::move(data)});
  }

  void post(NodeId node, Task task) override {
    machine_.node(node).post(std::move(task));
  }

  Time begin_phase() override {
    machine_.begin_phase();
    fm_.reset_stats();
    channel_.reset();
    return machine_.phase_start();
  }

  PhaseExec run_phase() override {
    const std::uint64_t before = machine_.engine().events_processed();
    PhaseExec out;
    out.elapsed = machine_.run_phase();
    out.events = machine_.engine().events_processed() - before;
    return out;
  }

  const NodeStats& node_stats(NodeId node) const override {
    return machine_.node(node).stats();
  }
  Time idle_time(NodeId node, Time phase_elapsed) const override {
    return machine_.idle_time(node, phase_elapsed);
  }
  MsgStats msg_stats_total() const override { return fm_.aggregate_stats(); }
  void reset_msg_stats() override { fm_.reset_stats(); }
  WireStatsTotal wire_stats_total() const override { return channel_.stats(); }

  // Traces through sim_machine()->set_trace() (the Tracer path), not
  // worker shards — there are no worker threads here.
  bool supports_tracing() const override { return true; }

  sim::Machine* sim_machine() override { return &machine_; }
  fm::FmLayer& fm() { return fm_; }

 private:
  sim::Machine machine_;
  fm::FmLayer fm_;
  SimChannel channel_{fm_};  // declared after fm_: wraps it
};

}  // namespace dpa::exec
