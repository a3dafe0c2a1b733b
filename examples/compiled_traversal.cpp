// The compiler half of the paper, end to end: write a pointer-based
// traversal in the mini-IR, run the thread-partitioning pass (split at
// foreign dereferences, hoist accesses, label creation sites with
// pointers), print the resulting thread program, and execute it on the DPA
// runtime against a distributed object graph on each backend.
//
//   ./compiled_traversal --procs=8 --len=200
#include <cstdio>
#include <utility>

#include "compiler/interp.h"
#include "compiler/parser.h"
#include "compiler/partition.h"
#include "support/options.h"
#include "support/rng.h"

using namespace dpa;
using namespace dpa::compiler;

namespace {

// A "next/peer" list: each node combines its own value with its peer's —
// the peer dereference is the foreign access that forces a thread split.
constexpr const char* kSource = R"(
class Node {
  scalar val;
  scalar weight;
  ptr next : Node;
  ptr peer : Node;
}

fn visit(n : Node) {
  v  = n->val;
  w  = n->weight;
  pr = n->peer;          # another pointer, possibly remote
  nx = n->next;
  charge 200;
  pv = pr->val;          # foreign dereference: the compiler splits here
  total += v * w + pv;
  spawn visit(nx);
}
)";

Module make_module() { return parse_module(kSource); }

// Builds the distributed graph: a list scattered round-robin, peers random.
// The fixed seed gives every cluster the same graph.
std::vector<gas::GPtr<Record>> build_list(rt::Cluster& cluster,
                                          const Module& module,
                                          std::int64_t len) {
  Rng rng(31);
  std::vector<gas::GPtr<Record>> nodes;
  for (std::int64_t i = 0; i < len; ++i) {
    Record r = make_record(module, "Node");
    r.scalars[0] = rng.uniform(0, 1);  // val
    r.scalars[1] = rng.uniform(0, 2);  // weight
    nodes.push_back(cluster.heap.make<Record>(
        sim::NodeId(std::uint32_t(i) % cluster.num_nodes()), std::move(r)));
  }
  for (std::int64_t i = 0; i < len; ++i) {
    auto* mut = gas::GlobalHeap::mutate(nodes[std::size_t(i)]);
    if (i + 1 < len) mut->ptrs[0] = nodes[std::size_t(i + 1)];
    mut->ptrs[1] = nodes[rng.next_below(std::uint64_t(len))];
  }
  return nodes;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t procs = 8;
  std::int64_t len = 200;
  Options options;
  options.i64("procs", &procs, "simulated nodes")
      .i64("len", &len, "list length");
  if (!options.parse(argc, argv)) return 0;

  const Module module = make_module();
  const ThreadProgram program = partition(module);

  std::printf("=== source function 'visit' compiled to %zu thread "
              "template(s) ===\n\n%s\n",
              program.templates.size(), program.dump().c_str());

  // The same compiled program on every backend: the simulator, the
  // threaded native pool and worker processes. Each must reproduce the
  // direct interpretation on the host (the oracle).
  int status = 0;
  const std::pair<exec::BackendKind, const char*> backends[] = {
      {exec::BackendKind::kSim, "sim"},
      {exec::BackendKind::kNative, "native"},
      {exec::BackendKind::kProc, "proc"}};
  for (const auto& [kind, name] : backends) {
    rt::Cluster cluster(std::uint32_t(procs), kind);
    const auto nodes = build_list(cluster, module, len);
    Accums direct;
    interp_direct(module, "visit", nodes[0].addr, direct);

    ProgramRunner runner(module, program);
    std::vector<std::vector<gas::GPtr<Record>>> roots(cluster.num_nodes());
    roots[0].push_back(nodes[0]);
    const auto result = runner.run(cluster, rt::RuntimeConfig::dpa(32),
                                   "visit", std::move(roots));
    if (!result.phase.completed) {
      std::fprintf(stderr, "%s: deadlock:\n%s", name,
                   result.phase.diagnostics.c_str());
      return 1;
    }
    const double total = result.accums.at("total");
    std::printf("[%s] direct interpretation: total = %.6f\n", name,
                direct["total"]);
    std::printf("[%s] compiled on runtime:   total = %.6f\n", name, total);
    std::printf("[%s] phase time %.3f ms, %llu threads, %llu fetches in %llu "
                "messages (agg %.1fx)\n",
                name, result.phase.seconds() * 1e3,
                (unsigned long long)result.phase.rt.threads_run,
                (unsigned long long)result.phase.rt.refs_requested,
                (unsigned long long)result.phase.rt.request_msgs,
                result.phase.rt.aggregation_factor());
    if (total != direct["total"]) status = 1;
  }
  return status;
}
