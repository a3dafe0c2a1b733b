#include "apps/olden/treeadd.h"

#include <cmath>
#include <memory>

#include "support/assert.h"
#include "support/rng.h"

namespace dpa::apps::olden {

namespace {

struct Build {
  rt::Cluster* cluster = nullptr;
  Rng* rng = nullptr;
  std::uint32_t nodes = 0;
  std::uint32_t split_depth = 0;  // depth at which subtrees get owners
  std::vector<std::vector<gas::GPtr<TNode>>> subtree_roots;  // per node
  double expected = 0;

  double scatter = 0;

  gas::GPtr<TNode> build(std::uint32_t depth, std::uint32_t level,
                         sim::NodeId home) {
    if (depth == 0) return {};
    if (level == split_depth) {
      // A per-node subtree: round-robin ownership.
      home = sim::NodeId(subtree_count_++ % nodes);
      subtree_roots[home].push_back({});  // placeholder, filled below
    }
    const double value = rng->uniform(0, 1);
    expected += value;
    // Most nodes live with their subtree's owner; some are scattered.
    sim::NodeId alloc_home = home;
    if (level > split_depth && rng->chance(scatter))
      alloc_home = sim::NodeId(rng->next_below(nodes));
    auto self = cluster->heap.make<TNode>(alloc_home, TNode{value, {}, {}});
    auto* mut = gas::GlobalHeap::mutate(self);
    mut->left = build(depth - 1, level + 1, home);
    mut->right = build(depth - 1, level + 1, home);
    if (level == split_depth) subtree_roots[home].back() = self;
    return self;
  }

 private:
  std::uint32_t subtree_count_ = 0;
};

// The compiled-form walk: one non-blocking thread per tree node. `limit`
// stops node 0's top walk at the subtree boundary (those roots belong to
// their owners' conc loops).
void walk(rt::Ctx& ctx, gas::GPtr<TNode> node, rt::NodeLocal<double>* sum,
          sim::Time cost, std::uint32_t depth_left) {
  ctx.require(node, [sum, cost, depth_left](rt::Ctx& ctx2, const TNode& t) {
    ctx2.charge(cost);
    sum->slot(ctx2) += t.value;
    if (depth_left == 0) return;
    if (t.left) walk(ctx2, t.left, sum, cost, depth_left - 1);
    if (t.right) walk(ctx2, t.right, sum, cost, depth_left - 1);
  });
}

}  // namespace

TreeAddApp::TreeAddApp(TreeAddConfig cfg, std::uint32_t nodes)
    : cfg_(cfg), nodes_(nodes) {
  DPA_CHECK(nodes_ > 0);
  DPA_CHECK(cfg_.depth >= 1 && cfg_.depth <= 26);
}

TreeAddResult TreeAddApp::run(const sim::NetParams& net,
                              const rt::RuntimeConfig& rcfg,
                              exec::BackendKind backend) const {
  rt::Cluster cluster(nodes_, backend, net);
  Rng rng(cfg_.seed);

  Build build;
  build.cluster = &cluster;
  build.rng = &rng;
  build.nodes = nodes_;
  build.scatter = cfg_.scatter;
  // Enough split levels that every node owns at least one subtree.
  std::uint32_t split = 0;
  while ((1u << split) < nodes_ && split + 1 < cfg_.depth) ++split;
  build.split_depth = split;
  build.subtree_roots.resize(nodes_);
  const gas::GPtr<TNode> root = build.build(cfg_.depth, 0, 0);

  // One partial sum per node, reduced in node order: the same additions in
  // the same order on every backend.
  rt::NodeLocal<double> sums(cluster);
  std::vector<rt::NodeWork> work(nodes_);
  const sim::Time cost = cfg_.cost_visit;
  for (std::uint32_t n = 0; n < nodes_; ++n) {
    const auto& roots = build.subtree_roots[n];
    work[n].count = roots.size();
    work[n].item = [&roots, &sums, cost, this](rt::Ctx& ctx, std::uint64_t i) {
      walk(ctx, roots[std::size_t(i)], &sums, cost,
           cfg_.depth - 1);  // full remaining depth
    };
  }
  // Node 0 additionally walks the shared top region (above the split).
  if (split > 0) {
    const auto& roots0 = build.subtree_roots[0];
    const std::uint32_t depth = cfg_.depth;
    work[0].count = roots0.size() + 1;
    work[0].item = [&roots0, root, &sums, cost, split, depth](
                       rt::Ctx& ctx, std::uint64_t i) {
      if (i < roots0.size()) {
        walk(ctx, roots0[std::size_t(i)], &sums, cost, depth - 1);
        return;
      }
      walk(ctx, root, &sums, cost, split - 1);
    };
  }

  rt::PhaseRunner runner(cluster, rcfg);
  TreeAddResult result;
  result.phase = runner.run(std::move(work));
  result.sum = sums.reduce();
  result.expected = build.expected;
  return result;
}

}  // namespace dpa::apps::olden
