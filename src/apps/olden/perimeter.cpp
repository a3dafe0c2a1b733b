#include "apps/olden/perimeter.h"

#include <array>
#include <memory>

#include "support/assert.h"
#include "support/rng.h"

namespace dpa::apps::olden {

namespace {

struct Bitmap {
  std::uint32_t n = 0;
  std::vector<std::uint8_t> bits;

  bool black(std::int64_t x, std::int64_t y) const {
    if (x < 0 || y < 0 || x >= std::int64_t(n) || y >= std::int64_t(n))
      return false;
    return bits[std::size_t(y) * n + std::size_t(x)] != 0;
  }
};

Bitmap make_bitmap(const PerimeterConfig& cfg) {
  Bitmap bm;
  bm.n = 1u << cfg.log_size;
  bm.bits.assign(std::size_t(bm.n) * bm.n, 0);
  Rng rng(cfg.seed);
  for (std::uint32_t b = 0; b < cfg.blobs; ++b) {
    const double cx = rng.uniform(0, bm.n);
    const double cy = rng.uniform(0, bm.n);
    const double r = rng.uniform(bm.n / 12.0, bm.n / 5.0);
    for (std::uint32_t y = 0; y < bm.n; ++y) {
      for (std::uint32_t x = 0; x < bm.n; ++x) {
        const double dx = x + 0.5 - cx, dy = y + 0.5 - cy;
        if (dx * dx + dy * dy <= r * r) bm.bits[std::size_t(y) * bm.n + x] = 1;
      }
    }
  }
  return bm;
}

std::uint64_t oracle_perimeter(const Bitmap& bm) {
  std::uint64_t edges = 0;
  for (std::uint32_t y = 0; y < bm.n; ++y) {
    for (std::uint32_t x = 0; x < bm.n; ++x) {
      if (!bm.black(x, y)) continue;
      edges += !bm.black(std::int64_t(x) - 1, y);
      edges += !bm.black(std::int64_t(x) + 1, y);
      edges += !bm.black(x, std::int64_t(y) - 1);
      edges += !bm.black(x, std::int64_t(y) + 1);
    }
  }
  return edges;
}

// Host-side quadtree (then materialized with owners).
struct HNode {
  std::uint32_t x0, y0, size;
  std::uint8_t color;  // 0 white, 1 black, 2 gray
  std::array<std::int32_t, 4> child{-1, -1, -1, -1};
  std::int32_t first_leaf = -1;  // preorder leaf index, for homing
};

struct HostTree {
  std::vector<HNode> nodes;
  std::int32_t leaf_count = 0;

  std::int32_t build(const Bitmap& bm, std::uint32_t x0, std::uint32_t y0,
                     std::uint32_t size) {
    const auto idx = std::int32_t(nodes.size());
    nodes.push_back(HNode{x0, y0, size, 0, {-1, -1, -1, -1}, -1});

    bool any_black = false, any_white = false;
    for (std::uint32_t y = y0; y < y0 + size && !(any_black && any_white);
         ++y) {
      for (std::uint32_t x = x0; x < x0 + size; ++x) {
        (bm.black(x, y) ? any_black : any_white) = true;
        if (any_black && any_white) break;
      }
    }
    if (!(any_black && any_white)) {
      nodes[std::size_t(idx)].color = any_black ? 1 : 0;
      nodes[std::size_t(idx)].first_leaf = leaf_count++;
      return idx;
    }
    nodes[std::size_t(idx)].color = 2;
    nodes[std::size_t(idx)].first_leaf = leaf_count;
    const std::uint32_t h = size / 2;
    // Quadrant q: bit0 = east half, bit1 = north half.
    const std::uint32_t qx[4] = {x0, x0 + h, x0, x0 + h};
    const std::uint32_t qy[4] = {y0, y0, y0 + h, y0 + h};
    for (int q = 0; q < 4; ++q) {
      const std::int32_t c = build(bm, qx[q], qy[q], h);
      nodes[std::size_t(idx)].child[std::size_t(q)] = c;
    }
    return idx;
  }
};

// Probes the color at pixel (px, py): a root-descend require-chain.
void probe(rt::Ctx& ctx, gas::GPtr<QNode> node, std::uint32_t px,
           std::uint32_t py, rt::NodeLocal<std::uint64_t>* perimeter,
           const PerimeterConfig* cfg) {
  ctx.require(node, [px, py, perimeter, cfg](rt::Ctx& ctx2, const QNode& q) {
    ctx2.charge(cfg->cost_probe_step);
    if (q.color != 2) {
      if (q.color == 0) {
        ctx2.charge(cfg->cost_edge);
        ++perimeter->slot(ctx2);
      }
      return;
    }
    const std::uint32_t h = q.size / 2;
    const std::uint32_t quad =
        (px >= q.x0 + h ? 1u : 0u) | (py >= q.y0 + h ? 2u : 0u);
    probe(ctx2, q.child[quad], px, py, perimeter, cfg);
  });
}

}  // namespace

PerimeterApp::PerimeterApp(PerimeterConfig cfg, std::uint32_t nodes)
    : cfg_(cfg), nodes_(nodes) {
  DPA_CHECK(nodes_ > 0);
  DPA_CHECK(cfg_.log_size >= 2 && cfg_.log_size <= 10);
}

PerimeterResult PerimeterApp::run(const sim::NetParams& net,
                                  const rt::RuntimeConfig& rcfg,
                                  exec::BackendKind backend) const {
  const Bitmap bm = make_bitmap(cfg_);

  HostTree host;
  host.nodes.reserve(std::size_t(bm.n) * bm.n / 2);
  const std::int32_t root_idx = host.build(bm, 0, 0, bm.n);

  rt::Cluster cluster(nodes_, backend, net);

  // Home each subtree where its first leaf lives; leaves are split into
  // contiguous preorder chunks (spatially compact).
  auto owner_of_leaf = [&](std::int32_t leaf) {
    return sim::NodeId(std::uint64_t(leaf) * nodes_ /
                       std::uint64_t(host.leaf_count));
  };
  std::vector<gas::GPtr<QNode>> global(host.nodes.size());
  // Children have larger indices (preorder): build bottom-up.
  for (std::size_t i = host.nodes.size(); i-- > 0;) {
    const HNode& h = host.nodes[i];
    QNode q;
    q.x0 = h.x0;
    q.y0 = h.y0;
    q.size = h.size;
    q.color = h.color;
    for (int c = 0; c < 4; ++c) {
      if (h.child[std::size_t(c)] >= 0)
        q.child[std::size_t(c)] = global[std::size_t(h.child[std::size_t(c)])];
    }
    global[i] = cluster.heap.make<QNode>(owner_of_leaf(h.first_leaf), q);
  }
  const gas::GPtr<QNode> root = global[std::size_t(root_idx)];

  // Per-node black leaf lists.
  struct Leaf {
    std::uint32_t x0, y0, size;
  };
  std::vector<std::vector<Leaf>> owned(nodes_);
  std::uint64_t black_leaves = 0;
  for (const HNode& h : host.nodes) {
    if (h.color != 1) continue;
    ++black_leaves;
    owned[owner_of_leaf(h.first_leaf)].push_back(Leaf{h.x0, h.y0, h.size});
  }

  // One edge counter per node, summed afterwards (exact — integer).
  rt::NodeLocal<std::uint64_t> edges(cluster);
  const PerimeterConfig* cfg = &cfg_;
  const std::uint32_t n_pix = bm.n;
  std::vector<rt::NodeWork> work(nodes_);
  for (std::uint32_t n = 0; n < nodes_; ++n) {
    const auto& mine = owned[n];
    work[n].count = mine.size();
    work[n].item = [&mine, &edges, cfg, root, n_pix](rt::Ctx& ctx,
                                                     std::uint64_t i) {
      const Leaf& leaf = mine[std::size_t(i)];
      // Each border pixel edge: either the bitmap boundary (host check) or
      // a probe of the pixel on the other side.
      auto edge = [&](std::int64_t px, std::int64_t py) {
        if (px < 0 || py < 0 || px >= std::int64_t(n_pix) ||
            py >= std::int64_t(n_pix)) {
          ctx.charge(cfg->cost_edge);
          ++edges.slot(ctx);
          return;
        }
        probe(ctx, root, std::uint32_t(px), std::uint32_t(py), &edges, cfg);
      };
      for (std::uint32_t k = 0; k < leaf.size; ++k) {
        edge(std::int64_t(leaf.x0) - 1, leaf.y0 + k);            // west
        edge(std::int64_t(leaf.x0) + leaf.size, leaf.y0 + k);    // east
        edge(leaf.x0 + k, std::int64_t(leaf.y0) - 1);            // south
        edge(leaf.x0 + k, std::int64_t(leaf.y0) + leaf.size);    // north
      }
    };
  }

  rt::PhaseRunner runner(cluster, rcfg);
  PerimeterResult result;
  result.phase = runner.run(std::move(work));
  result.perimeter = edges.reduce();
  result.expected = oracle_perimeter(bm);
  result.black_leaves = black_leaves;
  result.tree_nodes = host.nodes.size();
  return result;
}

}  // namespace dpa::apps::olden
