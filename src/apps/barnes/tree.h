// Host-side octree: built between force phases (tree construction is not the
// phase the paper times), then materialized into the global heap with homes
// chosen by costzone partitioning.
//
// The build is the linear-octree algorithm: bodies are sorted by Morton key
// and cells are formed over contiguous key ranges. Morton order doubles as
// the costzone traversal order (contiguous chunks of it are spatially
// compact), as in SPLASH-2.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "apps/barnes/types.h"
#include "gas/heap.h"

namespace dpa::apps::barnes {

// 60-bit Morton key of a position inside the cubic bounding box
// [center - half, center + half]^3.
std::uint64_t morton_key(const Vec3& pos, const Vec3& center, double half);

struct BuildCell {
  Vec3 center;
  double half = 0;
  bool leaf = true;
  std::vector<std::int32_t> bodies;  // leaf payload (indices)
  std::array<std::int32_t, 8> child{-1, -1, -1, -1, -1, -1, -1, -1};
  Vec3 com;
  double mass = 0;
  Quad quad;
  std::int32_t first_body = -1;  // first body (Morton order) in the subtree
};

struct BhTree {
  std::vector<BuildCell> cells;
  std::int32_t root = -1;
  std::vector<std::int32_t> order;  // body indices in Morton order
  Vec3 root_center;
  double root_half = 0;

  const BuildCell& at(std::int32_t i) const { return cells[std::size_t(i)]; }
  std::size_t num_cells() const { return cells.size(); }

  // Builds the octree over `bodies`.
  static BhTree build(std::span<const Body> bodies);

  // Post-order centers of mass.
  void compute_com(std::span<const Body> bodies);

  // Post-order quadrupole moments about each cell's COM (requires
  // compute_com first). Exact for point masses: children shift by the
  // parallel-axis rule (their dipole about their own COM is zero).
  void compute_quadrupoles(std::span<const Body> bodies);
};

// Costzones: splits the Morton-ordered body sequence into `nodes` chunks of
// approximately equal total `work`, returning owner[body index].
std::vector<sim::NodeId> costzone_owners(const BhTree& tree,
                                         std::span<const Body> bodies,
                                         std::uint32_t nodes);

// Materializes the host tree into global-heap cells. A cell is homed where
// its subtree's first body lives (chunks are contiguous in Morton order, so
// this co-locates subtrees with their owners). Returns the root pointer.
gas::GPtr<Cell> materialize(const BhTree& tree, std::span<const Body> bodies,
                            std::span<const sim::NodeId> owner,
                            gas::GlobalHeap& heap);

// Sequential reference force walk (also the interaction-count oracle).
struct WalkCounts {
  std::uint64_t interactions = 0;  // body-body plus body-COM terms
  std::uint64_t opens = 0;         // cells descended into

  friend WalkCounts operator+(WalkCounts a, const WalkCounts& b) {
    return {a.interactions + b.interactions, a.opens + b.opens};
  }
};
WalkCounts walk_sequential(const BhTree& tree, std::span<const Body> bodies,
                           const Body& body, double theta, double eps,
                           Vec3* acc_out, bool use_quadrupole = false);

// Acceleration contribution of a cell's quadrupole on a body at `pos`
// (added on top of the softened monopole term).
Vec3 quadrupole_acc(const Quad& q, const Vec3& com, const Vec3& pos);

}  // namespace dpa::apps::barnes
