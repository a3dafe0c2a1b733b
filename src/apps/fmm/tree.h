// Host-side adaptive quadtree for the 2D FMM, with interaction lists built
// by a dual-tree traversal (Dehnen-style): a target/source cell pair is
// either well separated (one M2L list entry), a pair of touching leaves
// (one P2P entry), or split at the larger cell and recursed. This covers
// every ordered (target particle, source particle) pair exactly once and
// keeps every M2L convergence ratio bounded by ws_ratio — a simplification
// of the SPLASH-2 FMM's U/V/W/X lists that preserves the communication
// pattern the paper's runtime optimizes (bulk reads of remote cells'
// expansions and inlined leaf particles). Documented in DESIGN.md.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "apps/fmm/expansion.h"
#include "apps/fmm/types.h"
#include "gas/heap.h"

namespace dpa::apps::fmm {

enum class Kind : std::uint8_t { kM2L, kP2P };

struct ListEntry {
  std::int32_t src = -1;
  Kind kind = Kind::kM2L;
};

struct FBuildCell {
  Cmplx center;
  double half = 0;
  int level = 0;
  bool leaf = true;
  std::vector<std::int32_t> parts;  // leaf particles
  std::array<std::int32_t, 4> child{-1, -1, -1, -1};
  std::int32_t parent = -1;
  std::int32_t first_part = -1;
};

// Generates a clustered 2D particle set (uniform background plus Gaussian
// clusters) with total charge 1.
std::vector<Particle> make_particles(std::uint32_t n, std::uint64_t seed,
                                     bool clustered = true);

class FmmTree {
 public:
  static FmmTree build(std::span<const Particle> particles,
                       std::uint32_t leaf_cap = kLeafCap);

  // Builds per-target interaction lists (dual traversal).
  void build_lists(double ws_ratio);

  // Upward pass: P2M at leaves, M2M toward the root (untimed setup).
  void upward(std::span<const Particle> particles, std::uint32_t p);

  // Downward pass: L2L toward leaves, then L2P into particle forces
  // (untimed completion after the interaction phase).
  void downward_and_evaluate(std::span<Particle> particles, std::uint32_t p);

  // Runs the whole interaction phase sequentially on the host (the oracle):
  // applies every list entry, filling locals and P2P forces.
  void interact_sequential(std::span<Particle> particles, std::uint32_t p);

  // Modeled per-entry work, for costzones and the sequential time model.
  double entry_cost(std::int32_t target, const ListEntry& e,
                    const FmmConfig& cfg) const;

  const FBuildCell& at(std::int32_t i) const { return cells_[std::size_t(i)]; }
  std::size_t num_cells() const { return cells_.size(); }
  std::int32_t root() const { return root_; }
  const std::vector<ListEntry>& list(std::int32_t i) const {
    return lists_[std::size_t(i)];
  }
  std::span<const Cmplx> mpole(std::int32_t i) const {
    return mpole_[std::size_t(i)];
  }
  // Local expansion of cell i: p+1 terms, one stride of locals().
  std::span<Cmplx> local(std::int32_t i) {
    return locals().subspan(std::size_t(i) * terms_, terms_);
  }
  std::span<Cmplx> locals() { return local_; }

  std::uint64_t total_m2l() const { return total_m2l_; }
  std::uint64_t total_p2p_pairs() const { return total_p2p_pairs_; }
  std::uint64_t total_entries() const;

  // Costzone owners for cells (preorder = Morton order of subtrees). Also
  // returns, per node, the list of target cells it owns that have work.
  struct Partition {
    std::vector<sim::NodeId> cell_owner;
    std::vector<std::vector<std::int32_t>> targets;  // per node
  };
  Partition partition(std::uint32_t nodes, const FmmConfig& cfg) const;

  // Materializes cells (geometry + truncated multipole + leaf particles)
  // into the global heap.
  std::vector<gas::GPtr<FCell>> materialize(
      std::span<const Particle> particles, std::uint32_t p,
      std::span<const sim::NodeId> owner, gas::GlobalHeap& heap) const;

 private:
  std::int32_t build_range(std::span<const Particle> particles,
                           std::size_t lo, std::size_t hi, int depth,
                           Cmplx center, double half, std::int32_t parent,
                           std::uint32_t leaf_cap,
                           const std::vector<std::uint64_t>& keys);
  void interact(std::int32_t a, std::int32_t b, double ws_ratio);

  std::vector<FBuildCell> cells_;
  std::int32_t root_ = -1;
  std::vector<std::int32_t> order_;  // particle indices in Morton order
  std::vector<std::vector<ListEntry>> lists_;
  std::vector<std::vector<Cmplx>> mpole_;
  std::vector<Cmplx> local_;  // every cell's local expansion, stride terms_
  std::size_t terms_ = 0;     // p+1
  std::uint64_t total_m2l_ = 0;
  std::uint64_t total_p2p_pairs_ = 0;
};

// Direct O(N^2) force oracle.
std::vector<Cmplx> direct_forces(std::span<const Particle> particles);

}  // namespace dpa::apps::fmm
