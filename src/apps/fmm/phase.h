// The FMM interaction phase (M2L + P2P over the interaction lists) in the
// paper's non-blocking-thread form: each node's conc loop runs over its
// owned target cells; every list entry becomes a thread labeled with the
// source cell's global pointer. Local expansions and particle forces are
// accumulated owner-side.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/fmm/tree.h"
#include "runtime/engine.h"

namespace dpa::apps::fmm {

// Work done by one node's interaction threads.
struct InteractCounts {
  std::uint64_t m2l = 0;
  std::uint64_t p2p_pairs = 0;

  friend InteractCounts operator+(InteractCounts a, const InteractCounts& b) {
    return {a.m2l + b.m2l, a.p2p_pairs + b.p2p_pairs};
  }
};

// Phase-lifetime shared state for the interaction threads.
struct PhaseContext {
  explicit PhaseContext(rt::Cluster& cluster) : done(cluster) {}

  FmmTree* tree = nullptr;
  std::vector<Particle>* particles = nullptr;
  std::vector<gas::GPtr<FCell>> cells;  // global cell per host index
  FmmConfig cfg;

  // Marshalled size of a cell fetch: header + truncated expansion +
  // (leaves) inlined particles.
  std::uint32_t cell_bytes(std::int32_t src) const;

  rt::NodeLocal<InteractCounts> done;
};

std::vector<rt::NodeWork> make_interaction_work(
    PhaseContext* pc, const FmmTree::Partition& part);

}  // namespace dpa::apps::fmm
