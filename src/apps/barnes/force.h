// The force-computation phase in the paper's post-transformation form: the
// walk over the octree is a chain of non-blocking threads, each labeled with
// the cell pointer it reads. Visiting a cell either accumulates force
// (leaf / far-enough COM) or creates one thread per child — which is exactly
// where DPA's map M tiles, pipelines and aggregates.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "apps/barnes/tree.h"
#include "apps/barnes/types.h"
#include "runtime/engine.h"

namespace dpa::apps::barnes {

// Shared, phase-lifetime parameters for the walk threads, plus their walk
// counters (one WalkCounts per node).
struct ForceParams {
  explicit ForceParams(rt::Cluster& cluster) : counts(cluster) {}

  double theta2 = 1.0;
  double eps2 = 0.0025;
  bool use_quadrupole = false;
  sim::Time cost_interaction = 3600;
  sim::Time cost_interaction_quad = 7600;
  sim::Time cost_open = 350;
  sim::Time cost_body_start = 900;
  rt::NodeLocal<WalkCounts> counts;
};

// Creates the walk thread for `body` on `cell`.
void walk_parallel(rt::Ctx& ctx, gas::GPtr<Cell> cell, Body* body,
                   ForceParams* params);

// Builds per-node conc loops over each node's owned bodies. `owned[n]` lists
// body indices homed on node n; `bodies` must stay alive and un-moved for
// the duration of the phase.
std::vector<rt::NodeWork> make_force_work(
    std::span<Body> bodies,
    const std::vector<std::vector<std::int32_t>>& owned,
    gas::GPtr<Cell> root, ForceParams* params);

}  // namespace dpa::apps::barnes
