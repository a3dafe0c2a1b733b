#include "apps/barnes/force.h"

#include <cmath>

#include "support/assert.h"

namespace dpa::apps::barnes {

void walk_parallel(rt::Ctx& ctx, gas::GPtr<Cell> cell, Body* body,
                   ForceParams* params) {
  ctx.require(cell, [body, params](rt::Ctx& ctx2, const Cell& c) {
    if (c.leaf) {
      std::int64_t n = 0;
      for (std::int32_t i = 0; i < c.count; ++i) {
        if (c.bidx[std::size_t(i)] == body->idx) continue;
        const Vec3 d = c.bpos[std::size_t(i)] - body->pos;
        const double denom = d.norm2() + params->eps2;
        const double inv = 1.0 / std::sqrt(denom);
        body->acc += d * (c.bmass[std::size_t(i)] * inv * inv * inv);
        ++n;
      }
      if (n > 0) {
        ctx2.charge(n * params->cost_interaction);
        body->work += double(n);
        params->counts.slot(ctx2).interactions += std::uint64_t(n);
      }
      return;
    }

    const Vec3 d = c.com - body->pos;
    const double r2 = d.norm2();
    const double size = 2 * c.half;
    if (r2 * params->theta2 >= size * size) {
      // Far enough: a single interaction with the cell's center of mass.
      const double denom = r2 + params->eps2;
      const double inv = 1.0 / std::sqrt(denom);
      body->acc += d * (c.mass * inv * inv * inv);
      if (params->use_quadrupole) {
        body->acc += quadrupole_acc(c.quad, c.com, body->pos);
        ctx2.charge(params->cost_interaction_quad);
      } else {
        ctx2.charge(params->cost_interaction);
      }
      body->work += 1.0;
      ++params->counts.slot(ctx2).interactions;
    } else {
      // Open the cell: one new thread per child, each labeled with the
      // child pointer.
      ctx2.charge(params->cost_open);
      ++params->counts.slot(ctx2).opens;
      for (const auto& ch : c.child) {
        if (ch) walk_parallel(ctx2, ch, body, params);
      }
    }
  });
}

std::vector<rt::NodeWork> make_force_work(
    std::span<Body> bodies,
    const std::vector<std::vector<std::int32_t>>& owned,
    gas::GPtr<Cell> root, ForceParams* params) {
  DPA_CHECK(root);
  std::vector<rt::NodeWork> work(owned.size());
  Body* base = bodies.data();
  for (std::size_t n = 0; n < owned.size(); ++n) {
    const std::vector<std::int32_t>& mine = owned[n];
    work[n].count = mine.size();
    work[n].item = [base, &mine, root, params](rt::Ctx& ctx,
                                               std::uint64_t i) {
      Body* body = base + mine[std::size_t(i)];
      ctx.charge(params->cost_body_start);
      walk_parallel(ctx, root, body, params);
    };
  }
  return work;
}

}  // namespace dpa::apps::barnes
