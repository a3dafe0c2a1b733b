#include "apps/fmm/phase.h"

#include "support/assert.h"

namespace dpa::apps::fmm {

std::uint32_t PhaseContext::cell_bytes(std::int32_t src) const {
  const FBuildCell& cell = tree->at(src);
  std::uint32_t bytes = 48;  // center, half, flags
  bytes += (cfg.terms + 1) * sizeof(Cmplx);
  if (cell.leaf) {
    bytes += std::uint32_t(cell.parts.size()) *
             std::uint32_t(sizeof(Cmplx) + sizeof(double) + sizeof(std::int32_t));
  }
  return bytes;
}

namespace {

void apply_entry(rt::Ctx& ctx, PhaseContext* pc, std::int32_t target,
                 const ListEntry& entry) {
  ctx.cpu().charge(pc->cfg.cost_list_visit, sim::Work::kCompute);
  const Kind kind = entry.kind;
  const std::int32_t src = entry.src;
  ctx.require_bytes(
      pc->cells[std::size_t(src)], pc->cell_bytes(src),
      [pc, target, kind](rt::Ctx& ctx2, const FCell& cell) {
        const std::uint32_t p = pc->cfg.terms;
        const FBuildCell& tcell = pc->tree->at(target);
        if (kind == Kind::kM2L) {
          m2l(std::span<const Cmplx>(cell.mpole.data(), p + 1), cell.center,
              tcell.center, p, pc->tree->local(target));
          ctx2.charge(pc->cfg.m2l_cost());
          ++pc->done.slot(ctx2).m2l;
        } else {
          std::uint64_t pairs = 0;
          for (const auto ti : tcell.parts) {
            Particle& tp = (*pc->particles)[std::size_t(ti)];
            Cmplx field{};
            for (std::int32_t j = 0; j < cell.count; ++j) {
              if (cell.pidx[std::size_t(j)] == ti) continue;
              field += p2p_field(tp.z, cell.ppos[std::size_t(j)],
                                 cell.pq[std::size_t(j)]);
              ++pairs;
            }
            tp.force += std::conj(field);
          }
          ctx2.charge(sim::Time(pairs) * pc->cfg.cost_p2p_pair);
          pc->done.slot(ctx2).p2p_pairs += pairs;
        }
      });
}

}  // namespace

std::vector<rt::NodeWork> make_interaction_work(
    PhaseContext* pc, const FmmTree::Partition& part) {
  DPA_CHECK(pc->tree != nullptr && pc->particles != nullptr);
  std::vector<rt::NodeWork> work(part.targets.size());
  for (std::size_t n = 0; n < part.targets.size(); ++n) {
    const std::vector<std::int32_t>& targets = part.targets[n];
    work[n].count = targets.size();
    work[n].item = [pc, &targets](rt::Ctx& ctx, std::uint64_t i) {
      const std::int32_t t = targets[std::size_t(i)];
      ctx.charge(pc->cfg.cost_cell_start);
      for (const ListEntry& e : pc->tree->list(t)) apply_entry(ctx, pc, t, e);
    };
  }
  return work;
}

}  // namespace dpa::apps::fmm
