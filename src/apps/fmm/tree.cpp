#include "apps/fmm/tree.h"

#include <algorithm>
#include <cmath>

#include "support/assert.h"
#include "support/rng.h"

namespace dpa::apps::fmm {

namespace {

constexpr int kKeyBits = kMaxDepth;

std::uint32_t quantize(double v, double lo, double span) {
  const auto max = double((1u << kKeyBits) - 1);
  const double q = (v - lo) / span * max;
  if (q <= 0) return 0;
  if (q >= max) return (1u << kKeyBits) - 1;
  return std::uint32_t(q);
}

std::uint64_t morton2(Cmplx z, Cmplx center, double half) {
  const double span = 2 * half;
  const std::uint32_t xi =
      quantize(z.real(), center.real() - half, span);
  const std::uint32_t yi =
      quantize(z.imag(), center.imag() - half, span);
  std::uint64_t key = 0;
  for (int b = kKeyBits - 1; b >= 0; --b) {
    const std::uint64_t quad = ((xi >> b) & 1u) | (((yi >> b) & 1u) << 1);
    key = (key << 2) | quad;
  }
  return key;
}

}  // namespace

std::vector<Particle> make_particles(std::uint32_t n, std::uint64_t seed,
                                     bool clustered) {
  DPA_CHECK(n > 0);
  Rng rng(seed);
  std::vector<Particle> parts(n);
  // Cluster centers inside the unit square.
  const int nclusters = 4;
  Cmplx ccenter[4];
  for (auto& c : ccenter)
    c = Cmplx(rng.uniform(0.15, 0.85), rng.uniform(0.15, 0.85));

  for (std::uint32_t i = 0; i < n; ++i) {
    Particle& p = parts[i];
    p.idx = std::int32_t(i);
    p.q = 1.0 / double(n);
    if (clustered && rng.chance(0.7)) {
      const Cmplx c = ccenter[rng.next_below(nclusters)];
      for (;;) {
        const Cmplx z =
            c + Cmplx(rng.normal() * 0.04, rng.normal() * 0.04);
        if (z.real() > 0.0 && z.real() < 1.0 && z.imag() > 0.0 &&
            z.imag() < 1.0) {
          p.z = z;
          break;
        }
      }
    } else {
      p.z = Cmplx(rng.uniform(0, 1), rng.uniform(0, 1));
    }
  }
  return parts;
}

FmmTree FmmTree::build(std::span<const Particle> particles,
                       std::uint32_t leaf_cap) {
  DPA_CHECK(!particles.empty());
  DPA_CHECK(leaf_cap > 0 && leaf_cap <= std::uint32_t(kLeafCap));

  double lox = particles[0].z.real(), hix = lox;
  double loy = particles[0].z.imag(), hiy = loy;
  for (const Particle& p : particles) {
    lox = std::min(lox, p.z.real());
    hix = std::max(hix, p.z.real());
    loy = std::min(loy, p.z.imag());
    hiy = std::max(hiy, p.z.imag());
  }
  const Cmplx center((lox + hix) / 2, (loy + hiy) / 2);
  double half = 0.5 * std::max(hix - lox, hiy - loy);
  half = half > 0 ? half * 1.0001 : 1.0;

  FmmTree tree;
  std::vector<std::uint64_t> keys(particles.size());
  tree.order_.resize(particles.size());
  for (std::size_t i = 0; i < particles.size(); ++i) {
    keys[i] = morton2(particles[i].z, center, half);
    tree.order_[i] = std::int32_t(i);
  }
  std::sort(tree.order_.begin(), tree.order_.end(),
            [&](std::int32_t a, std::int32_t b) {
              const auto ka = keys[std::size_t(a)];
              const auto kb = keys[std::size_t(b)];
              return ka != kb ? ka < kb : a < b;
            });
  tree.cells_.reserve(particles.size() / 2 + 16);
  tree.root_ = tree.build_range(particles, 0, particles.size(), 0, center,
                                half, -1, leaf_cap, keys);
  return tree;
}

std::int32_t FmmTree::build_range(std::span<const Particle> particles,
                                  std::size_t lo, std::size_t hi, int depth,
                                  Cmplx center, double half,
                                  std::int32_t parent, std::uint32_t leaf_cap,
                                  const std::vector<std::uint64_t>& keys) {
  DPA_CHECK(hi > lo);
  const auto idx = std::int32_t(cells_.size());
  cells_.emplace_back();
  {
    FBuildCell& cell = cells_.back();
    cell.center = center;
    cell.half = half;
    cell.level = depth;
    cell.parent = parent;
    cell.first_part = order_[lo];
  }

  if (hi - lo <= leaf_cap || depth >= kMaxDepth) {
    DPA_CHECK(hi - lo <= std::uint32_t(kLeafCap))
        << "quadtree leaf overflow at max depth";
    FBuildCell& cell = cells_[std::size_t(idx)];
    cell.leaf = true;
    cell.parts.assign(order_.begin() + std::ptrdiff_t(lo),
                      order_.begin() + std::ptrdiff_t(hi));
    return idx;
  }

  cells_[std::size_t(idx)].leaf = false;
  const int shift = 2 * (kKeyBits - 1 - depth);
  std::size_t start = lo;
  for (std::uint64_t quad = 0; quad < 4; ++quad) {
    std::size_t end = start;
    while (end < hi &&
           ((keys[std::size_t(order_[end])] >> shift) & 3u) == quad) {
      ++end;
    }
    if (end > start) {
      const double qh = half / 2;
      const Cmplx ccenter(center.real() + ((quad & 1u) ? qh : -qh),
                          center.imag() + ((quad & 2u) ? qh : -qh));
      const std::int32_t c = build_range(particles, start, end, depth + 1,
                                         ccenter, qh, idx, leaf_cap, keys);
      cells_[std::size_t(idx)].child[quad] = c;
    }
    start = end;
  }
  DPA_CHECK(start == hi) << "quadrant partition lost particles";
  return idx;
}

void FmmTree::build_lists(double ws_ratio) {
  DPA_CHECK(ws_ratio >= 3.0) << "M2L would not converge";
  lists_.assign(cells_.size(), {});
  total_m2l_ = 0;
  total_p2p_pairs_ = 0;
  interact(root_, root_, ws_ratio);
}

void FmmTree::interact(std::int32_t a, std::int32_t b, double ws_ratio) {
  const FBuildCell& ca = cells_[std::size_t(a)];
  const FBuildCell& cb = cells_[std::size_t(b)];
  const double s = std::max(ca.half, cb.half);
  const double dx = std::abs(ca.center.real() - cb.center.real());
  const double dy = std::abs(ca.center.imag() - cb.center.imag());
  if (std::max(dx, dy) >= ws_ratio * s * (1.0 - 1e-12)) {
    lists_[std::size_t(a)].push_back({b, Kind::kM2L});
    ++total_m2l_;
    return;
  }
  if (ca.leaf && cb.leaf) {
    lists_[std::size_t(a)].push_back({b, Kind::kP2P});
    // Self-pairs (i, i) are skipped by the kernels.
    total_p2p_pairs_ += ca.parts.size() * cb.parts.size() -
                        (a == b ? ca.parts.size() : 0);
    return;
  }
  // Split the larger cell (the source on ties, mirroring V-list structure).
  if (!cb.leaf && (ca.leaf || cb.half >= ca.half)) {
    for (const auto c : cb.child)
      if (c >= 0) interact(a, c, ws_ratio);
  } else {
    for (const auto c : ca.child)
      if (c >= 0) interact(c, b, ws_ratio);
  }
}

void FmmTree::upward(std::span<const Particle> particles, std::uint32_t p) {
  DPA_CHECK(p + 1 <= kMaxTerms + 1);
  mpole_.assign(cells_.size(), std::vector<Cmplx>(p + 1, Cmplx{}));
  terms_ = p + 1;
  local_.assign(cells_.size() * terms_, Cmplx{});

  // Children have larger indices (preorder creation): reverse sweep.
  std::vector<Particle> scratch;
  for (std::size_t i = cells_.size(); i-- > 0;) {
    const FBuildCell& cell = cells_[i];
    if (cell.leaf) {
      scratch.clear();
      for (const auto pi : cell.parts)
        scratch.push_back(particles[std::size_t(pi)]);
      p2m(scratch, cell.center, p, mpole_[i]);
    } else {
      for (const auto c : cell.child) {
        if (c < 0) continue;
        m2m(mpole_[std::size_t(c)], cells_[std::size_t(c)].center,
            cell.center, p, mpole_[i]);
      }
    }
  }
}

void FmmTree::downward_and_evaluate(std::span<Particle> particles,
                                    std::uint32_t p) {
  // Parents precede children (preorder): forward sweep.
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const FBuildCell& cell = cells_[i];
    const std::span<const Cmplx> here = local(std::int32_t(i));
    if (cell.leaf) {
      for (const auto pi : cell.parts) {
        Particle& part = particles[std::size_t(pi)];
        part.force += std::conj(l2p_field(here, cell.center, p, part.z));
      }
    } else {
      for (const auto c : cell.child) {
        if (c < 0) continue;
        l2l(here, cell.center, cells_[std::size_t(c)].center, p, local(c));
      }
    }
  }
}

void FmmTree::interact_sequential(std::span<Particle> particles,
                                  std::uint32_t p) {
  for (std::size_t t = 0; t < cells_.size(); ++t) {
    const FBuildCell& target = cells_[t];
    for (const ListEntry& e : lists_[t]) {
      const FBuildCell& src = cells_[std::size_t(e.src)];
      if (e.kind == Kind::kM2L) {
        m2l(mpole_[std::size_t(e.src)], src.center, target.center, p,
            local(std::int32_t(t)));
      } else {
        for (const auto ti : target.parts) {
          Particle& tp = particles[std::size_t(ti)];
          Cmplx field{};
          for (const auto si : src.parts) {
            if (si == ti) continue;
            const Particle& sp = particles[std::size_t(si)];
            field += p2p_field(tp.z, sp.z, sp.q);
          }
          tp.force += std::conj(field);
        }
      }
    }
  }
}

double FmmTree::entry_cost(std::int32_t target, const ListEntry& e,
                           const FmmConfig& cfg) const {
  const FBuildCell& t = cells_[std::size_t(target)];
  const FBuildCell& s = cells_[std::size_t(e.src)];
  if (e.kind == Kind::kM2L) return double(cfg.m2l_cost());
  return double(t.parts.size() * s.parts.size()) * double(cfg.cost_p2p_pair);
}

std::uint64_t FmmTree::total_entries() const {
  std::uint64_t n = 0;
  for (const auto& l : lists_) n += l.size();
  return n;
}

FmmTree::Partition FmmTree::partition(std::uint32_t nodes,
                                      const FmmConfig& cfg) const {
  DPA_CHECK(nodes > 0);
  DPA_CHECK(!lists_.empty()) << "build_lists before partition";

  // Work per cell = its own list work plus per-cell start cost.
  std::vector<double> work(cells_.size(), 0.0);
  double total = 0;
  for (std::size_t t = 0; t < cells_.size(); ++t) {
    double w = double(cfg.cost_cell_start);
    for (const ListEntry& e : lists_[t])
      w += double(cfg.cost_list_visit) + entry_cost(std::int32_t(t), e, cfg);
    work[t] = w;
    total += w;
  }

  Partition part;
  part.cell_owner.resize(cells_.size());
  part.targets.resize(nodes);
  // Preorder index order is a space-filling traversal: contiguous chunks
  // are spatially compact (the costzone property).
  double prefix = 0;
  for (std::size_t t = 0; t < cells_.size(); ++t) {
    const double mid = prefix + work[t] / 2;
    auto zone = sim::NodeId(mid / total * double(nodes));
    if (zone >= nodes) zone = nodes - 1;
    part.cell_owner[t] = zone;
    if (!lists_[t].empty()) part.targets[zone].push_back(std::int32_t(t));
    prefix += work[t];
  }
  return part;
}

std::vector<gas::GPtr<FCell>> FmmTree::materialize(
    std::span<const Particle> particles, std::uint32_t p,
    std::span<const sim::NodeId> owner, gas::GlobalHeap& heap) const {
  DPA_CHECK(owner.size() == cells_.size());
  DPA_CHECK(!mpole_.empty()) << "upward pass before materialize";
  std::vector<gas::GPtr<FCell>> out(cells_.size());
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const FBuildCell& src = cells_[i];
    gas::GPtr<FCell> ptr = heap.make<FCell>(owner[i]);
    FCell* cell = gas::GlobalHeap::mutate(ptr);
    cell->center = src.center;
    cell->half = src.half;
    cell->leaf = src.leaf;
    for (std::uint32_t k = 0; k <= p; ++k) cell->mpole[k] = mpole_[i][k];
    if (src.leaf) {
      cell->count = std::int32_t(src.parts.size());
      for (std::size_t j = 0; j < src.parts.size(); ++j) {
        const Particle& part = particles[std::size_t(src.parts[j])];
        cell->ppos[j] = part.z;
        cell->pq[j] = part.q;
        cell->pidx[j] = part.idx;
      }
    }
    out[i] = ptr;
  }
  return out;
}

std::vector<Cmplx> direct_forces(std::span<const Particle> particles) {
  std::vector<Cmplx> forces(particles.size());
  for (std::size_t i = 0; i < particles.size(); ++i) {
    Cmplx field{};
    for (std::size_t j = 0; j < particles.size(); ++j) {
      if (i == j) continue;
      field += p2p_field(particles[i].z, particles[j].z, particles[j].q);
    }
    forces[i] = std::conj(field);
  }
  return forces;
}

}  // namespace dpa::apps::fmm
