#include "apps/fmm/app.h"

#include <utility>

#include "support/assert.h"

namespace dpa::apps::fmm {

double FmmRun::total_parallel_seconds() const {
  double total = 0;
  for (const auto& s : steps) total += s.phase.seconds();
  return total;
}

double FmmRun::total_model_seq_seconds() const {
  double total = 0;
  for (const auto& s : steps) total += s.model_seq_seconds;
  return total;
}

bool FmmRun::all_completed() const {
  for (const auto& s : steps)
    if (!s.phase.completed) return false;
  return !steps.empty();
}

FmmApp::FmmApp(FmmConfig cfg)
    : cfg_(cfg), init_(make_particles(cfg.nparticles, cfg.seed)) {
  DPA_CHECK(cfg_.terms >= 1 && cfg_.terms <= kMaxTerms);
}

double FmmApp::model_seq_seconds(const FmmTree& tree) const {
  double ns = 0;
  for (std::size_t t = 0; t < tree.num_cells(); ++t) {
    const auto target = std::int32_t(t);
    if (tree.list(target).empty()) continue;
    ns += double(cfg_.cost_cell_start);
    for (const ListEntry& e : tree.list(target))
      ns += double(cfg_.cost_list_visit) + tree.entry_cost(target, e, cfg_);
  }
  return ns / 1e9;
}

namespace {

void integrate(std::vector<Particle>& particles, double dt) {
  for (Particle& p : particles) {
    p.vel += p.force * dt;
    p.z += p.vel * dt;
  }
}

}  // namespace

FmmRun FmmApp::run(std::uint32_t nodes, const sim::NetParams& net,
                   const rt::RuntimeConfig& rcfg, obs::Session* obs,
                   exec::BackendKind backend) const {
  std::vector<Particle> particles = init_;
  rt::Cluster cluster(nodes, backend, net);
  cluster.attach_obs(obs);
  rt::PhaseRunner runner(cluster, rcfg);

  FmmRun result;
  for (std::uint32_t step = 0; step < cfg_.nsteps; ++step) {
    // --- untimed setup ---
    FmmTree tree = FmmTree::build(particles);
    tree.build_lists(cfg_.ws_ratio);
    tree.upward(particles, cfg_.terms);
    const FmmTree::Partition part = tree.partition(nodes, cfg_);

    for (Particle& p : particles) p.force = Cmplx{};

    PhaseContext pc(cluster);
    pc.tree = &tree;
    pc.particles = &particles;
    pc.cfg = cfg_;
    pc.cells = tree.materialize(particles, cfg_.terms, part.cell_owner,
                                cluster.heap);

    // --- the timed interaction phase ---
    // Phase-visible host memory for the multi-process backend: M2L writes
    // the target cells' local expansions and P2P writes the target
    // particles' forces (both target-partitioned, so each byte has one
    // writer).
    exec::ScopedPhaseSpan span_particles(
        cluster.exec(), exec::PhaseSpan{particles.data(),
                                        particles.size() * sizeof(Particle)});
    const std::span<Cmplx> locals = tree.locals();
    exec::ScopedPhaseSpan span_locals(
        cluster.exec(), exec::PhaseSpan{locals.data(), locals.size_bytes()});

    FmmStep st;
    st.phase = runner.run(make_interaction_work(&pc, part), "fmm.interact");
    DPA_CHECK(st.phase.completed)
        << "FMM interaction phase deadlocked:\n" << st.phase.diagnostics;

    // --- untimed completion ---
    tree.downward_and_evaluate(particles, cfg_.terms);

    const InteractCounts done = pc.done.reduce();
    st.m2l = done.m2l;
    st.p2p_pairs = done.p2p_pairs;
    st.list_entries = tree.total_entries();
    st.model_seq_seconds = model_seq_seconds(tree);
    result.steps.push_back(std::move(st));

    integrate(particles, cfg_.dt);
  }
  result.final_particles = std::move(particles);
  return result;
}

FmmApp::SeqResult FmmApp::run_sequential() const {
  std::vector<Particle> particles = init_;
  FmmTree tree = FmmTree::build(particles);
  tree.build_lists(cfg_.ws_ratio);
  tree.upward(particles, cfg_.terms);
  for (Particle& p : particles) p.force = Cmplx{};
  tree.interact_sequential(particles, cfg_.terms);
  tree.downward_and_evaluate(particles, cfg_.terms);

  SeqResult result;
  result.forces.reserve(particles.size());
  for (const Particle& p : particles) result.forces.push_back(p.force);
  result.seconds = model_seq_seconds(tree);
  result.m2l = tree.total_m2l();
  result.p2p_pairs = tree.total_p2p_pairs();
  return result;
}

}  // namespace dpa::apps::fmm
