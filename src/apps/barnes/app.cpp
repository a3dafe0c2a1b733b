#include "apps/barnes/app.h"

#include <utility>

#include "apps/barnes/plummer.h"
#include "support/assert.h"

namespace dpa::apps::barnes {

double BarnesRun::total_parallel_seconds() const {
  double total = 0;
  for (const auto& s : steps) total += s.phase.seconds();
  return total;
}

double BarnesRun::total_model_seq_seconds() const {
  double total = 0;
  for (const auto& s : steps) total += s.model_seq_seconds;
  return total;
}

std::uint64_t BarnesRun::total_interactions() const {
  std::uint64_t total = 0;
  for (const auto& s : steps) total += s.interactions;
  return total;
}

bool BarnesRun::all_completed() const {
  for (const auto& s : steps)
    if (!s.phase.completed) return false;
  return !steps.empty();
}

BarnesApp::BarnesApp(BarnesConfig cfg)
    : cfg_(cfg), init_(plummer_model(cfg.nbodies, cfg.seed)) {}

double BarnesApp::model_seq_seconds(const WalkCounts& counts) const {
  // With quadrupoles enabled, cell interactions are costlier; the split
  // between cell and body interactions is not tracked separately, so the
  // model charges the blended rate only when the feature is on.
  const double per_inter = cfg_.use_quadrupole
                               ? double(cfg_.cost_interaction_quad)
                               : double(cfg_.cost_interaction);
  const double ns = double(cfg_.nbodies) * double(cfg_.cost_body_start) +
                    double(counts.opens) * double(cfg_.cost_open) +
                    double(counts.interactions) * per_inter;
  return ns / 1e9;
}

namespace {

void integrate(std::vector<Body>& bodies, double dt) {
  for (Body& b : bodies) {
    b.vel += b.acc * dt;
    b.pos += b.vel * dt;
  }
}

}  // namespace

BarnesRun BarnesApp::run(std::uint32_t nodes, const sim::NetParams& net,
                         const rt::RuntimeConfig& rcfg, obs::Session* obs,
                         exec::BackendKind backend) const {
  std::vector<Body> bodies = init_;
  rt::Cluster cluster(nodes, backend, net);
  cluster.attach_obs(obs);
  rt::PhaseRunner runner(cluster, rcfg);

  BarnesRun result;
  for (std::uint32_t step = 0; step < cfg_.nsteps; ++step) {
    // --- untimed setup: tree build, COM, costzones, materialization ---
    BhTree tree = BhTree::build(bodies);
    tree.compute_com(bodies);
    if (cfg_.use_quadrupole) tree.compute_quadrupoles(bodies);
    const std::vector<sim::NodeId> owner =
        costzone_owners(tree, bodies, nodes);
    const gas::GPtr<Cell> root =
        materialize(tree, bodies, owner, cluster.heap);

    std::vector<std::vector<std::int32_t>> owned(nodes);
    // Conc loops iterate bodies in Morton order within each owner: the
    // spatial locality this creates is what makes tiles share fetches.
    for (const std::int32_t bi : tree.order)
      owned[owner[std::size_t(bi)]].push_back(bi);

    for (Body& b : bodies) {
      b.acc = Vec3{};
      b.work = 0;
    }

    ForceParams params(cluster);
    params.theta2 = cfg_.theta * cfg_.theta;
    params.eps2 = cfg_.eps * cfg_.eps;
    params.use_quadrupole = cfg_.use_quadrupole;
    params.cost_interaction = cfg_.cost_interaction;
    params.cost_interaction_quad = cfg_.cost_interaction_quad;
    params.cost_open = cfg_.cost_open;
    params.cost_body_start = cfg_.cost_body_start;

    // --- the timed phase ---
    // Force tasks write their owned bodies' acc/work fields: phase-visible
    // host memory for the multi-process backend.
    exec::ScopedPhaseSpan span_bodies(
        cluster.exec(),
        exec::PhaseSpan{bodies.data(), bodies.size() * sizeof(Body)});
    BarnesStep st;
    st.phase =
        runner.run(make_force_work(bodies, owned, root, &params), "bh.force");
    DPA_CHECK(st.phase.completed)
        << "Barnes-Hut force phase deadlocked:\n"
        << st.phase.diagnostics;
    const WalkCounts counts = params.counts.reduce();
    st.interactions = counts.interactions;
    st.opens = counts.opens;
    st.model_seq_seconds = model_seq_seconds(counts);
    result.steps.push_back(std::move(st));

    integrate(bodies, cfg_.dt);
  }
  result.final_bodies = std::move(bodies);
  return result;
}

std::vector<BarnesApp::SeqStep> BarnesApp::run_sequential() const {
  std::vector<Body> bodies = init_;
  std::vector<SeqStep> steps;
  for (std::uint32_t step = 0; step < cfg_.nsteps; ++step) {
    BhTree tree = BhTree::build(bodies);
    tree.compute_com(bodies);
    if (cfg_.use_quadrupole) tree.compute_quadrupoles(bodies);

    SeqStep st;
    st.acc.resize(bodies.size());
    for (std::size_t i = 0; i < bodies.size(); ++i) {
      st.counts = st.counts + walk_sequential(tree, bodies, bodies[i],
                                              cfg_.theta, cfg_.eps,
                                              &st.acc[i], cfg_.use_quadrupole);
    }
    st.seconds = model_seq_seconds(st.counts);

    for (std::size_t i = 0; i < bodies.size(); ++i) bodies[i].acc = st.acc[i];
    integrate(bodies, cfg_.dt);
    steps.push_back(std::move(st));
  }
  return steps;
}

}  // namespace dpa::apps::barnes
