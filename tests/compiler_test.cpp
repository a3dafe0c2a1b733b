#include <gtest/gtest.h>

#include <cmath>

#include "compiler/interp.h"
#include "compiler/ir.h"
#include "compiler/partition.h"
#include "support/rng.h"

namespace dpa::compiler {
namespace {

using E = Expr;
using S = Stmt;

// ---------- test modules ----------

// A linked list: walk(n) { v = n->val; sum += v; charge(100); spawn n->next }
Module list_module() {
  Module m;
  m.classes.push_back(ClassDef{"Node", {"val"}, {{"next", "Node"}}});
  Function walk;
  walk.name = "walk";
  walk.param = "n";
  walk.param_class = "Node";
  walk.body = {
      S::read_scalar("v", "n", "val"),
      S::accum("sum", E::v("v")),
      S::charge(E::c(100)),
      S::read_ptr("nx", "n", "next"),
      S::spawn("walk", "nx"),
  };
  m.functions.push_back(std::move(walk));
  return m;
}

// A foreign dereference forcing a split:
// f(a) { x = a->val; nx = a->next; y = nx->val; sum += x * y; }
Module split_module() {
  Module m;
  m.classes.push_back(ClassDef{"Node", {"val"}, {{"next", "Node"}}});
  Function f;
  f.name = "f";
  f.param = "a";
  f.param_class = "Node";
  f.body = {
      S::read_scalar("x", "a", "val"),
      S::read_ptr("nx", "a", "next"),
      S::read_scalar("y", "nx", "val"),
      S::accum("sum", E::mul(E::v("x"), E::v("y"))),
  };
  m.functions.push_back(std::move(f));
  return m;
}

// Independent work stays in the earlier thread:
// g(a) { x = a->val; nx = a->next; y = nx->val; sum += y; sum2 += x; }
Module keep_module() {
  Module m;
  m.classes.push_back(ClassDef{"Node", {"val"}, {{"next", "Node"}}});
  Function g;
  g.name = "g";
  g.param = "a";
  g.param_class = "Node";
  g.body = {
      S::read_scalar("x", "a", "val"),
      S::read_ptr("nx", "a", "next"),
      S::read_scalar("y", "nx", "val"),
      S::accum("sum", E::v("y")),
      S::accum("sum2", E::v("x")),
  };
  m.functions.push_back(std::move(g));
  return m;
}

// em3d-style: four independent dependency reads, each with a coefficient.
Module em3d_module() {
  Module m;
  ClassDef enode{"ENode",
                 {"c0", "c1", "c2", "c3"},
                 {{"d0", "ENode"},
                  {"d1", "ENode"},
                  {"d2", "ENode"},
                  {"d3", "ENode"}}};
  m.classes.push_back(std::move(enode));
  Function f;
  f.name = "update";
  f.param = "e";
  f.param_class = "ENode";
  std::vector<StmtPtr> body;
  for (int d = 0; d < 4; ++d) {
    const std::string i = std::to_string(d);
    body.push_back(S::read_scalar("c" + i, "e", "c" + i));
    body.push_back(S::read_ptr("p" + i, "e", "d" + i));
  }
  for (int d = 0; d < 4; ++d) {
    const std::string i = std::to_string(d);
    body.push_back(S::read_scalar("v" + i, "p" + i, "c0"));
    body.push_back(S::accum("acc", E::mul(E::v("c" + i), E::v("v" + i))));
    body.push_back(S::charge(E::c(120)));
  }
  f.body = std::move(body);
  m.functions.push_back(std::move(f));
  return m;
}

// A Barnes-Hut-shaped tree walk with a data-dependent condition.
Module tree_module() {
  Module m;
  m.classes.push_back(ClassDef{"Tree",
                               {"val", "is_leaf"},
                               {{"l", "Tree"}, {"r", "Tree"}}});
  Function walk;
  walk.name = "walk";
  walk.param = "t";
  walk.param_class = "Tree";
  walk.body = {
      S::read_scalar("v", "t", "val"),
      S::read_scalar("leaf", "t", "is_leaf"),
      S::if_(E::v("leaf"),
             {S::accum("sum", E::v("v")), S::charge(E::c(200))},
             {S::charge(E::c(50)), S::spawn_children("walk", "t")}),
  };
  m.functions.push_back(std::move(walk));
  return m;
}

// ---------- partitioning ----------

TEST(Partition, ListWalkIsOneThread) {
  const ThreadProgram p = partition(list_module());
  EXPECT_EQ(p.templates.size(), 1u);
  const ThreadTemplate& t = p.at(p.entry_of("walk"));
  EXPECT_EQ(t.label_var, "n");
  EXPECT_EQ(t.reads.size(), 2u);  // val and next hoisted
  EXPECT_TRUE(t.captures.empty());
}

TEST(Partition, ForeignDerefSplitsIntoTwoThreads) {
  const ThreadProgram p = partition(split_module());
  ASSERT_EQ(p.templates.size(), 2u);
  const ThreadTemplate& entry = p.at(p.entry_of("f"));
  EXPECT_EQ(entry.label_var, "a");
  const ThreadTemplate& cont = p.templates[1];
  EXPECT_EQ(cont.label_var, "nx");
  EXPECT_EQ(cont.label_class, "Node");
  // The continuation needs x from the entry thread.
  ASSERT_EQ(cont.captures.size(), 1u);
  EXPECT_EQ(cont.captures[0], "x");
  // Its read of nx->val is hoisted.
  ASSERT_EQ(cont.reads.size(), 1u);
  EXPECT_EQ(cont.reads[0].field, "val");
}

TEST(Partition, IndependentStatementsStayInEarlierThread) {
  const ThreadProgram p = partition(keep_module());
  ASSERT_EQ(p.templates.size(), 2u);
  const ThreadTemplate& entry = p.at(p.entry_of("g"));
  // sum2 += x stays in the entry thread, after the spawn.
  bool entry_has_sum2 = false;
  for (const auto& op : entry.ops)
    if (op->kind == TOp::K::kAccum && op->dst == "sum2")
      entry_has_sum2 = true;
  EXPECT_TRUE(entry_has_sum2);
  // The moved thread does not need x: it captures nothing.
  EXPECT_TRUE(p.templates[1].captures.empty());
}

TEST(Partition, Em3dKernelMakesOneThreadPerDependency) {
  const ThreadProgram p = partition(em3d_module());
  // Entry + one continuation per dependency read.
  EXPECT_EQ(p.templates.size(), 5u);
  // Each continuation captures exactly its coefficient.
  for (std::size_t i = 1; i < 5; ++i)
    EXPECT_EQ(p.templates[i].captures.size(), 1u) << "T" << i;
}

TEST(Partition, TreeWalkKeepsConditionalInOneThread) {
  const ThreadProgram p = partition(tree_module());
  EXPECT_EQ(p.templates.size(), 1u);
  const auto s = p.stats();
  EXPECT_EQ(s.num_templates, 1u);
  EXPECT_EQ(s.total_spawn_sites, 1u);  // the spawn_children inside the If
  EXPECT_EQ(s.max_reads_per_thread, 2u);
}

TEST(Partition, DumpIsStable) {
  const std::string dump = partition(split_module()).dump();
  EXPECT_NE(dump.find("thread T0 [f] label a : Node"), std::string::npos);
  EXPECT_NE(dump.find("spawn T1 on nx"), std::string::npos);
  EXPECT_NE(dump.find("captures(x)"), std::string::npos);
  EXPECT_NE(dump.find("read y = nx->val"), std::string::npos);
}

TEST(Partition, DotExportShowsThreadGraph) {
  const std::string dot = partition(split_module()).to_dot();
  EXPECT_NE(dot.find("digraph threads"), std::string::npos);
  EXPECT_NE(dot.find("T0 -> T1 [label=\"nx\"]"), std::string::npos);
  EXPECT_NE(dot.find("captures: x"), std::string::npos);
}

TEST(Partition, DotExportShowsRecursiveEdges) {
  const std::string dot = partition(tree_module()).to_dot();
  // spawn_children inside the If: dashed self-edge on the entry template.
  EXPECT_NE(dot.find("T0 -> T0 [label=\"children(t)\", style=dashed]"),
            std::string::npos);
}

TEST(Partition, StatsCountHoistedReads) {
  const auto s = partition(em3d_module()).stats();
  EXPECT_EQ(s.num_templates, 5u);
  // Entry hoists 4 coeffs + 4 pointers; each continuation hoists 1 value.
  EXPECT_EQ(s.total_hoisted_reads, 8u + 4u);
  EXPECT_EQ(s.max_reads_per_thread, 8u);
}

TEST(Partition, UnknownFieldDies) {
  Module m;
  m.classes.push_back(ClassDef{"Node", {"val"}, {}});
  Function f;
  f.name = "f";
  f.param = "n";
  f.param_class = "Node";
  f.body = {S::read_scalar("v", "n", "bogus")};
  m.functions.push_back(std::move(f));
  EXPECT_DEATH(partition(m), "no scalar field 'bogus'");
}

TEST(Partition, InvisibleSpawnPointerDies) {
  Module m;
  m.classes.push_back(ClassDef{"Node", {"val"}, {{"next", "Node"}}});
  Function f;
  f.name = "f";
  f.param = "n";
  f.param_class = "Node";
  f.body = {S::spawn("f", "ghost")};
  m.functions.push_back(std::move(f));
  EXPECT_DEATH(partition(m), "not visible");
}

// ---------- execution: compiled-on-runtime vs direct ----------

sim::NetParams test_net() { return sim::NetParams{}; }

// Builds a distributed linked list; returns head.
gas::GPtr<Record> build_list(rt::Cluster& cluster, const Module& m, int len,
                             double* expected_sum) {
  std::vector<gas::GPtr<Record>> nodes;
  *expected_sum = 0;
  for (int i = 0; i < len; ++i) {
    Record r = make_record(m, "Node");
    r.scalars[0] = double(i + 1) * 1.5;
    *expected_sum += r.scalars[0];
    nodes.push_back(cluster.heap.make<Record>(
        sim::NodeId(std::uint32_t(i) % cluster.num_nodes()), std::move(r)));
  }
  for (int i = 0; i + 1 < len; ++i)
    gas::GlobalHeap::mutate(nodes[std::size_t(i)])->ptrs[0] =
        nodes[std::size_t(i + 1)];
  return nodes[0];
}

TEST(Execution, CompiledListWalkMatchesDirect) {
  const Module m = list_module();
  const ThreadProgram p = partition(m);
  rt::Cluster cluster(4, test_net());
  double expected = 0;
  const auto head = build_list(cluster, m, 50, &expected);

  Accums direct;
  interp_direct(m, "walk", head.addr, direct);
  EXPECT_DOUBLE_EQ(direct["sum"], expected);

  ProgramRunner runner(m, p);
  std::vector<std::vector<gas::GPtr<Record>>> roots(4);
  roots[0].push_back(head);
  const auto result =
      runner.run(cluster, rt::RuntimeConfig::dpa(8), "walk", std::move(roots));
  ASSERT_TRUE(result.phase.completed) << result.phase.diagnostics;
  EXPECT_DOUBLE_EQ(result.accums.at("sum"), expected);
}

TEST(Execution, CompiledSplitProgramMatchesDirect) {
  const Module m = split_module();
  const ThreadProgram p = partition(m);
  rt::Cluster cluster(2, test_net());
  double unused = 0;
  const auto head = build_list(cluster, m, 2, &unused);

  Accums direct;
  interp_direct(m, "f", head.addr, direct);

  ProgramRunner runner(m, p);
  std::vector<std::vector<gas::GPtr<Record>>> roots(2);
  roots[0].push_back(head);
  const auto result = runner.run(cluster, rt::RuntimeConfig::dpa(8), "f",
                                 std::move(roots));
  ASSERT_TRUE(result.phase.completed) << result.phase.diagnostics;
  EXPECT_DOUBLE_EQ(result.accums.at("sum"), direct["sum"]);
  EXPECT_NE(direct["sum"], 0.0);
}

// Builds a random binary tree of Records; leaves carry is_leaf=1.
gas::GPtr<Record> build_tree(rt::Cluster& cluster, const Module& m, Rng& rng,
                             int depth) {
  Record r = make_record(m, "Tree");
  r.scalars[0] = rng.uniform(0, 10);           // val
  r.scalars[1] = (depth == 0) ? 1.0 : 0.0;     // is_leaf
  auto self = cluster.heap.make<Record>(
      sim::NodeId(rng.next_below(cluster.num_nodes())), std::move(r));
  if (depth > 0) {
    auto* mut = gas::GlobalHeap::mutate(self);
    mut->ptrs[0] = build_tree(cluster, m, rng, depth - 1);
    if (rng.chance(0.8))
      mut->ptrs[1] = build_tree(cluster, m, rng, depth - 1);
  }
  return self;
}

TEST(Execution, CompiledTreeWalkMatchesDirectAcrossEngines) {
  const Module m = tree_module();
  const ThreadProgram p = partition(m);
  for (const auto& rcfg :
       {rt::RuntimeConfig::dpa(16), rt::RuntimeConfig::caching(),
        rt::RuntimeConfig::blocking()}) {
    rt::Cluster cluster(4, test_net());
    Rng rng(99);
    const auto root = build_tree(cluster, m, rng, 7);

    Accums direct;
    interp_direct(m, "walk", root.addr, direct);

    ProgramRunner runner(m, p);
    std::vector<std::vector<gas::GPtr<Record>>> roots(4);
    roots[0].push_back(root);
    const auto result =
        runner.run(cluster, rcfg, "walk", std::move(roots));
    ASSERT_TRUE(result.phase.completed) << result.phase.diagnostics;
    EXPECT_NEAR(result.accums.at("sum"), direct["sum"], 1e-9)
        << rcfg.describe();
  }
}

TEST(Execution, Em3dKernelMatchesDirectAndAggregates) {
  const Module m = em3d_module();
  const ThreadProgram p = partition(m);
  rt::Cluster cluster(4, test_net());
  Rng rng(7);

  // A pool of ENodes wired randomly; every node updates its own records.
  const int per_node = 32;
  std::vector<gas::GPtr<Record>> all;
  for (int i = 0; i < per_node * 4; ++i) {
    Record r = make_record(m, "ENode");
    for (int c = 0; c < 4; ++c) r.scalars[std::size_t(c)] = rng.uniform(0, 1);
    all.push_back(cluster.heap.make<Record>(sim::NodeId(i / per_node),
                                            std::move(r)));
  }
  for (auto& rec : all) {
    auto* mut = gas::GlobalHeap::mutate(rec);
    for (int d = 0; d < 4; ++d)
      mut->ptrs[std::size_t(d)] = all[rng.next_below(all.size())];
  }

  Accums direct;
  for (const auto& rec : all) interp_direct(m, "update", rec.addr, direct);

  ProgramRunner runner(m, p);
  std::vector<std::vector<gas::GPtr<Record>>> roots(4);
  for (int i = 0; i < per_node * 4; ++i)
    roots[std::size_t(i / per_node)].push_back(all[std::size_t(i)]);
  const auto result = runner.run(cluster, rt::RuntimeConfig::dpa(16),
                                 "update", std::move(roots));
  ASSERT_TRUE(result.phase.completed) << result.phase.diagnostics;
  EXPECT_NEAR(result.accums.at("acc"), direct["acc"], 1e-9);
  // The runtime aggregated: far fewer request messages than refs.
  EXPECT_GT(result.phase.rt.aggregation_factor(), 2.0);
}

TEST(Execution, ChargesFlowIntoSimulatedTime) {
  const Module m = list_module();
  const ThreadProgram p = partition(m);
  rt::Cluster cluster(1, test_net());
  double unused = 0;
  const auto head = build_list(cluster, m, 100, &unused);

  ProgramRunner runner(m, p);
  std::vector<std::vector<gas::GPtr<Record>>> roots(1);
  roots[0].push_back(head);
  const auto result = runner.run(cluster, rt::RuntimeConfig::dpa(8), "walk",
                                 std::move(roots));
  ASSERT_TRUE(result.phase.completed);
  // 100 nodes x charge(100ns) is a lower bound on the phase time.
  EXPECT_GE(result.phase.elapsed, 100 * 100);
}

}  // namespace
}  // namespace dpa::compiler
