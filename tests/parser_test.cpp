#include <gtest/gtest.h>

#include "compiler/interp.h"
#include "compiler/parser.h"
#include "compiler/partition.h"

namespace dpa::compiler {
namespace {

constexpr const char* kListSource = R"(
# A linked list walk.
class Node {
  scalar val;
  ptr next : Node;
}

fn walk(n : Node) {
  v = n->val;
  sum += v;
  charge 100;
  nx = n->next;
  spawn walk(nx);
}
)";

TEST(Parser, ParsesClassesAndFunctions) {
  const Module m = parse_module(kListSource);
  ASSERT_EQ(m.classes.size(), 1u);
  EXPECT_EQ(m.classes[0].name, "Node");
  EXPECT_EQ(m.classes[0].scalar_fields, std::vector<std::string>{"val"});
  ASSERT_EQ(m.classes[0].ptr_fields.size(), 1u);
  EXPECT_EQ(m.classes[0].ptr_fields[0].pointee, "Node");
  ASSERT_EQ(m.functions.size(), 1u);
  EXPECT_EQ(m.functions[0].name, "walk");
  EXPECT_EQ(m.functions[0].param, "n");
  EXPECT_EQ(m.functions[0].body.size(), 5u);
}

TEST(Parser, ReadKindInferredFromClassLayout) {
  const Module m = parse_module(kListSource);
  EXPECT_EQ(m.functions[0].body[0]->kind, Stmt::K::kReadScalar);
  EXPECT_EQ(m.functions[0].body[3]->kind, Stmt::K::kReadPtr);
}

TEST(Parser, ExpressionPrecedence) {
  const Module m = parse_module(R"(
class T { scalar a; }
fn f(t : T) {
  a = t->a;
  x = 1 + 2 * 3;
  y = (1 + 2) * 3;
  z = x < y;
}
)");
  std::map<std::string, double> env;
  const auto& body = m.functions[0].body;
  env["a"] = 0;
  ASSERT_EQ(body.size(), 4u);
  EXPECT_DOUBLE_EQ(body[1]->expr->eval(env), 7.0);
  EXPECT_DOUBLE_EQ(body[2]->expr->eval(env), 9.0);
}

TEST(Parser, IfElseAndSpawnChildren) {
  const Module m = parse_module(R"(
class Tree { scalar v; scalar leaf; ptr l : Tree; ptr r : Tree; }
fn walk(t : Tree) {
  v = t->v;
  leaf = t->leaf;
  if (leaf > 0.5) {
    sum += v;
  } else {
    charge 50;
    spawn_children walk(t);
  }
}
)");
  const auto& body = m.functions[0].body;
  ASSERT_EQ(body.size(), 3u);
  EXPECT_EQ(body[2]->kind, Stmt::K::kIf);
  EXPECT_EQ(body[2]->then_body.size(), 1u);
  EXPECT_EQ(body[2]->else_body.size(), 2u);
  EXPECT_EQ(body[2]->else_body[1]->kind, Stmt::K::kSpawnChildren);
}

TEST(Parser, CommentsAndWhitespaceIgnored) {
  const Module m = parse_module(
      "class A{scalar x;}  # trailing\n#full line\nfn f(a:A){ x=a->x; }");
  EXPECT_EQ(m.functions[0].body.size(), 1u);
}

TEST(Parser, ScientificNumbers) {
  const Module m = parse_module(
      "class A{scalar x;}\nfn f(a:A){ y = 1.5e3 + 2e-2; }");
  std::map<std::string, double> env;
  EXPECT_DOUBLE_EQ(m.functions[0].body[0]->expr->eval(env), 1500.02);
}

// ---------- errors carry line numbers ----------

TEST(Parser, UnknownFieldDies) {
  EXPECT_DEATH(parse_module(
                   "class A{scalar x;}\nfn f(a:A){ y = a->bogus; }"),
               "line 2.*has no field");
}

TEST(Parser, UnknownClassDies) {
  EXPECT_DEATH(parse_module("fn f(a:Nope){ x = 1; }"), "unknown class");
}

TEST(Parser, UnknownSpawnPointerDies) {
  EXPECT_DEATH(parse_module(
                   "class A{scalar x;}\nfn f(a:A){ spawn f(ghost); }"),
               "unknown pointer variable");
}

TEST(Parser, PointerInExpressionDies) {
  EXPECT_DEATH(parse_module(
                   "class A{scalar x; ptr n:A;}\n"
                   "fn f(a:A){ p = a->n; y = p + 1; }"),
               "pointer variable in scalar expression");
}

TEST(Parser, MissingSemicolonDies) {
  EXPECT_DEATH(parse_module("class A{scalar x;}\nfn f(a:A){ y = 1 }"),
               "expected ';'");
}

// ---------- end to end: parse -> partition -> run ----------

TEST(Parser, ParsedProgramPartitionsAndRuns) {
  const Module m = parse_module(R"(
class Node {
  scalar val;
  ptr next : Node;
  ptr peer : Node;
}
fn visit(n : Node) {
  v = n->val;
  pr = n->peer;
  nx = n->next;
  pv = pr->val;          # foreign dereference: thread split here
  total += v + 2 * pv;
  spawn visit(nx);
}
)");
  const ThreadProgram program = partition(m);
  EXPECT_EQ(program.templates.size(), 2u);

  rt::Cluster cluster(2, sim::NetParams{});
  std::vector<gas::GPtr<Record>> nodes;
  for (int i = 0; i < 10; ++i) {
    Record r = make_record(m, "Node");
    r.scalars[0] = double(i + 1);
    nodes.push_back(
        cluster.heap.make<Record>(sim::NodeId(i % 2), std::move(r)));
  }
  for (int i = 0; i < 10; ++i) {
    auto* mut = gas::GlobalHeap::mutate(nodes[std::size_t(i)]);
    if (i + 1 < 10) mut->ptrs[0] = nodes[std::size_t(i + 1)];
    mut->ptrs[1] = nodes[std::size_t((i * 3) % 10)];
  }

  Accums direct;
  interp_direct(m, "visit", nodes[0].addr, direct);

  ProgramRunner runner(m, program);
  std::vector<std::vector<gas::GPtr<Record>>> roots(2);
  roots[0].push_back(nodes[0]);
  const auto result = runner.run(cluster, rt::RuntimeConfig::dpa(8), "visit",
                                 std::move(roots));
  ASSERT_TRUE(result.phase.completed) << result.phase.diagnostics;
  EXPECT_DOUBLE_EQ(result.accums.at("total"), direct["total"]);
  EXPECT_NE(direct["total"], 0.0);
}

TEST(Parser, PointerCapturesCrossThreadSplits) {
  // The recursion is *conditional on the peer's value*: the spawn depends
  // on the split thread, so `nx` (read before the split) must travel to it
  // as a pointer capture. (An unconditional spawn would stay in the entry
  // thread — the dependence-sets partitioning keeps independent work out
  // of the continuation; see IndependentStatementsStayInEarlierThread.)
  const Module m = parse_module(R"(
class Node {
  scalar val;
  ptr next : Node;
  ptr peer : Node;
}
fn visit(n : Node) {
  nx = n->next;
  pr = n->peer;
  pv = pr->val;          # split: thread labeled pr
  total += pv;
  if (pv < 0.5) {
    spawn visit(nx);     # depends on pv -> moves; nx is a pointer capture
  }
}
)");
  const ThreadProgram program = partition(m);
  ASSERT_EQ(program.templates.size(), 2u);
  const ThreadTemplate& cont = program.templates[1];
  ASSERT_EQ(cont.ptr_captures.size(), 1u);
  EXPECT_EQ(cont.ptr_captures[0], "nx");
  EXPECT_NE(program.dump().find("ptr_captures(nx)"), std::string::npos);

  // And it executes correctly end to end.
  rt::Cluster cluster(2, sim::NetParams{});
  std::vector<gas::GPtr<Record>> nodes;
  for (int i = 0; i < 8; ++i) {
    Record r = make_record(m, "Node");
    // Alternate below/above the recursion threshold so the walk sometimes
    // continues and sometimes stops.
    r.scalars[0] = (i % 2 == 0) ? 0.25 : 0.75;
    nodes.push_back(
        cluster.heap.make<Record>(sim::NodeId(i % 2), std::move(r)));
  }
  for (int i = 0; i < 8; ++i) {
    auto* mut = gas::GlobalHeap::mutate(nodes[std::size_t(i)]);
    if (i + 1 < 8) mut->ptrs[0] = nodes[std::size_t(i + 1)];
    mut->ptrs[1] = nodes[std::size_t((i * 2) % 8)];  // even peers: recurse
  }
  Accums direct;
  interp_direct(m, "visit", nodes[0].addr, direct);
  ProgramRunner runner(m, program);
  std::vector<std::vector<gas::GPtr<Record>>> roots(2);
  roots[0].push_back(nodes[0]);
  const auto result = runner.run(cluster, rt::RuntimeConfig::dpa(8), "visit",
                                 std::move(roots));
  ASSERT_TRUE(result.phase.completed) << result.phase.diagnostics;
  EXPECT_DOUBLE_EQ(result.accums.at("total"), direct["total"]);
  EXPECT_NE(direct["total"], 0.0);
}

}  // namespace
}  // namespace dpa::compiler
