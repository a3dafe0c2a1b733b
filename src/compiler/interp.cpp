#include "compiler/interp.h"

#include <deque>
#include <memory>
#include <utility>

#include "support/assert.h"

namespace dpa::compiler {

Record make_record(const Module& module, const std::string& cls) {
  const ClassDef& def = module.cls(cls);
  Record r;
  for (std::size_t i = 0; i < module.classes.size(); ++i)
    if (module.classes[i].name == cls) r.klass = std::int32_t(i);
  r.scalars.assign(def.scalar_fields.size(), 0.0);
  r.ptrs.assign(def.ptr_fields.size(), gas::GPtr<Record>{});
  return r;
}

// ---------- direct interpreter (the oracle) ----------

namespace {

struct DirectEnv {
  std::map<std::string, double> scalars;
  std::map<std::string, const Record*> ptrs;
};

void direct_stmts(const Module& module, const std::vector<StmtPtr>& stmts,
                  DirectEnv& env, Accums& accums,
                  std::uint64_t* charge_total);

void direct_fn(const Module& module, const std::string& fn_name,
               const Record* obj, Accums& accums,
               std::uint64_t* charge_total) {
  const Function& fn = module.fn(fn_name);
  DirectEnv env;
  env.ptrs[fn.param] = obj;
  direct_stmts(module, fn.body, env, accums, charge_total);
}

void direct_stmts(const Module& module, const std::vector<StmtPtr>& stmts,
                  DirectEnv& env, Accums& accums,
                  std::uint64_t* charge_total) {
  for (const auto& sp : stmts) {
    const Stmt& s = *sp;
    switch (s.kind) {
      case Stmt::K::kLet:
        env.scalars[s.dst] = s.expr->eval(env.scalars);
        break;
      case Stmt::K::kReadScalar: {
        const auto it = env.ptrs.find(s.ptr);
        DPA_CHECK(it != env.ptrs.end() && it->second != nullptr)
            << "null/unknown pointer '" << s.ptr << "'";
        const Record* obj = it->second;
        const ClassDef& cls = module.classes[std::size_t(obj->klass)];
        const int slot = cls.scalar_slot(s.field);
        DPA_CHECK(slot >= 0) << "no scalar field " << s.field;
        env.scalars[s.dst] = obj->scalars[std::size_t(slot)];
        break;
      }
      case Stmt::K::kReadPtr: {
        const auto it = env.ptrs.find(s.ptr);
        DPA_CHECK(it != env.ptrs.end() && it->second != nullptr);
        const Record* obj = it->second;
        const ClassDef& cls = module.classes[std::size_t(obj->klass)];
        const int slot = cls.ptr_slot(s.field);
        DPA_CHECK(slot >= 0) << "no pointer field " << s.field;
        env.ptrs[s.dst] = obj->ptrs[std::size_t(slot)].addr;
        break;
      }
      case Stmt::K::kAccum:
        accums[s.dst] += s.expr->eval(env.scalars);
        break;
      case Stmt::K::kCharge:
        if (charge_total)
          *charge_total += std::uint64_t(s.expr->eval(env.scalars));
        break;
      case Stmt::K::kIf:
        if (s.expr->eval(env.scalars) != 0.0)
          direct_stmts(module, s.then_body, env, accums, charge_total);
        else
          direct_stmts(module, s.else_body, env, accums, charge_total);
        break;
      case Stmt::K::kSpawn: {
        const auto it = env.ptrs.find(s.ptr);
        DPA_CHECK(it != env.ptrs.end());
        if (it->second != nullptr)
          direct_fn(module, s.callee, it->second, accums, charge_total);
        break;
      }
      case Stmt::K::kSpawnChildren: {
        const auto it = env.ptrs.find(s.ptr);
        DPA_CHECK(it != env.ptrs.end() && it->second != nullptr);
        for (const auto& child : it->second->ptrs) {
          if (child)
            direct_fn(module, s.callee, child.addr, accums, charge_total);
        }
        break;
      }
    }
  }
}

}  // namespace

void interp_direct(const Module& module, const std::string& fn,
                   const Record* root, Accums& accums,
                   std::uint64_t* charge_total) {
  DPA_CHECK(root != nullptr);
  direct_fn(module, fn, root, accums, charge_total);
}

// ---------- compiled execution on the runtime ----------

namespace {

// Environment carried from a creation site to its thread: captured scalar
// registers plus captured pointer variables.
using Env = std::map<std::string, double>;
using PEnv = std::map<std::string, gas::GPtr<Record>>;

struct Captured {
  Env scalars;
  PEnv ptrs;
};

struct RunState {
  const ThreadProgram* program;
  std::deque<rt::NodeLocal<double>>* accums;  // indexed by accumulator id
};

void run_template(rt::Ctx& ctx, const RunState* st, int tmpl_id,
                  const Record& obj,
                  std::shared_ptr<const Captured> captured);

// Spawns template `tmpl` on `ptr` with captures evaluated from the spawning
// thread's environments.
void spawn_template(rt::Ctx& ctx, const RunState* st, int tmpl_id,
                    gas::GPtr<Record> ptr, const Env& env,
                    const PEnv& penv) {
  if (!ptr) return;  // null pointer fields end the traversal
  const ThreadTemplate& target = st->program->at(tmpl_id);
  auto captured = std::make_shared<Captured>();
  for (const auto& name : target.captures) {
    const auto it = env.find(name);
    DPA_CHECK(it != env.end())
        << "capture '" << name << "' undefined at spawn of T" << tmpl_id;
    captured->scalars[name] = it->second;
  }
  for (const auto& name : target.ptr_captures) {
    const auto it = penv.find(name);
    DPA_CHECK(it != penv.end())
        << "pointer capture '" << name << "' undefined at spawn of T"
        << tmpl_id;
    captured->ptrs[name] = it->second;
  }
  ctx.require(ptr,
              [st, tmpl_id, captured](rt::Ctx& ctx2, const Record& obj) {
                run_template(ctx2, st, tmpl_id, obj, captured);
              });
}

void run_ops(rt::Ctx& ctx, const RunState* st, const std::vector<TOpPtr>& ops,
             const Record& obj, Env& env, PEnv& penv) {
  for (const auto& op : ops) {
    switch (op->kind) {
      case TOp::K::kLet:
        env[op->dst] = op->expr->eval(env);
        break;
      case TOp::K::kAccum:
        (*st->accums)[std::size_t(op->accum)].slot(ctx) +=
            op->expr->eval(env);
        break;
      case TOp::K::kCharge:
        ctx.charge(sim::Time(op->expr->eval(env)));
        break;
      case TOp::K::kIf:
        if (op->expr->eval(env) != 0.0)
          run_ops(ctx, st, op->then_body, obj, env, penv);
        else
          run_ops(ctx, st, op->else_body, obj, env, penv);
        break;
      case TOp::K::kSpawn: {
        const auto it = penv.find(op->ptr);
        DPA_CHECK(it != penv.end())
            << "spawn pointer '" << op->ptr << "' not materialized";
        spawn_template(ctx, st, op->tmpl, it->second, env, penv);
        break;
      }
      case TOp::K::kSpawnChildren:
        for (const auto& child : obj.ptrs)
          spawn_template(ctx, st, op->tmpl, child, env, penv);
        break;
    }
  }
}

void run_template(rt::Ctx& ctx, const RunState* st, int tmpl_id,
                  const Record& obj,
                  std::shared_ptr<const Captured> captured) {
  const ThreadTemplate& tmpl = st->program->at(tmpl_id);
  Env env = captured->scalars;
  PEnv penv = captured->ptrs;

  // Access hoisting: all reads of the labeled object happen up front.
  for (const HoistedRead& read : tmpl.reads) {
    if (read.is_ptr)
      penv[read.dst] = obj.ptrs[std::size_t(read.slot)];
    else
      env[read.dst] = obj.scalars[std::size_t(read.slot)];
  }
  run_ops(ctx, st, tmpl.ops, obj, env, penv);
}

}  // namespace

ProgramRunner::ProgramRunner(const Module& module,
                             const ThreadProgram& program)
    : module_(module), program_(program) {}

ProgramRunner::Result ProgramRunner::run(
    rt::Cluster& cluster, const rt::RuntimeConfig& rcfg,
    const std::string& fn,
    std::vector<std::vector<gas::GPtr<Record>>> roots) {
  DPA_CHECK(roots.size() == cluster.num_nodes());

  std::deque<rt::NodeLocal<double>> accums;
  for (std::size_t i = 0; i < program_.accums.size(); ++i)
    accums.emplace_back(cluster);
  const RunState st{&program_, &accums};
  const int entry = program_.entry_of(fn);
  const auto empty_env = std::make_shared<const Captured>();

  rt::PhaseRunner runner(cluster, rcfg);
  std::vector<rt::NodeWork> work(roots.size());
  for (std::size_t n = 0; n < roots.size(); ++n) {
    const auto& mine = roots[n];
    work[n].count = mine.size();
    work[n].item = [&st, &mine, entry, empty_env](rt::Ctx& ctx,
                                                  std::uint64_t i) {
      const gas::GPtr<Record> root = mine[std::size_t(i)];
      if (!root) return;
      ctx.require(root, [&st, entry, empty_env](rt::Ctx& ctx2,
                                                const Record& obj) {
        run_template(ctx2, &st, entry, obj, empty_env);
      });
    };
  }
  Result out{runner.run(std::move(work)), {}};
  for (std::size_t i = 0; i < accums.size(); ++i)
    out.accums[program_.accums[i]] = accums[i].reduce();
  return out;
}

}  // namespace dpa::compiler
