#include "compiler/partition.h"

#include <algorithm>
#include <sstream>

#include "support/assert.h"

namespace dpa::compiler {

namespace {

// ---------- use/def analysis ----------

// Variables (scalars and pointers) a statement reads.
void stmt_uses(const Stmt& s, std::set<std::string>& out) {
  switch (s.kind) {
    case Stmt::K::kLet:
    case Stmt::K::kAccum:
    case Stmt::K::kCharge:
      if (s.expr) s.expr->collect_vars(out);
      break;
    case Stmt::K::kReadScalar:
    case Stmt::K::kReadPtr:
      out.insert(s.ptr);
      break;
    case Stmt::K::kSpawn:
    case Stmt::K::kSpawnChildren:
      out.insert(s.ptr);
      break;
    case Stmt::K::kIf:
      s.expr->collect_vars(out);
      for (const auto& t : s.then_body) stmt_uses(*t, out);
      for (const auto& e : s.else_body) stmt_uses(*e, out);
      break;
  }
}

// Variables a statement defines.
void stmt_defs(const Stmt& s, std::set<std::string>& out) {
  switch (s.kind) {
    case Stmt::K::kLet:
    case Stmt::K::kReadScalar:
    case Stmt::K::kReadPtr:
      out.insert(s.dst);
      break;
    case Stmt::K::kIf:
      for (const auto& t : s.then_body) stmt_defs(*t, out);
      for (const auto& e : s.else_body) stmt_defs(*e, out);
      break;
    default:
      break;
  }
}

bool intersects(const std::set<std::string>& a,
                const std::set<std::string>& b) {
  for (const auto& x : a)
    if (b.count(x)) return true;
  return false;
}

// ---------- the partitioner ----------

struct FnBuilder {
  const Module* module = nullptr;
  ThreadProgram* program = nullptr;
  const Function* fn = nullptr;
  // var -> pointee class, for every pointer variable in scope.
  std::map<std::string, std::string> ptr_class;
};

struct TemplateCtx {
  int tmpl_id = -1;  // index into program->templates (stable across growth)
  std::set<std::string> defined_scalars;
  // Pointer vars visible in this template (label + hoisted ptr reads).
  std::set<std::string> visible_ptrs;
};

ThreadTemplate& tmpl_of(FnBuilder& fb, const TemplateCtx& ctx) {
  return fb.program->templates[std::size_t(ctx.tmpl_id)];
}

// The id of accumulator `name`, assigned on first use.
int accum_id(ThreadProgram& program, const std::string& name) {
  auto& names = program.accums;
  const auto it = std::find(names.begin(), names.end(), name);
  if (it != names.end()) return int(it - names.begin());
  names.push_back(name);
  return int(names.size() - 1);
}

void compile_stmts(FnBuilder& fb, TemplateCtx ctx,
                   std::vector<StmtPtr> stmts);

// Compiles one statement that stays in the current template; reads through
// the label become hoisted reads.
void compile_into(FnBuilder& fb, TemplateCtx& ctx, const Stmt& s,
                  std::vector<TOpPtr>& ops) {
  ThreadTemplate& tmpl = tmpl_of(fb, ctx);
  auto op = std::make_shared<TOp>();
  switch (s.kind) {
    case Stmt::K::kLet:
      op->kind = TOp::K::kLet;
      op->dst = s.dst;
      op->expr = s.expr;
      ops.push_back(std::move(op));
      ctx.defined_scalars.insert(s.dst);
      return;
    case Stmt::K::kAccum:
      op->kind = TOp::K::kAccum;
      op->dst = s.dst;
      op->accum = accum_id(*fb.program, s.dst);
      op->expr = s.expr;
      ops.push_back(std::move(op));
      return;
    case Stmt::K::kCharge:
      op->kind = TOp::K::kCharge;
      op->expr = s.expr;
      ops.push_back(std::move(op));
      return;
    case Stmt::K::kReadScalar:
    case Stmt::K::kReadPtr: {
      DPA_CHECK(s.ptr == tmpl.label_var)
          << "internal: non-label read reached compile_into";
      const ClassDef& cls = fb.module->cls(tmpl.label_class);
      HoistedRead read;
      read.dst = s.dst;
      read.field = s.field;
      read.is_ptr = (s.kind == Stmt::K::kReadPtr);
      read.slot = read.is_ptr ? cls.ptr_slot(s.field)
                              : cls.scalar_slot(s.field);
      DPA_CHECK(read.slot >= 0)
          << "class '" << cls.name << "' has no "
          << (read.is_ptr ? "pointer" : "scalar") << " field '" << s.field
          << "'";
      tmpl.reads.push_back(read);
      if (read.is_ptr) {
        ctx.visible_ptrs.insert(s.dst);
        fb.ptr_class[s.dst] =
            cls.ptr_fields[std::size_t(read.slot)].pointee;
      } else {
        ctx.defined_scalars.insert(s.dst);
      }
      return;
    }
    case Stmt::K::kSpawn: {
      DPA_CHECK(ctx.visible_ptrs.count(s.ptr))
          << "spawn pointer '" << s.ptr
          << "' is not visible in the thread labeled '" << tmpl.label_var
          << "'";
      op->kind = TOp::K::kSpawn;
      op->ptr = s.ptr;
      op->tmpl = fb.program->entry_of(s.callee);
      ops.push_back(std::move(op));
      return;
    }
    case Stmt::K::kSpawnChildren: {
      DPA_CHECK(s.ptr == tmpl.label_var)
          << "spawn_children must fan out from the thread's own label";
      op->kind = TOp::K::kSpawnChildren;
      op->ptr = s.ptr;
      op->tmpl = fb.program->entry_of(s.callee);
      ops.push_back(std::move(op));
      return;
    }
    case Stmt::K::kIf: {
      // Branches may touch only the label (checked recursively here).
      op->kind = TOp::K::kIf;
      op->expr = s.expr;
      for (const auto& t : s.then_body)
        compile_into(fb, ctx, *t, op->then_body);
      for (const auto& e : s.else_body)
        compile_into(fb, ctx, *e, op->else_body);
      ops.push_back(std::move(op));
      return;
    }
  }
  DPA_PANIC("bad stmt kind");
}

// Does this statement (or anything nested) dereference a pointer other than
// the label? That forces a template split.
const Stmt* find_foreign_deref(const Stmt& s, const std::string& label) {
  switch (s.kind) {
    case Stmt::K::kReadScalar:
    case Stmt::K::kReadPtr:
      if (s.ptr != label) return &s;
      return nullptr;
    case Stmt::K::kIf:
      for (const auto& t : s.then_body)
        if (const Stmt* f = find_foreign_deref(*t, label)) return f;
      for (const auto& e : s.else_body)
        if (const Stmt* f = find_foreign_deref(*e, label)) return f;
      return nullptr;
    default:
      return nullptr;
  }
}

void compile_stmts(FnBuilder& fb, TemplateCtx ctx,
                   std::vector<StmtPtr> stmts) {
  for (std::size_t i = 0; i < stmts.size(); ++i) {
    const Stmt& s = *stmts[i];
    const Stmt* foreign =
        find_foreign_deref(s, tmpl_of(fb, ctx).label_var);

    if (foreign == nullptr) {
      compile_into(fb, ctx, s, tmpl_of(fb, ctx).ops);
      continue;
    }

    // Split: a new template labeled with the foreign pointer. Statements
    // that transitively depend on it move; independent ones stay.
    const std::string q = foreign->ptr;
    DPA_CHECK(ctx.visible_ptrs.count(q))
        << "dereference of pointer '" << q
        << "' which is not visible in the thread labeled '"
        << tmpl_of(fb, ctx).label_var << "' (function " << fb.fn->name
        << ")";

    std::set<std::string> moved_defs{q};
    std::vector<StmtPtr> moved, kept;
    for (std::size_t j = i; j < stmts.size(); ++j) {
      std::set<std::string> uses;
      stmt_uses(*stmts[j], uses);
      const bool depends = intersects(uses, moved_defs);
      if (depends) {
        stmt_defs(*stmts[j], moved_defs);
        moved.push_back(stmts[j]);
      } else {
        kept.push_back(stmts[j]);
      }
    }
    // A kept statement must not define anything the moved thread uses
    // (its defs run after the spawn closure captured its inputs).
    std::set<std::string> kept_defs, moved_uses;
    for (const auto& k : kept) stmt_defs(*k, kept_defs);
    for (const auto& m : moved) stmt_uses(*m, moved_uses);
    DPA_CHECK(!intersects(kept_defs, moved_uses))
        << "unsupported dependence: a statement independent of '" << q
        << "' defines a value the dependent thread uses (function "
        << fb.fn->name << ")";

    // New template for the moved statements.
    const int nid = int(fb.program->templates.size());
    ThreadTemplate nt;
    nt.id = nid;
    nt.function = fb.fn->name;
    nt.label_var = q;
    const auto cls_it = fb.ptr_class.find(q);
    DPA_CHECK(cls_it != fb.ptr_class.end());
    nt.label_class = cls_it->second;
    // Captures: scalars defined so far that the moved thread needs, plus
    // pointer variables it spawns on or dereferences later (q itself is
    // the label and travels as the thread's object).
    for (const auto& v : moved_uses) {
      if (ctx.defined_scalars.count(v)) nt.captures.push_back(v);
      if (v != q && ctx.visible_ptrs.count(v)) nt.ptr_captures.push_back(v);
    }
    std::sort(nt.captures.begin(), nt.captures.end());
    std::sort(nt.ptr_captures.begin(), nt.ptr_captures.end());
    fb.program->templates.push_back(std::move(nt));

    auto spawn = std::make_shared<TOp>();
    spawn->kind = TOp::K::kSpawn;
    spawn->ptr = q;
    spawn->tmpl = nid;
    tmpl_of(fb, ctx).ops.push_back(std::move(spawn));

    // Compile the kept remainder into the current template...
    std::vector<StmtPtr> kept_copy = kept;
    compile_stmts(fb, ctx, std::move(kept_copy));

    // ...and the moved statements into the new one.
    TemplateCtx nctx;
    nctx.tmpl_id = nid;
    for (const auto& v : tmpl_of(fb, nctx).captures)
      nctx.defined_scalars.insert(v);
    for (const auto& v : tmpl_of(fb, nctx).ptr_captures)
      nctx.visible_ptrs.insert(v);
    nctx.visible_ptrs.insert(q);
    compile_stmts(fb, nctx, std::move(moved));
    return;
  }
}

}  // namespace

ThreadProgram partition(const Module& module) {
  ThreadProgram program;

  // Pre-create entry templates so (mutually) recursive spawns resolve.
  for (const Function& fn : module.functions) {
    DPA_CHECK(module.has_class(fn.param_class))
        << "function " << fn.name << ": unknown class " << fn.param_class;
    ThreadTemplate entry;
    entry.id = int(program.templates.size());
    entry.function = fn.name;
    entry.label_var = fn.param;
    entry.label_class = fn.param_class;
    program.fn_entry[fn.name] = entry.id;
    program.templates.push_back(std::move(entry));
  }

  for (const Function& fn : module.functions) {
    FnBuilder fb;
    fb.module = &module;
    fb.program = &program;
    fb.fn = &fn;
    fb.ptr_class[fn.param] = fn.param_class;

    TemplateCtx ctx;
    ctx.tmpl_id = program.fn_entry[fn.name];
    ctx.visible_ptrs.insert(fn.param);
    compile_stmts(fb, ctx, fn.body);
  }
  return program;
}

}  // namespace dpa::compiler
