// Execution of IR programs.
//
// Two interpreters share one generic object model (`Record`):
//   * interp_direct — runs the *source* IR recursively on the host, the
//     semantic oracle;
//   * ProgramRunner — runs the *compiled* ThreadProgram on the DPA runtime,
//     mapping every template creation to Ctx::require on the labeled
//     pointer. End-to-end, compiled-on-runtime must equal direct.
//
// Accumulators are commutative reduction cells (the only cross-thread
// state), so result equality is exact up to floating-point reassociation.
// The runner keeps them in per-node slots (rt::NodeLocal), which reach the
// caller on every backend — including worker processes — and reduce in
// node order.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "compiler/thread_program.h"
#include "runtime/phase.h"

namespace dpa::compiler {

// Generic heap object for compiled programs: scalar slots + pointer slots,
// laid out per its ClassDef.
struct Record {
  std::int32_t klass = -1;  // index into Module::classes
  std::vector<double> scalars;
  std::vector<gas::GPtr<Record>> ptrs;
};

using Accums = std::map<std::string, double>;

// Builds a Record with the right slot counts for `cls`.
Record make_record(const Module& module, const std::string& cls);

// Runs `fn` on `root` directly (host recursion), accumulating into `accums`
// and summing charge expressions into `charge_total` (ns).
void interp_direct(const Module& module, const std::string& fn,
                   const Record* root, Accums& accums,
                   std::uint64_t* charge_total = nullptr);

class ProgramRunner {
 public:
  ProgramRunner(const Module& module, const ThreadProgram& program);

  struct Result {
    rt::PhaseResult phase;
    Accums accums;  // every accumulator the program names
  };

  // Runs one phase: roots[n] are node n's conc-loop roots, each spawning
  // `fn`'s entry template.
  Result run(rt::Cluster& cluster, const rt::RuntimeConfig& rcfg,
             const std::string& fn,
             std::vector<std::vector<gas::GPtr<Record>>> roots);

 private:
  const Module& module_;
  const ThreadProgram& program_;
};

}  // namespace dpa::compiler
