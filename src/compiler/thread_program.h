// The thread-partitioning pass's output: a program of non-blocking thread
// templates. Each template is labeled with the pointer variable whose object
// it consumes; every field access through that pointer is hoisted to the
// template entry (the paper's access hoisting), so once the object arrives
// the template runs to completion with no further remote touches — the
// non-blocking guarantee the runtime relies on.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compiler/ir.h"

namespace dpa::compiler {

struct TOp;
using TOpPtr = std::shared_ptr<const TOp>;

struct TOp {
  enum class K : std::uint8_t {
    kLet,
    kAccum,
    kCharge,
    kIf,
    kSpawn,          // create thread `tmpl` labeled with pointer var `ptr`
    kSpawnChildren,  // create thread `tmpl` per non-null ptr field of label
  };

  K kind = K::kLet;
  std::string dst;
  int accum = -1;  // kAccum: the accumulator id (ThreadProgram::accums)
  ExprPtr expr;
  std::vector<TOpPtr> then_body;
  std::vector<TOpPtr> else_body;
  std::string ptr;
  int tmpl = -1;  // target template id of spawns
};

// A field of the labeled object read at template entry.
struct HoistedRead {
  std::string dst;    // register (scalar) or pointer var it defines
  std::string field;
  bool is_ptr = false;
  int slot = -1;      // class slot, resolved at compile time
};

struct ThreadTemplate {
  int id = -1;
  std::string function;     // source function this came from
  std::string label_var;    // the pointer the thread is labeled with
  std::string label_class;  // pointee class
  std::vector<HoistedRead> reads;
  std::vector<TOpPtr> ops;
  // Scalar registers whose values the creation site captures.
  std::vector<std::string> captures;
  // Pointer variables the creation site captures (hoisted reads of earlier
  // templates that this thread spawns on).
  std::vector<std::string> ptr_captures;
};

struct ThreadProgram {
  std::vector<ThreadTemplate> templates;
  std::map<std::string, int> fn_entry;  // function name -> entry template
  // Accumulator names, indexed by id: partitioning resolves every kAccum's
  // name to its id, so a runner keeps one reduction cell per id.
  std::vector<std::string> accums;

  const ThreadTemplate& at(int id) const { return templates[std::size_t(id)]; }
  int entry_of(const std::string& fn) const;

  // Static statistics — the compiler half of the paper's Table 1.
  struct Stats {
    std::size_t num_templates = 0;      // static threads
    std::size_t total_hoisted_reads = 0;
    std::size_t max_reads_per_thread = 0;
    std::size_t total_spawn_sites = 0;  // labeled thread-creation sites
  };
  Stats stats() const;

  std::string dump() const;  // human-readable listing (golden-tested)

  // Graphviz rendering of the thread structure: one node per template
  // (label, reads, captures), one edge per spawn site.
  std::string to_dot() const;
};

}  // namespace dpa::compiler
