// Heap-traffic regression test for the message path.
//
// This binary replaces the global operator new with a counting one. The
// test runs native em3d at the benchmark's shape (64 nodes, DPA(50)) with
// half the graph per node, once with one E/H round and once with three.
// Both runs pay the same set-up (cluster, heap objects, worker threads)
// and the same two warm-up phases, so the difference between them counts
// the four steady-state phases alone. Those must average fewer than
// kMaxAllocsPerMsg heap allocations per message sent: a payload, reply
// copy, mailbox or aggregation buffer that went back to the heap would cost
// about one allocation per message.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "apps/em3d/em3d.h"
#include "runtime/config.h"

namespace dpa {
namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

constexpr double kMaxAllocsPerMsg = 0.05;

struct Count {
  std::uint64_t allocs = 0;
  std::uint64_t msgs = 0;
};

Count count_run(std::uint32_t iters) {
  apps::em3d::Em3dConfig cfg;
  cfg.e_per_node = 512;
  cfg.h_per_node = 512;
  cfg.degree = 8;
  cfg.remote_prob = 0.2;
  cfg.iters = iters;
  const apps::em3d::Em3dApp app(cfg, 64);
  g_allocs.store(0);
  g_counting.store(true);
  const apps::em3d::Em3dRun run =
      app.run(sim::NetParams{}, rt::RuntimeConfig::dpa(50), nullptr,
              exec::BackendKind::kNative);
  g_counting.store(false);
  EXPECT_TRUE(run.all_completed());
  Count c;
  c.allocs = g_allocs.load();
  for (const auto& step : run.steps) c.msgs += step.phase.fm_total.msgs_sent;
  return c;
}

TEST(MessagePath, NativeEm3dSteadyStateStaysOffTheHeap) {
  const Count warm = count_run(1);
  const Count longer = count_run(3);
  ASSERT_GT(longer.msgs, warm.msgs);
  const std::uint64_t msgs = longer.msgs - warm.msgs;
  const std::int64_t allocs =
      std::int64_t(longer.allocs) - std::int64_t(warm.allocs);
  const double per_msg = double(allocs) / double(msgs);
  RecordProperty("allocs", std::to_string(allocs));
  RecordProperty("msgs", std::to_string(msgs));
  EXPECT_LT(per_msg, kMaxAllocsPerMsg)
      << allocs << " heap allocations over " << msgs
      << " messages in four steady-state phases";
}

}  // namespace
}  // namespace dpa

void* operator new(std::size_t bytes) {
  if (dpa::g_counting.load(std::memory_order_relaxed))
    dpa::g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}

// GCC cannot see that these pair with the malloc above and flags every
// free() of a new'd pointer; the pairing is the point of the replacement.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop
