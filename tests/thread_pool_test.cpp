// Semantics of the work-stealing pool and its join TaskGroup: the
// primitives the enclave's parallel chunk-crypto engine is built on.
#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace nexus::parallel {
namespace {

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  TaskGroup group(&pool);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    group.Submit([&hits, i](WorkerContext&) { hits[i].fetch_add(1); });
  }
  group.WaitAll();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);

  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.workers, 4u);
  EXPECT_EQ(stats.tasks_executed, hits.size());
}

TEST(ThreadPoolTest, ScratchBufferPersistsPerWorker) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  std::atomic<int> nonempty{0};
  for (int round = 0; round < 2; ++round) {
    TaskGroup g(&pool);
    for (int i = 0; i < 8; ++i) {
      g.Submit([&nonempty, round](WorkerContext& ctx) {
        MutableByteSpan buf = ctx.Scratch(4096);
        buf[0] = 0xAB;
        // Second round: the buffer survived the previous task on this
        // worker (no per-task allocation).
        if (round == 1 && ctx.scratch.size() >= 4096) nonempty.fetch_add(1);
      });
    }
    g.WaitAll();
  }
  EXPECT_GT(nonempty.load(), 0);
}

TEST(ThreadPoolTest, NullPoolExecutesInline) {
  TaskGroup group(nullptr);
  std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  group.Submit(
      [&ran_on, caller](WorkerContext&) { ran_on = std::this_thread::get_id(); });
  // Inline execution completes during Submit — no pool, no blocking.
  EXPECT_EQ(ran_on, caller);
  group.WaitAll();
  EXPECT_GT(group.busy_seconds(), -1.0); // accounted, possibly ~0
  EXPECT_DOUBLE_EQ(group.busy_seconds(), group.critical_path_seconds());
}

TEST(ThreadPoolTest, CpuAccountingCoversAllTasks) {
  ThreadPool pool(3);
  TaskGroup group(&pool);
  for (int i = 0; i < 12; ++i) {
    group.Submit([](WorkerContext&) {
      // Burn a little CPU so busy_seconds is measurably positive.
      volatile std::uint64_t x = 1;
      for (int k = 0; k < 200000; ++k) x = x * 1664525u + 1013904223u;
    });
  }
  group.WaitAll();
  EXPECT_GT(group.busy_seconds(), 0.0);
  EXPECT_GT(group.critical_path_seconds(), 0.0);
  // The critical path can never exceed total work, nor be shorter than an
  // even split across workers.
  EXPECT_LE(group.critical_path_seconds(), group.busy_seconds() + 1e-9);
  EXPECT_GE(group.critical_path_seconds() * 3, group.busy_seconds() - 1e-9);
}

TEST(ThreadPoolTest, ManyGroupsOverOnePoolDoNotInterfere) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  for (int round = 0; round < 20; ++round) {
    TaskGroup group(&pool);
    for (int i = 0; i < 10; ++i) {
      group.Submit([&sum, i](WorkerContext&) { sum.fetch_add(i); });
    }
    // Destructor joins the group.
  }
  EXPECT_EQ(sum.load(), 20u * 45u);
}

} // namespace
} // namespace nexus::parallel
