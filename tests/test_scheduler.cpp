// Tests for the fork-join work-stealing scheduler (src/parallel).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "parallel/parallel.h"
#include "util/random.h"

namespace {

TEST(Scheduler, ReportsWorkers) {
  EXPECT_GE(pam::num_workers(), 1);
  EXPECT_EQ(pam::worker_id(), 0);  // the test main thread is worker 0
}

TEST(Scheduler, ParDoRunsBothBranches) {
  int a = 0, b = 0;
  pam::par_do([&] { a = 1; }, [&] { b = 2; });
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
}

TEST(Scheduler, ParDoReturnsAfterBothComplete) {
  // The right branch is slow; par_do must still see its side effect.
  std::atomic<int> order{0};
  int left_saw = -1, right_val = -1;
  pam::par_do(
      [&] { left_saw = order.fetch_add(1); },
      [&] {
        uint64_t sink = 0;
        for (int i = 0; i < 200000; i++) sink += pam::hash64(i) & 1;
        if (sink == 0xdeadbeef) std::abort();  // defeat optimization
        right_val = order.fetch_add(1);
      });
  EXPECT_GE(left_saw, 0);
  EXPECT_GE(right_val, 0);
  EXPECT_EQ(order.load(), 2);
}

// Recursive fib via par_do exercises deeply nested fork-join.
uint64_t par_fib(int n) {
  if (n < 2) return static_cast<uint64_t>(n);
  if (n < 12) return par_fib(n - 1) + par_fib(n - 2);
  uint64_t a = 0, b = 0;
  pam::par_do([&] { a = par_fib(n - 1); }, [&] { b = par_fib(n - 2); });
  return a + b;
}

TEST(Scheduler, NestedForkJoinFib) {
  EXPECT_EQ(par_fib(28), 317811u);
}

TEST(Scheduler, ParallelForCoversRangeExactlyOnce) {
  const size_t n = 1 << 20;
  std::vector<std::atomic<uint8_t>> hits(n);
  pam::parallel_for(0, n, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < n; i += 4097) EXPECT_EQ(hits[i].load(), 1u) << i;
  uint64_t total = 0;
  for (size_t i = 0; i < n; i++) total += hits[i].load();
  EXPECT_EQ(total, n);
}

TEST(Scheduler, ParallelForEmptyAndSingleton) {
  int count = 0;
  pam::parallel_for(5, 5, [&](size_t) { count++; });
  EXPECT_EQ(count, 0);
  pam::parallel_for(7, 8, [&](size_t i) { count += static_cast<int>(i); });
  EXPECT_EQ(count, 7);
}

TEST(Scheduler, ParallelForSum) {
  const size_t n = 1 << 22;
  std::vector<uint64_t> a(n);
  pam::parallel_for(0, n, [&](size_t i) { a[i] = pam::hash64(i) % 1000; });
  std::atomic<uint64_t> par_sum{0};
  pam::parallel_for(0, n, [&](size_t i) {
    par_sum.fetch_add(a[i], std::memory_order_relaxed);
  }, 65536);
  uint64_t seq_sum = std::accumulate(a.begin(), a.end(), uint64_t{0});
  EXPECT_EQ(par_sum.load(), seq_sum);
}

TEST(Scheduler, ParDoIfSequentialPath) {
  int order_check = 0;
  pam::par_do_if(false,
                 [&] { EXPECT_EQ(order_check++, 0); },
                 [&] { EXPECT_EQ(order_check++, 1); });
  EXPECT_EQ(order_check, 2);
}

TEST(Scheduler, ForeignThreadRunsSequentially) {
  // A thread that is not part of the pool must still be able to call par_do.
  int a = 0, b = 0;
  std::thread t([&] {
    EXPECT_EQ(pam::worker_id(), -1);
    pam::par_do([&] { a = 1; }, [&] { b = 2; });
  });
  t.join();
  EXPECT_EQ(a + b, 3);
}

TEST(Scheduler, SetNumWorkersRestartsPool) {
  int before = pam::num_workers();
  pam::set_num_workers(2);
  EXPECT_EQ(pam::num_workers(), 2);
  EXPECT_EQ(par_fib(24), 46368u);
  pam::set_num_workers(1);  // sequential mode
  EXPECT_EQ(par_fib(20), 6765u);
  pam::set_num_workers(before);
  EXPECT_EQ(pam::num_workers(), before);
  EXPECT_EQ(par_fib(24), 46368u);
}

TEST(Scheduler, ManySmallParallelRegions) {
  // Regression guard for deque reuse across many independent regions.
  for (int round = 0; round < 2000; round++) {
    int x = 0, y = 0;
    pam::par_do([&] { x = round; }, [&] { y = round + 1; });
    ASSERT_EQ(x + 1, y);
  }
}

TEST(Scheduler, ParallelSpeedupSmokeCheck) {
  // Not a benchmark: only verifies that the pool actually executes work on
  // more than one thread (distinct worker ids observed inside a big loop).
  if (pam::num_workers() < 2) GTEST_SKIP() << "single-core machine";
  std::vector<std::atomic<uint8_t>> seen(static_cast<size_t>(pam::num_workers()));
  std::atomic<int> seen_count{0};
  pam::parallel_for(0, 1 << 18, [&](size_t i) {
    int id = pam::worker_id();
    ASSERT_GE(id, 0);
    if (seen[static_cast<size_t>(id)].exchange(1) == 0) seen_count.fetch_add(1);
    // Idle workers poll for work every 100 us, and on a loaded host the
    // whole loop can finish on the calling thread before one wakes. So the
    // first iteration (always on the caller, with every right half of the
    // range still on its deque) holds until a thief has run one, for up to
    // 10 s; a pool that never steals still fails below.
    if (i == 0) {
      auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (seen_count.load() < 2 && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    }
  }, 256);
  int distinct = 0;
  for (auto& s : seen) distinct += s.load();
  EXPECT_GE(distinct, 2);
}

// on_each_worker runs its hook once on every spawned worker plus inline on
// the caller. The hook records the ids it ran on as a bit mask (a foreign
// caller is bit 63).
struct hook_probe {
  std::atomic<uint64_t> ran_on{0};
  std::atomic<int> runs{0};
  static void hook(void* arg) {
    auto* self = static_cast<hook_probe*>(arg);
    int id = pam::worker_id();
    self->ran_on.fetch_or(uint64_t{1} << (id < 0 ? 63 : id));
    self->runs.fetch_add(1);
  }
};

uint64_t spawned_mask() {
  uint64_t m = 0;
  for (int i = 1; i < pam::num_workers(); i++) m |= uint64_t{1} << i;
  return m;
}

uint64_t expected_mask(int caller) {
  return spawned_mask() | (uint64_t{1} << (caller < 0 ? 63 : caller));
}

int expected_runs(int caller) {
  return pam::num_workers() - 1 + (caller <= 0 ? 1 : 0);
}

TEST(Scheduler, OnEachWorkerFromWorkerZero) {
  // on_each_worker never creates the scheduler; make sure it exists.
  ASSERT_GE(pam::num_workers(), 1);
  ASSERT_EQ(pam::worker_id(), 0);
  hook_probe probe;
  pam::internal::scheduler::on_each_worker(&hook_probe::hook, &probe);
  EXPECT_EQ(probe.ran_on.load(), expected_mask(0));
  EXPECT_EQ(probe.runs.load(), expected_runs(0));
}

TEST(Scheduler, OnEachWorkerFromForeignThread) {
  hook_probe probe;
  std::thread t(
      [&] { pam::internal::scheduler::on_each_worker(&hook_probe::hook, &probe); });
  t.join();
  EXPECT_EQ(probe.ran_on.load(), expected_mask(-1));
  EXPECT_EQ(probe.runs.load(), expected_runs(-1));
}

TEST(Scheduler, OnEachWorkerFromInsideTasksConcurrently) {
  // Every iteration calls from inside a parallel task, so calls overlap:
  // workers queued behind one call, workers helping a join and workers
  // deep in par_fib must all answer, and every call must still see each
  // spawned worker exactly once.
  int saved = pam::num_workers();
  if (saved < 4) pam::set_num_workers(4);
  constexpr size_t kCalls = 64;
  std::vector<hook_probe> probes(kCalls);
  std::vector<int> callers(kCalls);
  std::atomic<uint64_t> fib_sum{0};
  pam::parallel_for(0, kCalls, [&](size_t i) {
    callers[i] = pam::worker_id();
    pam::internal::scheduler::on_each_worker(&hook_probe::hook, &probes[i]);
    fib_sum.fetch_add(par_fib(16));
  }, 1);
  EXPECT_EQ(fib_sum.load(), kCalls * 987u);
  for (size_t i = 0; i < kCalls; i++) {
    EXPECT_EQ(probes[i].ran_on.load(), expected_mask(callers[i])) << i;
    EXPECT_EQ(probes[i].runs.load(), expected_runs(callers[i])) << i;
  }
  if (saved < 4) pam::set_num_workers(saved);
}

}  // namespace
