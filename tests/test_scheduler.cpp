// Tests for the fork-join work-stealing scheduler (src/parallel).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "pam/pam.h"
#include "parallel/parallel.h"
#include "server/kv_store.h"
#include "util/random.h"

namespace {

// The id of the thread a par_do branch or parallel_for body ran on must be
// a pool worker's.
bool on_pool(int id) { return id >= 0 && id < pam::num_workers(); }

TEST(Scheduler, ReportsWorkers) {
  EXPECT_GE(pam::num_workers(), 1);
  // Touching the scheduler does not make the main thread a worker.
  EXPECT_EQ(pam::worker_id(), -1);
  int left = -2, right = -2;
  pam::par_do([&] { left = pam::worker_id(); }, [&] { right = pam::worker_id(); });
  EXPECT_TRUE(on_pool(left)) << left;
  EXPECT_TRUE(on_pool(right)) << right;
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

// Records whether every par_do branch and parallel_for body it ran saw a
// pool worker's id.
struct id_probe {
  std::atomic<int> off_pool{0};
  std::atomic<int> runs{0};
  void record() {
    if (!on_pool(pam::worker_id())) off_pool.fetch_add(1);
    runs.fetch_add(1);
  }
};

void fork_everywhere(id_probe& probe) {
  pam::par_do([&] { probe.record(); }, [&] { probe.record(); });
  pam::parallel_for(0, 1000, [&](size_t) { probe.record(); }, 10);
}

TEST(Scheduler, ForeignThreadBodiesRunOnWorkers) {
  int before = pam::num_workers();
  for (int p : {before, 1}) {
    pam::set_num_workers(p);
    id_probe probe;
    std::thread t([&] {
      EXPECT_EQ(pam::worker_id(), -1);
      fork_everywhere(probe);
    });
    t.join();
    EXPECT_EQ(probe.runs.load(), 1002) << "P=" << p;
    EXPECT_EQ(probe.off_pool.load(), 0) << "P=" << p;
  }
  pam::set_num_workers(before);
}

TEST(Scheduler, ManyForeignThreadsHandOffAtOnce) {
  constexpr int kThreads = 8;
  const size_t n = 1 << 16;
  std::vector<uint64_t> fib(kThreads), sum(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; t++) {
    ts.emplace_back([&, t] {
      fib[t] = par_fib(24);
      std::atomic<uint64_t> s{0};
      pam::parallel_for(0, n, [&](size_t i) {
        s.fetch_add(i + static_cast<size_t>(t), std::memory_order_relaxed);
      }, 256);
      sum[t] = s.load();
    });
  }
  for (auto& th : ts) th.join();
  for (int t = 0; t < kThreads; t++) {
    EXPECT_EQ(fib[t], 46368u) << t;
    EXPECT_EQ(sum[t], n * (n - 1) / 2 + n * static_cast<size_t>(t)) << t;
  }
}

TEST(Scheduler, SetNumWorkersRestartsPool) {
  int before = pam::num_workers();
  pam::set_num_workers(2);
  EXPECT_EQ(pam::num_workers(), 2);
  EXPECT_EQ(pam::worker_id(), -1);  // resizing adopts no user thread
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
    // whole loop can finish on the worker that took the root before another
    // wakes. So the first iteration (always on that worker, with every
    // right half of the range still on its deque) holds until a thief has
    // run one, for up to 10 s; a pool that never steals still fails below.
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

// on_each_worker runs its hook once on every worker plus inline on a user
// thread caller (a worker caller's inline run is its own). The hook records
// the ids it ran on as a bit mask (a user thread is bit 63).
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

uint64_t worker_mask() {
  uint64_t m = 0;
  for (int i = 0; i < pam::num_workers(); i++) m |= uint64_t{1} << i;
  return m;
}

uint64_t expected_mask(int caller) {
  return worker_mask() | (uint64_t{1} << (caller < 0 ? 63 : caller));
}

int expected_runs(int caller) {
  return pam::num_workers() + (caller < 0 ? 1 : 0);
}

TEST(Scheduler, OnEachWorkerFromUserThreads) {
  // on_each_worker never creates the scheduler; make sure it exists.
  ASSERT_GE(pam::num_workers(), 1);
  ASSERT_EQ(pam::worker_id(), -1);
  hook_probe from_main, from_thread;
  pam::internal::scheduler::on_each_worker(&hook_probe::hook, &from_main);
  std::thread t([&] {
    pam::internal::scheduler::on_each_worker(&hook_probe::hook, &from_thread);
  });
  t.join();
  for (const hook_probe* probe : {&from_main, &from_thread}) {
    EXPECT_EQ(probe->ran_on.load(), expected_mask(-1));
    EXPECT_EQ(probe->runs.load(), expected_runs(-1));
  }
}

TEST(Scheduler, OnEachWorkerFromInsideTasksConcurrently) {
  // Every iteration calls from inside a parallel task, so calls overlap:
  // workers queued behind one call, workers helping a join and workers
  // deep in par_fib must all answer, and every call must still see each
  // worker exactly once.
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
    EXPECT_TRUE(on_pool(callers[i])) << i;
    EXPECT_EQ(probes[i].ran_on.load(), expected_mask(callers[i])) << i;
    EXPECT_EQ(probes[i].runs.load(), expected_runs(callers[i])) << i;
  }
  if (saved < 4) pam::set_num_workers(saved);
}

TEST(Scheduler, ForeignHandOffWhileOnEachWorkerInFlight) {
  // One user thread's on_each_worker holds every worker in its hook until
  // another user thread has started handing roots to the pool (setting the
  // flag needs no worker, so the hook may wait for it). The hand-offs must
  // complete with exact results and the call must still reach every worker.
  struct slow_probe {
    hook_probe probe;
    std::atomic<bool> forking{false};
    static void hook(void* arg) {
      auto* self = static_cast<slow_probe*>(arg);
      hook_probe::hook(&self->probe);
      while (!self->forking.load()) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  };
  ASSERT_GE(pam::num_workers(), 1);  // on_each_worker never creates the pool
  for (int round = 0; round < 20; round++) {
    slow_probe slow;
    std::atomic<bool> done{false};
    std::thread caller([&] {
      pam::internal::scheduler::on_each_worker(&slow_probe::hook, &slow);
      done.store(true);
    });
    std::thread forker([&] {
      slow.forking.store(true);
      do {
        EXPECT_EQ(par_fib(18), 2584u);
      } while (!done.load());
    });
    caller.join();
    forker.join();
    EXPECT_EQ(slow.probe.ran_on.load(), expected_mask(-1)) << round;
    EXPECT_EQ(slow.probe.runs.load(), expected_runs(-1)) << round;
  }
}

TEST(Scheduler, DurableStoreAtOneWorkerFinishes) {
  // Every heavy kv_store thread is a user thread: clients fork bulk
  // batches under the combiner's flush locks, the flusher forks each flush,
  // and the checkpointer forks the encode under ckpt_mu_ and all flush
  // locks. With one worker, a pool task that took any of those locks would
  // stall the store for good (the lock rule in scheduler.h).
  using map_t = pam::aug_map<pam::sum_entry<uint64_t, uint64_t>>;
  using store_t = pam::kv_store<map_t>;
  std::string dir = ::testing::TempDir() + "pam_sched_one_worker";
  std::string rm = "rm -rf " + dir;
  ASSERT_EQ(std::system(rm.c_str()), 0);
  int before = pam::num_workers();
  pam::set_num_workers(1);
  std::mutex oracle_mu;
  std::map<uint64_t, uint64_t> oracle;
  std::atomic<bool> finished{false};
  std::thread run([&] {
    store_t::options opt;
    opt.splitters = {2500, 5000, 7500};
    opt.combiner.batch_size = 8;
    opt.combiner.flush_interval = std::chrono::milliseconds(1);
    pam::store::durability_options dopts;
    dopts.dir = dir;
    opt.durability = dopts;
    store_t store(map_t{}, opt);
    std::thread checkpointer([&] {
      for (int k = 0; k < 10; k++) store.save_checkpoint();
    });
    std::vector<std::thread> writers;
    for (uint64_t t = 0; t < 3; t++) {
      writers.emplace_back([&, t] {
        pam::random_gen g(t + 7);
        for (uint64_t i = 0; i < 300; i++) {
          std::vector<std::pair<uint64_t, uint64_t>> batch;
          for (int j = 0; j < (i % 4 == 3 ? 64 : 1); j++) {
            batch.emplace_back(t * 10000 + g.next() % 3000, g.next());
          }
          if (batch.size() == 1) {
            store.put(batch[0].first, batch[0].second);
          } else {
            store.put_batch(batch);
          }
          std::lock_guard<std::mutex> lk(oracle_mu);
          for (const auto& [k, v] : batch) oracle[k] = v;
        }
      });
    }
    for (auto& w : writers) w.join();
    checkpointer.join();
    store.flush();
    EXPECT_FALSE(store.failed());
    auto entries = store.snapshot().entries();
    EXPECT_EQ(entries.size(), oracle.size());
    EXPECT_TRUE(std::equal(entries.begin(), entries.end(), oracle.begin(),
                           oracle.end(), [](const auto& a, const auto& b) {
                             return a.first == b.first && a.second == b.second;
                           }));
    finished.store(true);
  });
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (!finished.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!finished.load()) {
    // A stalled pool never returns; fail loudly instead of hanging ctest.
    std::fprintf(stderr, "DurableStoreAtOneWorkerFinishes: stalled after 120 s\n");
    std::fflush(stderr);
    std::_Exit(1);
  }
  run.join();
  pam::set_num_workers(before);
  (void)std::system(rm.c_str());
}

}  // namespace
