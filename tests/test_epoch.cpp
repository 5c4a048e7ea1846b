// Tests for the epoch-based deferred-reclamation layer (alloc/arena.h) and
// the lock-free snapshot publication protocol built on it (pam/snapshot.h):
// guard/retire/advance mechanics, snapshot acquisition under continuous
// writer churn (progress + no torn or lost versions), consistent cuts
// across shards, and pool accounting returning to baseline once limbo
// drains. The concurrency cases here run under TSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "pam/pam.h"
#include "server/kv_store.h"
#include "server/sharded_map.h"
#include "util/random.h"
#include "util/thread_annotations.h"

namespace {

using K = uint64_t;
using V = uint64_t;
using map_t = pam::aug_map<pam::sum_entry<K, V>>;
using entry_t = map_t::entry_t;

// Flush anything this test binary retired; no guards are active between
// tests, so three turns clear every limbo bucket.
void drain_all() { ASSERT_EQ(pam::epoch::drain(), 0u) << "limbo did not drain"; }

// --------------------------------------------------------- epoch basics --

struct tracked {
  static inline std::atomic<int> deleted{0};
  int payload = 0;
};

void retire_tracked() {
  pam::epoch::retire(new tracked{}, [](void* p) {
    tracked::deleted.fetch_add(1);
    delete static_cast<tracked*>(p);
  });
}

// Holds an epoch::guard on its own thread for the object's lifetime.
class pinned_reader {
 public:
  pinned_reader() : t_([this] {
    pam::epoch::guard g;
    in_guard_.store(true);
    while (!release_.load()) std::this_thread::yield();
  }) {
    while (!in_guard_.load()) std::this_thread::yield();
  }
  ~pinned_reader() {
    release_.store(true);
    t_.join();
  }

 private:
  std::atomic<bool> in_guard_{false}, release_{false};
  std::thread t_;
};

TEST(Epoch, RetiredObjectsAreFreedByDrain) {
  drain_all();
  int before = tracked::deleted.load();
  {
    // A guard held on another thread keeps every retirement pending.
    pinned_reader reader;
    for (int i = 0; i < 10; i++) retire_tracked();
    EXPECT_EQ(pam::epoch::pending(), 10u);
    EXPECT_EQ(tracked::deleted.load(), before);
  }
  drain_all();
  EXPECT_EQ(tracked::deleted.load(), before + 10);
  EXPECT_EQ(pam::epoch::pending(), 0u);
}

// With no reader pinned, every retirement turns the epoch over, so limbo
// holds only the last two epochs' retirements: each object is freed by the
// second retirement after it.
TEST(Epoch, UnpinnedLimboHoldsTwoEpochs) {
  drain_all();
  int before = tracked::deleted.load();
  size_t max_pending = 0;
  for (int i = 0; i < 1000; i++) {
    retire_tracked();
    max_pending = std::max(max_pending, pam::epoch::pending());
  }
  EXPECT_LE(max_pending, 2u);
  EXPECT_GE(tracked::deleted.load(), before + 998);
  drain_all();
  EXPECT_EQ(tracked::deleted.load(), before + 1000);
}

// Under a long-lived guard the turn cannot succeed, so retire backs off to
// one attempt per kDrainThreshold retirements once the bucket is deep.
TEST(Epoch, PinnedReaderBacksOff) {
  constexpr size_t kRetirements = 10000;
  constexpr size_t kT = pam::epoch::kDrainThreshold;
  drain_all();
  int before = tracked::deleted.load();
  const auto& blocked =
      pam::alloc_internal::alloc_metrics().epoch_advance_blocked;
  uint64_t blocked_before = blocked.value();
  {
    pinned_reader reader;
    for (size_t i = 0; i < kRetirements; i++) retire_tracked();
    EXPECT_EQ(pam::epoch::pending(), kRetirements);
    EXPECT_EQ(tracked::deleted.load(), before);
    if (pam::obs::kEnabled) {
      uint64_t attempts = blocked.value() - blocked_before;
      EXPECT_GT(attempts, 0u);
      EXPECT_LE(attempts, kT + kRetirements / kT);
    }
  }
  EXPECT_EQ(pam::epoch::drain(), 0u);
  EXPECT_EQ(tracked::deleted.load(), before + static_cast<int>(kRetirements));
}

TEST(Epoch, GuardPinsReclamation) {
  // An object retired while a guard is active on another thread must not be
  // freed until that guard exits, no matter how hard we drive the epoch.
  int before = tracked::deleted.load();
  std::atomic<bool> enter_guard{false}, release_guard{false}, in_guard{false};
  std::thread reader([&] {
    while (!enter_guard.load()) std::this_thread::yield();
    pam::epoch::guard g;
    in_guard.store(true);
    while (!release_guard.load()) std::this_thread::yield();
  });

  enter_guard.store(true);
  while (!in_guard.load()) std::this_thread::yield();
  pam::epoch::retire(new tracked{}, [](void* p) {
    tracked::deleted.fetch_add(1);
    delete static_cast<tracked*>(p);
  });
  for (int i = 0; i < 10; i++) pam::epoch::try_advance();
  EXPECT_EQ(tracked::deleted.load(), before) << "freed under an active guard";

  release_guard.store(true);
  reader.join();
  drain_all();
  EXPECT_EQ(tracked::deleted.load(), before + 1);
}

TEST(Epoch, GuardsNest) {
  pam::epoch::guard outer;
  // Nest across a function boundary: guards are re-entrant at runtime, but
  // to the thread-safety analysis (which is intra-procedural) a *lexically*
  // nested guard would read as a double acquire of epoch_domain. Real
  // nesting happens exactly like this — a guarded caller invoking a
  // function that takes its own guard.
  [] {
    pam::epoch::guard inner;
    EXPECT_GE(pam::epoch::active_readers(), 1u);
  }();
  // Still protected by the outer guard.
  EXPECT_GE(pam::epoch::active_readers(), 1u);
}

// ------------------------------------------- snapshot publication basics --

TEST(SnapshotBoxLockFree, VersionAndSizeAreCommitAtomic) {
  pam::snapshot_box<map_t> box(map_t{{{1, 10}, {2, 20}}});
  EXPECT_EQ(box.version(), 0u);
  EXPECT_EQ(box.size(), 2u);
  box.store(map_t{{{1, 10}}});
  EXPECT_EQ(box.version(), 1u);
  EXPECT_EQ(box.size(), 1u);
  box.update([](map_t m) { return map_t::insert(std::move(m), 7, 70); });
  auto [ver, sz] = box.version_size();
  EXPECT_EQ(ver, 2u);
  EXPECT_EQ(sz, 2u);
  auto [snap, sver] = box.snapshot_versioned();
  EXPECT_EQ(sver, 2u);
  EXPECT_EQ(snap.size(), 2u);
}

TEST(SnapshotBoxLockFree, WithCurrentReadsInPlace) {
  pam::snapshot_box<map_t> box(map_t{{{5, 50}, {6, 60}}});
  auto v = box.with_current([](const map_t& m) { return m.find(6); });
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 60u);
  EXPECT_EQ(box.with_current([](const map_t& m) { return m.aug_val(); }), 110u);
}

// -------------------------------------------------- churn stress (TSan) --

// One writer commits continuously; readers acquire snapshots the whole
// time. Asserts the heart of the lock-free protocol:
//   * progress: every reader completes its full quota of acquisitions while
//     the writer never stops committing (readers cannot be blocked out);
//   * no torn versions: every snapshot satisfies the commit invariant
//     (batches of kBatch entries, value 1 each => aug_val == size, size ==
//     version * kBatch) and versions observed by one reader never go back;
//   * no lost snapshots: the final version equals the number of commits.
TEST(SnapshotChurn, ReadersProgressUnderContinuousWriter) {
  constexpr K kRounds = 200;
  constexpr K kBatch = 100;
  constexpr int kReaders = 4;
  constexpr int kAcquisitionsPerReader = 400;

  pam::snapshot_box<map_t> box(map_t{});
  std::atomic<bool> writer_done{false};
  std::atomic<int> violations{0};

  std::thread writer([&] {
    for (K round = 0; round < kRounds; round++) {
      box.update([&](map_t m) {
        std::vector<entry_t> batch;
        batch.reserve(kBatch);
        for (K i = 0; i < kBatch; i++) batch.push_back({round * kBatch + i, 1});
        return map_t::multi_insert(std::move(m), std::move(batch));
      });
    }
    writer_done.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; r++) {
    readers.emplace_back([&] {
      uint64_t last_version = 0;
      for (int i = 0; i < kAcquisitionsPerReader; i++) {
        auto [snap, version] = box.snapshot_versioned();
        if (version < last_version) violations.fetch_add(1);
        last_version = version;
        if (snap.size() != version * kBatch) violations.fetch_add(1);
        if (snap.aug_val() != snap.size()) violations.fetch_add(1);
      }
    });
  }
  for (auto& t : readers) t.join();
  // Progress both ways: the readers finished their quota above regardless of
  // writer state; now let the writer finish and check nothing was lost.
  writer.join();
  EXPECT_TRUE(writer_done.load());
  EXPECT_EQ(violations.load(), 0);
  auto [final_snap, final_version] = box.snapshot_versioned();
  EXPECT_EQ(final_version, kRounds);
  EXPECT_EQ(final_snap.size(), kRounds * kBatch);
}

// Validated consistent cuts under churn: a single writer commits to shards
// in strict round-robin order, so at every instant the per-shard commit
// counters form a non-increasing chain v0 >= v1 >= ... >= v_{S-1} >= v0 - 1.
// A cut that was not instantaneous (torn between the passes) would show a
// vector violating the chain.
TEST(SnapshotChurn, ValidatedCutsAreInstantaneous) {
  const std::vector<K> splitters = {1000, 2000, 3000};
  pam::sharded_map<map_t> store(splitters);  // 4 shards
  const size_t S = store.num_shards();
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};

  std::thread writer([&] {
    K tick = 0;
    while (!stop.load()) {
      size_t s = tick % S;
      store.update_shard(s, [&](map_t m) {
        return map_t::insert(std::move(m), s * 1000 + (tick / S) % 900,
                             tick);
      });
      tick++;
    }
  });

  std::vector<std::thread> cutters;
  for (int c = 0; c < 3; c++) {
    cutters.emplace_back([&] {
      std::vector<uint64_t> last(S, 0);
      for (int i = 0; i < 300; i++) {
        auto cut = store.snapshot_all_versioned();
        for (size_t s = 0; s + 1 < S; s++) {
          if (cut.versions[s] < cut.versions[s + 1]) violations.fetch_add(1);
        }
        if (cut.versions[0] > cut.versions[S - 1] + 1) violations.fetch_add(1);
        for (size_t s = 0; s < S; s++) {
          if (cut.versions[s] < last[s]) violations.fetch_add(1);
          last[s] = cut.versions[s];
          // The cut's maps must match the versions it claims: shard sizes
          // are bounded by the number of commits to that shard.
          if (cut.snapshot.shard(s).size() > cut.versions[s])
            violations.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : cutters) t.join();
  stop.store(true);
  writer.join();
  EXPECT_EQ(violations.load(), 0);
}

// ------------------------------------------- reclamation accounting -----

TEST(Reclamation, PoolUsageReturnsToBaselineAfterLimboDrain) {
  drain_all();  // clear other tests' limbo before taking the baseline
  int64_t node_base = map_t::used_nodes();
  int64_t block_base = map_t::used_leaf_blocks();
  {
    pam::snapshot_box<map_t> box(map_t{});
    for (K round = 0; round < 40; round++) {
      box.update([&](map_t m) {
        std::vector<entry_t> batch;
        for (K i = 0; i < 500; i++) batch.push_back({round * 500 + i, i});
        return map_t::multi_insert(std::move(m), std::move(batch));
      });
    }
    // Displaced versions are deferred, not freed inline: with the epoch
    // machinery quiescent they sit in limbo and pin their trees.
    EXPECT_GT(pam::epoch::pending(), 0u);
  }
  // Box destroyed; drain the limbo lists (parallel teardown inside) and the
  // exact live accounting must return to its baseline.
  drain_all();
  EXPECT_EQ(map_t::used_nodes(), node_base);
  EXPECT_EQ(map_t::used_leaf_blocks(), block_base);
}

TEST(Reclamation, TrimReturnsChunksAfterDrain) {
  drain_all();
  // A dedicated entry type gives this test private node/leaf pools no other
  // suite touches, and keeping every allocation and free on this thread
  // (sequential inserts, no forked teardown) means every chunk those pools
  // ever carve is fully handed back below — so trim() must release them.
  // Slots freed into *other* threads' caches would conservatively pin their
  // chunks; that is the documented behavior, not what this test checks.
  using trim_map_t = pam::aug_map<pam::sum_entry<uint64_t, uint32_t>>;
  size_t old_cutoff = pam::gc_par_cutoff();
  pam::set_gc_par_cutoff(std::numeric_limits<size_t>::max());
  {
    pam::snapshot_box<trim_map_t> box(trim_map_t{});
    for (K round = 0; round < 20; round++) {
      box.update([&](trim_map_t m) {
        for (K i = 0; i < 1000; i++)
          m = trim_map_t::insert(std::move(m), round * 1000 + i,
                                 static_cast<uint32_t>(i));
        return m;
      });
    }
  }
  size_t still_pending = pam::epoch::drain();
  EXPECT_EQ(still_pending, 0u);
  // kv_store's maintenance hook: drains then trims every pool. All maps in
  // this test are dead, so the chunks grown for them are fully free; other
  // suites' live maps (if any) simply pin their own chunks.
  EXPECT_EQ(trim_map_t::used_nodes(), 0);
  size_t released = pam::kv_store<map_t>::trim_memory();
  EXPECT_GT(released, 0u);
  pam::set_gc_par_cutoff(old_cutoff);
  // The pools keep working after a trim: fresh allocations re-carve.
  trim_map_t m;
  for (K i = 0; i < 100; i++)
    m = trim_map_t::insert(std::move(m), i, static_cast<uint32_t>(i));
  EXPECT_EQ(m.size(), 100u);
}

// Readers racing a writer on the kv_store serving stack end to end: the
// YCSB-B shape (get + occasional put through the combiner) with history
// captures mixed in, all on the lock-free path.
TEST(SnapshotChurn, ServingStackEndToEnd) {
  std::vector<entry_t> initial;
  for (K i = 0; i < 4000; i++) initial.push_back({i * 7, i});
  pam::kv_store<map_t> store(map_t{std::move(initial)},
                             {.num_shards = 8, .retain_versions = 8});
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};

  std::thread writer([&] {
    pam::random_gen g(1);
    while (!stop.load()) {
      store.put(g.next() % 30000, g.next());
      if (g.next() % 64 == 0) store.flush();
    }
  });
  std::thread checkpointer([&] {
    while (!stop.load()) {
      store.checkpoint();
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; r++) {
    readers.emplace_back([&, r] {
      pam::random_gen g(100 + r);
      for (int i = 0; i < 2000; i++) {
        if (i % 20 == 0) {
          auto snap = store.snapshot();
          size_t n = snap.size();
          size_t counted = 0;
          snap.for_each([&](const K&, const V&) { counted++; });
          if (counted != n) violations.fetch_add(1);
        } else {
          store.get(g.next() % 30000);
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true);
  writer.join();
  checkpointer.join();
  EXPECT_EQ(violations.load(), 0);
  store.flush();
}

}  // namespace
