// Tests for persistence (functional path copying), reference-counting GC,
// node sharing, the refcount==1 reuse optimization, and the snapshot_box
// concurrency pattern (paper §4 "Persistence" and "Concurrency").
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "pam/pam.h"
#include "util/random.h"

namespace {

using K = uint64_t;
using V = uint64_t;
using map_t = pam::aug_map<pam::sum_entry<K, V>>;
using entry_t = map_t::entry_t;

std::vector<entry_t> random_entries(size_t n, uint64_t seed, uint64_t range) {
  std::vector<entry_t> es(n);
  pam::random_gen g(seed);
  for (auto& e : es) e = {g.next() % range, g.next() % 1000};
  return es;
}

// -------------------------------------------------------------- GC ------

TEST(GarbageCollection, NodesFreedWhenMapsDie) {
  int64_t base = map_t::used_nodes();
  int64_t blk_base = map_t::used_leaf_blocks();
  {
    map_t m(random_entries(50000, 1, 1u << 30));
    if (pam::leaf_block_size() >= 2) {
      // Blocked layout: ~n/B blocks hold the entries; far fewer nodes.
      EXPECT_GE(map_t::used_leaf_blocks(), blk_base + 1);
      EXPECT_LT(map_t::used_nodes() - base, 50000);
    } else {
      EXPECT_GE(map_t::used_nodes(), base + 49000);  // ~n minus rare dup keys
    }
  }
  EXPECT_EQ(map_t::used_nodes(), base);
  EXPECT_EQ(map_t::used_leaf_blocks(), blk_base);
}

TEST(GarbageCollection, SharedSubtreesFreedOnce) {
  int64_t base = map_t::used_nodes();
  {
    map_t a(random_entries(20000, 2, 1u << 30));
    map_t b = a;                                   // O(1) copy, full sharing
    map_t c = map_t::insert(a, 12345, 1);          // shares all but one path
    EXPECT_GT(map_t::used_nodes(), base);
    a = map_t();  // b and c keep everything alive
    EXPECT_TRUE(b.check_valid());
    EXPECT_TRUE(c.check_valid());
  }
  EXPECT_EQ(map_t::used_nodes(), base);
}

TEST(GarbageCollection, LargeParallelCollection) {
  // Destroying a large tree triggers the parallel GC path.
  int64_t base = map_t::used_nodes();
  int64_t byte_base = map_t::used_leaf_bytes();
  {
    map_t m(random_entries(1 << 20, 3, ~0ull));
    // At least one node between consecutive blocks of at most b entries.
    size_t b = pam::leaf_block_size();
    int64_t floor = b >= 2 ? (1 << 20) / static_cast<int64_t>(b) - 1 : (1 << 19);
    EXPECT_GE(map_t::used_nodes(), base + floor);
  }
  EXPECT_EQ(map_t::used_nodes(), base);
  EXPECT_EQ(map_t::used_leaf_bytes(), byte_base);
}

TEST(GarbageCollection, BulkOpsDoNotLeak) {
  int64_t base = map_t::used_nodes();
  {
    map_t a(random_entries(30000, 4, 1u << 16));
    map_t b(random_entries(30000, 5, 1u << 16));
    auto u = map_t::map_union(a, b, [](V x, V y) { return x + y; });
    auto i = map_t::map_intersect(a, b, [](V x, V y) { return x + y; });
    auto d = map_t::map_difference(a, b);
    auto f = map_t::filter(u, [](K k, V) { return k % 2 == 0; });
    auto r = map_t::range(u, 100, 60000);
    auto af = map_t::aug_filter(u, [](V s) { return s > 100; });
  }
  EXPECT_EQ(map_t::used_nodes(), base);
}

// ------------------------------------------------------- persistence ----

TEST(Persistence, OldVersionsSurviveUpdates) {
  auto es = random_entries(10000, 6, 1u << 20);
  map_t v0(es);
  std::map<K, V> oracle;
  for (auto& e : es) oracle[e.first] = e.second;

  // Take 20 versions, each inserting a marker; all versions stay intact.
  std::vector<map_t> versions = {v0};
  for (K i = 0; i < 20; i++) {
    versions.push_back(map_t::insert(versions.back(), ~0ull - i, i));
  }
  for (size_t i = 0; i < versions.size(); i++) {
    EXPECT_EQ(versions[i].size(), oracle.size() + i);
    for (K j = 0; j < 20; j++) {
      EXPECT_EQ(versions[i].find(~0ull - j).has_value(), j < i);
    }
    EXPECT_TRUE(versions[i].check_valid());
  }
}

TEST(Persistence, DestructiveOpsOnCopiesLeaveOriginalIntact) {
  auto es = random_entries(20000, 7, 1u << 20);
  map_t orig(es);
  auto snapshot_entries = orig.entries();
  // Consume *copies* in every destructive op.
  auto u = map_t::map_union(orig, map_t(random_entries(5000, 8, 1u << 20)));
  auto f = map_t::filter(orig, [](K, V) { return false; });
  auto d = map_t::map_difference(orig, orig);
  auto m2 = map_t::multi_delete(orig, {snapshot_entries[0].first});
  EXPECT_EQ(orig.entries(), snapshot_entries);
  EXPECT_TRUE(orig.check_valid());
}

TEST(Persistence, UnionSharesNodesWithLargerInput) {
  // Paper Table 4: persistent union of sizes (1e8, 1e5) re-uses ~half the
  // nodes. At our scale: union(n=100000, m=100) must allocate far fewer
  // than n + m new nodes thanks to subtree sharing.
  int64_t before_all = map_t::used_nodes();
  map_t big(random_entries(100000, 9, ~0ull));
  map_t small(random_entries(100, 10, ~0ull));
  int64_t before = map_t::used_nodes();
  map_t u = map_t::map_union(big, small);  // copies: all inputs stay alive
  int64_t new_nodes = map_t::used_nodes() - before;
  // Theory: m * log2(n/m) ~ 100 * 10 = 1000 new paths; allow generous slack.
  EXPECT_LT(new_nodes, 20000);
  EXPECT_GT(new_nodes, 0);
  u = map_t();
  big = map_t();
  small = map_t();
  EXPECT_EQ(map_t::used_nodes(), before_all);
}

TEST(Persistence, ReuseOptimizationToggleGivesSameResults) {
  // With reuse disabled every mutation path-copies; results must be
  // identical and nothing may leak.
  auto es = random_entries(5000, 11, 1u << 16);
  int64_t base = map_t::used_nodes();
  std::vector<entry_t> with_reuse, without_reuse;
  {
    pam::set_reuse_enabled(true);
    map_t m(es);
    for (int i = 0; i < 1000; i++) m = map_t::insert(std::move(m), i * 3, i);
    with_reuse = m.entries();
  }
  EXPECT_EQ(map_t::used_nodes(), base);
  {
    pam::set_reuse_enabled(false);
    map_t m(es);
    for (int i = 0; i < 1000; i++) m = map_t::insert(std::move(m), i * 3, i);
    without_reuse = m.entries();
    pam::set_reuse_enabled(true);
  }
  EXPECT_EQ(map_t::used_nodes(), base);
  EXPECT_EQ(with_reuse, without_reuse);
}

TEST(Persistence, MoveSemantics) {
  map_t a(random_entries(1000, 12, 1u << 20));
  size_t n = a.size();
  map_t b = std::move(a);
  EXPECT_EQ(b.size(), n);
  EXPECT_TRUE(a.empty());  // moved-from is the empty map
  a = std::move(b);
  EXPECT_EQ(a.size(), n);
}

TEST(Persistence, SelfAssignmentSafe) {
  map_t a(random_entries(100, 13, 1000));
  map_t& ref = a;
  a = ref;
  EXPECT_TRUE(a.check_valid());
  EXPECT_EQ(a.size(), a.entries().size());
}

// ------------------------------------------------------- concurrency ----

TEST(SnapshotBox, ConcurrentReadersSeeConsistentVersions) {
  // Writers batch inserts through update(); readers snapshot and verify a
  // map-wide invariant (aug_val equals the sum over entries) that would
  // break if they observed a torn version.
  pam::snapshot_box<map_t> box(map_t{});
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};

  std::thread writer([&] {
    for (K round = 0; round < 50; round++) {
      box.update([&](map_t m) {
        std::vector<entry_t> batch;
        for (K i = 0; i < 200; i++) batch.push_back({round * 200 + i, 1});
        return map_t::multi_insert(std::move(m), std::move(batch));
      });
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; r++) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        map_t snap = box.snapshot();
        // Every committed batch has 200 entries each of value 1, so
        // aug_val == size on any committed version.
        if (snap.aug_val() != snap.size()) violations.fetch_add(1);
        if (snap.size() % 200 != 0) violations.fetch_add(1);
        if (!snap.check_valid()) violations.fetch_add(1);
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(box.snapshot().size(), 50u * 200u);
}

TEST(SnapshotBox, SnapshotOutlivesLaterUpdates) {
  pam::snapshot_box<map_t> box(map_t(random_entries(5000, 14, 1u << 20)));
  map_t snap = box.snapshot();
  auto before = snap.entries();
  for (int i = 0; i < 10; i++) {
    box.update([&](map_t m) { return map_t::insert(std::move(m), i, 0); });
  }
  EXPECT_EQ(snap.entries(), before);
  EXPECT_TRUE(snap.check_valid());
}

TEST(Concurrency, IndependentMapsOnUserThreads) {
  // Multiple foreign threads each own and mutate their own maps; the shared
  // allocator and refcount machinery must hold up.
  int64_t base = map_t::used_nodes();
  {
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int t = 0; t < 8; t++) {
      threads.emplace_back([t, &failures] {
        map_t m;
        std::map<K, V> oracle;
        pam::random_gen g(t);
        for (int i = 0; i < 3000; i++) {
          K k = g.next() % 1000;
          if (g.next() % 3 == 0) {
            m = map_t::remove(std::move(m), k);
            oracle.erase(k);
          } else {
            m = map_t::insert(std::move(m), k, k);
            oracle[k] = k;
          }
        }
        if (m.size() != oracle.size() || !m.check_valid()) failures.fetch_add(1);
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(failures.load(), 0);
  }
  EXPECT_EQ(map_t::used_nodes(), base);
}

TEST(Concurrency, SharedReadOnlyMapAcrossThreads) {
  map_t m(random_entries(100000, 15, 1u << 24));
  uint64_t total = m.aug_val();
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; t++) {
    threads.emplace_back([&, t] {
      pam::random_gen g(t * 7 + 1);
      for (int q = 0; q < 2000; q++) {
        K a = g.next() % (1u << 24), b = g.next() % (1u << 24);
        K lo = std::min(a, b), hi = std::max(a, b);
        uint64_t left = m.aug_range(0, lo == 0 ? 0 : lo - 1);
        uint64_t mid = m.aug_range(lo, hi);
        uint64_t right = m.aug_range(hi + 1, ~0ull);
        if (lo > 0 && left + mid + right != total) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace

// --- addition: concurrent writers must never lose updates ------------------
namespace {

TEST(SnapshotBox, ConcurrentWritersLoseNoUpdates) {
  // Each of 8 writers applies 200 read-modify-write increments to its own
  // key; with serialized updates every increment must land.
  pam::snapshot_box<map_t> box(map_t{});
  std::vector<std::thread> writers;
  const int nw = 8, rounds = 200;
  for (int w = 0; w < nw; w++) {
    writers.emplace_back([&box, w] {
      for (int r = 0; r < rounds; r++) {
        box.update([w](map_t m) {
          return map_t::insert(std::move(m), static_cast<K>(w), 1,
                               [](V oldv, V inc) { return oldv + inc; });
        });
      }
    });
  }
  for (auto& t : writers) t.join();
  map_t final_map = box.snapshot();
  ASSERT_EQ(final_map.size(), static_cast<size_t>(nw));
  for (int w = 0; w < nw; w++) {
    ASSERT_EQ(final_map.find(static_cast<K>(w)).value(),
              static_cast<V>(rounds))
        << "writer " << w << " lost updates";
  }
  EXPECT_EQ(final_map.aug_val(), static_cast<uint64_t>(nw) * rounds);
}

}  // namespace
