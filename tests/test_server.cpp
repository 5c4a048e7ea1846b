// Tests for the serving layer (src/server/): sharded_map partitioning and
// consistent cuts, write_combiner batching semantics (coalescing, ordering,
// no lost updates), and the kv_store facade — including multi-threaded
// differential tests against a mutexed std::map.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "pam/pam.h"
#include "server/kv_store.h"
#include "server/sharded_map.h"
#include "server/write_combiner.h"
#include "util/random.h"

namespace {

using K = uint64_t;
using V = uint64_t;
using map_t = pam::aug_map<pam::sum_entry<K, V>>;
using entry_t = map_t::entry_t;
using sharded_t = pam::sharded_map<map_t>;
using combiner_t = pam::write_combiner<map_t>;
using store_t = pam::kv_store<map_t>;

std::vector<entry_t> random_entries(size_t n, uint64_t seed, uint64_t range) {
  std::vector<entry_t> es(n);
  pam::random_gen g(seed);
  for (auto& e : es) e = {g.next() % range, g.next() % 1000};
  return es;
}

// ------------------------------------------------------------ sharded_map --

TEST(ShardedMap, PartitionsAndFindsLikeOneMap) {
  auto es = random_entries(20000, 1, 1u << 20);
  map_t whole(es);
  auto expect = whole.entries();

  for (size_t S : {size_t{1}, size_t{4}, size_t{16}}) {
    sharded_t sm(whole, S);
    EXPECT_LE(sm.num_shards(), S == 1 ? 1u : S);
    EXPECT_EQ(sm.size(), whole.size());
    auto snap = sm.snapshot_all();
    EXPECT_EQ(snap.entries(), expect);
    // Every shard individually valid, keys within its directory range.
    for (size_t s = 0; s < snap.num_shards(); s++) {
      const map_t& shard = snap.shard(s);
      EXPECT_TRUE(shard.check_valid());
      shard.for_each([&](K k, V) { EXPECT_EQ(sm.shard_of(k), s); });
    }
    // Point lookups agree with the unsharded map.
    pam::random_gen g(7);
    for (int i = 0; i < 2000; i++) {
      K k = g.next() % (1u << 20);
      EXPECT_EQ(sm.find(k), whole.find(k));
    }
  }
}

TEST(ShardedMap, ExplicitSplittersOwnTheRightShards) {
  sharded_t sm(std::vector<K>{100, 200, 300});
  EXPECT_EQ(sm.num_shards(), 4u);
  EXPECT_EQ(sm.shard_of(0), 0u);
  EXPECT_EQ(sm.shard_of(99), 0u);
  EXPECT_EQ(sm.shard_of(100), 1u);  // a splitter key goes right
  EXPECT_EQ(sm.shard_of(250), 2u);
  EXPECT_EQ(sm.shard_of(300), 3u);
  EXPECT_EQ(sm.shard_of(1u << 30), 3u);

  sm.insert(100, 7);
  EXPECT_EQ(sm.snapshot_shard(1).size(), 1u);
  EXPECT_EQ(sm.find(100), std::optional<V>(7));
  sm.erase(100);
  EXPECT_EQ(sm.find(100), std::nullopt);
}

TEST(ShardedMap, BulkOpsMatchStdMap) {
  sharded_t sm(std::vector<K>{1000, 2000, 3000, 4000});
  std::map<K, V> oracle;

  pam::random_gen g(3);
  for (int round = 0; round < 10; round++) {
    std::vector<entry_t> batch;
    for (int i = 0; i < 500; i++) {
      K k = g.next() % 5000;
      V v = g.next() % 1000;
      batch.push_back({k, v});
    }
    for (const auto& [k, v] : batch) oracle[k] = v;  // last wins
    sm.multi_insert(std::move(batch));

    std::vector<K> dels;
    for (int i = 0; i < 100; i++) dels.push_back(g.next() % 5000);
    for (K k : dels) oracle.erase(k);
    sm.multi_delete(std::move(dels));
  }

  auto got = sm.snapshot_all().entries();
  std::vector<entry_t> want(oracle.begin(), oracle.end());
  EXPECT_EQ(got, want);
}

TEST(ShardedMap, StitchedRangeAndAugQueries) {
  auto es = random_entries(30000, 5, 1u << 16);
  map_t whole(es);
  sharded_t sm(whole, 8);
  auto snap = sm.snapshot_all();

  pam::random_gen g(9);
  for (int i = 0; i < 200; i++) {
    K a = g.next() % (1u << 16), b = g.next() % (1u << 16);
    K lo = std::min(a, b), hi = std::max(a, b);
    // count / aug agree with the unsharded map's O(log n) queries.
    EXPECT_EQ(snap.count_range(lo, hi), whole.count_range(lo, hi));
    EXPECT_EQ(snap.aug_range(lo, hi), whole.aug_range(lo, hi));
    // stitched iteration is the in-order walk of the range.
    std::vector<entry_t> got;
    snap.for_each_range(lo, hi, [&](K k, V v) { got.push_back({k, v}); });
    std::vector<entry_t> want = whole.view(lo, hi).to_entries();
    EXPECT_EQ(got, want);
  }
  // Degenerate ranges.
  EXPECT_EQ(snap.count_range(5, 4), 0u);
  EXPECT_EQ(snap.aug_range(5, 4), V{});
}

TEST(ShardedMap, SizeAnswersFromCommitTimeCounters) {
  // size() must agree with the ground truth through every kind of commit —
  // it sums the per-shard root sizes of the published cut, not a snapshot.
  sharded_t sm(std::vector<K>{100, 200});
  EXPECT_EQ(sm.size(), 0u);
  sm.insert(5, 1);
  sm.insert(150, 1);
  sm.insert(250, 1);
  EXPECT_EQ(sm.size(), 3u);
  sm.insert(150, 2);  // overwrite: size unchanged
  EXPECT_EQ(sm.size(), 3u);
  sm.erase(5);
  EXPECT_EQ(sm.size(), 2u);
  sm.erase(5);  // absent: unchanged
  EXPECT_EQ(sm.size(), 2u);
  sm.multi_insert({{1, 1}, {2, 2}, {150, 3}, {300, 4}});
  EXPECT_EQ(sm.size(), 5u);
  sm.multi_delete({1, 2, 999});
  EXPECT_EQ(sm.size(), 3u);
  sm.update_shard(0, [](map_t m) { return map_t::insert(std::move(m), 7, 7); });
  EXPECT_EQ(sm.size(), 4u);
  EXPECT_EQ(sm.size(), sm.snapshot_all().size());

  // Initial distribution also seeds the counters.
  auto es = random_entries(5000, 13, 1u << 16);
  map_t whole(es);
  sharded_t sm2(whole, 8);
  EXPECT_EQ(sm2.size(), whole.size());
}

TEST(ShardedMap, SizeIsMonotoneUnderInsertOnlyWriters) {
  // Insert-only load: every cut's size is non-decreasing, so a reader that
  // ever observes a smaller value than before caught a torn counter read.
  sharded_t sm(std::vector<K>{1u << 14, 1u << 15});
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < 3; w++) {
    writers.emplace_back([&, w] {
      for (K i = 0; i < 3000; i++) sm.insert(K(w) * 100000 + i, 1);
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; r++) {
    readers.emplace_back([&] {
      size_t last = 0;
      while (!stop.load()) {
        size_t s = sm.size();
        if (s < last) violations.fetch_add(1);
        last = s;
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(sm.size(), 9000u);
}

TEST(ShardedMap, CrossShardVersionVectorsNeverRegress) {
  // Concurrent writers bump shards; each reader repeatedly takes the
  // versioned cut and asserts (a) its own successive version vectors are
  // componentwise non-decreasing — cuts are totally ordered, so a regress
  // in any component is a torn cut — and (b) the cut's *contents* match its
  // version vector exactly: the writer commits value == resulting version,
  // so any mismatch means the snapshot and the counters were not taken
  // atomically. Runs under TSan in CI.
  const size_t S = 4;
  sharded_t sm(std::vector<K>{1000, 2000, 3000});
  const K probe_key[S] = {0, 1000, 2000, 3000};

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};

  std::vector<std::thread> writers;
  for (size_t s = 0; s < S; s++) {
    writers.emplace_back([&, s] {
      // Commit r writes value r at the probe key; shard version becomes r.
      for (V r = 1; r <= 2000; r++) {
        sm.update_shard(s, [&](map_t m) {
          return map_t::insert(std::move(m), probe_key[s], r);
        });
      }
    });
  }

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; r++) {
    readers.emplace_back([&] {
      std::vector<uint64_t> last(S, 0);
      while (!stop.load()) {
        auto cut = sm.snapshot_all_versioned();
        for (size_t s = 0; s < S; s++) {
          if (cut.versions[s] < last[s]) violations.fetch_add(1);
          auto v = cut.snapshot.find(probe_key[s]);
          uint64_t got = v.has_value() ? *v : 0;
          if (got != cut.versions[s]) violations.fetch_add(1);
        }
        last = std::move(cut.versions);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0);
  auto final_versions = sm.versions();
  for (size_t s = 0; s < S; s++) EXPECT_EQ(final_versions[s], 2000u);
}

TEST(ShardedMap, SnapshotAllIsAConsistentCut) {
  // A writer advances a per-shard counter key round-robin: shard 0 first,
  // then 1, ... so at every instant counter[s] is non-increasing in s and
  // spans at most two consecutive rounds. Any snapshot violating that saw a
  // torn cut.
  const size_t S = 4;
  sharded_t sm(std::vector<K>{1000, 2000, 3000});
  const K counter_key[S] = {0, 1000, 2000, 3000};
  for (size_t s = 0; s < S; s++) sm.insert(counter_key[s], 0);

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};

  std::thread writer([&] {
    for (V round = 1; round <= 3000; round++) {
      for (size_t s = 0; s < S; s++) {
        sm.update_shard(s, [&](map_t m) {
          return map_t::insert(std::move(m), counter_key[s], round);
        });
      }
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; r++) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto snap = sm.snapshot_all();
        V c[S];
        for (size_t s = 0; s < S; s++) c[s] = *snap.find(counter_key[s]);
        for (size_t s = 1; s < S; s++)
          if (c[s] > c[s - 1]) violations.fetch_add(1);
        if (c[0] > c[S - 1] + 1) violations.fetch_add(1);
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0);
}

TEST(ShardedMap, CutReadsInsideAnUpdateFunctorSeeThePreCommitShard) {
  // Reads take no lock, so an update functor may take cuts of its own
  // sharded_map while three threads commit to the other shards. Each read
  // must return, and must show the functor's shard as of before its commit:
  // before round r, shard 1 holds r keys, its probe maps to r, and its
  // version is r. The other shards overwrite one key each (size 1).
  const size_t S = 4, target = 1;
  const V kRounds = 40;
  sharded_t sm(std::vector<K>{1000, 2000, 3000});
  const K probe_key[S] = {0, 1000, 2000, 3000};
  for (size_t s = 0; s < S; s++) sm.insert(probe_key[s], 1);

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (size_t s = 0; s < S; s++) {
    if (s == target) continue;
    writers.emplace_back([&, s] {
      for (V r = 2; !stop.load(); r++) {
        sm.update_shard(s, [&](map_t m) {
          return map_t::insert(std::move(m), probe_key[s], r);
        });
      }
    });
  }

  const K probe = probe_key[target];
  for (V r = 1; r <= kRounds; r++) {
    sm.update_shard(target, [&](map_t m) {
      auto before = sm.versions();
      EXPECT_EQ(before[target], r);

      auto cut = sm.snapshot_all();
      EXPECT_EQ(cut.find(probe), std::optional<V>(r));
      EXPECT_EQ(cut.shard(target).size(), r);
      EXPECT_EQ(sm.size(), (S - 1) + r);

      auto found = sm.multi_find({probe, probe + r, probe_key[0]});
      EXPECT_EQ(found[0], std::optional<V>(r));
      EXPECT_FALSE(found[1].has_value());
      EXPECT_TRUE(found[2].has_value());

      // The other shards keep committing while this shard's mutex is held.
      auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (sm.versions()[0] == before[0] &&
             std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
      auto after = sm.versions();
      EXPECT_GT(after[0], before[0]);
      EXPECT_EQ(after[target], r);
      return map_t::insert(map_t::insert(std::move(m), probe, r + 1),
                           probe + r, r);
    });
  }
  stop.store(true);
  for (auto& t : writers) t.join();
  EXPECT_EQ(sm.versions()[target], kRounds + 1);
  EXPECT_EQ(sm.snapshot_shard(target).size(), kRounds + 1);
  EXPECT_EQ(sm.find(probe), std::optional<V>(kRounds + 1));
}

TEST(ShardedMapDifferential, ConcurrentWritersMatchMutexedStdMap) {
  // N writer threads apply random point upserts/erases; the std::map oracle
  // is updated inside the same per-shard commit section, so commit order and
  // oracle order agree. M readers concurrently validate structural
  // invariants on consistent cuts. Final state must equal the oracle.
  const int kWriters = 4, kReaders = 2, kOpsPerWriter = 4000;
  sharded_t sm(std::vector<K>{2500, 5000, 7500});
  std::map<K, V> oracle;
  std::mutex oracle_mu;
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; w++) {
    writers.emplace_back([&, w] {
      pam::random_gen g(1000 + w);
      for (int i = 0; i < kOpsPerWriter; i++) {
        K k = g.next() % 10000;
        bool del = g.next() % 4 == 0;
        V v = g.next() % 1000;
        sm.update_shard(sm.shard_of(k), [&](map_t m) {
          {
            std::lock_guard<std::mutex> lock(oracle_mu);
            if (del) oracle.erase(k); else oracle[k] = v;
          }
          return del ? map_t::remove(std::move(m), k)
                     : map_t::insert(std::move(m), k, v);
        });
      }
    });
  }

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; r++) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto snap = sm.snapshot_all();
        for (size_t s = 0; s < snap.num_shards(); s++) {
          const map_t& shard = snap.shard(s);
          if (!shard.check_valid()) violations.fetch_add(1);
          // The sum augmentation over any committed version must equal the
          // sum of its entries (torn reads would break it).
          V sum = 0;
          shard.for_each([&](K, V v) { sum += v; });
          if (shard.aug_val() != sum) violations.fetch_add(1);
        }
      }
    });
  }

  for (auto& t : writers) t.join();
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(violations.load(), 0);
  auto got = sm.snapshot_all().entries();
  std::vector<entry_t> want(oracle.begin(), oracle.end());
  EXPECT_EQ(got, want);
}

TEST(ShardedMap, UpdateShardRejectsOutOfRangeIndex) {
  // Shard indices are directory-relative; an index past the current
  // directory names no shard and must not silently land in the last one.
  sharded_t sm(std::vector<K>{100, 200});
  ASSERT_EQ(sm.num_shards(), 3u);
  auto put = [](K k) {
    return [k](map_t m) { return map_t::insert(std::move(m), k, k); };
  };
  sm.update_shard(2, put(250));
  EXPECT_THROW(sm.update_shard(3, put(300)), std::out_of_range);
  EXPECT_THROW(sm.update_shard(size_t(-1), put(301)), std::out_of_range);
  EXPECT_EQ(sm.size(), 1u);
  EXPECT_EQ(sm.snapshot_shard(2).size(), 1u);
}

TEST(SnapshotBoxDifferential, ConcurrentPointWritersMatchMutexedStdMap) {
  // The single-box analogue: all writers serialize on one snapshot_box.
  const int kWriters = 4, kOpsPerWriter = 2500;
  pam::snapshot_box<map_t> box(map_t{});
  std::map<K, V> oracle;
  std::mutex oracle_mu;
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; w++) {
    writers.emplace_back([&, w] {
      pam::random_gen g(2000 + w);
      for (int i = 0; i < kOpsPerWriter; i++) {
        K k = g.next() % 4000;
        bool del = g.next() % 4 == 0;
        V v = g.next() % 1000;
        box.update([&](map_t m) {
          {
            std::lock_guard<std::mutex> lock(oracle_mu);
            if (del) oracle.erase(k); else oracle[k] = v;
          }
          return del ? map_t::remove(std::move(m), k)
                     : map_t::insert(std::move(m), k, v);
        });
      }
    });
  }

  std::thread reader([&] {
    uint64_t last_version = 0;
    while (!stop.load()) {
      auto [snap, version] = box.snapshot_versioned();
      if (version < last_version) violations.fetch_add(1);
      last_version = version;
      if (!snap.check_valid()) violations.fetch_add(1);
    }
  });

  for (auto& t : writers) t.join();
  stop.store(true);
  reader.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(box.version(), uint64_t(kWriters) * kOpsPerWriter);
  auto got = box.snapshot().entries();
  std::vector<entry_t> want(oracle.begin(), oracle.end());
  EXPECT_EQ(got, want);
}

// ---------------------------------------------------------- write_combiner --

TEST(WriteCombiner, CoalescesLastWriterWinsWithinABatch) {
  sharded_t sm(std::vector<K>{});
  {
    combiner_t wc(sm, {.batch_size = 1u << 20,
                       .flush_interval = std::chrono::milliseconds(0)});
    wc.upsert(1, 10);
    wc.erase(1);
    wc.upsert(1, 30);  // survives
    wc.upsert(2, 20);
    wc.erase(2);       // survives: 2 absent
    wc.upsert(3, 5);
    wc.upsert(3, 6);   // survives
    wc.flush_all();

    auto st = wc.stats();
    EXPECT_EQ(st.ops_enqueued, 7u);
    EXPECT_EQ(st.ops_committed, 3u);  // one survivor per distinct key
    EXPECT_EQ(st.batches_flushed, 1u);
  }
  EXPECT_EQ(sm.find(1), std::optional<V>(30));
  EXPECT_EQ(sm.find(2), std::nullopt);
  EXPECT_EQ(sm.find(3), std::optional<V>(6));
}

TEST(WriteCombiner, OrderHoldsAcrossBatchBoundaries) {
  // batch_size 1 forces every op into its own batch; the per-shard flush
  // lock must still apply them in enqueue order.
  sharded_t sm(std::vector<K>{});
  combiner_t wc(sm, {.batch_size = 1,
                     .flush_interval = std::chrono::milliseconds(0)});
  for (V v = 0; v < 100; v++) wc.upsert(42, v);
  wc.erase(42);
  wc.upsert(42, 777);
  wc.flush_all();
  EXPECT_EQ(sm.find(42), std::optional<V>(777));
}

TEST(WriteCombiner, NoLostUpdatesAcrossThreads) {
  // Each thread owns a disjoint key range and writes a deterministic final
  // value per key (several overwrites, some keys deleted). After drain,
  // every key must hold its thread's final value — a lost batch, a torn
  // swap, or reordered flushes would all surface here.
  const int kThreads = 8;
  const K kKeysPerThread = 2000;
  sharded_t sm(std::vector<K>{4000, 8000, 12000});
  {
    combiner_t wc(sm, {.batch_size = 256,
                       .flush_interval = std::chrono::milliseconds(1)});
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
      threads.emplace_back([&, t] {
        K base = K(t) * kKeysPerThread;
        for (K i = 0; i < kKeysPerThread; i++) {
          K k = base + i;
          wc.upsert(k, 1);
          if (i % 3 == 0) wc.erase(k);       // deleted...
          wc.upsert(k, k + 100);             // ...then resurrected
          if (i % 5 == 0) wc.erase(k);       // final: deleted
        }
      });
    }
    for (auto& t : threads) t.join();
  }  // destructor drains

  auto snap = sm.snapshot_all();
  EXPECT_EQ(snap.size(), size_t(kThreads) * kKeysPerThread * 4 / 5);
  for (int t = 0; t < kThreads; t++) {
    K base = K(t) * kKeysPerThread;
    for (K i = 0; i < kKeysPerThread; i++) {
      K k = base + i;
      auto v = snap.find(k);
      if (i % 5 == 0) {
        ASSERT_EQ(v, std::nullopt) << "key " << k;
      } else {
        ASSERT_EQ(v, std::optional<V>(k + 100)) << "key " << k;
      }
    }
  }
}

TEST(WriteCombiner, ShutdownDrainsAndKeepsAccepting) {
  // shutdown() must commit everything enqueued before it — including ops
  // sitting in buffers the background flusher never got to — and ops issued
  // after shutdown must still land (direct path), never strand in a dead
  // buffer. This is the no-lost-updates-at-shutdown regression test.
  sharded_t sm(std::vector<K>{1000, 2000});
  combiner_t wc(sm, {.batch_size = 1u << 20,  // never overflows
                     .flush_interval = std::chrono::hours(1)});  // never ticks
  for (K k = 0; k < 500; k++) wc.upsert(k, k + 1);
  EXPECT_EQ(sm.size(), 0u);  // all buffered
  wc.shutdown();
  EXPECT_EQ(sm.size(), 500u);
  for (K k = 0; k < 500; k++) ASSERT_EQ(sm.find(k), std::optional<V>(k + 1));

  // Idempotent, and later ops commit immediately.
  wc.shutdown();
  wc.upsert(5000, 55);
  wc.erase(3);
  EXPECT_EQ(sm.find(5000), std::optional<V>(55));
  EXPECT_EQ(sm.find(3), std::nullopt);
  EXPECT_EQ(sm.size(), 500u);
  auto st = wc.stats();
  EXPECT_EQ(st.ops_enqueued, 502u);
  EXPECT_EQ(st.ops_committed, 502u);
}

TEST(WriteCombiner, ShutdownRacingEnqueuesLosesNothing) {
  // Threads enqueue while another thread shuts the combiner down midway:
  // every op acknowledged by upsert() must be committed once the combiner
  // is gone — whether it rode the final drain or the direct path.
  const int kThreads = 6;
  const K kKeysPerThread = 1500;
  sharded_t sm(std::vector<K>{3000, 6000});
  {
    combiner_t wc(sm, {.batch_size = 64,
                       .flush_interval = std::chrono::milliseconds(1)});
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
      threads.emplace_back([&, t] {
        while (!go.load()) std::this_thread::yield();
        K base = K(t) * kKeysPerThread;
        for (K i = 0; i < kKeysPerThread; i++) wc.upsert(base + i, base + i + 7);
      });
    }
    std::thread closer([&] {
      while (!go.load()) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      wc.shutdown();
    });
    go.store(true);
    for (auto& t : threads) t.join();
    closer.join();
  }  // destructor: second shutdown, must be a no-op drain

  auto snap = sm.snapshot_all();
  ASSERT_EQ(snap.size(), size_t(kThreads) * kKeysPerThread);
  for (int t = 0; t < kThreads; t++) {
    K base = K(t) * kKeysPerThread;
    for (K i = 0; i < kKeysPerThread; i++)
      ASSERT_EQ(snap.find(base + i), std::optional<V>(base + i + 7))
          << "key " << base + i;
  }
}

TEST(WriteCombiner, BackgroundFlusherCommitsWithoutExplicitFlush) {
  sharded_t sm(std::vector<K>{});
  combiner_t wc(sm, {.batch_size = 1u << 20,
                     .flush_interval = std::chrono::milliseconds(1)});
  wc.upsert(9, 99);
  // Poll: the flusher thread must commit it within the deadline.
  for (int i = 0; i < 2000 && !sm.find(9).has_value(); i++)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(sm.find(9), std::optional<V>(99));
}

TEST(ShardedSnapshot, DefaultConstructedAnswersAsEmpty) {
  pam::sharded_snapshot<map_t> snap;
  EXPECT_EQ(snap.num_shards(), 0u);
  EXPECT_EQ(snap.size(), 0u);
  EXPECT_TRUE(snap.empty());
  EXPECT_EQ(snap.find(42), std::nullopt);
  EXPECT_FALSE(snap.contains(42));
  auto found = snap.multi_find({1, 2, 3});
  EXPECT_EQ(found, std::vector<std::optional<V>>(3));
  EXPECT_EQ(snap.count_range(0, 100), 0u);
  size_t visited = 0;
  snap.for_each_range(0, 100, [&](K, V) { visited++; });
  EXPECT_EQ(visited, 0u);
  EXPECT_TRUE(snap.entries().empty());
}

// --------------------------------------------------------------- kv_store --

TEST(KvStore, FreshStoreShardsViaExplicitSplitters) {
  // An empty initial map has no quantiles, so num_shards alone would
  // collapse to one shard; explicit splitters keep the fresh-server case
  // parallel.
  store_t store(map_t{}, {.splitters = {1000, 2000, 3000}});
  EXPECT_EQ(store.shards().num_shards(), 4u);
  for (K k : {K{5}, K{1500}, K{2500}, K{9999}}) store.put(k, k + 1);
  store.flush();
  EXPECT_EQ(store.size(), 4u);
  for (size_t s = 0; s < 4; s++)
    EXPECT_EQ(store.shards().snapshot_shard(s).size(), 1u);
  EXPECT_EQ(store.get(1500), std::optional<V>(1501));
}

TEST(KvStore, EndToEnd) {
  auto es = random_entries(10000, 21, 1u << 18);
  map_t initial(es);
  store_t store(initial, {.num_shards = 8});

  store.put(1, 11);
  store.put(2, 22);
  store.erase(1);
  store.flush();
  EXPECT_EQ(store.get(1), std::nullopt);
  EXPECT_EQ(store.get(2), std::optional<V>(22));

  store.put_batch({{5, 50}, {6, 60}});
  EXPECT_EQ(store.get(5), std::optional<V>(50));
  store.erase_batch({5});
  EXPECT_EQ(store.get(5), std::nullopt);

  auto got = store.multi_get({1, 2, 6});
  EXPECT_EQ(got[0], std::nullopt);
  EXPECT_EQ(got[1], std::optional<V>(22));
  EXPECT_EQ(got[2], std::optional<V>(60));

  auto snap = store.snapshot();
  EXPECT_EQ(snap.size(), store.size());
  // Snapshot isolation: later writes don't perturb the cut.
  store.put_batch({{123456789, 1}});
  EXPECT_EQ(snap.find(123456789), std::nullopt);

  auto st = store.ingest_stats();
  EXPECT_EQ(st.ops_enqueued, 3u);
  EXPECT_GE(st.batches_flushed, 1u);
}

TEST(KvStore, BulkWritesLandInProgramOrderAfterBufferedWrites) {
  // A bulk batch commits behind every still-buffered op on its keys, so one
  // thread's put/erase followed by a put_batch of the same key ends with
  // the bulk value — in both shards. An empty bulk batch is a no-op: it
  // logs no WAL record.
  std::string dir = ::testing::TempDir() + "pam_server_program_order_" +
                    std::to_string(::getpid());
  std::string rm = "rm -rf " + dir;
  ASSERT_EQ(std::system(rm.c_str()), 0);
  {
    store_t::options opt;
    opt.splitters = {1000};
    opt.combiner = {.batch_size = 1u << 20,
                    .flush_interval = std::chrono::milliseconds(0)};
    opt.durability = pam::store::durability_options{.dir = dir};
    store_t store(map_t{}, opt);
    const K k = 7, j = 1500;
    store.put(k, 1);
    store.put_batch({{k, 2}});
    store.erase(j);
    store.put_batch({{j, 3}});
    store.flush();
    EXPECT_EQ(store.get(k), std::optional<V>(2));
    EXPECT_EQ(store.get(j), std::optional<V>(3));

    uint64_t seq = store.durable().last_seq();
    store.put_batch({});
    store.erase_batch({});
    EXPECT_EQ(store.durable().last_seq(), seq);
  }
  (void)std::system(rm.c_str());
}

// Splitters {1000, 2000, ..., 15000}: 16 shards, key s * 1000 + 1 in shard s.
std::vector<K> sixteen_shard_splitters() {
  std::vector<K> sp;
  for (K s = 1; s < 16; s++) sp.push_back(s * 1000);
  return sp;
}

TEST(KvStore, CrossShardPutBatchIsNeverSeenTorn) {
  // A put_batch is one commit: a snapshot holds all of it or none of it.
  // The writer sets one key per shard to i in batch i; every snapshot must
  // find the 16 keys equal.
  store_t::options opt;
  opt.splitters = sixteen_shard_splitters();
  opt.combiner = {.batch_size = 1u << 20,
                  .flush_interval = std::chrono::milliseconds(0)};
  store_t store(map_t{}, opt);
  ASSERT_EQ(store.shards().num_shards(), 16u);
  constexpr V kBatches = 2000;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (V i = 1; i <= kBatches; i++) {
      std::vector<entry_t> batch;
      for (K s = 0; s < 16; s++) batch.push_back({s * 1000 + 1, i});
      store.put_batch(std::move(batch));
    }
    done.store(true);
  });
  size_t cuts = 0, torn = 0;
  while (!done.load()) {
    auto snap = store.snapshot();
    auto first = snap.find(1);
    for (K s = 1; s < 16; s++) {
      if (snap.find(s * 1000 + 1) != first) {
        torn++;
        break;
      }
    }
    cuts++;
  }
  writer.join();
  EXPECT_GT(cuts, 0u);
  EXPECT_EQ(torn, 0u) << "of " << cuts << " snapshots";
  for (K s = 0; s < 16; s++)
    EXPECT_EQ(store.get(s * 1000 + 1), std::optional<V>(kBatches));
}

TEST(KvStore, FlushRoundSyncsOnceAndPublishesOnce) {
  // One flush() over 16 non-empty queues is one combiner round: 16 WAL
  // records under one fsync, applied as one published cut.
  if (!pam::obs::kEnabled) GTEST_SKIP() << "PAM_METRICS=0: nothing to count";
  auto counter = [](const pam::obs::registry_snapshot& snap, const char* name) {
    for (const auto& c : snap.counters)
      if (c.name == name) return c.value;
    return uint64_t{0};
  };
  auto fsyncs = [](const pam::obs::registry_snapshot& snap) {
    for (const auto& h : snap.histograms)
      if (h.name == "pam_wal_fsync_ns") return h.count;
    return uint64_t{0};
  };
  std::string dir = ::testing::TempDir() + "pam_server_flush_round_" +
                    std::to_string(::getpid());
  std::string rm = "rm -rf " + dir;
  ASSERT_EQ(std::system(rm.c_str()), 0);
  {
    store_t::options opt;
    opt.splitters = sixteen_shard_splitters();
    opt.combiner = {.batch_size = 1u << 20,
                    .flush_interval = std::chrono::milliseconds(0)};
    pam::store::durability_options d{.dir = dir};
    d.wal.sync_every = 1;
    opt.durability = d;
    store_t store(map_t{}, opt);
    for (K s = 0; s < 16; s++) store.put(s * 1000 + 1, s);
    auto before = store.metrics();
    uint64_t records = store.durable().last_seq();
    store.flush();
    auto after = store.metrics();
    EXPECT_EQ(store.durable().last_seq(), records + 16);
    EXPECT_EQ(fsyncs(after), fsyncs(before) + 1);
    EXPECT_EQ(counter(after, "pam_cut_publications_total"),
              counter(before, "pam_cut_publications_total") + 1);
    EXPECT_EQ(store.size(), 16u);
  }
  (void)std::system(rm.c_str());
}

// ------------------------------------------------- relocating compaction --

uint64_t relocated_bytes() {
  return pam::alloc_internal::alloc_metrics().relocated_bytes.value();
}

// trim_memory()'s compaction moves what the live tree alone owns out of
// partly free chunks. While a snapshot shares every shard root it moves
// nothing; once the snapshot is gone it moves nodes and blocks, and the
// pools reserve less than after the trim with the snapshot held. Contents,
// aug, size, versions and validity are unchanged throughout, and the
// snapshot taken before reads the same after. (The pools' reserved/used
// ratio is gated by bench_table4_space's compaction_churn row: at this
// scale every pool's partly carved last chunk, not compaction, sets it.)
template <typename Map, typename Key>
void check_relocation(size_t block, const Key& key) {
  size_t saved = pam::leaf_block_size();
  pam::set_leaf_block_size(block);
  {
    std::vector<typename Map::entry_t> init;
    for (uint64_t i = 0; i < 40000; i++) init.push_back({key(i * 3), i % 7});
    pam::kv_store<Map> store(Map(init), {.num_shards = 16});
    pam::random_gen g(5);
    for (int i = 0; i < 60000; i++) {
      store.put(key(g.next_bounded(120000)), g.next() % 100000);
    }
    store.flush();
    auto before = store.snapshot();
    auto entries = before.entries();
    auto aug = before.aug_range(key(0), key(~uint64_t{0} >> 1));
    auto versions = store.shards().versions();
    size_t size = store.size();
    uint64_t moved = relocated_bytes();
    pam::kv_store<Map>::trim_memory();  // the held snapshot shares every root
    EXPECT_EQ(relocated_bytes(), moved);
    size_t held = pam::block_pool::reserved_bytes_all();
    EXPECT_EQ(before.entries(), entries);
    before = {};
    pam::kv_store<Map>::trim_memory();
    EXPECT_LT(pam::block_pool::reserved_bytes_all(), held);
    if (pam::obs::kEnabled) {
      EXPECT_GT(relocated_bytes(), moved);
    }
    auto after = store.snapshot();
    EXPECT_EQ(after.entries(), entries);
    EXPECT_EQ(after.aug_range(key(0), key(~uint64_t{0} >> 1)), aug);
    EXPECT_EQ(store.size(), size);
    EXPECT_EQ(store.shards().versions(), versions);
    for (size_t s = 0; s < after.num_shards(); s++) EXPECT_TRUE(after.shard(s).check_valid());
  }
  pam::set_leaf_block_size(saved);
}

uint64_t int_key(uint64_t i) { return i; }

// Fixed-width decimal strings: front-coded blocks share long prefixes.
std::string str_key(uint64_t i) {
  std::string d = std::to_string(i);
  return "key" + std::string(20 - d.size(), '0') + d;
}

TEST(KvStore, TrimMemoryRelocatesFlatMaps) {
  check_relocation<map_t>(0, int_key);
  check_relocation<map_t>(32, int_key);
}

TEST(KvStore, TrimMemoryRelocatesFrontCodedMaps) {
  using front_t = pam::aug_map<pam::str_sum_entry<V>>;
  check_relocation<front_t>(0, str_key);
  check_relocation<front_t>(32, str_key);
}

TEST(KvStore, TrimMemoryRelocatesDeltaMaps) {
  using delta_t = pam::aug_map<pam::delta_sum_entry<K, V>>;
  check_relocation<delta_t>(0, int_key);
  check_relocation<delta_t>(32, int_key);
}

// A version ring that holds every shard's current root shares all of the
// live trees, so the compaction copies none of them and a trim does not
// grow the pools.
TEST(KvStore, TrimMemoryCopiesNothingAVersionRingShares) {
  std::vector<entry_t> init;
  for (uint64_t i = 0; i < 40000; i++) init.push_back({i * 3, i % 7});
  store_t store(map_t(init), {.num_shards = 16, .retain_versions = 4});
  pam::random_gen g(6);
  for (int i = 0; i < 60000; i++) store.put(g.next_bounded(120000), g.next() % 1000);
  store.checkpoint();  // flushes, then captures the cut into the ring
  auto entries = store.snapshot().entries();
  pam::epoch::drain();
  size_t reserved = pam::block_pool::reserved_bytes_all();
  uint64_t moved = relocated_bytes();
  store_t::trim_memory();
  EXPECT_LE(pam::block_pool::reserved_bytes_all(), reserved);
  EXPECT_EQ(relocated_bytes(), moved);
  EXPECT_EQ(store.snapshot().entries(), entries);
  EXPECT_EQ(store.history().snapshot_latest().first.entries(), entries);
}

// trim_memory() in a loop while the store serves: two threads put_batch
// one value across all 16 shards per batch, a third buffers point puts
// through the flusher, and a reader takes snapshots and gets. The passes
// go on until one has moved storage with every writer still running (or a
// deadline passes), then the writers stop. No snapshot is torn and no
// acknowledged write is lost.
TEST(KvStore, TrimMemoryDuringServingLosesNoWriteAndTearsNoCut) {
  store_t::options opt;
  opt.splitters = sixteen_shard_splitters();  // the flusher stays on
  std::vector<entry_t> init;
  for (K k = 0; k < 16000; k += 2) init.push_back({k, 0});
  store_t store(map_t(init), opt);
  ASSERT_EQ(store.shards().num_shards(), 16u);
  std::atomic<bool> stop{false};
  V batches[3] = {0, 0, 0};              // batches[w]: writer w's last batch
  std::vector<V> last(8000, 0);          // the point writer's last value per even key
  std::vector<std::thread> threads;
  for (V w = 1; w <= 2; w++) {
    threads.emplace_back([&, w] {
      V i = 0;
      while (!stop.load() || i < 100) {
        i++;
        std::vector<entry_t> batch;
        for (K s = 0; s < 16; s++) batch.push_back({s * 1000 + 1, w * 1000000 + i});
        store.put_batch(std::move(batch));
      }
      batches[w] = i;
    });
  }
  threads.emplace_back([&] {
    pam::random_gen g(9);
    for (V i = 1; !stop.load() || i <= 5000; i++) {
      K k = g.next_bounded(8000);
      last[k] = i;
      store.put(2 * k, i);
    }
  });
  size_t cuts = 0, torn = 0, missing = 0;
  threads.emplace_back([&] {
    pam::random_gen g(10);
    while (!stop.load()) {
      {
        auto snap = store.snapshot();
        auto first = snap.find(1);
        for (K s = 1; s < 16; s++) {
          if (snap.find(s * 1000 + 1) != first) {
            torn++;
            break;
          }
        }
      }
      for (int i = 0; i < 16; i++) {
        if (!store.get(2 * g.next_bounded(8000)).has_value()) missing++;
      }
      cuts++;
    }
  });
  uint64_t moved = relocated_bytes();
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  size_t passes = 0;
  bool moved_while_serving = false;
  while (!moved_while_serving && std::chrono::steady_clock::now() < deadline) {
    store_t::trim_memory();
    passes++;
    moved_while_serving = passes >= 8 && (!pam::obs::kEnabled || relocated_bytes() > moved);
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  store.flush();
  EXPECT_TRUE(moved_while_serving) << "no pass moved storage in " << passes << " passes";
  EXPECT_EQ(torn, 0u) << "of " << cuts << " snapshots";
  EXPECT_EQ(missing, 0u);
  auto hot = store.get(1);
  ASSERT_TRUE(hot.has_value());
  EXPECT_TRUE(*hot == 1000000 + batches[1] || *hot == 2000000 + batches[2]);
  for (K s = 0; s < 16; s++) EXPECT_EQ(store.get(s * 1000 + 1), hot);
  for (K k = 0; k < 8000; k++) ASSERT_EQ(store.get(2 * k), std::optional<V>(last[k])) << k;
  for (size_t s = 0; s < 16; s++) EXPECT_TRUE(store.snapshot().shard(s).check_valid());
}

}  // namespace
