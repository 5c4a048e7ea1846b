// Tests for the version-history subsystem (src/server/version_store.h,
// change_feed.h, materialized_view.h): capture/dedup/trim semantics,
// time-travel snapshots, cross-shard stitched diffs against std::map
// oracles, feed subscription / lag / rebase protocol, incremental view
// maintenance vs full recompute, and a concurrent writers-vs-subscriber
// mirror test (runs under TSan in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "pam/pam.h"
#include "server/change_feed.h"
#include "server/kv_store.h"
#include "server/materialized_view.h"
#include "server/version_store.h"
#include "util/random.h"

namespace {

using K = uint64_t;
using V = uint64_t;
using map_t = pam::aug_map<pam::sum_entry<K, V>>;
using entry_t = map_t::entry_t;
using sharded_t = pam::sharded_map<map_t>;
using store_t = pam::version_store<map_t>;
using feed_t = pam::change_feed<map_t>;
using change_t = pam::map_change<map_t>;

void apply_change(std::map<K, V>& m, const change_t& c) {
  if (c.after.has_value()) {
    m[c.key] = *c.after;
  } else {
    m.erase(c.key);
  }
}

std::vector<entry_t> to_entries(const std::map<K, V>& m) {
  return std::vector<entry_t>(m.begin(), m.end());
}

// ------------------------------------------------------------- capture --

TEST(VersionStore, CaptureDedupsQuiescentCuts) {
  sharded_t sm(std::vector<K>{100, 200});
  store_t vs(sm, {.max_versions = 8});
  EXPECT_EQ(vs.latest_version(), 1u);  // the cut taken at construction

  uint64_t v1 = vs.capture();
  EXPECT_EQ(v1, 1u);
  EXPECT_EQ(vs.capture(), v1);  // nothing committed: same version
  EXPECT_EQ(vs.retained(), 1u);

  sm.insert(5, 50);
  uint64_t v2 = vs.capture();
  EXPECT_EQ(v2, 2u);
  EXPECT_EQ(vs.retained(), 2u);
  EXPECT_EQ(vs.oldest_version(), v1);
  EXPECT_EQ(vs.latest_version(), v2);
}

TEST(VersionStore, SnapshotAtTimeTravels) {
  sharded_t sm(std::vector<K>{1000});
  store_t vs(sm);
  sm.insert(1, 10);
  uint64_t v1 = vs.capture();
  sm.insert(1, 11);
  sm.insert(2000, 20);
  uint64_t v2 = vs.capture();

  auto s1 = vs.snapshot_at(v1);
  auto s2 = vs.snapshot_at(v2);
  ASSERT_TRUE(s1.has_value());
  ASSERT_TRUE(s2.has_value());
  EXPECT_EQ(s1->find(1), std::optional<V>(10));
  EXPECT_EQ(s1->find(2000), std::nullopt);
  EXPECT_EQ(s2->find(1), std::optional<V>(11));
  EXPECT_EQ(s2->find(2000), std::optional<V>(20));
  EXPECT_FALSE(vs.snapshot_at(99).has_value());
  EXPECT_FALSE(vs.snapshot_at(0).has_value());
}

TEST(VersionStore, CountTrimEvictsOldest) {
  sharded_t sm(std::vector<K>{});
  store_t vs(sm, {.max_versions = 3});
  std::vector<uint64_t> ids;
  for (int i = 0; i < 6; i++) {
    sm.insert(static_cast<K>(i), 1);
    ids.push_back(vs.capture());
  }
  EXPECT_EQ(vs.retained(), 3u);
  EXPECT_EQ(vs.oldest_version(), ids[3]);
  EXPECT_FALSE(vs.snapshot_at(ids[0]).has_value());
  EXPECT_TRUE(vs.snapshot_at(ids[5]).has_value());

  vs.trim_to(1);
  EXPECT_EQ(vs.retained(), 1u);
  EXPECT_EQ(vs.oldest_version(), ids[5]);
}

TEST(VersionStore, AgeTrimKeepsLatest) {
  sharded_t sm(std::vector<K>{});
  store_t vs(sm);
  sm.insert(1, 1);
  vs.capture();
  sm.insert(2, 2);
  vs.capture();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  vs.trim_older_than(std::chrono::milliseconds(1));
  // Age trim drops every old version but the latest.
  EXPECT_EQ(vs.retained(), 1u);
  vs.trim_to(0);
  EXPECT_EQ(vs.retained(), 1u);
  sm.insert(3, 3);
  uint64_t v = vs.capture();
  EXPECT_TRUE(vs.snapshot_at(v).has_value());
}

// ----------------------------------------------------------------- diff --

TEST(VersionStore, DiffMatchesOracleAcrossShards) {
  pam::random_gen g(11);
  sharded_t sm(std::vector<K>{2500, 5000, 7500});
  store_t vs(sm, {.max_versions = 16});
  std::map<K, V> oracle;

  uint64_t prev_v = vs.capture();
  std::map<K, V> prev_oracle = oracle;

  for (int round = 0; round < 8; round++) {
    // Mixed bulk churn.
    std::vector<entry_t> batch;
    for (int i = 0; i < 400; i++) batch.push_back({g.next() % 10000, g.next() % 1000});
    for (auto& [k, v] : batch) oracle[k] = v;
    sm.multi_insert(std::move(batch));
    std::vector<K> dels;
    for (int i = 0; i < 120; i++) dels.push_back(g.next() % 10000);
    for (K k : dels) oracle.erase(k);
    sm.multi_delete(std::move(dels));

    uint64_t v = vs.capture();
    auto changes = vs.diff(prev_v, v);
    ASSERT_TRUE(changes.has_value());

    // Applying the stream to the previous oracle must reproduce the new.
    std::map<K, V> replay = prev_oracle;
    K last_key = 0;
    bool first = true;
    for (const auto& c : *changes) {
      if (!first) {
        EXPECT_LT(last_key, c.key);  // globally key-ordered
      }
      last_key = c.key;
      first = false;
      apply_change(replay, c);
    }
    EXPECT_EQ(replay, oracle) << "round " << round;

    // And the classification agrees with the values.
    for (const auto& c : *changes) {
      bool in_prev = prev_oracle.count(c.key) > 0;
      bool in_cur = oracle.count(c.key) > 0;
      switch (c.kind) {
        case pam::change_kind::added:
          EXPECT_TRUE(!in_prev && in_cur);
          break;
        case pam::change_kind::removed:
          EXPECT_TRUE(in_prev && !in_cur);
          break;
        case pam::change_kind::updated:
          EXPECT_TRUE(in_prev && in_cur);
          EXPECT_NE(prev_oracle[c.key], oracle[c.key]);
          break;
      }
    }
    prev_v = v;
    prev_oracle = oracle;
  }

  // Self-diff is empty; trimmed versions report nullopt.
  EXPECT_TRUE(vs.diff(prev_v, prev_v)->empty());
  vs.trim_to(1);
  EXPECT_FALSE(vs.diff(1, prev_v).has_value());
}

// ----------------------------------------------------------------- feed --

TEST(ChangeFeed, PollDrainsBetweenCheckpoints) {
  sharded_t sm(std::vector<K>{500});
  store_t vs(sm);
  feed_t feed(vs);
  sm.insert(1, 1);
  vs.capture();

  auto sub = feed.subscribe();
  auto b0 = feed.poll(sub);
  EXPECT_TRUE(b0.empty());
  EXPECT_FALSE(b0.lagged);

  sm.insert(2, 2);
  sm.insert(700, 7);
  vs.capture();
  auto b1 = feed.poll(sub);
  EXPECT_FALSE(b1.lagged);
  ASSERT_EQ(b1.changes.size(), 2u);
  EXPECT_EQ(b1.changes[0].key, 2u);
  EXPECT_EQ(b1.changes[1].key, 700u);
  EXPECT_EQ(sub.version(), vs.latest_version());

  // Nothing new: the next poll is empty.
  EXPECT_TRUE(feed.poll(sub).empty());
}

TEST(ChangeFeed, LagAndRebase) {
  sharded_t sm(std::vector<K>{});
  store_t vs(sm, {.max_versions = 2});
  feed_t feed(vs);

  sm.insert(1, 1);
  uint64_t v1 = vs.capture();
  auto sub = feed.subscribe();

  // Push the subscriber's version out of the ring.
  for (K k = 2; k < 6; k++) {
    sm.insert(k, k);
    vs.capture();
  }
  auto b = feed.poll(sub);
  EXPECT_TRUE(b.lagged);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(sub.version(), v1);  // cursor unchanged on lag

  auto [snap, v] = feed.rebase(sub);
  EXPECT_EQ(v, vs.latest_version());
  EXPECT_EQ(snap.size(), 5u);
  sm.insert(100, 100);
  vs.capture();
  auto b2 = feed.poll(sub);
  EXPECT_FALSE(b2.lagged);
  ASSERT_EQ(b2.changes.size(), 1u);
  EXPECT_EQ(b2.changes[0].key, 100u);
}

TEST(ChangeFeed, FreshSubscriptionMustRebaseFirst) {
  sharded_t sm(std::vector<K>{});
  store_t vs(sm);
  feed_t feed(vs);
  feed_t::subscription sub;  // default: version 0
  sm.insert(1, 1);
  vs.capture();
  auto b = feed.poll(sub);
  EXPECT_TRUE(b.lagged);  // no base version: must rebase
  feed.rebase(sub);
  EXPECT_TRUE(feed.poll(sub).empty());
}

// A subscriber that rebases before any writer commits gets the store's
// initial version as its base and streams from there; it is never stuck
// reporting lag.
TEST(ChangeFeed, RebaseBeforeFirstCommitThenStreams) {
  sharded_t sm(std::vector<K>{500});
  store_t vs(sm);
  feed_t feed(vs);
  feed_t::subscription sub;
  auto [snap, v] = feed.rebase(sub);
  EXPECT_TRUE(snap.empty());
  EXPECT_EQ(v, vs.latest_version());
  EXPECT_NE(v, 0u);

  sm.insert(7, 70);
  sm.insert(900, 90);
  vs.capture();
  auto b = feed.poll(sub);
  EXPECT_FALSE(b.lagged);
  ASSERT_EQ(b.changes.size(), 2u);
  EXPECT_EQ(b.changes[0].key, 7u);
  EXPECT_EQ(b.changes[1].key, 900u);
  EXPECT_EQ(sub.version(), vs.latest_version());
}

// ------------------------------------------------------------- kv_store --

TEST(KvStoreHistory, CheckpointDiffFeed) {
  pam::kv_store<map_t> store(map_t{}, {.splitters = {1000},
                                       .retain_versions = 8});
  ASSERT_TRUE(store.has_history());
  uint64_t v1 = store.history().latest_version();
  EXPECT_EQ(v1, 1u);  // initial contents captured at construction

  store.put(1, 10);
  store.put(2000, 20);
  uint64_t v2 = store.checkpoint();
  EXPECT_GT(v2, v1);

  auto changes = store.history().diff(v1, v2);
  ASSERT_TRUE(changes.has_value());
  ASSERT_EQ(changes->size(), 2u);
  EXPECT_EQ((*changes)[0].key, 1u);
  EXPECT_EQ((*changes)[1].key, 2000u);

  // Time-travel read through the facade's history.
  auto old_snap = store.history().snapshot_at(v1);
  ASSERT_TRUE(old_snap.has_value());
  EXPECT_TRUE(old_snap->empty());

  // checkpoint() without new writes dedups.
  EXPECT_EQ(store.checkpoint(), v2);
}

TEST(KvStoreHistory, DisabledHistoryThrowsInsteadOfUB) {
  pam::kv_store<map_t> store;  // default options: retain_versions = 0
  EXPECT_FALSE(store.has_history());
  EXPECT_THROW(store.checkpoint(), std::logic_error);
  EXPECT_THROW(store.history(), std::logic_error);
  EXPECT_THROW(store.feed(), std::logic_error);
  const auto& cstore = store;
  EXPECT_THROW(cstore.history(), std::logic_error);
}

// ---------------------------------------------------- materialized views --

TEST(MaterializedView, GroupAggregateTracksOracle) {
  pam::random_gen g(21);
  sharded_t sm(std::vector<K>{5000});
  store_t vs(sm, {.max_versions = 8});
  std::map<K, V> oracle;

  auto policy = pam::make_group_aggregate<map_t, uint64_t>(
      [](K, V v) { return v; }, [](uint64_t a, uint64_t b) { return a + b; },
      [](uint64_t a, uint64_t b) { return a - b; }, uint64_t{0});
  pam::materialized_view<map_t, decltype(policy)> view(vs, policy);

  std::vector<entry_t> init;
  for (int i = 0; i < 5000; i++) init.push_back({g.next() % 10000, g.next() % 100});
  for (auto& [k, v] : init) oracle[k] = v;
  sm.multi_insert(std::move(init));
  vs.capture();
  view.rebuild();

  for (int round = 0; round < 6; round++) {
    std::vector<entry_t> batch;
    for (int i = 0; i < 300; i++) batch.push_back({g.next() % 10000, g.next() % 100});
    for (auto& [k, v] : batch) oracle[k] = v;
    sm.multi_insert(std::move(batch));
    std::vector<K> dels;
    for (int i = 0; i < 80; i++) dels.push_back(g.next() % 10000);
    for (K k : dels) oracle.erase(k);
    sm.multi_delete(std::move(dels));
    vs.capture();

    auto st = view.refresh();
    EXPECT_FALSE(st.rebuilt) << "round " << round;
    uint64_t want = 0;
    for (auto& [k, v] : oracle) want += v;
    EXPECT_EQ(view.state(), want) << "round " << round;
  }
  EXPECT_EQ(view.total_rebuilds(), 1u);
  EXPECT_GT(view.total_changes_applied(), 0u);
}

TEST(MaterializedView, BucketedSumsMatchRecompute) {
  pam::random_gen g(31);
  sharded_t sm(std::vector<K>{});
  store_t vs(sm);
  using policy_t = pam::bucketed_sum_policy<map_t>;
  pam::materialized_view<map_t, policy_t> view(
      vs, {.bucket_width = 1000, .num_buckets = 16});

  std::map<K, V> oracle;
  std::vector<entry_t> init;
  for (int i = 0; i < 8000; i++) init.push_back({g.next() % 20000, g.next() % 50});
  for (auto& [k, v] : init) oracle[k] = v;
  sm.multi_insert(std::move(init));
  vs.capture();
  view.rebuild();

  for (int round = 0; round < 4; round++) {
    std::vector<entry_t> batch;
    for (int i = 0; i < 200; i++) batch.push_back({g.next() % 20000, g.next() % 50});
    for (auto& [k, v] : batch) oracle[k] = v;
    sm.multi_insert(std::move(batch));
    std::vector<K> dels;
    for (int i = 0; i < 60; i++) dels.push_back(g.next() % 20000);
    for (K k : dels) oracle.erase(k);
    sm.multi_delete(std::move(dels));
    vs.capture();
    view.refresh();

    // Recompute the expected buckets from the oracle.
    policy_t p{.bucket_width = 1000, .num_buckets = 16};
    std::vector<policy_t::bucket> want(16);
    for (auto& [k, v] : oracle) {
      auto& b = want[p.bucket_of(k)];
      b.count++;
      b.sum += v;
    }
    EXPECT_EQ(view.state(), want) << "round " << round;
  }
}

TEST(MaterializedView, ValueIndexTopKMatchesSort) {
  pam::random_gen g(41);
  sharded_t sm(std::vector<K>{100000});
  store_t vs(sm);
  using policy_t = pam::value_index_policy<map_t>;
  pam::materialized_view<map_t, policy_t> view(vs);

  std::map<K, V> oracle;
  std::vector<entry_t> init;
  for (int i = 0; i < 6000; i++) init.push_back({g.next() % 200000, g.next() % 100000});
  for (auto& [k, v] : init) oracle[k] = v;
  sm.multi_insert(std::move(init));
  vs.capture();
  view.rebuild();

  for (int round = 0; round < 4; round++) {
    std::vector<entry_t> batch;
    for (int i = 0; i < 250; i++) batch.push_back({g.next() % 200000, g.next() % 100000});
    for (auto& [k, v] : batch) oracle[k] = v;
    sm.multi_insert(std::move(batch));
    std::vector<K> dels;
    for (int i = 0; i < 70; i++) dels.push_back(g.next() % 200000);
    for (K k : dels) oracle.erase(k);
    sm.multi_delete(std::move(dels));
    vs.capture();
    auto st = view.refresh();
    EXPECT_FALSE(st.rebuilt);

    ASSERT_EQ(view.state().size(), oracle.size());
    auto got = policy_t::top_k(view.state(), 10);
    std::vector<std::pair<V, K>> want;
    for (auto& [k, v] : oracle) want.push_back({v, k});
    std::sort(want.begin(), want.end(), std::greater<>());
    want.resize(std::min<size_t>(10, want.size()));
    EXPECT_EQ(got, want) << "round " << round;
  }
}

TEST(MaterializedView, LaggedViewFallsBackToRebuild) {
  sharded_t sm(std::vector<K>{});
  store_t vs(sm, {.max_versions = 2});
  auto policy = pam::make_group_aggregate<map_t, uint64_t>(
      [](K, V v) { return v; }, [](uint64_t a, uint64_t b) { return a + b; },
      [](uint64_t a, uint64_t b) { return a - b; }, uint64_t{0});
  pam::materialized_view<map_t, decltype(policy)> view(vs, policy);

  sm.insert(1, 5);
  vs.capture();
  view.rebuild();
  for (K k = 2; k < 8; k++) {
    sm.insert(k, 5);
    vs.capture();  // evicts the view's version
  }
  auto st = view.refresh();
  EXPECT_TRUE(st.rebuilt);
  EXPECT_EQ(view.state(), 35u);
  EXPECT_EQ(view.total_rebuilds(), 2u);
}

// ------------------------------------------------------------ concurrency --

// Writers commit batches while a checkpointer captures versions and a
// subscriber replays the change stream into a local std::map mirror. At the
// end, one final checkpoint + drain must make the mirror equal the store —
// any torn cut, unordered stream, or missed change surfaces here. A second
// validation thread hammers time-travel snapshots. Runs under TSan in CI.
TEST(VersionStoreConcurrent, SubscriberMirrorsWriters) {
  const int kWriters = 4, kRoundsPerWriter = 60, kBatch = 50;
  sharded_t sm(std::vector<K>{4000, 8000, 12000});
  store_t vs(sm, {.max_versions = 4096});  // deep ring: no lag in this test
  feed_t feed(vs);

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; w++) {
    writers.emplace_back([&, w] {
      pam::random_gen g(5000 + w);
      for (int r = 0; r < kRoundsPerWriter; r++) {
        std::vector<entry_t> batch;
        for (int i = 0; i < kBatch; i++)
          batch.push_back({g.next() % 16000, g.next() % 1000});
        sm.multi_insert(std::move(batch));
        if (g.next() % 3 == 0) {
          std::vector<K> dels;
          for (int i = 0; i < 10; i++) dels.push_back(g.next() % 16000);
          sm.multi_delete(std::move(dels));
        }
      }
    });
  }

  std::thread checkpointer([&] {
    while (!stop.load()) {
      vs.capture();
      std::this_thread::yield();
    }
  });

  std::map<K, V> mirror;
  std::thread subscriber([&] {
    auto sub = feed.subscribe();
    // Bootstrap: base state at the subscription version.
    auto [snap, v] = feed.rebase(sub);
    snap.for_each([&](K k, V val) { mirror[k] = val; });
    while (!stop.load()) {
      auto b = feed.poll(sub);
      if (b.lagged) {
        violations.fetch_add(1);  // ring is deep enough: lag is a bug here
        return;
      }
      for (const auto& c : b.changes) apply_change(mirror, c);
    }
    // Final drain after writers and checkpointer stopped.
    auto b = feed.poll(sub);
    if (b.lagged) violations.fetch_add(1);
    for (const auto& c : b.changes) apply_change(mirror, c);
  });

  std::thread time_traveler([&] {
    while (!stop.load()) {
      uint64_t latest = vs.latest_version();
      auto snap = vs.snapshot_at(latest);
      if (snap.has_value()) {
        // A retained cut must be internally consistent.
        for (size_t s = 0; s < snap->num_shards(); s++) {
          const map_t& shard = snap->shard(s);
          V sum = 0;
          shard.for_each([&](K, V val) { sum += val; });
          if (shard.aug_val() != sum) violations.fetch_add(1);
        }
      }
    }
  });

  for (auto& t : writers) t.join();
  vs.capture();  // final cut covers every committed batch
  stop.store(true);
  checkpointer.join();
  time_traveler.join();
  subscriber.join();

  EXPECT_EQ(violations.load(), 0);
  auto final_entries = sm.snapshot_all().entries();
  EXPECT_EQ(final_entries, to_entries(mirror));
}

}  // namespace
