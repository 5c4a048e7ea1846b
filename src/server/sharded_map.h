// sharded_map: the key space partitioned across S independent snapshot_box
// shards behind a shard directory (sorted splitter keys).
//
// The paper's §4 concurrency pattern serializes all writers of one map on a
// single writer lock. Sharding recovers write parallelism at the serving
// layer: shard s owns keys in [splitter[s-1], splitter[s]), each shard is
// its own snapshot_box, and writers touching disjoint ranges commit
// concurrently. Readers keep the O(1)-snapshot property, now without ever
// taking a lock (snapshot_box's epoch-protected read path):
//
//   * snapshot_shard(s)   one shard, O(1), wait-free;
//   * snapshot_all()      a *consistent cut* across every shard by
//                         versioned re-validation: snapshot every shard
//                         (payload + commit counter), then re-read every
//                         counter. If none moved, each shard held its
//                         snapshotted version for the entire window, and in
//                         particular all of them simultaneously at the
//                         instant between the two passes — a consistent
//                         cut, taken without blocking a single writer. If a
//                         counter moved, retry; after kCutRetries failures
//                         fall back to briefly excluding writers
//                         (writer_lock() per box, in index order), which
//                         bounds cut latency under pathological churn.
//
// Bulk writes (multi_insert / multi_delete) partition the batch by shard in
// O(m) and run the per-shard merges in parallel, so the paper's
// O(m log(n/m + 1)) bulk path applies within every shard. Range and
// augmented queries stitch per-shard range_views in shard order: shard
// ranges tile the key space, so concatenating per-shard in-order walks is a
// global in-order walk.
//
// The directory is fixed at construction: the splitters and one box per
// shard are built once and never replaced, so routing a key is a plain
// binary search with no epoch pin. Skew is not chased by re-splitting — the
// write combiner's batching already turns a hot shard's point writes into
// bulk merges. A recovered store takes its splitters from the checkpoint
// manifest, so the directory outlives restarts unchanged.
//
// Thread safety: every public member is safe to call from any thread. One
// re-entrancy rule: an update functor runs while holding its shard's writer
// lock, and the cut fallback acquires *every* shard's writer lock — so
// cut-based reads of the same sharded_map (snapshot_all*, versions, size,
// multi_find) must not be called from inside an update functor. Per-shard
// reads (find, snapshot_shard) are lock-free and remain safe anywhere.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "pam/snapshot.h"
#include "parallel/parallel.h"
#include "util/thread_annotations.h"

namespace pam {

namespace server_internal {

// Cut/read instrumentation, shared by every sharded_map instance. Global
// rather than per-instance because sharded_map is built through value paths
// (kv_store::recover's RVO chain) that per-instance registered members would
// pin; what the exposition wants here is the process-wide retry/fallback
// picture anyway.
struct cut_metrics_t {
  obs::counter attempts{"pam_cut_attempts_total"};
  obs::counter retries{"pam_cut_retries_total"};
  obs::counter fallbacks{"pam_cut_writer_fallbacks_total"};
  obs::counter finds{"pam_read_finds_total"};
};

inline cut_metrics_t& cut_metrics() {
  // pam-lint: allow(naked-new) — immortal process-wide metric block, same
  // lifetime rule as the registry it registers into.
  static cut_metrics_t* m = new cut_metrics_t();
  return *m;
}

// Index of the shard owning key k under a sorted splitter directory: the
// number of splitters <= k (a splitter key belongs to the shard on its
// right). O(log S), lock-free — a directory is immutable.
template <typename K, typename Comp>
size_t shard_index(const std::vector<K>& splitters, const K& k, const Comp& comp) {
  size_t lo = 0, hi = splitters.size();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (comp(k, splitters[mid])) hi = mid; else lo = mid + 1;
  }
  return lo;
}
}  // namespace server_internal

// A consistent cut of a sharded_map: one immutable Map per shard plus the
// shared splitter directory. Value type — copies are O(S) refcount bumps —
// with read-only queries that stitch the shards back into one key space.
template <typename Map>
class sharded_snapshot {
 public:
  using K = typename Map::K;
  using V = typename Map::V;
  using A = typename Map::A;
  using entry_t = typename Map::entry_t;
  using view_type = typename Map::view_type;
  using entry_policy = typename Map::entry_policy;

  // The default snapshot is empty (no shards): every query answers as the
  // empty map rather than touching a null directory.
  sharded_snapshot() = default;
  sharded_snapshot(std::vector<Map> shards,
                   std::shared_ptr<const std::vector<K>> splitters)
      : shards_(std::move(shards)), splitters_(std::move(splitters)) {}

  size_t num_shards() const { return shards_.size(); }
  const Map& shard(size_t s) const { return shards_[s]; }

  // The cut's splitter keys (S-1 keys for S shards; empty for a default
  // cut). Persisted in checkpoint manifests so recovery rebuilds the exact
  // partitioning the cut was taken under.
  std::vector<K> splitter_keys() const {
    return splitters_ == nullptr ? std::vector<K>{} : *splitters_;
  }

  // Index of the shard owning key k: the first splitter greater than k.
  size_t shard_of(const K& k) const {
    if (splitters_ == nullptr) return 0;
    return server_internal::shard_index(*splitters_, k, entry_policy::comp);
  }

  size_t size() const {
    size_t total = 0;
    for (const Map& m : shards_) total += m.size();
    return total;
  }
  bool empty() const { return size() == 0; }

  std::optional<V> find(const K& k) const {
    if (shards_.empty()) return std::nullopt;
    return shards_[shard_of(k)].find(k);
  }
  bool contains(const K& k) const {
    return !shards_.empty() && shards_[shard_of(k)].contains(k);
  }

  // Sharded batch lookup: group the keys by owning shard, run the per-shard
  // parallel multi_finds concurrently, scatter results back to input order.
  std::vector<std::optional<V>> multi_find(const std::vector<K>& keys) const {
    const size_t S = shards_.size();
    if (S == 0) return std::vector<std::optional<V>>(keys.size());
    std::vector<std::vector<K>> by_shard(S);
    std::vector<std::vector<size_t>> idx(S);
    for (size_t i = 0; i < keys.size(); i++) {
      size_t s = shard_of(keys[i]);
      by_shard[s].push_back(keys[i]);
      idx[s].push_back(i);
    }
    std::vector<std::optional<V>> out(keys.size());
    parallel_for(
        0, S,
        [&](size_t s) {
          if (by_shard[s].empty()) return;
          auto found = shards_[s].multi_find(by_shard[s]);
          for (size_t j = 0; j < found.size(); j++) out[idx[s][j]] = std::move(found[j]);
        },
        1);
    return out;
  }

  // Lazy per-shard views of [lo, hi], in shard (= key) order. Shards tile
  // the key space, so iterating the views back-to-back is a global in-order
  // walk of the range; each view is allocation-free (pam/iterator.h).
  std::vector<view_type> range_views(const K& lo, const K& hi) const {
    std::vector<view_type> views;
    if (shards_.empty() || entry_policy::comp(hi, lo)) return views;
    size_t last = shard_of(hi);
    for (size_t s = shard_of(lo); s <= last; s++)
      views.push_back(shards_[s].view(lo, hi));
    return views;
  }

  // In-order visit of every entry with lo <= key <= hi: f(key, value).
  template <typename F>
  void for_each_range(const K& lo, const K& hi, const F& f) const {
    for (const view_type& v : range_views(lo, hi)) v.for_each(f);
  }

  // In-order visit of the whole store.
  template <typename F>
  void for_each(const F& f) const {
    for (const Map& m : shards_) m.for_each(f);
  }

  // Number of entries with lo <= key <= hi: one O(log n) count per
  // overlapping shard.
  size_t count_range(const K& lo, const K& hi) const {
    size_t total = 0;
    for (const view_type& v : range_views(lo, hi)) total += v.size();
    return total;
  }

  // Augmented value over lo <= key <= hi: per-shard aug_range stitched with
  // the entry's combine (associativity makes shard order the only
  // requirement). O(S log n), allocation-free.
  A aug_range(const K& lo, const K& hi) const {
    static_assert(Map::has_aug, "aug_range requires an augmented Entry");
    A acc = entry_policy::identity();
    for (const view_type& v : range_views(lo, hi))
      acc = entry_policy::combine(acc, v.aug_val());
    return acc;
  }

  // Every entry in key order, materialized.
  std::vector<entry_t> entries() const {
    std::vector<entry_t> out;
    out.reserve(size());
    for (const Map& m : shards_) {
      auto part = m.entries();
      out.insert(out.end(), part.begin(), part.end());
    }
    return out;
  }

 private:
  std::vector<Map> shards_;
  std::shared_ptr<const std::vector<K>> splitters_;
};

template <typename Map>
class sharded_map {
 public:
  using K = typename Map::K;
  using V = typename Map::V;
  using entry_t = typename Map::entry_t;
  using entry_policy = typename Map::entry_policy;
  using snapshot_type = sharded_snapshot<Map>;

  // Partition the key space with explicit sorted, duplicate-free splitter
  // keys: S-1 splitters make S shards, shard s owning
  // [splitter[s-1], splitter[s]). All shards start empty.
  explicit sharded_map(std::vector<K> splitters)
      : sharded_map(Map{}, std::move(splitters)) {}

  // Partition an initial map into `num_shards` shards of near-equal size:
  // splitters are taken at the size quantiles of the initial key
  // distribution. The directory can only be inferred from existing keys —
  // duplicate quantile keys collapse, so very small or very skewed maps
  // yield fewer shards than requested, and an *empty* initial map yields a
  // single shard for the map's whole life. For a fresh or tiny store,
  // supply explicit splitters instead.
  sharded_map(Map initial, size_t num_shards)
      : splitters_(std::make_shared<const std::vector<K>>(
            quantile_splitters(initial, num_shards))) {
    distribute(std::move(initial));
  }

  // Explicit splitters plus initial contents, distributed along them.
  sharded_map(Map initial, std::vector<K> splitters)
      : splitters_(std::make_shared<const std::vector<K>>(std::move(splitters))) {
    distribute(std::move(initial));
  }

  sharded_map(const sharded_map&) = delete;
  sharded_map& operator=(const sharded_map&) = delete;

  size_t num_shards() const { return shards_.size(); }

  // The shard boundaries, S-1 keys for S shards.
  const std::vector<K>& splitters() const { return *splitters_; }

  // Index of the shard owning key k.
  size_t shard_of(const K& k) const {
    return server_internal::shard_index(*splitters_, k, entry_policy::comp);
  }

  // ------------------------------------------------------------- writes --

  // Atomically apply f : Map -> Map to shard s. Writers of distinct shards
  // run concurrently; writers of one shard serialize on its box. Throws
  // std::out_of_range if s >= num_shards().
  template <typename F>
  void update_shard(size_t s, const F& f) {
    if (s >= shards_.size())
      throw std::out_of_range("sharded_map::update_shard: no such shard");
    shards_[s]->update(f);
  }

  // Per-op point upsert/erase: one O(log n) committed write to the owning
  // shard. This is the slow path that write_combiner batches around.
  void insert(const K& k, const V& v) {
    shards_[shard_of(k)]->update(
        [&](Map m) { return Map::insert(std::move(m), k, v); });
  }
  void erase(const K& k) {
    shards_[shard_of(k)]->update(
        [&](Map m) { return Map::remove(std::move(m), k); });
  }

  // Bulk upsert: partition the batch by shard in O(m), then merge each
  // shard's slice on the O(m_s log(n_s/m_s + 1)) bulk path, all shards in
  // parallel. Duplicate keys in `updates`: the last one wins.
  void multi_insert(std::vector<entry_t> updates) {
    bulk_write(
        std::move(updates),
        [](const entry_t& e) -> const K& { return e.first; },
        [](Map m, std::vector<entry_t> b) {
          return Map::multi_insert(std::move(m), std::move(b));
        });
  }

  void multi_delete(std::vector<K> keys) {
    bulk_write(
        std::move(keys), [](const K& k) -> const K& { return k; },
        [](Map m, std::vector<K> b) {
          return Map::multi_delete(std::move(m), std::move(b));
        });
  }

  // -------------------------------------------------------------- reads --

  // O(1) wait-free snapshot of one shard (empty past the last shard).
  Map snapshot_shard(size_t s) const {
    if (s >= shards_.size()) return Map{};
    return shards_[s]->snapshot();
  }

  // A consistent cut together with the per-shard commit counters it
  // corresponds to — the capture primitive of the version store. Any two
  // validated cuts correspond to two instants in time, so their version
  // vectors are componentwise comparable.
  struct versioned_snapshot {
    snapshot_type snapshot;
    std::vector<uint64_t> versions;
  };

  // Optimistic versioned re-validation. Pass 1 snapshots every shard's
  // (map, version) pair — each pair is internally atomic (one payload read).
  // Pass 2 re-reads every shard's current version. If shard s's version is
  // unchanged, its snapshot was the published version for the whole interval
  // [its pass-1 read, its pass-2 read]; all those intervals contain the
  // instant between the end of pass 1 and the start of pass 2, so the S
  // snapshots were simultaneously current — a consistent cut that blocked
  // nobody. On validation failure the stale snapshots are dropped (O(S)
  // refcount decs; displaced trees are shared, so no teardown) and the cut
  // retries; after kCutRetries failures it takes every shard's *writer*
  // lock in index order and peeks, bounding latency under extreme churn.
  versioned_snapshot snapshot_all_versioned() const {
    // The pinned lambdas run only on the fallback path, under every shard's
    // writer lock held through std::unique_lock handles the analysis cannot
    // follow (see validated_cut) — hence the opt-out on the lambda alone.
    auto [shards, versions] = validated_cut(
        [](const box_t& b) { return b.snapshot_versioned(); },
        [](const box_t& b) PAM_NO_THREAD_SAFETY_ANALYSIS { return b.peek(); });
    return {snapshot_type(std::move(shards), splitters_), std::move(versions)};
  }

  // A consistent cut across all shards (see snapshot_all_versioned).
  snapshot_type snapshot_all() const {
    return snapshot_all_versioned().snapshot;
  }

  // Per-shard commit counters, validated the same way: re-read until a full
  // pass observes no movement, so the vector corresponds to one instant.
  std::vector<uint64_t> versions() const {
    auto cut = validated_cut(
        [](const box_t& b) {
          uint64_t v = b.version();
          return std::pair<uint64_t, uint64_t>(v, v);
        },
        [](const box_t& b) PAM_NO_THREAD_SAFETY_ANALYSIS {
          return b.peek_version();  // fallback path: writer locks held
        });
    return cut.second;
  }

  // Single-key committed read: run the lookup against the owning shard's
  // current version in place — no lock, no snapshot copy, no refcount
  // traffic (snapshot_box::with_current).
  std::optional<V> find(const K& k) const {
    // One striped relaxed fetch_add: the counted read path stays wait-free
    // (the ISSUE 9 contract; the YCSB read-scaling gate enforces the cost).
    server_internal::cut_metrics().finds.inc();
    return shards_[shard_of(k)]->with_current(
        [&](const Map& m) { return m.find(k); });
  }

  // Batch lookup against one consistent cut.
  std::vector<std::optional<V>> multi_find(const std::vector<K>& keys) const {
    return snapshot_all().multi_find(keys);
  }

  // Total entry count across one consistent cut, from the per-shard size
  // counters snapshot_box maintains at commit time: (version, size) pairs
  // are read per shard and the version vector re-validated — no root
  // copies, no refcount traffic, no tree teardown, no locks.
  size_t size() const {
    auto cut = validated_cut(
        [](const box_t& b) {
          auto vs = b.version_size();
          return std::pair<size_t, uint64_t>(vs.second, vs.first);
        },
        [](const box_t& b) PAM_NO_THREAD_SAFETY_ANALYSIS {
          return b.peek_size();  // fallback: writer locks held
        });
    size_t total = 0;
    for (size_t s : cut.first) total += s;
    return total;
  }

  // Entry count of one shard, from its commit-time size counter: wait-free,
  // no cut, no validation (the value is exact for whichever version the
  // shard held at the read). Feeds kv_store's per-shard size gauges.
  // Throws std::out_of_range if s >= num_shards().
  size_t shard_size(size_t s) const {
    return shards_.at(s)->version_size().second;
  }

 private:
  using box_t = snapshot_box<Map>;

  // Optimistic cut attempts before falling back to blocking writers. Each
  // failed attempt costs O(S) pointer reads and refcount churn, so a small
  // budget keeps worst-case cut latency bounded without giving up the
  // lock-free common case.
  static constexpr int kCutRetries = 8;

  // Bulk engine behind multi_insert / multi_delete: partition by shard,
  // apply the per-shard buckets in parallel.
  template <typename Item, typename KeyOf, typename Apply>
  void bulk_write(std::vector<Item> items, const KeyOf& key_of,
                  const Apply& apply) {
    std::vector<std::vector<Item>> buckets(shards_.size());
    for (Item& it : items) buckets[shard_of(key_of(it))].push_back(std::move(it));
    auto write = [&](size_t s) {
      if (buckets[s].empty()) return;
      shards_[s]->update([&](Map m) {
        return apply(std::move(m), std::move(buckets[s]));
      });
    };
    // A batch smaller than par_cutoff() forks nowhere in the kernel, and
    // when it hits one shard there is nothing to fan out either: apply it
    // on the calling thread, whose pool cache then keeps its path copies
    // (handed to the pool, each flush would carve from a different
    // worker's cache). It holds that shard's writer lock without forking,
    // so the lock rule of parallel/scheduler.h is not in play.
    size_t hit = 0;
    for (const auto& b : buckets) hit += !b.empty();
    if (hit == 1 && items.size() < par_cutoff()) {
      for (size_t s = 0; s < buckets.size(); s++) write(s);
      return;
    }
    parallel_for(0, shards_.size(), write, 1);
  }

  // The validated-cut engine (see snapshot_all_versioned for the protocol).
  //
  // NO_THREAD_SAFETY_ANALYSIS: the fallback holds a *dynamic* lock set — a
  // vector of S writer locks through std::unique_lock handles — which the
  // lexical capability model cannot express. The TSan job exercises this
  // path (cut-starvation tests); everything the fallback calls (peek*,
  // writer_lock) is itself annotated, so the opt-out is confined to this
  // one engine.
  template <typename Optimistic, typename Pinned>
  auto validated_cut(const Optimistic& optimistic, const Pinned& pinned) const
      PAM_NO_THREAD_SAFETY_ANALYSIS {
    using T = decltype(optimistic(*shards_[0]).first);
    server_internal::cut_metrics().attempts.inc();
    std::vector<T> values;
    std::vector<uint64_t> versions;
    for (int attempt = 0; attempt < kCutRetries; attempt++) {
      values.clear();
      versions.clear();
      values.reserve(shards_.size());
      versions.reserve(shards_.size());
      for (const auto& sh : shards_) {
        auto vv = optimistic(*sh);
        values.push_back(std::move(vv.first));
        versions.push_back(vv.second);
      }
      if (revalidate(versions))
        return std::pair(std::move(values), std::move(versions));
      server_internal::cut_metrics().retries.inc();
    }
    server_internal::cut_metrics().fallbacks.inc();
    std::vector<std::unique_lock<mutex>> locks;
    locks.reserve(shards_.size());
    for (const auto& sh : shards_) locks.push_back(sh->writer_lock());
    values.clear();
    versions.clear();
    for (const auto& sh : shards_) {
      values.push_back(pinned(*sh));
      versions.push_back(sh->peek_version());
    }
    return std::pair(std::move(values), std::move(versions));
  }

  // Pass 2 of a validated cut: true iff no shard's commit counter moved
  // since `observed` was collected.
  bool revalidate(const std::vector<uint64_t>& observed) const {
    for (size_t s = 0; s < shards_.size(); s++) {
      if (shards_[s]->version() != observed[s]) return false;
    }
    return true;
  }

  // Split `whole` along the splitters into one box per shard, each seeded
  // at version 0 with its slice. A splitter key itself belongs to the shard
  // on its right. O(S log n) splits on shared subtrees.
  void distribute(Map whole) {
    shards_.reserve(splitters_->size() + 1);
    for (const K& sp : *splitters_) {
      auto parts = Map::split(std::move(whole), sp);
      shards_.push_back(std::make_unique<box_t>(std::move(parts.left)));
      whole = std::move(parts.right);
      if (parts.value.has_value())
        whole = Map::insert(std::move(whole), sp, *parts.value);
    }
    shards_.push_back(std::make_unique<box_t>(std::move(whole)));
  }

  static std::vector<K> quantile_splitters(const Map& m, size_t num_shards) {
    std::vector<K> sp;
    if (num_shards < 2 || m.empty()) return sp;
    size_t n = m.size();
    for (size_t s = 1; s < num_shards; s++) {
      auto e = m.select(s * n / num_shards);
      if (!e.has_value()) break;
      if (sp.empty() || entry_policy::comp(sp.back(), e->first))
        sp.push_back(e->first);
    }
    return sp;
  }

  // Fixed at construction: shared with every cut, never replaced.
  const std::shared_ptr<const std::vector<K>> splitters_;
  std::vector<std::unique_ptr<box_t>> shards_;
};

}  // namespace pam
