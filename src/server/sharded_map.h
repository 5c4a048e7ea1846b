// sharded_map: the key space partitioned across S shards behind a fixed
// shard directory (sorted splitter keys), all S shard roots published
// together as one immutable cut.
//
// The paper's §4 concurrency pattern serializes all writers of one map on a
// single writer lock. Sharding recovers write parallelism at the serving
// layer: shard s owns keys in [splitter[s-1], splitter[s]), and writers
// touching disjoint ranges run their merges concurrently. The paper's
// persistence model survives intact: a snapshot is one pointer read. The
// published object is a versioned_snapshot — one Map per shard plus the
// per-shard commit counters — behind one atomic pointer:
//
//   reader   epoch::guard g;                      // pins reclamation
//            const cut_t* c = cut_.load(acq);     // the published cut
//            snapshot_type snap = c->snapshot;    // O(S): inc(root) each
//
//   writer   lock shard_mu_[s];                   // one writer per shard
//            Map m = f(slot s of the current cut) // the merge; may fork
//            lock publish_mu_;                    // short: no fork
//              copy the current cut, slot s = m, versions[s]++, store(rel)
//            unlock both, then epoch::retire(displaced cut)
//
// Every read — snapshot_all*, versions, size, multi_find, find,
// snapshot_shard, shard_size — is therefore one guard plus one acquire
// load, wait-free. A cut is consistent by construction (it is one published
// object), cuts are totally ordered by publication, and version vectors are
// componentwise monotone. A batch's per-shard slice becomes visible in one
// publication.
//
// Bulk writes (multi_insert / multi_delete) partition the batch by shard in
// O(m) and run the per-shard merges in parallel, so the paper's
// O(m log(n/m + 1)) bulk path applies within every shard. Range and
// augmented queries stitch per-shard range_views in shard order: shard
// ranges tile the key space, so concatenating per-shard in-order walks is a
// global in-order walk.
//
// The directory is fixed at construction: the splitters and the shard count
// never change, so routing a key is a plain binary search with no epoch
// pin. Skew is not chased by re-splitting — the write combiner's batching
// already turns a hot shard's point writes into bulk merges. A recovered
// store takes its splitters from the checkpoint manifest, so the directory
// outlives restarts unchanged.
//
// Thread safety: every public member is safe to call from any thread.
// Reads take no lock, so an update functor may read the same sharded_map
// (it sees its own shard as of before the commit); it must not write to it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "alloc/arena.h"
#include "obs/metrics.h"
#include "parallel/parallel.h"
#include "util/thread_annotations.h"

namespace pam {

namespace server_internal {

// Cut/read instrumentation, shared by every sharded_map instance. Global
// rather than per-instance because sharded_map is built through value paths
// (kv_store::recover's RVO chain) that per-instance registered members would
// pin; what the exposition wants here is the process-wide read picture
// anyway. Every cut attempt succeeds, so attempts counts the cuts taken.
struct cut_metrics_t {
  obs::counter attempts{"pam_cut_attempts_total"};
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

  // A consistent cut together with the per-shard commit counters it
  // corresponds to — the capture primitive of the version store, and the
  // object sharded_map publishes. Cuts are totally ordered by publication,
  // so any two version vectors are componentwise comparable.
  struct versioned_snapshot {
    snapshot_type snapshot;
    std::vector<uint64_t> versions;
  };

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
            quantile_splitters(initial, num_shards))),
        shard_mu_(splitters_->size() + 1),
        cut_(distribute(std::move(initial))) {}

  // Explicit splitters plus initial contents, distributed along them.
  sharded_map(Map initial, std::vector<K> splitters)
      : splitters_(std::make_shared<const std::vector<K>>(std::move(splitters))),
        shard_mu_(splitters_->size() + 1),
        cut_(distribute(std::move(initial))) {}

  // No reader or writer may be in flight at destruction (standard object
  // lifetime); cuts already retired are self-contained and drain later.
  // pam-lint: allow(naked-delete) — the final cut, after all sharing.
  ~sharded_map() { delete cut_.load(std::memory_order_relaxed); }

  sharded_map(const sharded_map&) = delete;
  sharded_map& operator=(const sharded_map&) = delete;

  size_t num_shards() const { return shard_mu_.size(); }

  // The shard boundaries, S-1 keys for S shards.
  const std::vector<K>& splitters() const { return *splitters_; }

  // Index of the shard owning key k.
  size_t shard_of(const K& k) const {
    return server_internal::shard_index(*splitters_, k, entry_policy::comp);
  }

  // ------------------------------------------------------------- writes --

  // Atomically apply f : Map -> Map to shard s. Writers of distinct shards
  // run concurrently; writers of one shard serialize on its mutex. f may
  // read this sharded_map (it sees shard s as of before the commit) but
  // must not write to it. Throws std::out_of_range if s >= num_shards().
  template <typename F>
  void update_shard(size_t s, const F& f) {
    if (s >= num_shards())
      throw std::out_of_range("sharded_map::update_shard: no such shard");
    commit(s, f);
  }

  // Per-op point upsert/erase: one O(log n) committed write to the owning
  // shard. This is the slow path that write_combiner batches around.
  void insert(const K& k, const V& v) {
    commit(shard_of(k), [&](Map m) { return Map::insert(std::move(m), k, v); });
  }
  void erase(const K& k) {
    commit(shard_of(k), [&](Map m) { return Map::remove(std::move(m), k); });
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
  // Every read is one epoch guard plus one acquire load of the published
  // cut: wait-free, lock-free, and safe from inside an update functor.

  // O(1) snapshot of one shard (empty past the last shard).
  Map snapshot_shard(size_t s) const {
    if (s >= num_shards()) return Map{};
    epoch::guard g;
    return cut_ref()->snapshot.shard(s);
  }

  // The published cut itself, copied: S root refcount bumps.
  versioned_snapshot snapshot_all_versioned() const {
    server_internal::cut_metrics().attempts.inc();
    epoch::guard g;
    return *cut_ref();
  }

  // A consistent cut across all shards.
  snapshot_type snapshot_all() const {
    server_internal::cut_metrics().attempts.inc();
    epoch::guard g;
    return cut_ref()->snapshot;
  }

  // Per-shard commit counters of the current cut.
  std::vector<uint64_t> versions() const {
    server_internal::cut_metrics().attempts.inc();
    epoch::guard g;
    return cut_ref()->versions;
  }

  // Single-key committed read, run against the current cut in place — no
  // snapshot copy, no refcount traffic. Routed through the fixed directory,
  // so the shard search does not wait on the cut load.
  std::optional<V> find(const K& k) const {
    // One striped relaxed fetch_add: the counted read path stays wait-free
    // (the ISSUE 9 contract; the YCSB read-scaling gate enforces the cost).
    server_internal::cut_metrics().finds.inc();
    size_t s = shard_of(k);
    epoch::guard g;
    return cut_ref()->snapshot.shard(s).find(k);
  }

  // Batch lookup against one consistent cut.
  std::vector<std::optional<V>> multi_find(const std::vector<K>& keys) const {
    return snapshot_all().multi_find(keys);
  }

  // Total entry count of the current cut: S O(1) root sizes, no copies.
  size_t size() const {
    server_internal::cut_metrics().attempts.inc();
    epoch::guard g;
    return cut_ref()->snapshot.size();
  }

  // Entry count of one shard in the current cut. Feeds kv_store's
  // per-shard size gauges. Throws std::out_of_range if s >= num_shards().
  size_t shard_size(size_t s) const {
    if (s >= num_shards())
      throw std::out_of_range("sharded_map::shard_size: no such shard");
    epoch::guard g;
    return cut_ref()->snapshot.shard(s).size();
  }

 private:
  using cut_t = versioned_snapshot;

  // One commit to shard s. The shard mutex makes this writer the only one
  // that can replace slot s, so the slot read here stays the latest commit
  // of shard s until this writer publishes; f runs outside publish_mu_, so
  // merges of distinct shards overlap and only the O(S) swap serializes.
  template <typename F>
  void commit(size_t s, const F& f) {
    mutex& serial = shard_mu_[s];
    cut_t* displaced;
    {
      mutex_guard serialize(serial);
      Map working = snapshot_shard(s);
      // f may fork while the lock is held: isolated, a worker waiting in one
      // of its joins never runs another task that takes this lock.
      Map next = isolate([&] { return f(std::move(working)); });
      mutex_guard swap(publish_mu_);
      displaced = publish(s, std::move(next));
    }
    retire(displaced);
  }

  // Bulk engine behind multi_insert / multi_delete: partition by shard,
  // apply the per-shard buckets in parallel.
  template <typename Item, typename KeyOf, typename Apply>
  void bulk_write(std::vector<Item> items, const KeyOf& key_of,
                  const Apply& apply) {
    std::vector<std::vector<Item>> buckets(num_shards());
    for (Item& it : items) buckets[shard_of(key_of(it))].push_back(std::move(it));
    auto write = [&](size_t s) {
      if (buckets[s].empty()) return;
      commit(s, [&](Map m) {
        return apply(std::move(m), std::move(buckets[s]));
      });
    };
    // A batch smaller than par_cutoff() forks nowhere in the kernel, and
    // when it hits one shard there is nothing to fan out either: apply it
    // on the calling thread, whose pool cache then keeps its path copies
    // (handed to the pool, each flush would carve from a different
    // worker's cache). It holds that shard's mutex without forking, so the
    // lock rule of parallel/scheduler.h is not in play.
    size_t hit = 0;
    for (const auto& b : buckets) hit += !b.empty();
    if (hit == 1 && items.size() < par_cutoff()) {
      for (size_t s = 0; s < buckets.size(); s++) write(s);
      return;
    }
    parallel_for(0, num_shards(), write, 1);
  }

  // The two checked doors to the published cut. A reader must hold
  // epoch_domain (shared): the guard pins reclamation, so the cut stays
  // alive across the dereference. publish() must hold publish_mu_: with
  // other publishers excluded, nothing can displace (and hence retire) the
  // current cut.
  const cut_t* cut_ref() const PAM_REQUIRES_SHARED(epoch_domain) {
    return cut_.load(std::memory_order_acquire);
  }

  // Swap in a copy of the current cut with slot s replaced by `next` and
  // versions[s] bumped; hand the displaced cut back for retirement. O(S)
  // refcount bumps and one allocation — nothing forks and nothing is torn
  // down under publish_mu_.
  cut_t* publish(size_t s, Map next) PAM_REQUIRES(publish_mu_) {
    cut_t* old = cut_.load(std::memory_order_relaxed);
    std::vector<Map> shards;
    shards.reserve(num_shards());
    for (size_t i = 0; i < num_shards(); i++) {
      if (i == s) shards.push_back(std::move(next));
      else shards.push_back(old->snapshot.shard(i));
    }
    std::vector<uint64_t> versions = old->versions;
    versions[s]++;
    // pam-lint: allow(naked-new) — cuts are commit-rate objects owned by the
    // sharded_map, freed exclusively through the epoch limbo (retire below).
    cut_.store(new cut_t{snapshot_type(std::move(shards), splitters_),
                         std::move(versions)},
               std::memory_order_release);
    return old;
  }

  // Retire a displaced cut onto the epoch limbo list — never freed inline,
  // because a concurrent reader may be mid-acquisition on it. Called after
  // both the shard mutex and publish_mu_ drop, so a large displaced-version
  // teardown stalls no commit; annotated EXCLUDES so moving it back inside
  // the publish critical section is a compile error.
  void retire(cut_t* displaced) const PAM_EXCLUDES(publish_mu_) {
    // pam-lint: allow(naked-delete) — the limbo deleter is the single
    // reclamation point for cuts published by this sharded_map.
    epoch::retire(displaced, [](void* q) { delete static_cast<cut_t*>(q); });
  }

  // Split `whole` along the splitters into the initial cut, every shard at
  // version 0. A splitter key itself belongs to the shard on its right.
  // O(S log n) splits on shared subtrees.
  cut_t* distribute(Map whole) const {
    std::vector<Map> shards;
    shards.reserve(splitters_->size() + 1);
    for (const K& sp : *splitters_) {
      auto parts = Map::split(std::move(whole), sp);
      shards.push_back(std::move(parts.left));
      whole = std::move(parts.right);
      if (parts.value.has_value())
        whole = Map::insert(std::move(whole), sp, *parts.value);
    }
    shards.push_back(std::move(whole));
    std::vector<uint64_t> versions(shards.size(), 0);
    // pam-lint: allow(naked-new) — the initial cut, before any sharing.
    return new cut_t{snapshot_type(std::move(shards), splitters_),
                     std::move(versions)};
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
  // One per shard: serializes the read-modify-write of that shard's slot.
  std::vector<mutex> shard_mu_;
  // Serializes publication: the O(S) copy-and-swap of the cut, never f.
  // It and cut_ sit on cache lines of their own: every commit writes them,
  // while the fields above are read by every routed operation.
  alignas(64) mutex publish_mu_;
  alignas(64) std::atomic<cut_t*> cut_;
};

}  // namespace pam
