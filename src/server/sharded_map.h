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
// per-shard commit counters — behind one published<T> (pam/snapshot.h):
//
//   reader   epoch::guard g;                      // pins reclamation
//            const cut_t& c = cut_.get();         // one acquire load
//            snapshot_type snap = c.snapshot;     // O(S): inc(root) each
//
//   writer   lock shard_mu_[s] for each touched s, ascending
//            Map m_s = apply(s, slot s)           // the merges; may fork
//            cut_.publish: copy the cut, slots s = m_s, versions[s]++
//            unlock all, then cut_.retire(displaced cut)
//
// Every read — snapshot_all*, versions, size, multi_find, find,
// snapshot_shard, shard_size — is therefore one guard plus one acquire
// load, wait-free. A cut is consistent by construction (it is one published
// object), cuts are totally ordered by publication, and version vectors are
// componentwise monotone. Every write is one such commit, so a whole batch
// — or a write combiner's whole round of batches — is visible in one
// publication, never shard by shard.
//
// Bulk writes (write / multi_insert / multi_delete) partition each batch by
// shard in O(m) and merge the touched shards in parallel once the round is
// big enough to fork, so the paper's O(m log(n/m + 1)) bulk path applies
// within every shard. Range and augmented queries stitch per-shard
// range_views in shard order: shard ranges tile the key space, so
// concatenating per-shard in-order walks is a global in-order walk.
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

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "alloc/arena.h"
#include "obs/metrics.h"
#include "pam/snapshot.h"
#include "parallel/parallel.h"
#include "util/thread_annotations.h"

namespace pam {

namespace server_internal {

// Cut/read instrumentation, shared by every sharded_map instance. Global
// rather than per-instance because sharded_map is built through value paths
// (kv_store::recover's RVO chain) that per-instance registered members would
// pin; what the exposition wants here is the process-wide read picture
// anyway. Every cut attempt succeeds, so attempts counts the cuts taken;
// publications counts commits, one published cut each.
struct cut_metrics_t {
  obs::counter attempts{"pam_cut_attempts_total"};
  obs::counter publications{"pam_cut_publications_total"};
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

  // A write batch: its upserts apply before its deletes, as WAL replay
  // applies a record.
  struct batch {
    std::vector<entry_t> upserts;
    std::vector<K> deletes;
  };

  // Atomically apply f : Map -> Map to shard s. Writers of distinct shards
  // run concurrently; writers of one shard serialize on its mutex. f may
  // read this sharded_map (it sees shard s as of before the commit) but
  // must not write to it. Throws std::out_of_range if s >= num_shards().
  template <typename F>
  void update_shard(size_t s, const F& f) {
    if (s >= num_shards())
      throw std::out_of_range("sharded_map::update_shard: no such shard");
    commit({s}, false, [&](size_t, Map m) { return f(std::move(m)); });
  }

  // Per-op point upsert/erase: one O(log n) committed write to the owning
  // shard. This is the slow path that write_combiner batches around.
  void insert(const K& k, const V& v) {
    commit({shard_of(k)}, false,
           [&](size_t, Map m) { return Map::insert(std::move(m), k, v); });
  }
  void erase(const K& k) {
    commit({shard_of(k)}, false,
           [&](size_t, Map m) { return Map::remove(std::move(m), k); });
  }

  // Bulk upsert / delete: one-batch writes (in `updates`, last key wins).
  void multi_insert(std::vector<entry_t> updates) {
    std::vector<batch> round(1);
    round[0].upserts = std::move(updates);
    write(std::move(round));
  }
  void multi_delete(std::vector<K> keys) {
    std::vector<batch> round(1);
    round[0].deletes = std::move(keys);
    write(std::move(round));
  }

  // Apply a round of batches, in order, as ONE commit: the whole round
  // becomes visible in one publication. Each batch is partitioned by shard
  // in O(m), and a shard's slices merge in round order on the
  // O(m_s log(n_s/m_s + 1)) bulk path. Batch: `batch`, or any type with the
  // same two members.
  template <typename Batch>
  void write(std::vector<Batch> round) {
    std::vector<std::vector<batch>> parts(num_shards());
    bool spans = false;  // some batch touches more than one shard
    for (Batch& b : round) {
      std::vector<batch> split(num_shards());
      for (entry_t& e : b.upserts) split[shard_of(e.first)].upserts.push_back(std::move(e));
      for (K& k : b.deletes) split[shard_of(k)].deletes.push_back(std::move(k));
      size_t hit = 0;
      for (size_t s = 0; s < split.size(); s++) {
        if (split[s].upserts.empty() && split[s].deletes.empty()) continue;
        parts[s].push_back(std::move(split[s]));
        spans |= ++hit > 1;
      }
    }
    std::vector<size_t> touched;
    for (size_t s = 0; s < parts.size(); s++) if (!parts[s].empty()) touched.push_back(s);
    if (touched.empty()) return;
    commit(std::move(touched), spans, [&](size_t s, Map m) {
      for (batch& b : parts[s]) {
        if (!b.upserts.empty()) m = Map::multi_insert(std::move(m), std::move(b.upserts));
        if (!b.deletes.empty()) m = Map::multi_delete(std::move(m), std::move(b.deletes));
      }
      return m;
    });
  }

  // -------------------------------------------------------------- reads --
  // Every read is one epoch guard plus one acquire load of the published
  // cut: wait-free, lock-free, and safe from inside an update functor.

  // O(1) snapshot of one shard (empty past the last shard).
  Map snapshot_shard(size_t s) const {
    if (s >= num_shards()) return Map{};
    epoch::guard g;
    return cut_.get().snapshot.shard(s);
  }

  // The published cut itself, copied: S root refcount bumps.
  versioned_snapshot snapshot_all_versioned() const {
    server_internal::cut_metrics().attempts.inc();
    epoch::guard g;
    return cut_.get();
  }

  // A consistent cut across all shards.
  snapshot_type snapshot_all() const {
    server_internal::cut_metrics().attempts.inc();
    epoch::guard g;
    return cut_.get().snapshot;
  }

  // Per-shard commit counters of the current cut.
  std::vector<uint64_t> versions() const {
    server_internal::cut_metrics().attempts.inc();
    epoch::guard g;
    return cut_.get().versions;
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
    return cut_.get().snapshot.shard(s).find(k);
  }

  // Batch lookup against one consistent cut.
  std::vector<std::optional<V>> multi_find(const std::vector<K>& keys) const {
    return snapshot_all().multi_find(keys);
  }

  // Total entry count of the current cut: S O(1) root sizes, no copies.
  size_t size() const {
    server_internal::cut_metrics().attempts.inc();
    epoch::guard g;
    return cut_.get().snapshot.size();
  }

  // Entry count of one shard in the current cut. Feeds kv_store's
  // per-shard size gauges. Throws std::out_of_range if s >= num_shards().
  size_t shard_size(size_t s) const {
    if (s >= num_shards())
      throw std::out_of_range("sharded_map::shard_size: no such shard");
    epoch::guard g;
    return cut_.get().snapshot.shard(s).size();
  }

 private:
  using cut_t = versioned_snapshot;

  // The one commit: lock the touched shards (ascending, so two commits
  // never deadlock), replace each touched slot s by apply(s, slot), and
  // publish one cut. Only a shard's mutex holder replaces its slot, so the
  // slots read here stay the latest until the publish. A bulk batch that
  // spans shards (`fan_out`) merges them in parallel — isolated, as the
  // mutexes stay held; per-shard slices merge on the calling thread, whose
  // pool cache then keeps their path copies, and each merge still forks by
  // the kernel's own rule. The displaced cut retires after every lock drops.
  // A write bumps every touched versions[s]. A relocation (`bump` false)
  // changes no content: it drains the epoch under the locks first, so that
  // no displaced cut still holds a touched slot's root (no writer can
  // displace another while the locks are held), keeps the version vector
  // as it is, and publishes nothing when every slot keeps its root.
  template <typename Apply>
  void commit(std::vector<size_t> touched, bool fan_out, const Apply& apply,
              bool bump = true) {
    cut_t* displaced = nullptr;
    lock_walk(touched, 0, [&] {
      if (!bump) drain_limbo();
      std::vector<Map> next;
      for (size_t s : touched) next.push_back(snapshot_shard(s));
      std::vector<Map> prev;
      if (!bump) prev = next;
      auto merge = [&](size_t i) { next[i] = apply(touched[i], std::move(next[i])); };
      size_t grain = fan_out ? 1 : touched.size();
      isolate([&] { parallel_for(0, touched.size(), merge, grain); });
      if (!bump && std::equal(next.begin(), next.end(), prev.begin(),
                              [](const Map& a, const Map& b) { return a.same_root(b); }))
        return;
      // Under the publish mutex: O(S) refcount bumps, no fork, no teardown.
      displaced = cut_.publish([&](const cut_t& old) {
        std::vector<Map> shards;
        shards.reserve(num_shards());
        std::vector<uint64_t> versions = old.versions;
        for (size_t s = 0, j = 0; s < num_shards(); s++) {
          if (j < touched.size() && touched[j] == s) {
            shards.push_back(std::move(next[j++]));
            if (bump) versions[s]++;
          } else {
            shards.push_back(old.snapshot.shard(s));
          }
        }
        return cut_t{snapshot_type(std::move(shards), splitters_),
                     std::move(versions)};
      });
      server_internal::cut_metrics().publications.inc();
    });
    if (displaced == nullptr) return;
    cut_.retire(displaced);
    // One cut carries what S per-shard commits used to retire: turn the
    // epoch twice more, so that with no reader pinned its old versions are
    // freed here, not two commits later, and their slots serve the next.
    epoch::try_advance();
    epoch::try_advance();
  }

  // Free what limbo holds, retrying a few times past readers pinned for
  // the O(log n) of a find or the O(S) of a cut copy. Isolated: a cut's
  // teardown may fork while the caller holds shard mutexes.
  static void drain_limbo() PAM_EXCLUDES(epoch_domain) {
    isolate([] {
      for (int i = 0; i < 16 && epoch::drain() > 0; i++) std::this_thread::yield();
    });
  }

  // The relocation commit that block_pool::trim_all's compaction pass runs
  // through this map's hook: one commit over every shard, on the calling
  // thread, moves what each live tree alone owns out of the pass's victim
  // chunks (Map::relocate) and publishes the same contents under the same
  // versions. Nothing a reader or the WAL could observe changes, so no
  // record is logged. A shard root counts as the live tree's while only the
  // cut and the commit's two copies of the slot (before and after apply)
  // hold it, so a shard that a snapshot, a version ring or the durability
  // chain shares is left as it is.
  void relocate() {
    std::vector<size_t> all(num_shards());
    std::iota(all.begin(), all.end(), size_t{0});
    commit(std::move(all), false, [](size_t, Map m) {
      return Map::relocate(m, 3, block_pool::relocating);
    }, false);
  }

  // Take shard_mu_[ss[i..]] in order and run fn with all held. Recursion
  // keeps each acquisition lexical for clang's thread-safety analysis.
  template <typename Fn>
  void lock_walk(const std::vector<size_t>& ss, size_t i, const Fn& fn) {
    if (i == ss.size()) return fn();
    mutex_guard serialize(shard_mu_[ss[i]]);
    lock_walk(ss, i + 1, fn);
  }

  // Split `whole` along the splitters into the initial cut, every shard at
  // version 0. A splitter key itself belongs to the shard on its right.
  // O(S log n) splits on shared subtrees.
  cut_t distribute(Map whole) const {
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
    return cut_t{snapshot_type(std::move(shards), splitters_), std::move(versions)};
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
  // The published cut. Its publish mutex and pointer sit on cache lines of
  // their own: every commit writes them, while the fields above are read by
  // every routed operation.
  published<cut_t> cut_;
  // Registered last and so dropped first: a compaction pass never runs
  // this map's relocation on a half-destroyed map.
  block_pool::relocation_hook relocation_{[this] { relocate(); }};
};

}  // namespace pam
