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
// Skew-adaptive resharding: the splitter directory is not frozen at
// construction. The whole directory — splitters plus shard handles — lives
// in one immutable heap object published through an atomic pointer and
// reclaimed through the epoch (exactly snapshot_box's payload discipline,
// one level up). maybe_rebalance() / rebalance_now() repartition the key
// space along the observed per-shard write load — hot shards shrink in key
// range, cold neighbours absorb the slack — and install a successor
// directory: snapshot the shards, concatenate them (O(S log n) joins on
// shared subtrees — no entry is copied), cut equal-load splitters,
// distribute into fresh shards, publish, and epoch-retire the predecessor.
//
// An install is a writer-excluded operation: the caller guarantees that no
// write and no other install runs concurrently (kv_store::rebalance() runs
// it behind the same writer fence as save_checkpoint). With writers out of
// the picture the shards read by the install are frozen, so content is
// never lost or duplicated and the write paths need no re-routing. Readers
// and cuts may still run: they epoch-pin the old directory, whose shards
// stay valid and frozen. A validated cut re-checks the directory generation
// after its version pass and re-runs if an install landed meanwhile, so
// every cut is current and carries the directory it was taken under.
//
// Thread safety: every public member is safe to call from any thread,
// except that maybe_rebalance / rebalance_now must not overlap any writer
// (update_shard / insert / erase / multi_*) or each other. One re-entrancy
// rule: an update functor runs while holding its shard's writer lock, and
// the cut fallback acquires *every* shard's writer lock — so cut-based
// reads of the same sharded_map (snapshot_all*, versions, size,
// multi_find) must not be called from inside an update functor. Per-shard
// reads (find, snapshot_shard) are lock-free and remain safe anywhere.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
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

// Rebalance instrumentation, global for the same reason.
struct rebalance_metrics_t {
  obs::counter attempts{"pam_rebalance_attempts_total"};
  obs::counter installs{"pam_rebalance_installs_total"};
};

inline rebalance_metrics_t& rebalance_metrics() {
  // pam-lint: allow(naked-new) — immortal process-wide metric block.
  static rebalance_metrics_t* m = new rebalance_metrics_t();
  return *m;
}

// Index of the shard owning key k under a sorted splitter directory: the
// number of splitters <= k (a splitter key belongs to the shard on its
// right). O(log S), lock-free — a directory is immutable once published.
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

  // The splitter directory this cut was taken under, shared with the
  // directory object that produced it. Two cuts of one sharded_map compare
  // equal here iff no rebalance installed a new directory between them —
  // the identity check the diff paths use to decide whether per-shard
  // pairing is meaningful, and the checkpoint manager to force a full
  // checkpoint across a re-split.
  std::shared_ptr<const std::vector<K>> splitters_handle() const {
    return splitters_;
  }

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

  // All shards concatenated back into one map: O(S log n) joins on shared
  // subtrees — no entry is copied, the result shares every node with the
  // cut. The directory-agnostic view the diff paths fall back to when two
  // cuts were taken under different splitter directories.
  Map merged() const {
    Map whole;
    for (const Map& m : shards_) whole = Map::concat(std::move(whole), m);
    return whole;
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
      : target_shards_(splitters.size() + 1) {
    install_initial(std::move(splitters), Map{});
  }

  // Partition an initial map into `num_shards` shards of near-equal size:
  // splitters are taken at the size quantiles of the initial key
  // distribution. The directory can only be inferred from existing keys —
  // duplicate quantile keys collapse, so very small or very skewed maps
  // yield fewer shards than requested, and an *empty* initial map yields a
  // single shard (no write parallelism until a rebalance observes keys).
  // For a fresh or tiny store, supply explicit splitters instead.
  sharded_map(Map initial, size_t num_shards)
      : target_shards_(num_shards == 0 ? 1 : num_shards) {
    // Splitters must be cut before install_initial's by-value Map parameter
    // is move-constructed (argument evaluation order is indeterminate).
    std::vector<K> sp = quantile_splitters(initial, target_shards_);
    install_initial(std::move(sp), std::move(initial));
  }

  // Explicit splitters plus initial contents, distributed along them.
  sharded_map(Map initial, std::vector<K> splitters)
      : target_shards_(splitters.size() + 1) {
    install_initial(std::move(splitters), std::move(initial));
  }

  // No readers or writers may be in flight at destruction (standard object
  // lifetime); directories already retired are self-contained and drain
  // later. pam-lint: allow(naked-delete) — the final directory, after all
  // sharing.
  ~sharded_map() { delete dir_.load(std::memory_order_relaxed); }

  sharded_map(const sharded_map&) = delete;
  sharded_map& operator=(const sharded_map&) = delete;

  size_t num_shards() const {
    epoch::guard g;
    return dir_ref()->shards.size();
  }

  // The current shard boundaries, S-1 keys for S shards, copied out of the
  // published directory (which a later install may replace — callers
  // needing identity across calls use splitters_handle()).
  std::vector<K> splitters() const {
    epoch::guard g;
    return *dir_ref()->splitters;
  }

  // The current directory's splitter vector, shared: survives the directory
  // itself being retired. write_combiner pins one of these at construction
  // as its stable queue-routing table.
  std::shared_ptr<const std::vector<K>> splitters_handle() const {
    epoch::guard g;
    return dir_ref()->splitters;
  }

  // Monotone directory generation: bumped by every rebalance install.
  uint64_t directory_gen() const {
    epoch::guard g;
    return dir_ref()->gen;
  }

  // Index of the shard owning key k under the current directory. The index
  // is only meaningful against the same directory generation — an install
  // may re-home k.
  size_t shard_of(const K& k) const {
    epoch::guard g;
    const directory* d = dir_ref();
    return server_internal::shard_index(*d->splitters, k, entry_policy::comp);
  }

  // ------------------------------------------------------------- writes --

  // Atomically apply f : Map -> Map to shard s of the current directory.
  // Writers of distinct shards run concurrently; writers of one shard
  // serialize on its box. Throws std::out_of_range if s >= num_shards().
  template <typename F>
  void update_shard(size_t s, const F& f) {
    shard_t* sh = nullptr;
    {
      epoch::guard g;
      const directory* d = dir_ref();
      if (s >= d->shards.size())
        throw std::out_of_range("sharded_map::update_shard: no such shard");
      sh = d->shards[s].get();
    }
    commit(*sh, 1, f);
  }

  // Per-op point upsert/erase: one O(log n) committed write to the owning
  // shard. This is the slow path that write_combiner batches around.
  void insert(const K& k, const V& v) {
    route_write(k, [&](Map m) { return Map::insert(std::move(m), k, v); });
  }
  void erase(const K& k) {
    route_write(k, [&](Map m) { return Map::remove(std::move(m), k); });
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

  // ---------------------------------------------------------- rebalance --

  // Install a new equal-load directory iff the observed write skew warrants
  // it. Returns whether a new directory was installed. Writer-excluded: the
  // caller guarantees no concurrent writer or install (see the header).
  //
  //   * at least `min_ops` write ops must have been routed since the last
  //     policy window (a window below the floor keeps accumulating; one
  //     that reaches it is consumed, installed or not);
  //   * trigger when the hottest shard carries more than `hot_ratio` times
  //     the mean per-shard load — or when the directory is under-provisioned
  //     (fewer shards than the construction target, e.g. a store that
  //     started empty) and enough keys now exist to split.
  bool maybe_rebalance(double hot_ratio, uint64_t min_ops) {
    directory d = view_dir();
    const size_t S = d.shards.size();
    uint64_t total = 0, hottest = 0;
    size_t entries = 0;
    for (const auto& sh : d.shards) {
      uint64_t o = sh->write_ops.load(std::memory_order_relaxed);
      total += o;
      if (o > hottest) hottest = o;
      entries += sh->box.version_size().second;
    }
    if (total < min_ops) return false;
    if (hot_ratio < 1.0) hot_ratio = 1.0;
    bool under_provisioned =
        S < target_shards_ && entries >= target_shards_ * 8;
    bool skewed =
        S > 1 && static_cast<double>(hottest) >
                     hot_ratio * (static_cast<double>(total) /
                                  static_cast<double>(S));
    bool installed = false;
    if (under_provisioned || skewed) installed = install_balanced();
    if (!installed) {
      // Consume the window so the next policy check starts a fresh
      // measurement instead of re-judging process-lifetime totals. An
      // install consumed it implicitly (fresh shards start at zero); the
      // counters must stay live until then — install_balanced reads them
      // as the load weights for the new splitters.
      for (const auto& sh : d.shards) {
        sh->write_ops.store(0, std::memory_order_relaxed);
      }
    }
    return installed;
  }

  // Unconditional repartition along the observed load (entry counts when no
  // ops were recorded), under the same writer-exclusion contract. Returns
  // whether a new directory was installed (false = the balanced splitters
  // equal the current ones).
  bool rebalance_now() { return install_balanced(); }

  // -------------------------------------------------------------- reads --

  // O(1) wait-free snapshot of one shard of the current directory.
  Map snapshot_shard(size_t s) const {
    epoch::guard g;
    const directory* d = dir_ref();
    if (s >= d->shards.size()) return Map{};
    return d->shards[s]->box.snapshot();
  }

  // A consistent cut together with the per-shard commit counters it
  // corresponds to — the capture primitive of the version store. Any two
  // validated cuts of one directory generation correspond to two instants
  // in time, so their version vectors are componentwise comparable; across
  // generations the vectors are incomparable (fresh shards restart their
  // counters), which is what `dir_gen` disambiguates.
  struct versioned_snapshot {
    snapshot_type snapshot;
    std::vector<uint64_t> versions;
    uint64_t dir_gen = 0;
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
  // Pass 3 re-checks the directory generation: a cut that straddled an
  // install re-runs against the successor directory.
  versioned_snapshot snapshot_all_versioned() const {
    // The pinned lambdas run only on the fallback path, under every shard's
    // writer lock held through std::unique_lock handles the analysis cannot
    // follow (see validated_cut) — hence the opt-out on the lambda alone.
    auto [d, shards, versions] = stable_cut(
        [](const box_t& b) { return b.snapshot_versioned(); },
        [](const box_t& b) PAM_NO_THREAD_SAFETY_ANALYSIS { return b.peek(); });
    return {snapshot_type(std::move(shards), std::move(d.splitters)),
            std::move(versions), d.gen};
  }

  // A consistent cut across all shards (see snapshot_all_versioned).
  snapshot_type snapshot_all() const {
    return snapshot_all_versioned().snapshot;
  }

  // Per-shard commit counters, validated the same way: re-read until a full
  // pass observes no movement, so the vector corresponds to one instant.
  std::vector<uint64_t> versions() const {
    auto [d, vals, vers] = stable_cut(
        [](const box_t& b) {
          uint64_t v = b.version();
          return std::pair<uint64_t, uint64_t>(v, v);
        },
        [](const box_t& b) PAM_NO_THREAD_SAFETY_ANALYSIS {
          return b.peek_version();  // fallback path: writer locks held
        });
    (void)d;
    (void)vals;
    return vers;
  }

  // Single-key committed read: run the lookup against the owning shard's
  // current version in place — no lock, no snapshot copy, no refcount
  // traffic (snapshot_box::with_current). The epoch guard spans the
  // directory load and the lookup, so a concurrent install cannot
  // reclaim either from under the read.
  std::optional<V> find(const K& k) const {
    // One striped relaxed fetch_add: the counted read path stays wait-free
    // (the ISSUE 9 contract; the YCSB read-scaling gate enforces the cost).
    server_internal::cut_metrics().finds.inc();
    epoch::guard g;
    const directory* d = dir_ref();
    size_t s = server_internal::shard_index(*d->splitters, k, entry_policy::comp);
    return d->shards[s]->box.with_current(
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
    auto [d, sizes, vers] = stable_cut(
        [](const box_t& b) {
          auto vs = b.version_size();
          return std::pair<size_t, uint64_t>(vs.second, vs.first);
        },
        [](const box_t& b) PAM_NO_THREAD_SAFETY_ANALYSIS {
          return b.peek_size();  // fallback: writer locks held
        });
    (void)d;
    (void)vers;
    size_t total = 0;
    for (size_t s : sizes) total += s;
    return total;
  }

  // Entry count of one shard, from its commit-time size counter: wait-free,
  // no cut, no validation (the value is exact for whichever version the
  // shard held at the read). Feeds kv_store's per-shard size gauges. Zero
  // for an index beyond the current directory (it may have shrunk).
  size_t shard_size(size_t s) const {
    epoch::guard g;
    const directory* d = dir_ref();
    if (s >= d->shards.size()) return 0;
    return d->shards[s]->box.version_size().second;
  }

 private:
  using box_t = snapshot_box<Map>;

  // One shard of one directory: the box plus its write-load counter. Shards
  // are owned by their directory via shared_ptr so a cut can pin them past
  // the epoch guard it resolved the directory under (a cut may outlive an
  // install, and reclamation must not be pinned process-wide for its
  // duration).
  struct shard_t {
    // Seeded through the box constructor, not store(): a shard's contents
    // at directory install are its version-0 state — commit counters count
    // writes *under this directory*, starting at zero.
    explicit shard_t(Map initial) : box(std::move(initial)) {}

    box_t box;
    // Write ops routed here since this directory was installed — the
    // rebalance policy's skew signal (consumed per policy window).
    std::atomic<uint64_t> write_ops{0};
  };

  // One published partitioning of the key space. Immutable after publish;
  // replaced wholesale by an install and reclaimed through the epoch, so a
  // reader mid-route can never observe a half-installed directory.
  struct directory {
    std::shared_ptr<const std::vector<K>> splitters;
    std::vector<std::shared_ptr<shard_t>> shards;
    uint64_t gen = 0;
  };

  // Optimistic cut attempts before falling back to blocking writers. Each
  // failed attempt costs O(S) pointer reads and refcount churn, so a small
  // budget keeps worst-case cut latency bounded without giving up the
  // lock-free common case.
  static constexpr int kCutRetries = 8;

  // The checked dereference path to the published directory, mirroring
  // snapshot_box's payload discipline: the caller's epoch guard pins
  // reclamation across the dereference.
  const directory* dir_ref() const PAM_REQUIRES_SHARED(epoch_domain) {
    return dir_.load(std::memory_order_acquire);
  }

  // A copy of the published directory, safe to use after the epoch guard
  // it was taken under has dropped (shared_ptrs keep the splitters and
  // shards alive even once the published object itself is reclaimed).
  directory view_dir() const {
    epoch::guard g;
    return *dir_ref();
  }

  // Count `ops` routed write ops against shard sh and commit f under its
  // writer lock. The caller resolved sh under an epoch guard it has since
  // dropped (the box lock may have to be waited on): no install can run
  // concurrently with a writer, so sh's directory outlives the write.
  template <typename F>
  static void commit(shard_t& sh, uint64_t ops, const F& f) {
    sh.write_ops.fetch_add(ops, std::memory_order_relaxed);
    sh.box.update(f);
  }

  // Key-routed write: resolve the owning shard, commit under its lock.
  template <typename F>
  void route_write(const K& k, const F& f) {
    shard_t* sh = nullptr;
    {
      epoch::guard g;
      const directory* d = dir_ref();
      sh = d->shards[server_internal::shard_index(*d->splitters, k,
                                                  entry_policy::comp)]
               .get();
    }
    commit(*sh, 1, f);
  }

  // Bulk engine behind multi_insert / multi_delete: partition against the
  // current directory, apply the per-shard buckets in parallel.
  template <typename Item, typename KeyOf, typename Apply>
  void bulk_write(std::vector<Item> items, const KeyOf& key_of,
                  const Apply& apply) {
    directory d = view_dir();
    std::vector<std::vector<Item>> buckets(d.shards.size());
    for (Item& it : items) {
      size_t s = server_internal::shard_index(*d.splitters, key_of(it),
                                              entry_policy::comp);
      buckets[s].push_back(std::move(it));
    }
    auto write = [&](size_t s) {
      if (buckets[s].empty()) return;
      commit(*d.shards[s], buckets[s].size(), [&](Map m) {
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
    parallel_for(0, d.shards.size(), write, 1);
  }

  // The validated-cut engine over one pinned directory's shards (see
  // snapshot_all_versioned for the protocol).
  //
  // NO_THREAD_SAFETY_ANALYSIS: the fallback holds a *dynamic* lock set — a
  // vector of S writer locks through std::unique_lock handles — which the
  // lexical capability model cannot express. The TSan job exercises this
  // path (cut-starvation tests); everything the fallback calls (peek*,
  // writer_lock) is itself annotated, so the opt-out is confined to this
  // one engine.
  template <typename Optimistic, typename Pinned>
  auto validated_cut(const std::vector<std::shared_ptr<shard_t>>& shards,
                     const Optimistic& optimistic, const Pinned& pinned) const
      PAM_NO_THREAD_SAFETY_ANALYSIS {
    using T = decltype(optimistic(shards[0]->box).first);
    server_internal::cut_metrics().attempts.inc();
    std::vector<T> values;
    std::vector<uint64_t> versions;
    for (int attempt = 0; attempt < kCutRetries; attempt++) {
      values.clear();
      versions.clear();
      values.reserve(shards.size());
      versions.reserve(shards.size());
      for (const auto& sh : shards) {
        auto vv = optimistic(sh->box);
        values.push_back(std::move(vv.first));
        versions.push_back(vv.second);
      }
      if (revalidate(shards, versions))
        return std::pair(std::move(values), std::move(versions));
      server_internal::cut_metrics().retries.inc();
    }
    server_internal::cut_metrics().fallbacks.inc();
    std::vector<std::unique_lock<mutex>> locks;
    locks.reserve(shards.size());
    for (const auto& sh : shards) locks.push_back(sh->box.writer_lock());
    values.clear();
    versions.clear();
    for (const auto& sh : shards) {
      values.push_back(pinned(sh->box));
      versions.push_back(sh->box.peek_version());
    }
    return std::pair(std::move(values), std::move(versions));
  }

  // validated_cut plus directory currency: a cut of a directory that an
  // install replaced meanwhile is consistent but stale (its shards froze at
  // the install), so it re-runs against the successor. version_store's
  // dedup relies on every cut being current.
  template <typename Optimistic, typename Pinned>
  auto stable_cut(const Optimistic& optimistic, const Pinned& pinned) const {
    for (;;) {
      directory d = view_dir();
      auto cut = validated_cut(d.shards, optimistic, pinned);
      if (directory_gen() == d.gen) {
        return std::tuple(std::move(d), std::move(cut.first),
                          std::move(cut.second));
      }
    }
  }

  // Pass 2 of a validated cut: true iff no shard's commit counter moved
  // since `observed` was collected.
  bool revalidate(const std::vector<std::shared_ptr<shard_t>>& shards,
                  const std::vector<uint64_t>& observed) const {
    for (size_t s = 0; s < shards.size(); s++) {
      if (shards[s]->box.version() != observed[s]) return false;
    }
    return true;
  }

  // Split `whole` along sorted splitters into S = |sp| + 1 fresh shards,
  // each seeded at version 0 with its slice. A splitter key itself belongs
  // to the shard on its right. O(S log n) splits on shared subtrees.
  static std::vector<std::shared_ptr<shard_t>> shards_from(
      const std::vector<K>& sp, Map whole) {
    std::vector<std::shared_ptr<shard_t>> shards;
    shards.reserve(sp.size() + 1);
    Map rest = std::move(whole);
    for (size_t s = 0; s < sp.size(); s++) {
      auto parts = Map::split(std::move(rest), sp[s]);
      shards.push_back(std::make_shared<shard_t>(std::move(parts.left)));
      rest = std::move(parts.right);
      if (parts.value.has_value())
        rest = Map::insert(std::move(rest), sp[s], *parts.value);
    }
    shards.push_back(std::make_shared<shard_t>(std::move(rest)));
    return shards;
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

  // Build and publish the first directory (construction only: no readers,
  // no writers, no predecessor to retire).
  void install_initial(std::vector<K> splitters, Map initial) {
    // pam-lint: allow(naked-new) — the initial directory, before any
    // sharing; reclaimed through the epoch once replaced.
    directory* d = new directory{
        std::make_shared<const std::vector<K>>(std::move(splitters)), {}, 1};
    d->shards = shards_from(*d->splitters, std::move(initial));
    dir_.store(d, std::memory_order_release);
  }

  // Equal-load splitters over the frozen shards: each shard's observed
  // write ops (falling back to its entry count on a quiet window) spread
  // uniformly over its entries, then the cumulative load is cut at the
  // target quantiles and mapped back to entry ranks — a hot shard
  // contributes many cuts (its range shrinks), a cold run of shards may
  // contribute none (their ranges merge).
  static std::vector<K> balanced_splitters(const Map& whole,
                                           const std::vector<size_t>& counts,
                                           std::vector<double> loads,
                                           size_t target) {
    std::vector<K> sp;
    size_t n = whole.size();
    if (target < 2 || n == 0) return sp;
    double total = 0.0;
    for (size_t s = 0; s < loads.size(); s++) {
      if (counts[s] == 0) loads[s] = 0.0;  // nothing to cut inside
      total += loads[s];
    }
    if (total <= 0.0) return quantile_splitters(whole, target);
    std::vector<size_t> rank_before(loads.size(), 0);
    for (size_t s = 1; s < loads.size(); s++)
      rank_before[s] = rank_before[s - 1] + counts[s - 1];
    size_t s = 0;
    double cum = 0.0;
    for (size_t j = 1; j < target; j++) {
      double t = total * static_cast<double>(j) / static_cast<double>(target);
      while (s + 1 < loads.size() && cum + loads[s] <= t) cum += loads[s++];
      double frac = loads[s] > 0.0 ? (t - cum) / loads[s] : 0.0;
      if (frac < 0.0) frac = 0.0;
      if (frac > 1.0) frac = 1.0;
      size_t rank = rank_before[s] +
                    static_cast<size_t>(frac * static_cast<double>(counts[s]));
      if (rank >= n) rank = n - 1;
      auto e = whole.select(rank);
      if (!e.has_value()) break;
      if (sp.empty() || entry_policy::comp(sp.back(), e->first))
        sp.push_back(e->first);
    }
    return sp;
  }

  // The install engine behind maybe_rebalance / rebalance_now. The caller
  // excludes every writer and every other install, so the current shards
  // are frozen and dir_ can only be replaced here: read the shards, cut
  // equal-load splitters over their concatenation, distribute into a fresh
  // directory, publish it, and epoch-retire the predecessor (a concurrent
  // reader or cut may still be routing through it).
  bool install_balanced() {
    server_internal::rebalance_metrics().attempts.inc();
    obs::span span("sharded.rebalance");
    directory old = view_dir();
    std::vector<double> loads;
    std::vector<size_t> counts;
    Map whole;
    loads.reserve(old.shards.size());
    counts.reserve(old.shards.size());
    for (const auto& sh : old.shards) {
      Map part = sh->box.snapshot();
      loads.push_back(static_cast<double>(
          sh->write_ops.load(std::memory_order_relaxed)));
      counts.push_back(part.size());
      whole = Map::concat(std::move(whole), std::move(part));
    }
    std::vector<K> nsp =
        balanced_splitters(whole, counts, std::move(loads), target_shards_);
    if (same_splitters(nsp, *old.splitters)) return false;
    // pam-lint: allow(naked-new) — directories are install-rate objects
    // owned by the map, freed exclusively through the epoch limbo below.
    directory* fresh = new directory{
        std::make_shared<const std::vector<K>>(std::move(nsp)), {},
        old.gen + 1};
    fresh->shards = shards_from(*fresh->splitters, std::move(whole));
    directory* prev = dir_.exchange(fresh, std::memory_order_acq_rel);
    server_internal::rebalance_metrics().installs.inc();
    // pam-lint: allow(naked-delete) — the limbo deleter is the single
    // reclamation point for directories published by this map.
    epoch::retire(prev, [](void* p) { delete static_cast<directory*>(p); });
    return true;
  }

  static bool same_splitters(const std::vector<K>& a, const std::vector<K>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); i++) {
      if (entry_policy::comp(a[i], b[i]) || entry_policy::comp(b[i], a[i]))
        return false;
    }
    return true;
  }

  // Shard count every rebalance aims for (the construction-time request);
  // the live directory may hold fewer when quantiles or balanced cuts
  // collapse duplicate keys.
  size_t target_shards_ = 1;
  std::atomic<directory*> dir_{nullptr};
};

}  // namespace pam
