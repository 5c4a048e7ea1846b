// version_store: a retained chain of consistent-cut versions over a
// sharded_map, with parallel snapshot diffing between any two retained
// versions.
//
// The serving layer so far throws old versions away the moment the next
// commit lands. Path copying makes retention nearly free — an unchanged
// shard between two versions is the *same root pointer* — so the store
// keeps a ring of (version, consistent cut) pairs:
//
//   * capture()            take one consistent cut (sharded_map's
//                          published cut, one guarded load:
//                          snapshot_all_versioned) and retain it as the
//                          next version. A capture with no intervening
//                          commit is deduplicated: the per-shard commit
//                          counters are compared and the existing version
//                          id is returned.
//   * snapshot_at(v)       time-travel read: the full sharded_snapshot of
//                          any retained version, O(S) refcount bumps.
//   * diff(v_from, v_to)   the ordered change stream between two retained
//                          versions, stitched across shards in shard (=
//                          key) order. Every version is cut under the map's
//                          one fixed directory, so shard s pairs with shard
//                          s. Per-shard diffs run in parallel and prune on
//                          shared subtrees (pam/diff.h), so an unchanged
//                          shard costs O(1) and the total is
//                          O(d log(n/d + 1)) for d changed entries.
//
// Trimming: the ring keeps at most `max_versions` entries (count trim, on
// every capture) and drops entries older than `max_age` when it is nonzero
// (age trim, on capture and via trim_older_than). The constructor captures
// version 1 and no trim drops the latest version, so the ring is never
// empty. Trimming drops refcounts; tree storage is reclaimed when the last
// snapshot holding it goes away.
//
// Thread safety: every public member may be called from any thread. The
// ring has its own mutex, held only for O(S) handle copies — never across
// diff computation or tree work.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "pam/diff.h"
#include "parallel/parallel.h"
#include "server/sharded_map.h"
#include "util/thread_annotations.h"

namespace pam {

template <typename Map>
class version_store {
 public:
  using K = typename Map::K;
  using V = typename Map::V;
  using snapshot_type = sharded_snapshot<Map>;
  using change_t = map_change<Map>;
  using diff_type = map_diff<Map>;
  using clock = std::chrono::steady_clock;

  struct config {
    // Count trim: the ring retains at most this many versions.
    size_t max_versions = 64;
    // Age trim: versions older than this are dropped at the next capture;
    // zero disables age-based trimming.
    std::chrono::milliseconds max_age{0};
  };

  // Captures the target's current contents as version 1.
  explicit version_store(sharded_map<Map>& target, config cfg = {})
      : target_(target), cfg_(cfg) {
    if (cfg_.max_versions == 0) cfg_.max_versions = 1;
    auto cut = target_.snapshot_all_versioned();
    mutex_guard lock(mu_);
    push_locked(std::move(cut));
  }

  version_store(const version_store&) = delete;
  version_store& operator=(const version_store&) = delete;

  // Retain the current consistent cut as a new version and return its id
  // (ids are assigned 1, 2, ... and never reused; 1 is the cut taken at
  // construction). If no shard committed since the last capture, the
  // existing latest id is returned and nothing is retained — capture is
  // idempotent on a quiescent store.
  uint64_t capture() { return capture_snapshot().version; }

  // What a captured version retains: its id and the exact consistent cut.
  struct captured {
    uint64_t version;
    snapshot_type snapshot;
  };

  // capture(), but hands back the retained cut itself. The durability layer
  // uses this so the cut it serializes into a checkpoint is byte-for-byte
  // the version the ring retained — not a second snapshot racing with
  // concurrent flushes.
  captured capture_snapshot() {
    auto cut = target_.snapshot_all_versioned();
    std::vector<entry> dropped;  // destroyed outside the lock (GC can fork)
    mutex_guard lock(mu_);
    // Every cut is one object sharded_map published, and publications are
    // serialized, so any two cuts are totally ordered and componentwise
    // comparable. A cut that does not advance
    // past the newest retained one is either identical (quiescent dedup) or
    // lost a race to a concurrent capture that took a newer cut but reached
    // this mutex first — in both cases the retained version already covers
    // it, so return that id rather than pushing a version whose id order
    // would invert its cut order.
    const std::vector<uint64_t>& back = ring_.back().shard_versions;
    bool advanced = false;
    for (size_t s = 0; s < cut.versions.size() && !advanced; s++)
      advanced = cut.versions[s] > back[s];
    if (!advanced) return {ring_.back().version, ring_.back().cut};
    uint64_t v = push_locked(std::move(cut));
    trim_locked(clock::now(), dropped);
    return {v, ring_.back().cut};
  }

  uint64_t latest_version() const {
    mutex_guard lock(mu_);
    return ring_.back().version;
  }
  uint64_t oldest_version() const {
    mutex_guard lock(mu_);
    return ring_.front().version;
  }
  size_t retained() const {
    mutex_guard lock(mu_);
    return ring_.size();
  }

  // The cut retained for version v; nullopt if v was trimmed (or never
  // assigned). O(S) refcount bumps.
  std::optional<snapshot_type> snapshot_at(uint64_t v) const {
    mutex_guard lock(mu_);
    const entry* e = find_locked(v);
    if (e == nullptr) return std::nullopt;
    return e->cut;
  }

  // Latest retained cut plus its version id.
  std::pair<snapshot_type, uint64_t> snapshot_latest() const {
    mutex_guard lock(mu_);
    return {ring_.back().cut, ring_.back().version};
  }

  // The ordered change stream transforming version v_from into v_to:
  // per-shard structural diffs computed in parallel outside the ring lock,
  // stitched in shard order (shards tile the key space, so the result is
  // globally key-ordered). nullopt if either version is not retained.
  // v_from == v_to yields an empty stream.
  std::optional<std::vector<change_t>> diff(uint64_t v_from,
                                            uint64_t v_to) const {
    snapshot_type from, to;
    {
      mutex_guard lock(mu_);
      const entry* ef = find_locked(v_from);
      const entry* et = find_locked(v_to);
      if (ef == nullptr || et == nullptr) return std::nullopt;
      from = ef->cut;
      to = et->cut;
    }
    return diff_snapshots(from, to);
  }

  // The same stream computed from two already-obtained cuts of one
  // sharded_map (they need not be retained). Its directory is fixed, so
  // shard s covers the same key range on both sides and an unchanged shard
  // is the same root pointer (O(1) prune). A default-constructed cut pairs
  // as all-empty shards.
  static std::vector<change_t> diff_snapshots(const snapshot_type& from,
                                              const snapshot_type& to) {
    size_t S = std::max(from.num_shards(), to.num_shards());
    std::vector<std::vector<change_t>> per_shard(S);
    parallel_for(
        0, S,
        [&](size_t s) {
          Map a = s < from.num_shards() ? from.shard(s) : Map{};
          Map b = s < to.num_shards() ? to.shard(s) : Map{};
          per_shard[s] = Map::diff(a, b).changes();
        },
        1);
    size_t total = 0;
    for (const auto& v : per_shard) total += v.size();
    std::vector<change_t> out;
    out.reserve(total);
    for (auto& v : per_shard)
      out.insert(out.end(), std::make_move_iterator(v.begin()),
                 std::make_move_iterator(v.end()));
    return out;
  }

  // Drop retained versions beyond the newest keep_count; the latest version
  // always stays.
  void trim_to(size_t keep_count) {
    std::vector<entry> dropped;  // destroyed outside the lock
    mutex_guard lock(mu_);
    while (ring_.size() > std::max<size_t>(keep_count, 1)) {
      dropped.push_back(std::move(ring_.front()));
      ring_.pop_front();
    }
  }

  // Drop retained versions captured more than `age` ago, except the latest.
  void trim_older_than(std::chrono::milliseconds age) {
    std::vector<entry> dropped;
    auto cutoff = clock::now() - age;
    mutex_guard lock(mu_);
    while (ring_.size() > 1 && ring_.front().at < cutoff) {
      dropped.push_back(std::move(ring_.front()));
      ring_.pop_front();
    }
  }

 private:
  struct entry {
    uint64_t version;
    snapshot_type cut;
    std::vector<uint64_t> shard_versions;  // dedups quiescent captures
    clock::time_point at;
  };

  // Retains cut as the next version and returns its id.
  uint64_t push_locked(typename sharded_map<Map>::versioned_snapshot cut)
      PAM_REQUIRES(mu_) {
    uint64_t v = next_version_++;
    ring_.push_back({v, std::move(cut.snapshot), std::move(cut.versions),
                     clock::now()});
    return v;
  }

  // Versions are assigned in ring order, so a binary search by id works.
  const entry* find_locked(uint64_t v) const PAM_REQUIRES(mu_) {
    size_t lo = 0, hi = ring_.size();
    while (lo < hi) {
      size_t mid = lo + (hi - lo) / 2;
      if (ring_[mid].version < v) lo = mid + 1; else hi = mid;
    }
    if (lo < ring_.size() && ring_[lo].version == v) return &ring_[lo];
    return nullptr;
  }

  void trim_locked(clock::time_point now, std::vector<entry>& dropped)
      PAM_REQUIRES(mu_) {
    while (ring_.size() > cfg_.max_versions) {
      dropped.push_back(std::move(ring_.front()));
      ring_.pop_front();
    }
    if (cfg_.max_age.count() > 0) {
      auto cutoff = now - cfg_.max_age;
      while (ring_.size() > 1 && ring_.front().at < cutoff) {
        dropped.push_back(std::move(ring_.front()));
        ring_.pop_front();
      }
    }
  }

  sharded_map<Map>& target_;
  config cfg_;
  mutable mutex mu_;
  std::deque<entry> ring_ PAM_GUARDED_BY(mu_);
  uint64_t next_version_ PAM_GUARDED_BY(mu_) = 1;
};

}  // namespace pam
