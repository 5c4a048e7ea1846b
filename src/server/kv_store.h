// kv_store: the serving-layer facade — a sharded_map fronted by a
// write_combiner, wired together with one options struct.
//
// This is the deployment shape the paper's §4 sketches for a query server:
// many client threads issue point puts/erases and reads; writes ride the
// combiner onto the O(m log(n/m + 1)) bulk path per shard, reads run
// against immutable snapshots and never block writers (or each other).
//
//     kv_store<Map> store(initial_map, {.num_shards = 16});
//     store.put(k, v);            // buffered; durable after the next flush
//     store.flush();              // barrier: all prior puts are committed
//     store.get(k);               // committed read, one shard snapshot
//     auto snap = store.snapshot();          // consistent cut, O(S)
//     snap.for_each_range(lo, hi, f);        // stitched in-order walk
//
// With options::retain_versions > 0 the store also keeps a version chain
// (server/version_store.h): checkpoint() flushes and retains the cut,
// history() answers time-travel reads and version diffs, and feed() hands
// out pull-based change subscriptions.
//
// Every write — buffered put/erase or bulk put_batch/erase_batch — rides a
// combiner round: logged under one WAL sync and applied as one published
// cut under the flush locks of the queues it touches, so there is one
// write path and one writer fence: write_combiner::quiesced.
// save_checkpoint cuts inside that fence. The shard directory is fixed when
// the store is built (or restored from the manifest by recover()).
//
// Buffered writes are eventually visible (bounded by batch_size /
// flush_interval); flush() is the barrier when read-your-writes is needed.
// All members are safe to call from any thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "alloc/arena.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "server/change_feed.h"
#include "server/sharded_map.h"
#include "server/version_store.h"
#include "server/write_combiner.h"
#include "store/durability.h"
#include "util/thread_annotations.h"

namespace pam {

template <typename Map>
class kv_store {
 public:
  using K = typename Map::K;
  using V = typename Map::V;
  using A = typename Map::A;
  using entry_t = typename Map::entry_t;
  using snapshot_type = sharded_snapshot<Map>;

  struct options {
    // Shard count for quantile partitioning of `initial`. Quantiles can
    // only be inferred from existing keys: an empty initial map makes ONE
    // shard, for good — a fresh store should set `splitters` instead.
    size_t num_shards = 16;
    // Explicit shard splitters; when non-empty they take precedence over
    // num_shards (S-1 splitters make S shards).
    std::vector<K> splitters{};
    typename write_combiner<Map>::config combiner{};
    // Version history: when retain_versions > 0 the store keeps a
    // version_store ring of that capacity — checkpoint() retains versions,
    // history() exposes time-travel reads / diffs / change feeds.
    size_t retain_versions = 0;
    typename version_store<Map>::config history{};
    // Durability: when set, the store owns a store::durability manager
    // rooted at durability->dir — every flushed batch is WAL-logged before
    // it becomes visible (the combiner's sink),
    // save_checkpoint() persists consistent cuts, and recover() rebuilds a
    // store from the directory after a crash. Constructing with this set
    // immediately commits a full checkpoint of the initial contents (the
    // splitters are durable from the first instant).
    std::optional<store::durability_options> durability{};
  };

  explicit kv_store(Map initial = Map{}, options opt = {})
      : shards_(opt.splitters.empty()
                    ? sharded_map<Map>(std::move(initial), opt.num_shards)
                    : sharded_map<Map>(std::move(initial),
                                       std::move(opt.splitters))),
        durable_(opt.durability.has_value()
                     ? std::make_unique<store::durability<Map>>(
                           std::move(*opt.durability), shards_.snapshot_all())
                     : nullptr),
        combiner_(shards_, opt.combiner, wal_sink()) {
    init_history(opt);
  }

  // ------------------------------------------------------------- writes --

  // Buffered point upsert / delete (see write_combiner for the batching
  // contract). Visible after the next flush of the owning shard.
  void put(const K& k, const V& v) { combiner_.upsert(k, v); }
  void erase(const K& k) { combiner_.erase(k); }

  // Barrier: every put/erase issued before this call is committed on
  // return — and, on a durable store, on the medium (WAL group-sync flushed).
  void flush() {
    combiner_.flush_all();
    if (durable_) durable_->sync_wal();
  }

  // Bulk writes are already batches: each commits before returning, as one
  // WAL record on a durable store, in program order with this thread's
  // earlier put/erase calls on the same keys (write_combiner::commit_now).
  // Each is the last record of one combiner round over the queues its keys
  // route to, visible in one publication (no snapshot holds part of it), so
  // bulk batches over shared queues commit one at a time. Empty: a no-op.
  void put_batch(std::vector<entry_t> updates) {
    combiner_.commit_now(std::move(updates), {});
  }
  void erase_batch(std::vector<K> keys) {
    combiner_.commit_now({}, std::move(keys));
  }

  // -------------------------------------------------------------- reads --
  // All reads see committed state only (pending buffered writes excluded).

  std::optional<V> get(const K& k) const { return shards_.find(k); }

  std::vector<std::optional<V>> multi_get(const std::vector<K>& keys) const {
    return shards_.multi_find(keys);
  }

  // A consistent cut across every shard; all stitched range/aug queries
  // (for_each_range, count_range, aug_range, entries) live on the snapshot.
  snapshot_type snapshot() const { return shards_.snapshot_all(); }

  size_t size() const { return shards_.size(); }

  // ---------------------------------------------------- version history --
  // Available when options::retain_versions > 0; calling any of these on a
  // store constructed without history throws std::logic_error.

  bool has_history() const { return history_.has_value(); }

  // Flush pending writes and retain the resulting consistent cut as a new
  // version; returns its id. The durable checkpoint primitive: everything
  // put() before this call is inside the captured version.
  uint64_t checkpoint() {
    combiner_.flush_all();
    return require_history().capture();
  }

  // The retained version chain: snapshot_at / diff / trimming.
  version_store<Map>& history() { return require_history(); }
  const version_store<Map>& history() const { return require_history(); }

  // A pull-based feed over the version chain; subscribers drain ordered
  // entry deltas between checkpoints.
  change_feed<Map> feed() { return change_feed<Map>(require_history()); }

  // ---------------------------------------------------------- durability --
  // Available when options::durability is set; the others throw
  // std::logic_error on a store constructed without it.

  bool has_durability() const { return durable_ != nullptr; }

  // True once the WAL writer died (an append threw mid-record): later
  // batches are silently unacked and the store should be replaced — by
  // recover(), which replays only what actually reached the medium.
  bool failed() const { return durable_ != nullptr && durable_->failed(); }

  // Flush every pending write, make the WAL durable, then persist the
  // resulting consistent cut — full or incremental per ckpt_config policy
  // (a committed checkpoint truncates the WAL prefix it covers). When
  // version history is on, the persisted cut is byte-identical to the
  // version retained by the ring (version_store::capture_snapshot).
  //
  // The (sync → read covered → detach dirty keys → snapshot) steps run
  // inside the writer fence (write_combiner::quiesced), so no batch —
  // buffered or bulk — can sit between its WAL append and its apply while
  // the cut is taken, and the detached keys are exactly those of the
  // records logged since the previous checkpoint's fence: the delta's
  // source (store/durability.h). Without
  // the fence a record with seq <= covered could be durable but not yet
  // applied, and the committed checkpoint would claim coverage of a batch
  // it lacks — wal_replay skips seq <= covered, silently losing the acked
  // batch after the next crash. Writers are only blocked for the cut
  // itself (O(shards) root grabs + one group fsync); serialization and
  // commit run outside the fence, concurrent with new writes.
  typename store::durability<Map>::ckpt_result save_checkpoint()
      PAM_EXCLUDES(ckpt_mu_) {
    require_durable();
    // Serializing checkpoints end-to-end keeps covered_wal_seq monotone
    // across the durability manager's commits: were two cuts to commit in
    // opposite order, the later cut's truncate could unlink WAL records
    // the finally-current (earlier) manifest does not cover.
    mutex_guard order(ckpt_mu_);
    uint64_t covered = 0;
    typename store::durability<Map>::dirty_keys dirty;
    std::optional<snapshot_type> cut;
    combiner_.quiesced([&] {
      durable_->sync_wal();
      covered = durable_->durable_seq();
      dirty = durable_->take_dirty();
      cut.emplace(history_.has_value() ? history_->capture_snapshot().snapshot
                                       : shards_.snapshot_all());
    });
    return durable_->save_checkpoint(*cut, covered, std::move(dirty));
  }

  store::durability<Map>& durable() {
    require_durable();
    return *durable_;
  }

  struct recovery_stats {
    bool recovered = false;  // false: fresh directory, nothing durable yet
    uint64_t checkpoint_files = 0;
    uint64_t wal_records = 0;
    bool wal_tail_truncated = false;
  };

  // Rebuild a store from a durability directory: load the committed
  // checkpoint chain, replay the WAL tail (repairing any torn tail in
  // place), then open for serving with durability resumed — the recovered
  // state is immediately re-checkpointed in full, so a second crash cannot
  // lose it. Shard splitters come from the manifest; opt.splitters /
  // opt.num_shards are ignored unless the directory is fresh.
  static kv_store recover(store::durability_options dopts, options opt = {},
                          recovery_stats* stats = nullptr) {
    auto rec = store::durability<Map>::recover(dopts);
    if (!rec.has_value()) {
      if (stats != nullptr) *stats = {};
      opt.durability = std::move(dopts);
      return kv_store(Map{}, std::move(opt));
    }
    if (stats != nullptr) {
      *stats = {true, rec->checkpoint_files, rec->wal_records,
                rec->wal_tail_truncated};
    }
    return kv_store(recovered_tag{}, std::move(*rec), std::move(dopts),
                    std::move(opt));
  }

  // ------------------------------------------------------ introspection --

  sharded_map<Map>& shards() { return shards_; }
  const sharded_map<Map>& shards() const { return shards_; }
  typename write_combiner<Map>::stats_snapshot ingest_stats() const {
    return combiner_.stats();
  }

  // The full observability scrape (PR 9): every registered metric in the
  // process — this store's combiner/WAL/checkpoint series, the global
  // cut/epoch/arena/scheduler series — merged by (name, label), plus this
  // store's per-shard entry counts refreshed as pam_shard_entries{shard="s"}
  // gauges and the process-wide pam_arena_used_bytes. With PAM_METRICS=0
  // the snapshot is empty.
  obs::registry_snapshot metrics() const {
    refresh_shard_gauges();
    block_pool::used_bytes_all();  // refreshes pam_arena_used_bytes
    return obs::registry::get().scrape();
  }

  // Prometheus text exposition of metrics().
  std::string metrics_text() const {
    std::ostringstream os;
    obs::prometheus_text(metrics(), os);
    return os.str();
  }

  // One-object JSON exposition of metrics().
  std::string metrics_json() const {
    std::ostringstream os;
    obs::metrics_json(metrics(), os);
    return os.str();
  }

  // ------------------------------------------------- memory maintenance --
  // Process-wide (the pools are shared by every map in the process, so the
  // numbers cover all stores, not just this one).

  struct memory_stats {
    size_t reserved_bytes;   // exact heap footprint of all pools (not RSS)
    size_t used_bytes;       // live slots x stride, summed over pools
    size_t limbo_retired;    // displaced versions awaiting epoch drain
  };

  static memory_stats memory() {
    return {block_pool::reserved_bytes_all(), block_pool::used_bytes_all(),
            epoch::pending()};
  }

  // Reclaim what a long-lived server can: drive the epoch forward so
  // displaced versions in limbo are destroyed (parallel teardown), have
  // every scheduler worker and the calling thread hand their pool caches
  // back, compact — every live sharded_map moves what its live tree alone
  // owns out of partly free chunks, in one commit over all its shards with
  // contents and versions unchanged — then release fully-free chunks from
  // every pool to the C++ heap. Returns the net bytes released (reserved
  // bytes before minus after, or 0). The heap keeps most of them mapped, so
  // this lowers reserved_bytes, not the process RSS. Readers are never
  // blocked; writers to a map wait while its relocation commit holds the
  // shard mutexes. The combiner's flusher hands its caches back after
  // every tick; chunks pinned by other long-lived user threads' caches stay
  // reserved, as does storage that snapshots or version rings share (see
  // block_pool::trim_all). Safe to call from a parallel task or any user
  // thread. EXCLUDES: calling this from inside an epoch::guard could never
  // drain past the caller's own pin — the contract propagates from
  // epoch::drain.
  static size_t trim_memory() PAM_EXCLUDES(epoch_domain) {
    epoch::drain();
    return block_pool::trim_all();
  }

 private:
  struct recovered_tag {};

  kv_store(recovered_tag, typename store::durability<Map>::recovered_t rec,
           store::durability_options dopts, options opt)
      : shards_(std::move(rec.contents), std::move(rec.splitters)),
        durable_(std::make_unique<store::durability<Map>>(
            std::move(dopts), shards_.snapshot_all(), rec.next_seq - 1,
            rec.next_seq)),
        combiner_(shards_, opt.combiner, wal_sink()) {
    init_history(opt);
  }

  void init_history(const options& opt) {
    if (opt.retain_versions > 0) {
      auto hcfg = opt.history;
      hcfg.max_versions = opt.retain_versions;
      history_.emplace(shards_, hcfg);  // version 1: the initial contents
    }
  }

  // The combiner's pre-visibility hook, the store's one WAL append site: a
  // round that cannot be logged is never applied (the sink throws, the
  // combiner drops it and counts a sink_failure).
  typename write_combiner<Map>::sink_fn wal_sink() {
    if (!durable_) return {};
    return [d = durable_.get()](const auto& round) {
      if (d->log_round(round) == 0) {
        throw store::io_error("kv_store: WAL writer is dead, round unacked");
      }
    };
  }

  // Create (on the first scrape) and refresh the
  // pam_shard_entries{shard="s"} gauges from the per-shard root sizes of
  // the published cut — wait-free reads, no snapshot copy.
  void refresh_shard_gauges() const {
    if constexpr (obs::kEnabled) {
      mutex_guard lock(gauges_mu_);
      size_t S = shards_.num_shards();
      shard_gauges_.reserve(S);
      while (shard_gauges_.size() < S) {
        shard_gauges_.push_back(std::make_unique<obs::gauge>(
            "pam_shard_entries",
            "shard=\"" + std::to_string(shard_gauges_.size()) + "\""));
      }
      for (size_t s = 0; s < shard_gauges_.size(); s++) {
        shard_gauges_[s]->set(static_cast<int64_t>(shards_.shard_size(s)));
      }
    }
  }

  void require_durable() const {
    if (!durable_) {
      throw std::logic_error(
          "kv_store: durability disabled — construct with "
          "options::durability set");
    }
  }

  version_store<Map>& require_history() {
    check_history();
    return *history_;
  }
  const version_store<Map>& require_history() const {
    check_history();
    return *history_;
  }
  void check_history() const {
    if (!history_.has_value())
      throw std::logic_error(
          "kv_store: version history disabled — construct with "
          "options::retain_versions > 0");
  }

  sharded_map<Map> shards_;
  // Serializes save_checkpoint callers so coverage claims reach the
  // durability manager in monotone order (see save_checkpoint).
  mutex ckpt_mu_;
  // Declaration order is the teardown contract run in reverse: history_
  // releases its retained cuts, combiner_ drains (its final batches still
  // logging through durable_), then durable_ closes the WAL, then shards_.
  std::unique_ptr<store::durability<Map>> durable_;
  write_combiner<Map> combiner_;
  std::optional<version_store<Map>> history_;

  // Per-shard size gauges, created lazily by the first metrics() call
  // (mutable: scraping a const store is still a read).
  mutable mutex gauges_mu_;
  mutable std::vector<std::unique_ptr<obs::gauge>> shard_gauges_
      PAM_GUARDED_BY(gauges_mu_);
};

}  // namespace pam
