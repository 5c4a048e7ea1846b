// write_combiner: a batched ingest queue in front of a sharded_map.
//
// The paper's Table 2 makes the case: m point inserts cost O(m log n)
// committed one at a time, but one multi_insert of the same m keys costs
// O(m log(n/m + 1)) — and a per-op commit through sharded_map additionally
// pays a root copy-path, two lock handshakes and one cut publication per
// key. The combiner turns the per-op client API (upsert / erase) back into
// the bulk path: ops are appended to a small per-shard pending buffer, and
// buffers are flushed in a round when one reaches `batch_size` (that
// queue), when the background flusher's `flush_interval` tick fires, or on
// an explicit flush_all() (every queue).
//
// One write path: an overflow flush, a flusher tick, flush_all(),
// commit_now() and the quiesced() fence are each one round. A round drains
// its queues under their flush locks (taken in index order), makes ONE
// sink call that logs one record per batch (a commit_now() batch last),
// applies the round as ONE sharded_map commit, then drops the locks.
//
// Semantics:
//   * Per-key last-writer-wins within a batch: before applying, a batch is
//     coalesced so only the most recent op on each key survives (an upsert
//     followed by an erase deletes; duplicates fold away). Coalescing is
//     stable with respect to enqueue order.
//   * No lost updates: enqueue appends under the shard's buffer lock, and a
//     per-shard flush lock is held across [swap buffer out → commit], so
//     batches of one shard commit in enqueue order and a later batch can
//     never overtake an earlier one.
//   * Visibility: reads through the sharded_map see committed state only;
//     a whole round becomes visible in one atomic epoch-protected
//     publication of sharded_map's cut, so readers never see a round — or
//     a batch — half-applied. flush_all() is the barrier — every op
//     enqueued happens-before a flush_all() call is committed when it
//     returns.
//   * One queue per shard: the target's directory is fixed, so a key's ops
//     always ride its shard's queue.
//   * Bulk batches: commit_now() takes a pre-formed upsert/delete batch
//     (kv_store::put_batch / erase_batch) onto the same path: a round over
//     every queue its keys route to drains their pending ops ahead of it,
//     so per key, log order equals apply order, and a thread's buffered
//     ops and later bulk batch land in program order.
//   * Shutdown drains: shutdown() (also run by the destructor) stops the
//     flusher thread and then flushes every remaining op, so the final
//     drain is guaranteed to land in the target sharded_map before the
//     combiner — and therefore before any sharded_map constructed earlier
//     than it — is torn down. An op enqueued concurrently with shutdown is
//     never stranded: it either lands in a buffer before the closed flag is
//     set (the final flush_all commits it) or observes the flag and commits
//     as a one-op commit_now(). shutdown() is idempotent; after it returns,
//     every later upsert/erase bypasses the (now permanently drained)
//     buffers the same way.
//
// Thread safety: upsert / erase / flush_all / commit_now / quiesced /
// shutdown / stats may be called from any number of threads concurrently.
// Only the destructor itself must be externally synchronized with other
// member calls (standard C++ object lifetime), which is why kv_store
// declares the combiner after its sharded_map: members destroy in reverse
// order, so the drain always precedes the target's destruction.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/sharded_map.h"
#include "util/thread_annotations.h"

namespace pam {

template <typename Map>
class write_combiner {
 public:
  using K = typename Map::K;
  using V = typename Map::V;
  using entry_t = typename Map::entry_t;
  using entry_policy = typename Map::entry_policy;

  struct config {
    // Flush a shard's buffer once it holds this many pending ops.
    size_t batch_size = 1024;
    // Background flusher period; zero disables the flusher thread (flushes
    // then happen only on batch_size overflow and explicit flush_all).
    std::chrono::milliseconds flush_interval{2};
  };

  // One WAL record's worth of a round: a drained queue's coalesced batch
  // (`shard` = its queue index) or a commit_now() batch (kBulkShard). Its
  // upserts apply before its deletes, as WAL replay applies a record.
  static constexpr size_t kBulkShard = ~uint32_t{0};
  struct batch {
    size_t shard;
    std::vector<entry_t> upserts;
    std::vector<K> deletes;
  };

  // Durability hook: called once per round with all of the round's batches,
  // in apply order, under the flush locks of the queues it drained, BEFORE
  // the round is applied to the target — so a batch is never visible to
  // readers unless it was offered to the log first. A throwing sink aborts
  // the round (its batches are dropped, the exception propagates to
  // whoever drove it): crash semantics, exercised by the fault-injection
  // tests. Empty = no durability.
  using sink_fn = std::function<void(const std::vector<batch>& round)>;

  struct stats_snapshot {
    uint64_t ops_enqueued;    // upserts + erases accepted
    uint64_t ops_committed;   // ops surviving coalescing, applied to shards
    uint64_t batches_flushed; // non-empty batch commits
    uint64_t sink_failures;   // batches dropped because the sink threw
  };

  explicit write_combiner(sharded_map<Map>& target, config cfg = {},
                          sink_fn sink = {})
      : target_(target), cfg_(cfg), sink_(std::move(sink)),
        queues_(target.num_shards()) {
    for (size_t s = 0; s < queues_.size(); s++) {
      queues_[s] = std::make_unique<shard_queue>();
      all_queues_.push_back(s);
    }
    if (cfg_.flush_interval.count() > 0)
      flusher_ = std::thread([this] { flusher_loop(); });
  }

  ~write_combiner() {
    try {
      shutdown();
    } catch (...) {
      // The final drain hit a sink failure: the undrained ops were
      // never acked, and a destructor must not throw.
    }
  }

  // Stop the background flusher and drain every queued batch into the
  // target. Safe to call repeatedly and from any thread; the first call
  // closes the buffers (subsequent enqueues commit directly), every call
  // acts as a flush_all() barrier for ops already enqueued.
  void shutdown() {
    if (!closed_.exchange(true, std::memory_order_acq_rel)) {
      if (flusher_.joinable()) {
        {
          mutex_guard lock(flusher_mu_);
          stop_ = true;
        }
        flusher_cv_.notify_all();
        flusher_.join();
      }
    }
    flush_all();
  }

  write_combiner(const write_combiner&) = delete;
  write_combiner& operator=(const write_combiner&) = delete;

  // Enqueue a point upsert; committed by a later flush.
  void upsert(const K& k, const V& v) { enqueue(k, std::optional<V>(v)); }

  // Enqueue a point delete.
  void erase(const K& k) { enqueue(k, std::nullopt); }

  // Commit every pending op as one round. On return, all ops enqueued
  // before this call are visible to sharded_map readers.
  void flush_all() { round(all_queues_, {}, [] {}); }

  // Commit a pre-formed batch now, ordered with every buffered op on its
  // keys: one round over the queues its keys route to, with the batch as
  // the round's last WAL record (shard kBulkShard) — upserts, then
  // deletes, as WAL replay does. Visible on return. An empty batch is a
  // no-op: nothing is logged.
  void commit_now(std::vector<entry_t> upserts, std::vector<K> deletes) {
    if (upserts.empty() && deletes.empty()) return;
    std::vector<bool> hit(queues_.size(), false);
    for (const entry_t& e : upserts) hit[target_.shard_of(e.first)] = true;
    for (const K& k : deletes) hit[target_.shard_of(k)] = true;
    std::vector<size_t> touched;
    for (size_t s = 0; s < hit.size(); s++) if (hit[s]) touched.push_back(s);
    round(touched, {kBulkShard, std::move(upserts), std::move(deletes)}, [] {});
  }

  // Flush every shard, then run `fn` while ALL shard flush locks are held.
  // Every write is a round that logs and applies under the flush locks of
  // the queues it touches, so while `fn` runs no batch sits between the
  // two and no new batch can commit until it returns. This is the whole
  // writer fence: kv_store::save_checkpoint cuts its durable checkpoint in
  // it — inside `fn`, the target reflects exactly the batches the sink has
  // seen. `fn` must not re-enter the combiner.
  template <typename Fn>
  void quiesced(Fn&& fn) {
    round(all_queues_, {}, fn);
  }

  // A point-in-time view over this instance's registry counters: the
  // registry is the single source of truth (PR 9), this struct is the
  // compatibility surface older callers keep using. With PAM_METRICS=0 the
  // counters are no-ops and every field reads zero.
  stats_snapshot stats() const {
    return {ops_enqueued_.value(), ops_committed_.value(),
            batches_flushed_.value(), sink_failures_.value()};
  }

 private:
  // An op is (key, new value) for upsert or (key, nullopt) for erase.
  using op_t = std::pair<K, std::optional<V>>;

  struct shard_queue {
    mutex buffer_mu;            // held only for a push/swap
    std::vector<op_t> pending PAM_GUARDED_BY(buffer_mu);
    // Enqueue time of the oldest op in `pending` (0 = empty): the flush
    // that drains the buffer records now - oldest_ns as the worst-case
    // enqueue→flush latency of the batch.
    uint64_t oldest_ns PAM_GUARDED_BY(buffer_mu) = 0;
    mutex flush_mu;             // orders [swap → commit] sections per shard
  };

  void enqueue(const K& k, std::optional<V> v) {
    size_t s = target_.shard_of(k);
    shard_queue& q = *queues_[s];
    bool buffered = false;
    bool overflow = false;
    {
      mutex_guard lock(q.buffer_mu);
      // The closed check is under the buffer lock: an op either lands in
      // the buffer before shutdown() closes (its final flush_all takes this
      // same lock and drains it) or sees closed and commits directly below
      // — no op can be stranded in a dead buffer.
      if (!closed_.load(std::memory_order_acquire)) {
        if (q.pending.empty()) q.oldest_ns = obs::now_ns();
        q.pending.emplace_back(k, std::move(v));
        overflow = q.pending.size() >= cfg_.batch_size;
        buffered = true;
      }
    }
    ops_enqueued_.inc();
    if (!buffered) {
      // Post-shutdown: commit_now drains whatever is still pending for this
      // queue first, so an older buffered write can never overtake it.
      return v ? commit_now({{k, std::move(*v)}}, {}) : commit_now({}, {k});
    }
    queue_depth_.add(1);
    if (overflow) round({s}, {}, [] {});
  }

  // The one write path. Take the flush locks of queues qs (ascending, so
  // two rounds never deadlock), draining each into one batch; append `bulk`
  // (if it holds any op) as the last; then, every lock still held, offer
  // the round to the sink in ONE call, apply it as ONE target commit, and
  // run fn. flush_mu spans swap-out and commit, so a queue's batches apply
  // in enqueue order and the log sees each key's batches in the order
  // readers will; a sink failure keeps the whole round out of the target —
  // it was never acked, so losing it is correct.
  template <typename Fn>
  void round(const std::vector<size_t>& qs, batch bulk, Fn&& fn) {
    std::vector<batch> writes;
    lock_walk(qs, 0, writes, [&] {
      if (!bulk.upserts.empty() || !bulk.deletes.empty())
        writes.push_back(std::move(bulk));
      if (!writes.empty()) {
        obs::span flush_span("combiner.flush");
        size_t ops = 0;
        for (const batch& b : writes) ops += b.upserts.size() + b.deletes.size();
        if (sink_) {
          try {
            sink_(writes);
          } catch (...) {
            sink_failures_.inc();
            throw;
          }
        }
        ops_committed_.inc(ops);
        batches_flushed_.inc(writes.size());
        target_.write(std::move(writes));
      }
      fn();
    });
  }

  // Lock and drain queue qs[i], keep the lock, recurse to i+1, and run fn
  // with every listed lock held. Recursion keeps each acquisition lexical,
  // so clang's thread-safety analysis tracks the whole lock set.
  template <typename Fn>
  void lock_walk(const std::vector<size_t>& qs, size_t i,
                 std::vector<batch>& writes, const Fn& fn) {
    if (i == qs.size()) return fn();
    shard_queue& q = *queues_[qs[i]];
    mutex_guard serialize(q.flush_mu);
    drain(q, qs[i], writes);
    lock_walk(qs, i + 1, writes, fn);
  }

  // Swap out queue s's buffer and coalesce it into one batch of `writes`.
  // The caller-holds-q.flush_mu contract is an annotation: calling it
  // unlocked fails to compile under clang -Wthread-safety.
  void drain(shard_queue& q, size_t s, std::vector<batch>& writes)
      PAM_REQUIRES(q.flush_mu) {
    {
      // Most drains under a flusher tick or a fence find the buffer empty:
      // skip the swap and its fresh reservation. Outside flush_mu only
      // enqueue touches the buffer, and it only grows it.
      mutex_guard lock(q.buffer_mu);
      if (q.pending.empty()) return;
    }
    std::vector<op_t> ops;
    ops.reserve(cfg_.batch_size);
    uint64_t oldest_ns = 0;
    {
      mutex_guard lock(q.buffer_mu);
      ops.swap(q.pending);
      oldest_ns = q.oldest_ns;
      q.oldest_ns = 0;
    }
    queue_depth_.add(-static_cast<int64_t>(ops.size()));
    batch_ops_.record(ops.size());
    enqueue_to_flush_ns_.record(obs::now_ns() - oldest_ns);
    auto [upserts, deletes] = coalesce(std::move(ops));
    writes.push_back({s, std::move(upserts), std::move(deletes)});
  }

  // Keep only the latest op per key (stable sort by key preserves enqueue
  // order within equal keys), then split survivors into the multi_insert
  // and multi_delete arguments. Each key ends up in exactly one of the two,
  // so the flush may apply them in either order.
  static std::pair<std::vector<entry_t>, std::vector<K>> coalesce(
      std::vector<op_t> batch) {
    std::stable_sort(batch.begin(), batch.end(),
                     [](const op_t& a, const op_t& b) {
                       return entry_policy::comp(a.first, b.first);
                     });
    std::vector<entry_t> upserts;
    std::vector<K> deletes;
    for (size_t i = 0; i < batch.size(); i++) {
      if (i + 1 < batch.size() &&
          !entry_policy::comp(batch[i].first, batch[i + 1].first))
        continue;  // a later op on the same key supersedes this one
      if (batch[i].second.has_value())
        upserts.emplace_back(std::move(batch[i].first), std::move(*batch[i].second));
      else
        deletes.push_back(std::move(batch[i].first));
    }
    return {std::move(upserts), std::move(deletes)};
  }

  void flusher_loop() {
    unique_guard lock(flusher_mu_);
    while (!stop_) {
      flusher_cv_.wait_for(lock, cfg_.flush_interval);
      if (stop_) break;
      lock.unlock();
      try {
        flush_all();
      } catch (...) {
        // A sink failure on the background thread must not terminate
        // the process: the batch was dropped (counted in sink_failures_),
        // the WAL writer is dead, and the owner observes it via failed().
      }
      lock.lock();
    }
  }

  sharded_map<Map>& target_;
  const config cfg_;
  const sink_fn sink_;
  std::vector<std::unique_ptr<shard_queue>> queues_;
  std::vector<size_t> all_queues_;  // 0..S-1: the queues of a full round

  // Registry-backed instrumentation (PR 9). These are per-instance members
  // — two combiners register under the same names and the scrape sums them
  // Prometheus-style — and the source of truth behind stats().
  obs::counter ops_enqueued_{"pam_combiner_ops_enqueued_total"};
  obs::counter ops_committed_{"pam_combiner_ops_committed_total"};
  obs::counter batches_flushed_{"pam_combiner_batches_flushed_total"};
  obs::counter sink_failures_{"pam_combiner_sink_failures_total"};
  obs::gauge queue_depth_{"pam_combiner_queue_depth"};
  obs::histogram batch_ops_{"pam_combiner_batch_ops"};
  obs::histogram enqueue_to_flush_ns_{"pam_combiner_enqueue_to_flush_ns"};

  std::thread flusher_;
  mutex flusher_mu_;
  // _any: waits on the annotated pam::unique_guard (std::condition_variable
  // is hardwired to std::unique_lock<std::mutex>, which the analysis cannot
  // see through).
  std::condition_variable_any flusher_cv_;
  bool stop_ PAM_GUARDED_BY(flusher_mu_) = false;
  // Set (once) by shutdown() before its final drain; read by enqueue under
  // the buffer lock to route post-shutdown ops onto the direct path.
  std::atomic<bool> closed_{false};
};

}  // namespace pam
