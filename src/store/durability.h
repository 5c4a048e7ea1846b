// The durability manager: glues the WAL and the checkpoint writer into one
// object the server owns.
//
//   log_round        encode a write-combiner round as one WAL record per
//                    batch and append them together (group fsync per
//                    wal_config, checked once per round); the returned seq
//                    is what "acked" means. The keys of every appended
//                    record also go to the dirty-key log
//   take_dirty       detach the dirty-key log: the keys written since the
//                    last detach
//   save_checkpoint  persist a consistent cut — full or incremental per
//                    policy — commit it, then truncate WAL segments the
//                    new checkpoint covers
//   recover          static: load the committed checkpoint chain, replay
//                    the WAL tail (repairing torn records), return the
//                    reconstructed contents + splitters + resume seqs
//
// Incremental policy: a delta checkpoint is built from the dirty keys
// detached together with the cut (kv_store does both inside its writer
// fence, so they are exactly the keys of the records logged since the
// previous commit). The keys are sorted, deduplicated and looked up in the
// cut with one multi_find; each writes its present flag, the key and, if
// present, its value. A key rewritten to its old value, or inserted and
// erased within one interval, travels as a no-op change. No earlier cut is
// held to diff against, so an old version's blocks are freed once no
// reader holds them. A checkpoint is full instead when (a) the manager was
// just opened, (b) the chain already has max_chain deltas, or (c) the delta
// would exceed incr_max_ratio of the last full checkpoint's bytes —
// decided on the encoded stream, or up front when the distinct keys alone
// cannot fit.
//
// The dirty log is bounded: it is compacted (sort + unique) each time it
// doubles, and once its distinct keys cannot fit the delta budget it is
// dropped and the next checkpoint is full (an escalation). Its size is the
// pam_ckpt_dirty_keys gauge.
//
// The change stream is keyed, not per shard: recovery concatenates the full
// file's shard streams, applies each delta by key, and only then does
// kv_store redistribute the contents along the manifest's splitters.
//
// Crash safety: every mutation of manager state happens only after
// commit_current() returns. An injected crash anywhere inside
// save_checkpoint leaves the previous checkpoint current and the manager's
// in-memory chain state untouched, and the detached dirty keys are merged
// back into the log, so the next checkpoint's delta still covers them; the
// dead attempt's files are garbage that the next successful commit's GC
// pass sweeps.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/checkpoint.h"
#include "store/file.h"
#include "store/wal.h"
#include "util/thread_annotations.h"

namespace pam::store {

namespace store_internal {

// Recovery instrumentation. Global, not per-manager: recover() is a static
// path that runs before any durability instance exists, and the exposition
// wants process-lifetime "what did startup replay" numbers.
struct recovery_metrics_t {
  obs::counter runs{"pam_recovery_runs_total"};
  obs::counter replayed_records{"pam_recovery_replayed_records_total"};
  obs::gauge replay_ns{"pam_recovery_replay_ns"};
};

inline recovery_metrics_t& recovery_metrics() {
  // pam-lint: allow(naked-new) — immortal process-wide metric block, same
  // lifetime rule as the obs registry it registers into.
  static recovery_metrics_t* m = new recovery_metrics_t();
  return *m;
}

}  // namespace store_internal

struct durability_options {
  std::string dir;
  wal_config wal = wal_config::from_env();
  ckpt_config ckpt = ckpt_config::from_env();
  std::shared_ptr<file_system> io = posix_fs();
};

template <typename Map>
class durability {
 public:
  using K = typename Map::K;
  using V = typename Map::V;
  using entry_t = typename Map::entry_t;
  using snapshot_t = sharded_snapshot<Map>;
  using cio = checkpoint_io<Map>;
  using manifest_t = typename cio::manifest_t;

  // The keys written since the last take_dirty(), unsorted and possibly
  // repeated, and whether the log was dropped for outgrowing the delta
  // budget (the next checkpoint is then full).
  struct dirty_keys {
    std::vector<K> keys;
    bool overflowed = false;
  };

  // Open a durable store rooted at opts.dir and immediately commit a full
  // checkpoint of `cut` covering `covered_seq` — a fresh store passes the
  // (possibly empty) initial cut with covered_seq 0 / next_seq 1, recovery
  // passes the reconstructed cut with the seqs wal_replay reported. Either
  // way the cut's splitters are durable from the first commit onward, and
  // any WAL prefix the checkpoint covers is truncated.
  durability(durability_options opts, const snapshot_t& cut,
             uint64_t covered_seq = 0, uint64_t next_seq = 1)
      : opts_(std::move(opts)) {
    opts_.io->mkdirs(opts_.dir);
    wal_ = std::make_unique<wal_writer>(opts_.io, opts_.dir, opts_.wal,
                                        next_seq);
    mutex_guard g(mu_);
    commit_locked(cut, covered_seq, dirty_keys{}, /*force_full=*/true);
  }

  durability(const durability&) = delete;
  durability& operator=(const durability&) = delete;

  // ------------------------------------------------------------- logging --

  // Log one write round: one WAL record per batch, appended under one WAL
  // writer lock, with the sync cadence checked once after the last record
  // (so the default syncs a round once). A record's payload is
  //   [ u32 shard | u32 n_ups | u32 n_dels | entries... | keys... ]
  // Batch is any type with `shard`, `upserts` and `deletes` members.
  // Returns the last record's seq, or 0 when the writer is dead (the round
  // is unacked). The keys of appended records join the dirty-key log.
  template <typename Batch>
  uint64_t log_round(const std::vector<Batch>& round) PAM_EXCLUDES(dirty_mu_) {
    std::vector<std::vector<char>> records;
    for (const Batch& b : round) {
      std::vector<char>& buf = records.emplace_back();
      buf.reserve(12 + b.upserts.size() * wire::field_codec<entry_t>::kMinBytes +
                  b.deletes.size() * wire::field_codec<K>::kMinBytes);
      wire::put_u32(buf, static_cast<uint32_t>(b.shard));
      wire::put_u32(buf, static_cast<uint32_t>(b.upserts.size()));
      wire::put_u32(buf, static_cast<uint32_t>(b.deletes.size()));
      for (const entry_t& e : b.upserts) wire::field_codec<entry_t>::write(e, buf);
      for (const K& k : b.deletes) wire::field_codec<K>::write(k, buf);
    }
    uint64_t seq = wal_->append(records);
    if (seq != 0) {
      // Rounds of disjoint queues log concurrently.
      mutex_guard g(dirty_mu_);
      for (const Batch& b : round) {
        if (dirty_.overflowed) break;
        for (const entry_t& e : b.upserts) dirty_.keys.push_back(e.first);
        dirty_.keys.insert(dirty_.keys.end(), b.deletes.begin(), b.deletes.end());
        if (dirty_.keys.size() >= compact_at_) compact_dirty_locked();
      }
      dirty_gauge_.set(static_cast<int64_t>(dirty_.keys.size()));
    }
    return seq;
  }

  // Detach the dirty-key log and start an empty one. Taken together with
  // the cut (kv_store: inside the writer fence), so the keys are exactly
  // those of the records logged since the previous detach.
  dirty_keys take_dirty() PAM_EXCLUDES(dirty_mu_) {
    mutex_guard g(dirty_mu_);
    dirty_keys out = std::move(dirty_);
    dirty_ = dirty_keys{};
    compact_at_ = kMinCompact;
    dirty_gauge_.set(0);
    return out;
  }

  // Keys in the dirty log, and its bound: after each log_round the log is
  // below its next compaction point (twice its size after the last one),
  // and a compaction keeps at most the distinct keys the delta budget of
  // the last full checkpoint can hold.
  size_t dirty_size() const PAM_EXCLUDES(dirty_mu_) {
    mutex_guard g(dirty_mu_);
    return dirty_.keys.size();
  }
  size_t dirty_bound() const PAM_EXCLUDES(dirty_mu_) {
    mutex_guard g(dirty_mu_);
    return std::max(2 * budget_keys_, kMinCompact);
  }

  // Durability barrier over everything logged so far.
  void sync_wal() { wal_->sync(); }

  uint64_t last_seq() const { return wal_->last_seq(); }
  uint64_t durable_seq() const { return wal_->durable_seq(); }

  // True once a WAL append has thrown: further batches are silently
  // unacked and the store should be considered failed.
  bool failed() const { return wal_->dead(); }

  // --------------------------------------------------------- checkpoints --

  struct ckpt_result {
    uint64_t id = 0;
    bool full = false;
    uint64_t bytes = 0;  // data file bytes written (pages + headers)
  };

  // Persist `cut`, which must reflect every record with seq <= covered_seq,
  // with `dirty` the log detached by take_dirty() at the same moment. The
  // caller is responsible for making that true under concurrency: the
  // (sync, read durable_seq, detach, snapshot) steps must be fenced against
  // writers so no record with seq <= covered_seq is still between its WAL
  // append and its apply when the cut is taken — kv_store::save_checkpoint
  // does this by holding every combiner flush lock (quiesced), under which
  // all of its writes log and apply. Replay of any seq in (covered, last]
  // is idempotent because records carry absolute upserts/deletes.
  // covered_seq must be monotone across calls (a regressing claim would
  // follow a truncate that already unlinked records the older manifest
  // needs). An attempt that throws before its commit point merges `dirty`
  // back into the log.
  ckpt_result save_checkpoint(const snapshot_t& cut, uint64_t covered_seq,
                              dirty_keys dirty) PAM_EXCLUDES(mu_, dirty_mu_) {
    mutex_guard g(mu_);
    return commit_locked(cut, covered_seq, std::move(dirty), /*force_full=*/false);
  }

  // ------------------------------------------------------------ recovery --

  struct recovered_t {
    Map contents;
    std::vector<K> splitters;
    uint64_t covered_seq = 0;     // what the checkpoint chain covered
    uint64_t next_seq = 1;        // seq the resumed writer should assign
    uint64_t wal_records = 0;     // WAL records replayed past the chain
    uint64_t checkpoint_files = 0;
    bool wal_tail_truncated = false;
  };

  // Load the committed chain and replay the WAL tail (repairing torn
  // records in place). Returns nullopt when the directory has no committed
  // checkpoint — i.e. nothing durable ever existed there.
  static std::optional<recovered_t> recover(const durability_options& opts) {
    file_system& fs = *opts.io;
    if (!fs.exists(opts.dir)) return std::nullopt;
    std::optional<typename cio::loaded_t> loaded = cio::load(fs, opts.dir);
    if (!loaded.has_value()) return std::nullopt;
    recovered_t out;
    out.contents = std::move(loaded->contents);
    out.splitters = std::move(loaded->manifest.splitters);
    out.covered_seq = loaded->manifest.covered_wal_seq;
    out.checkpoint_files = loaded->files_applied;
    store_internal::recovery_metrics().runs.inc();
    uint64_t t0 = obs::now_ns();
    wal_replay_stats st;
    {
      obs::span replay_span("recover.replay");
      st = wal_replay(
          fs, opts.dir, out.covered_seq,
          [&](uint64_t, const char* payload, size_t n) {
            apply_record(out.contents, payload, n);
          },
          /*repair=*/true);
    }
    store_internal::recovery_metrics().replayed_records.inc(st.records);
    store_internal::recovery_metrics().replay_ns.set(
        static_cast<int64_t>(obs::now_ns() - t0));
    out.next_seq = st.next_seq;
    out.wal_records = st.records;
    out.wal_tail_truncated = st.tail_truncated;
    return out;
  }

  // Decode one WAL batch record and apply it (absolute ops → idempotent).
  static void apply_record(Map& m, const char* payload, size_t n) {
    wire::reader r(payload, n);
    r.u32();  // shard routing is rederived from splitters on reload
    uint32_t n_ups = r.u32();
    uint32_t n_dels = r.u32();
    std::vector<entry_t> ups;
    ups.reserve(n_ups);
    for (uint32_t i = 0; i < n_ups; i++) {
      ups.push_back(wire::field_codec<entry_t>::read(r));
    }
    std::vector<K> dels;
    dels.reserve(n_dels);
    for (uint32_t i = 0; i < n_dels; i++) {
      dels.push_back(wire::field_codec<K>::read(r));
    }
    if (r.remaining() != 0) {
      throw wire::error("wal: batch record length mismatch");
    }
    if (!ups.empty()) m = Map::multi_insert(std::move(m), std::move(ups));
    if (!dels.empty()) m = Map::multi_delete(std::move(m), std::move(dels));
  }

 private:
  // A change costs at least its flag byte and the key's smallest encoding,
  // after the stream's u32 count: past this many distinct keys a delta
  // cannot fit `budget` bytes.
  static size_t keys_within(double budget) {
    double n = (budget - 4) / static_cast<double>(1 + wire::field_codec<K>::kMinBytes);
    return n > 0 ? static_cast<size_t>(n) : 0;
  }

  static void sort_unique(std::vector<K>& keys) {
    std::sort(keys.begin(), keys.end(), Map::entry_policy::comp);
    keys.erase(std::unique(keys.begin(), keys.end(),
                           [](const K& a, const K& b) { return !Map::entry_policy::comp(a, b); }),
               keys.end());
  }

  // Compact the log; drop it once its distinct keys cannot fit the delta
  // budget (the next checkpoint is full either way).
  void compact_dirty_locked() PAM_REQUIRES(dirty_mu_) {
    sort_unique(dirty_.keys);
    if (dirty_.keys.size() > budget_keys_) {
      dirty_ = dirty_keys{{}, true};
      return;
    }
    compact_at_ = std::max(2 * dirty_.keys.size(), kMinCompact);
  }

  // Merge the keys of a checkpoint that failed before its commit point
  // back into the log, so the next delta still carries them.
  void restore_dirty(dirty_keys d) PAM_EXCLUDES(dirty_mu_) {
    mutex_guard g(dirty_mu_);
    if (d.overflowed) {
      dirty_ = dirty_keys{{}, true};
    } else if (!dirty_.overflowed) {
      dirty_.keys.insert(dirty_.keys.end(), d.keys.begin(), d.keys.end());
      if (dirty_.keys.size() >= compact_at_) compact_dirty_locked();
    }
    dirty_gauge_.set(static_cast<int64_t>(dirty_.keys.size()));
  }

  ckpt_result commit_locked(const snapshot_t& cut, uint64_t covered_seq,
                            dirty_keys dirty, bool force_full) PAM_REQUIRES(mu_) {
    obs::span commit_span("ckpt.commit");
    ckpt_result res;
    manifest_t m;
    try {
      if (covered_seq < cur_manifest_.covered_wal_seq) {
        // A cut older than the committed one: committing it would move
        // CURRENT backwards past a truncate that may already have unlinked
        // the WAL records bridging the gap. kv_store serializes its callers
        // (ckpt_mu_), so only a direct misuse of this API can get here.
        throw std::logic_error(
            "durability: checkpoint coverage must be monotone");
      }
      res.id = next_id_++;
      res.full = force_full || chain_len_ >= opts_.ckpt.max_chain;
      std::vector<char> delta;
      if (!res.full) {
        const double budget =
            opts_.ckpt.incr_max_ratio * static_cast<double>(last_full_bytes_);
        sort_unique(dirty.keys);
        const bool fits = !dirty.overflowed && dirty.keys.size() <= keys_within(budget);
        if (fits) delta = cio::delta_stream(cut, dirty.keys);
        if (!fits || static_cast<double>(delta.size()) > budget) {
          res.full = true;
          // A delta that outgrew its budget forced a full checkpoint.
          ckpt_escalations_.inc();
        }
      }
      std::string data_name = ckpt_file_name(res.id, res.full);
      res.bytes = write_data_file(*opts_.io, opts_.dir + "/" + data_name,
                                  res.full ? cio::full_image(cut, opts_.ckpt.page_bytes)
                                           : page_image::of(kDeltaShard, delta, opts_.ckpt.page_bytes));
      if (res.full) {
        m.files.emplace_back(uint8_t{0}, data_name);
      } else {
        m = cur_manifest_;
        m.files.emplace_back(uint8_t{1}, data_name);
      }
      m.id = res.id;
      m.covered_wal_seq = covered_seq;
      m.splitters = cut.splitter_keys();
      cio::write_manifest(*opts_.io, opts_.dir, m);
      opts_.io->sync_dir(opts_.dir);
      cio::commit_current(*opts_.io, opts_.dir, manifest_file_name(res.id));
    } catch (...) {
      restore_dirty(std::move(dirty));
      throw;
    }
    // -- commit point passed: only now may manager state change. --
    ckpt_total_.inc();
    if (res.full) {
      ckpt_full_.inc();
    } else {
      ckpt_delta_.inc();
    }
    ckpt_bytes_.inc(res.bytes);
    cur_manifest_ = std::move(m);
    if (res.full) {
      last_full_bytes_ = res.bytes;
      chain_len_ = 0;
      mutex_guard g(dirty_mu_);
      budget_keys_ = keys_within(opts_.ckpt.incr_max_ratio * static_cast<double>(res.bytes));
      compact_at_ = std::min(compact_at_, std::max(2 * budget_keys_, kMinCompact));
    } else {
      chain_len_++;
    }
    wal_->truncate_through(covered_seq);
    gc_locked();
    return res;
  }

  // Sweep checkpoint/manifest files not referenced by the live chain —
  // superseded checkpoints and partial files from crashed attempts.
  void gc_locked() PAM_REQUIRES(mu_) {
    std::set<std::string> live;
    live.insert(manifest_file_name(cur_manifest_.id));
    for (const auto& [kind, name] : cur_manifest_.files) {
      (void)kind;
      live.insert(name);
    }
    for (const std::string& name : opts_.io->list(opts_.dir)) {
      bool sweepable = name.rfind("ckpt-", 0) == 0 ||
                       name.rfind("manifest-", 0) == 0;
      if (sweepable && live.count(name) == 0) {
        opts_.io->remove(opts_.dir + "/" + name);
      }
    }
  }

  durability_options opts_;
  std::unique_ptr<wal_writer> wal_;

  mutable mutex mu_;
  manifest_t cur_manifest_ PAM_GUARDED_BY(mu_);
  uint64_t next_id_ PAM_GUARDED_BY(mu_) = 1;
  uint64_t last_full_bytes_ PAM_GUARDED_BY(mu_) = 0;
  long chain_len_ PAM_GUARDED_BY(mu_) = 0;

  // The dirty-key log. Lock order: mu_ before dirty_mu_.
  static constexpr size_t kMinCompact = 4096;
  mutable mutex dirty_mu_;
  dirty_keys dirty_ PAM_GUARDED_BY(dirty_mu_);
  size_t compact_at_ PAM_GUARDED_BY(dirty_mu_) = kMinCompact;
  // Distinct keys that can fit the delta budget of the last full checkpoint.
  size_t budget_keys_ PAM_GUARDED_BY(dirty_mu_) = 0;

  // Registry-backed checkpoint instrumentation (PR 9); per-instance,
  // summed at scrape across managers.
  obs::counter ckpt_total_{"pam_ckpt_total"};
  obs::counter ckpt_full_{"pam_ckpt_full_total"};
  obs::counter ckpt_delta_{"pam_ckpt_delta_total"};
  obs::counter ckpt_bytes_{"pam_ckpt_bytes_total"};
  obs::counter ckpt_escalations_{"pam_ckpt_escalations_total"};
  obs::gauge dirty_gauge_{"pam_ckpt_dirty_keys"};
};

}  // namespace pam::store
