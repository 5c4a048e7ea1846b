// Write-ahead log: checksummed, length-prefixed records in rotating
// segments, with group fsync and truncation once a checkpoint covers them.
//
// Record framing (native byte order — see the wire note in pam/serialize.h;
// WAL files are not portable across hosts of different endianness):
//
//   [ u32 magic | u64 seq | u32 len | u32 crc | payload(len) ]
//
// `crc` is CRC32C over (seq, len, payload), so a record is valid only if
// its header and payload both survived. Sequence numbers are global and
// dense (1, 2, 3, ...); a valid record whose seq breaks the expected chain
// is treated as corruption. Segments are named wal-<hex first seq>.log and
// rotate once the active one exceeds segment_bytes; truncate_through()
// unlinks whole segments proven covered by a committed checkpoint.
//
// Replay scans segments in seq order and stops at the first record that
// fails any check — short header, bad magic, bad length, bad CRC, broken
// chain. Under the append-only crash model every torn/short tail is one of
// those, so recovery "tolerates torn trailing records by truncating at the
// first bad checksum" (wal_replay with repair=true also physically
// truncates the tail and removes any later segments).
//
// Crash semantics of the writer: the first exception out of the I/O layer
// (store::crash_error from a failpoint, io_error from the real fs) marks
// the writer dead and rethrows; every later append/sync is a silent no-op
// that reports "not logged". A dead WAL models the process after its death
// — nothing it "writes" was ever acked, so dropping the bytes is exactly
// what recovery expects (and it keeps destructor-path flushes from
// throwing). kv_store surfaces the state via failed().
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "pam/pam.h"
#include "store/crc32c.h"
#include "store/file.h"
#include "util/env.h"
#include "util/thread_annotations.h"

namespace pam::store {

// ------------------------------------------------------------ env config --

// Both knobs ride the validated env parsers (util/env.h): trailing garbage
// and out-of-range values fall back to the default, then clamp.
struct wal_config {
  // Rotate the active segment past this many bytes (PAM_WAL_SEGMENT_BYTES,
  // clamped to >= 64 KiB so rotation stays off the hot path).
  size_t segment_bytes = size_t{4} << 20;
  // Group fsync: sync once N records are appended since the last sync
  // (PAM_WAL_SYNC_EVERY, >= 1), checked once per append call, so once per
  // write round. Callers needing a hard ack call sync() themselves; 1 means
  // every round is durable before its append returns.
  long sync_every = 1;

  static wal_config from_env() {
    wal_config c;
    long seg = env_long("PAM_WAL_SEGMENT_BYTES",
                        static_cast<long>(c.segment_bytes));
    if (seg < 64 * 1024) seg = 64 * 1024;
    c.segment_bytes = static_cast<size_t>(seg);
    long n = env_long("PAM_WAL_SYNC_EVERY", c.sync_every);
    if (n < 1) n = 1;
    c.sync_every = n;
    return c;
  }
};

// ----------------------------------------------------------- wal framing --

inline constexpr uint32_t kWalMagic = 0x4C415750;  // "PWAL"
inline constexpr size_t kWalHeaderBytes = 4 + 8 + 4 + 4;
inline constexpr size_t kWalMaxRecord = size_t{64} << 20;

inline std::string wal_segment_name(uint64_t start_seq) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "wal-%016llx.log",
                static_cast<unsigned long long>(start_seq));
  return buf;
}

// Parses "wal-<16 hex>.log"; returns false for anything else.
inline bool parse_wal_segment_name(const std::string& name, uint64_t* seq) {
  if (name.size() != 24 || name.rfind("wal-", 0) != 0 ||
      name.compare(20, 4, ".log") != 0) {
    return false;
  }
  uint64_t v = 0;
  for (size_t i = 4; i < 20; i++) {
    char ch = name[i];
    uint64_t d;
    if (ch >= '0' && ch <= '9') {
      d = static_cast<uint64_t>(ch - '0');
    } else if (ch >= 'a' && ch <= 'f') {
      d = static_cast<uint64_t>(ch - 'a') + 10;
    } else {
      return false;
    }
    v = (v << 4) | d;
  }
  *seq = v;
  return true;
}

// Sorted (by first seq) wal segments present in dir.
inline std::vector<std::pair<uint64_t, std::string>> wal_segments(
    file_system& fs, const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> out;
  for (const std::string& name : fs.list(dir)) {
    uint64_t s;
    if (parse_wal_segment_name(name, &s)) out.emplace_back(s, name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// -------------------------------------------------------------- wal_writer --

class wal_writer {
 public:
  // Opens for appending at `next_seq`: resumes the newest existing segment
  // in `dir` if there is one (recovery repaired its tail first), otherwise
  // starts a fresh segment named after next_seq.
  wal_writer(std::shared_ptr<file_system> fs, std::string dir, wal_config cfg,
             uint64_t next_seq)
      : fs_(std::move(fs)), dir_(std::move(dir)), cfg_(cfg) {
    unique_guard lock(mu_);
    next_seq_ = next_seq;
    auto segs = wal_segments(*fs_, dir_);
    if (!segs.empty()) {
      seg_start_ = segs.back().first;
      seg_ = fs_->open_append(dir_ + "/" + segs.back().second);
      seg_written_ = seg_->size();
    } else {
      open_fresh_segment_locked();
    }
  }

  wal_writer(const wal_writer&) = delete;
  wal_writer& operator=(const wal_writer&) = delete;

  // Append one record per payload (anything with data() and size()) under
  // one lock hold, then check the sync cadence once. Returns the last
  // record's seq, or 0 when the writer is dead (nothing was logged — the
  // caller's batches are unacked by definition).
  template <typename Payloads>
  uint64_t append(const Payloads& payloads) PAM_EXCLUDES(mu_) {
    unique_guard lock(mu_);
    if (dead_) return 0;
    uint64_t seq = 0;
    for (const auto& p : payloads) seq = append_locked(p.data(), p.size());
    if (appends_since_sync_ >= cfg_.sync_every) sync_locked();
    return seq;
  }
  uint64_t append(const void* payload, size_t n) PAM_EXCLUDES(mu_) {
    const std::string_view one[] = {{static_cast<const char*>(payload), n}};
    return append(one);
  }

  // Durability barrier: every appended record is on the medium when this
  // returns (no-op once dead; the caller sees durable_seq() unchanged).
  void sync() PAM_EXCLUDES(mu_) {
    unique_guard lock(mu_);
    if (dead_) return;
    sync_locked();
  }

  // The segment-handle protocol, exposed for the durability manager (and
  // pinned by tests/compile_fail/wal_append_unlocked.cpp): seg_ is only
  // valid under mu_ — rotation closes and replaces the handle, so an
  // unlocked append could write into a closed segment file. Clang's
  // thread-safety analysis rejects any call made without the lock.
  uint64_t append_locked(const void* payload, size_t n) PAM_REQUIRES(mu_) {
    obs::span append_span("wal.append");
    obs::scoped_timer append_timer(append_ns_);
    try {
      if (seg_written_ >= cfg_.segment_bytes) rotate_locked();
      std::vector<char> rec;
      rec.reserve(kWalHeaderBytes + n);
      wire::put_u32(rec, kWalMagic);
      uint64_t seq = next_seq_;
      wire::put_u64(rec, seq);
      wire::put_u32(rec, static_cast<uint32_t>(n));
      uint32_t crc = crc32c(&seq, sizeof(seq));
      uint32_t len32 = static_cast<uint32_t>(n);
      crc = crc32c(&len32, sizeof(len32), crc);
      crc = crc32c(payload, n, crc);
      wire::put_u32(rec, crc);
      wire::put_bytes(rec, payload, n);
      seg_->append(rec.data(), rec.size());
      seg_written_ += rec.size();
      next_seq_ = seq + 1;
      last_seq_.store(seq, std::memory_order_release);
      records_total_.inc();
      bytes_total_.inc(rec.size());
      ++appends_since_sync_;
      return seq;
    } catch (...) {
      dead_ = true;
      throw;
    }
  }

  void sync_locked() PAM_REQUIRES(mu_) {
    try {
      if (appends_since_sync_ == 0 &&
          durable_seq_.load(std::memory_order_relaxed) ==
              last_seq_.load(std::memory_order_relaxed)) {
        return;
      }
      obs::span sync_span("wal.sync");
      obs::scoped_timer fsync_timer(fsync_ns_);
      // Group-commit fan-in: how many appends this one fsync makes durable.
      group_commit_ops_.record(
          static_cast<uint64_t>(appends_since_sync_ > 0 ? appends_since_sync_
                                                        : 0));
      seg_->sync();
      appends_since_sync_ = 0;
      durable_seq_.store(last_seq_.load(std::memory_order_relaxed),
                         std::memory_order_release);
    } catch (...) {
      dead_ = true;
      throw;
    }
  }

  // Unlink every segment all of whose records have seq <= `seq` (they are
  // covered by a committed checkpoint). The active segment always stays.
  void truncate_through(uint64_t seq) PAM_EXCLUDES(mu_) {
    unique_guard lock(mu_);
    if (dead_) return;
    auto segs = wal_segments(*fs_, dir_);
    for (size_t i = 0; i + 1 < segs.size(); i++) {
      // Segment i spans [segs[i].first, segs[i+1].first).
      if (segs[i + 1].first <= seq + 1 && segs[i].first != seg_start_) {
        fs_->remove(dir_ + "/" + segs[i].second);
      }
    }
    fs_->sync_dir(dir_);
  }

  // Highest seq appended / proven durable. 0 = none.
  uint64_t last_seq() const {
    return last_seq_.load(std::memory_order_acquire);
  }
  uint64_t durable_seq() const {
    return durable_seq_.load(std::memory_order_acquire);
  }

  // True after the first I/O failure: the log is frozen, appends no-op.
  bool dead() const PAM_EXCLUDES(mu_) {
    unique_guard lock(mu_);
    return dead_;
  }

 private:
  void open_fresh_segment_locked() PAM_REQUIRES(mu_) {
    seg_start_ = next_seq_;
    seg_ = fs_->create(dir_ + "/" + wal_segment_name(next_seq_));
    seg_written_ = 0;
    fs_->sync_dir(dir_);
  }

  void rotate_locked() PAM_REQUIRES(mu_) {
    sync_locked();
    seg_.reset();
    open_fresh_segment_locked();
    appends_since_sync_ = 0;
    rotations_total_.inc();
  }

  std::shared_ptr<file_system> fs_;
  const std::string dir_;
  const wal_config cfg_;

  mutable mutex mu_;
  std::unique_ptr<file> seg_ PAM_GUARDED_BY(mu_);
  uint64_t seg_start_ PAM_GUARDED_BY(mu_) = 0;
  uint64_t seg_written_ PAM_GUARDED_BY(mu_) = 0;
  uint64_t next_seq_ PAM_GUARDED_BY(mu_) = 1;
  long appends_since_sync_ PAM_GUARDED_BY(mu_) = 0;
  bool dead_ PAM_GUARDED_BY(mu_) = false;

  std::atomic<uint64_t> last_seq_{0};
  std::atomic<uint64_t> durable_seq_{0};

  // Registry-backed instrumentation (PR 9); per-instance members, summed at
  // scrape across writers. Recording happens under mu_, so the histograms'
  // striping is idle here — what matters is that scrapes never take mu_.
  obs::histogram append_ns_{"pam_wal_append_ns"};
  obs::histogram fsync_ns_{"pam_wal_fsync_ns"};
  obs::histogram group_commit_ops_{"pam_wal_group_commit_ops"};
  obs::counter records_total_{"pam_wal_records_total"};
  obs::counter bytes_total_{"pam_wal_bytes_total"};
  obs::counter rotations_total_{"pam_wal_rotations_total"};
};

// ------------------------------------------------------------ wal replay --

struct wal_replay_stats {
  uint64_t next_seq = 1;        // seq the writer should assign next
  uint64_t records = 0;         // valid records delivered
  bool tail_truncated = false;  // a torn/short/corrupt tail was cut
};

// Scan every record after `after_seq` in seq order, calling
// fn(seq, payload, len) for each. Stops at the first invalid record; with
// repair=true the bad tail is physically truncated and any later segments
// are unlinked, leaving the directory ready for a resuming wal_writer.
// Records with seq <= after_seq are validated and skipped (a checkpoint
// may cover a prefix of a segment that cannot be unlinked whole).
//
// Contiguity holds across segment boundaries too: a segment whose first
// seq jumps past the next seq recovery still needs (a lost or manually
// deleted middle segment) is corruption, not splice material — replay
// stops there exactly like a bad record. A boundary gap lying entirely
// within the covered prefix (every missing seq <= after_seq) is tolerated,
// since nothing the checkpoint chain needs is absent.
template <typename Fn>
wal_replay_stats wal_replay(file_system& fs, const std::string& dir,
                            uint64_t after_seq, Fn&& fn, bool repair) {
  wal_replay_stats st;
  auto segs = wal_segments(fs, dir);
  // The next seq replay must deliver: starts right past the covered
  // prefix, advances only on delivery. Any segment starting beyond it has
  // a hole in needed history in front of it.
  uint64_t next_needed = after_seq + 1;
  bool stopped = false;
  for (size_t si = 0; si < segs.size(); si++) {
    const std::string path = dir + "/" + segs[si].second;
    if (!stopped && segs[si].first > next_needed) {
      st.tail_truncated = true;  // broken seq chain at a segment boundary
      stopped = true;
    }
    if (stopped) {
      if (repair) fs.remove(path);
      continue;
    }
    uint64_t expect = segs[si].first;
    std::unique_ptr<file> f = fs.open_read(path);
    uint64_t fsize = f->size();
    std::vector<char> buf(fsize);
    if (fsize > 0 && f->read_at(0, buf.data(), buf.size()) != fsize) {
      throw io_error("wal segment shrank mid-read: " + path);
    }
    size_t off = 0;
    size_t good = 0;
    while (off + kWalHeaderBytes <= fsize) {
      wire::reader r(buf.data() + off, fsize - off);
      uint32_t magic = r.u32();
      uint64_t seq = r.u64();
      uint32_t len = r.u32();
      uint32_t crc = r.u32();
      if (magic != kWalMagic || len > kWalMaxRecord ||
          r.remaining() < len || seq != expect) {
        break;
      }
      const char* payload = r.skip(len);
      uint32_t actual = crc32c(&seq, sizeof(seq));
      actual = crc32c(&len, sizeof(len), actual);
      actual = crc32c(payload, len, actual);
      if (actual != crc) break;
      // The in-segment chain starts at first <= next_needed and steps by
      // one, so seq can never jump past next_needed — records below it are
      // covered (or already delivered by an earlier segment) and skipped.
      if (seq >= next_needed) {
        fn(seq, payload, size_t{len});
        st.records++;
        next_needed = seq + 1;
      }
      off += kWalHeaderBytes + len;
      good = off;
      expect = seq + 1;
    }
    if (good < fsize) {
      st.tail_truncated = true;
      stopped = true;  // everything after the first bad record is dropped
      if (repair) {
        f.reset();
        std::unique_ptr<file> w = fs.open_append(path);
        w->truncate(good);
        w->sync();
      }
    }
  }
  st.next_seq = next_needed;
  if (repair && !segs.empty()) fs.sync_dir(dir);
  return st;
}

}  // namespace pam::store
