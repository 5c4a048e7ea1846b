// Environment-variable knobs shared by tests and benchmarks.
//
//   PAM_NUM_WORKERS  number of scheduler workers (default: all hardware threads)
//   PAM_BENCH_SCALE  multiplies every default benchmark size (default 1.0);
//                    the paper's 10^8..10^10-scale experiments are scaled to
//                    laptop sizes by default and can be grown back with this.
//
// Every PAM_* knob in the tree is listed in env_knobs() below — the central
// catalogue benches dump for config provenance (a BENCH_*.json row is
// meaningless without the knob values that produced it). Adding a knob
// anywhere in the tree means adding its row here: pam_lint's env-catalogue
// rule greps every source for PAM_* reads and fails on any knob missing
// from this table; test_util asserts the table's own invariants.
#pragma once

#include <array>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <string>

namespace pam {

namespace internal {
// A parse consumed the whole value iff the end pointer moved past the last
// non-whitespace character; "12abc" or "abc" must fall back rather than
// silently becoming 12 or 0.
inline bool env_fully_parsed(const char* s, const char* end) {
  if (end == s) return false;
  while (*end != '\0') {
    if (!std::isspace(static_cast<unsigned char>(*end))) return false;
    ++end;
  }
  return true;
}
}  // namespace internal

inline long env_long(const char* name, long fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  long v = std::strtol(s, &end, 10);
  if (errno == ERANGE || !internal::env_fully_parsed(s, end)) return fallback;
  return v;
}

inline double env_double(const char* name, double fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(s, &end);
  if (errno == ERANGE || !internal::env_fully_parsed(s, end)) return fallback;
  return v;
}

// Scales a paper-sized workload down to the default local size. `paper_n` is
// what the paper used; `local_n` is our default; PAM_BENCH_SCALE multiplies.
inline size_t scaled_size(size_t local_n) {
  double s = env_double("PAM_BENCH_SCALE", 1.0);
  double v = static_cast<double>(local_n) * s;
  return v < 1.0 ? 1 : static_cast<size_t>(v);
}

// ------------------------------------------------------ knob introspection --

// One row of the knob catalogue: where the knob acts and what it means. The
// default is recorded as text — knobs are parsed at their point of use with
// their own clamps, so the catalogue describes rather than duplicates them.
struct env_knob {
  const char* name;
  const char* layer;    // subsystem the knob steers
  const char* fallback; // default when unset/unparsable, as documentation
  const char* what;
};

// Every PAM_* environment knob in the tree. Kept sorted by name.
inline const std::array<env_knob, 18>& env_knobs() {
  static const std::array<env_knob, 18> knobs{{
      {"PAM_BENCH_JSON", "bench", "(unset)",
       "append one JSON line per benchmark row to this file"},
      {"PAM_BENCH_SCALE", "bench", "1.0",
       "multiply every default benchmark size"},
      {"PAM_CKPT_INCR_RATIO", "checkpoint", "0.5",
       "escalate a delta to a full checkpoint past this fraction of the "
       "last full's bytes"},
      {"PAM_CKPT_MAX_CHAIN", "checkpoint", "8",
       "max incremental checkpoints before a forced full"},
      {"PAM_CKPT_PAGE_BYTES", "checkpoint", "1048576",
       "checkpoint data file page size"},
      {"PAM_DIFF_GATE", "bench", "5.0",
       "fail bench_diff_incremental when the incremental diff is not this "
       "many times faster than a full rebuild"},
      {"PAM_DURABILITY_GATE", "bench", "0.30",
       "fail bench_durability when the 1% churn incremental checkpoint "
       "exceeds this fraction of the full checkpoint's bytes"},
      {"PAM_LEAF_BLOCK", "tree", "32",
       "base entries per leaf block; delta-coded leaves hold 4x, clamped "
       "to 2048"},
      {"PAM_METRICS_DUMP", "obs", "(unset)",
       "write the Prometheus-text metrics scrape to this file at bench exit"},
      {"PAM_NUM_WORKERS", "scheduler", "hardware threads",
       "scheduler worker count"},
      {"PAM_PERF_GATE", "bench", "0",
       "enforce the perf-smoke acceptance gates by exit code"},
      {"PAM_READ_GATE", "bench", "derated by machine size",
       "fail YCSB read scaling below this speedup"},
      {"PAM_TRACE", "obs", "0", "enable trace-span recording at startup"},
      {"PAM_TRACE_JSON", "obs", "(unset)",
       "write the Chrome-trace JSON dump to this file at bench exit"},
      {"PAM_TRACE_RING", "obs", "4096",
       "per-thread trace ring capacity in spans"},
      {"PAM_WAL_SEGMENT_BYTES", "wal", "4194304",
       "rotate the active WAL segment past this size"},
      {"PAM_WAL_SYNC_EVERY", "wal", "1", "group-fsync once every N appends"},
      {"PAM_YCSB_GATE", "bench", "5.0",
       "fail YCSB when sharded write throughput is not this many times the "
       "single-box baseline"},
  }};
  return knobs;
}

// The knob's current setting, or `fallback_text` when unset. (Unparsable
// values also fall back at the point of use; here we report what the
// environment literally says.)
inline std::string env_knob_value(const env_knob& k) {
  const char* s = std::getenv(k.name);
  return s != nullptr ? std::string(s) : std::string(k.fallback);
}

}  // namespace pam
