// Shared benchmark harness: timing, paper-style table printing, workload
// generators, and thread sweeps.
//
// Conventions (see EXPERIMENTS.md):
//  * every binary prints the machine configuration and the active scale;
//  * default sizes are laptop-scale versions of the paper's workloads and
//    keep the paper's *ratios* (e.g. m << n unions); PAM_BENCH_SCALE
//    multiplies them back up;
//  * "T1" runs the same parallel code on one worker, "Tp" on all workers,
//    matching the paper's T1 / T144 columns.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "alloc/arena.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/parallel.h"
#include "util/env.h"
#include "util/random.h"
#include "util/timer.h"

namespace pam::bench {

// Name of the running bench binary, registered by print_header so the
// table-row helpers can tag their JSON lines without threading it through.
inline std::string& current_bench() {
  static std::string name = "bench";
  return name;
}

inline void emit_env_provenance();  // defined with the JSON helpers below

inline void print_header(const char* experiment, const char* paper_ref) {
  current_bench() = experiment;
  std::printf("==================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("workers=%d  PAM_BENCH_SCALE=%.3g  (hardware threads: %u)\n",
              num_workers(), env_double("PAM_BENCH_SCALE", 1.0),
              std::thread::hardware_concurrency());
  std::printf("==================================================================\n");
  emit_env_provenance();
}

// Time one run of f (seconds). For bulk operations a single run is stable
// enough; use timed_best for microsecond-scale work.
template <typename F>
double timed(const F& f) {
  timer t;
  f();
  return t.elapsed();
}

// Best of `reps` runs.
template <typename F>
double timed_best(int reps, const F& f) {
  double best = 1e100;
  for (int i = 0; i < reps; i++) {
    double s = timed(f);
    if (s < best) best = s;
  }
  return best;
}

// `warmup` untimed runs, then the median of `reps` timed runs (seconds).
// The right tool for microsecond-scale regions, where a single-shot `timed`
// is dominated by cold caches and scheduler jitter.
template <typename F>
double timed_median(int warmup, int reps, const F& f) {
  for (int i = 0; i < warmup; i++) f();
  std::vector<double> ts(static_cast<size_t>(reps));
  for (int i = 0; i < reps; i++) ts[static_cast<size_t>(i)] = timed(f);
  std::sort(ts.begin(), ts.end());
  return ts[ts.size() / 2];
}

// Paired timing for an A/B speedup row: every rep times `a` and then `b`
// back to back, and the result is the median of the per-rep ratios
// t_a / t_b (plus each side's median time). A burst of host load then
// lands on both halves of one pair, instead of on one side of the whole
// comparison as two separate timed_median calls allow.
struct paired_times {
  double ratio = 0;  // median over reps of t_a / t_b
  double t_a = 0;    // median of a's times
  double t_b = 0;    // median of b's times
};

template <typename A, typename B>
paired_times timed_paired(int warmup, int reps, const A& a, const B& b) {
  for (int i = 0; i < warmup; i++) {
    a();
    b();
  }
  std::vector<double> ta, tb, ratios;
  for (int i = 0; i < reps; i++) {
    ta.push_back(timed(a));
    tb.push_back(timed(b));
    ratios.push_back(ta.back() / tb.back());
  }
  auto median = [](std::vector<double>& v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  return {median(ratios), median(ta), median(tb)};
}

// Distribution of per-iteration times (seconds). The perf gates keep
// asserting on `median` — the stable statistic — while p99/max surface tail
// behavior in the JSON trajectory without being load-bearing.
struct run_stats {
  double min = 0;
  double median = 0;  // p50
  double p99 = 0;
  double max = 0;
};

// Nearest-rank percentile over an already-sorted sample.
inline double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  double rank = q * static_cast<double>(sorted.size() - 1);
  size_t idx = static_cast<size_t>(rank + 0.5);
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

// timed_median's bigger sibling: same warmup/reps protocol, whole
// distribution back. run_stats.median is bit-identical to what
// timed_median(warmup, reps, f) would return for the same runs.
template <typename F>
run_stats timed_stats(int warmup, int reps, const F& f) {
  for (int i = 0; i < warmup; i++) f();
  std::vector<double> ts(static_cast<size_t>(reps));
  for (int i = 0; i < reps; i++) ts[static_cast<size_t>(i)] = timed(f);
  std::sort(ts.begin(), ts.end());
  run_stats st;
  st.min = ts.front();
  st.median = ts[ts.size() / 2];
  st.p99 = percentile_sorted(ts, 0.99);
  st.max = ts.back();
  return st;
}

// ---------------------------------------------- machine-readable results --
// PAM_BENCH_JSON=<path>: every bench binary appends one JSON line per
// reported metric, {"bench":…,"config":…,"metric":…,"value":…}, so a sweep
// accumulates into one file (the CI perf-smoke job uploads it as the perf
// trajectory artifact). Silent no-op when the variable is unset.
inline void bench_json(const char* bench, const std::string& config,
                       const char* metric, double value) {
  const char* path = std::getenv("PAM_BENCH_JSON");
  if (path == nullptr || *path == '\0') return;
  std::FILE* f = std::fopen(path, "a");
  if (f == nullptr) return;
  std::fprintf(f,
               "{\"bench\":\"%s\",\"config\":\"%s\",\"metric\":\"%s\",\"value\":%.17g}\n",
               bench, config.c_str(), metric, value);
  std::fclose(f);
}

// Config provenance: one JSON line with every PAM_* knob's effective
// setting, so a BENCH trajectory row can always be traced back to the
// config that produced it. Appended (once per process, by print_header) to
// the same PAM_BENCH_JSON stream the metric rows go to.
inline void emit_env_provenance() {
  const char* path = std::getenv("PAM_BENCH_JSON");
  if (path == nullptr || *path == '\0') return;
  std::FILE* f = std::fopen(path, "a");
  if (f == nullptr) return;
  std::fprintf(f, "{\"bench\":\"%s\",\"env\":{", current_bench().c_str());
  bool first = true;
  for (const env_knob& k : env_knobs()) {
    std::fprintf(f, "%s\"%s\":\"%s\"", first ? "" : ",", k.name,
                 env_knob_value(k).c_str());
    first = false;
  }
  std::fprintf(f, "}}\n");
  std::fclose(f);
}

// Observability artifacts at bench exit: PAM_METRICS_DUMP=<path> writes the
// Prometheus-text scrape, PAM_TRACE_JSON=<path> writes the Chrome-trace
// dump (spans exist only if PAM_TRACE=1 enabled recording). Call at the end
// of main, after the workload; silent no-ops when the variables are unset.
inline void dump_observability() {
  if (const char* p = std::getenv("PAM_METRICS_DUMP");
      p != nullptr && *p != '\0') {
    std::ofstream os(p);
    block_pool::used_bytes_all();  // refreshes pam_arena_used_bytes
    if (os) obs::prometheus_text(obs::registry::get().scrape(), os);
  }
  if (const char* p = std::getenv("PAM_TRACE_JSON");
      p != nullptr && *p != '\0') {
    std::ofstream os(p);
    if (os) obs::dump_chrome_json(os);
  }
}

// Run f on 1 worker then on all workers; returns {t1, tp}. Restores the
// worker count afterwards.
template <typename F>
std::pair<double, double> seq_vs_par(const F& f) {
  int p = num_workers();
  set_num_workers(1);
  double t1 = timed(f);
  set_num_workers(p);
  double tp = timed(f);
  return {t1, tp};
}

inline void row(const char* name, size_t n, size_t m, double t1, double tp) {
  if (tp > 0) {
    std::printf("%-28s n=%-11zu m=%-11zu T1=%9.4fs  Tp=%9.4fs  spd=%5.1f\n", name,
                n, m, t1, tp, t1 / tp);
  } else {
    std::printf("%-28s n=%-11zu m=%-11zu T1=%9.4fs  Tp=      -    spd=    -\n",
                name, n, m, t1);
  }
  std::string cfg = std::string(name) + "_n=" + std::to_string(n) + "_m=" +
                    std::to_string(m);
  bench_json(current_bench().c_str(), cfg, "t1_s", t1);
  if (tp > 0) bench_json(current_bench().c_str(), cfg, "tp_s", tp);
}

inline void row_seq(const char* name, size_t n, size_t m, double t1) {
  std::printf("%-28s n=%-11zu m=%-11zu T1=%9.4fs  (sequential baseline)\n", name,
              n, m, t1);
  bench_json(current_bench().c_str(),
             std::string(name) + "_n=" + std::to_string(n) + "_m=" + std::to_string(m),
             "t1_s", t1);
}

// Thread counts for scaling sweeps: 1, 2, 4, ... up to the hardware limit.
inline std::vector<int> sweep_threads() {
  int max = num_workers();
  std::vector<int> ps;
  for (int p = 1; p < max; p *= 2) ps.push_back(p);
  ps.push_back(max);
  return ps;
}

// ------------------------------------------------------------ workloads --

inline std::vector<std::pair<uint64_t, uint64_t>> kv_entries(size_t n, uint64_t seed,
                                                             uint64_t range = 0) {
  if (range == 0) range = ~0ull;
  std::vector<std::pair<uint64_t, uint64_t>> v(n);
  parallel_for(0, n, [&](size_t i) {
    v[i] = {hash64(seed * 0x10001 + i) % range, hash64(seed * 0x20003 + i) % 1000};
  });
  return v;
}

inline std::vector<uint64_t> keys_only(size_t n, uint64_t seed, uint64_t range = 0) {
  if (range == 0) range = ~0ull;
  std::vector<uint64_t> v(n);
  parallel_for(0, n, [&](size_t i) { v[i] = hash64(seed * 0x30005 + i) % range; });
  return v;
}

}  // namespace pam::bench
