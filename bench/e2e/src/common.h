// Shared pieces of the end-to-end benchmark: options, latency histograms,
// the key permutation every workload draws keys from, bench-side trace
// spans, registry deltas, and the result record main() prints as JSON.
//
// Everything here sits outside the library: the workloads only call the
// public API (kv_store, aug_map, sharded snapshots, memory()/trim_memory())
// and read the obs registry the way a dashboard would.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/random.h"

namespace e2e {

// Same time base as obs::now_ns (steady_clock since its epoch), so bench
// spans and the program's own spans line up on one axis. Defined here
// rather than borrowed so timing survives a PAM_METRICS=0 build.
inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds_between(uint64_t t0, uint64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

struct options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;  // one measured window
  double warmup = 3;
  bool trace = false;   // add a traced window after the untraced one
  bool smoke = false;   // tiny inputs: exercises every path and check
  std::string scratch;  // WAL/checkpoint directories and trace output
};

// ------------------------------------------------------------ histograms --

// Log-linear latency histogram in nanoseconds: exact below 128 ns, then 128
// sub-buckets per power of two (< 0.8% bucket width). Quantiles interpolate
// inside the winning bucket. One per recording thread, merged afterwards.
class latency_hist {
 public:
  latency_hist() : counts_(kBuckets, 0) {}

  void add(uint64_t v) {
    counts_[bucket_of(v)]++;
    n_++;
  }

  void merge(const latency_hist& o) {
    for (size_t b = 0; b < kBuckets; b++) counts_[b] += o.counts_[b];
    n_ += o.n_;
  }

  uint64_t count() const { return n_; }

  // q in [0, 1]; 0 when empty.
  double quantile(double q) const {
    if (n_ == 0) return 0;
    double rank = q * static_cast<double>(n_ - 1);
    uint64_t seen = 0;
    for (size_t b = 0; b < kBuckets; b++) {
      if (counts_[b] == 0) continue;
      if (static_cast<double>(seen + counts_[b]) > rank) {
        auto [lo, hi] = bounds(b);
        double within = (rank - static_cast<double>(seen) + 0.5) /
                        static_cast<double>(counts_[b]);
        return lo + std::min(within, 1.0) * (hi - lo);
      }
      seen += counts_[b];
    }
    return bounds(kBuckets - 1).second;
  }

 private:
  static constexpr int kSubBits = 7;
  static constexpr size_t kSub = size_t{1} << kSubBits;
  static constexpr size_t kBuckets = 64 * kSub;

  static size_t bucket_of(uint64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    int o = 63 - std::countl_zero(v);
    size_t sub = static_cast<size_t>(v >> (o - kSubBits)) & (kSub - 1);
    return static_cast<size_t>(o - kSubBits + 1) * kSub + sub;
  }

  static std::pair<double, double> bounds(size_t b) {
    if (b < kSub) return {static_cast<double>(b), static_cast<double>(b + 1)};
    int o = static_cast<int>(b / kSub) - 1 + kSubBits;
    double width = std::ldexp(1.0, o - kSubBits);
    double lo = std::ldexp(1.0, o) + static_cast<double>(b % kSub) * width;
    return {lo, lo + width};
  }

  std::vector<uint64_t> counts_;
  uint64_t n_ = 0;
};

// ------------------------------------------------------------------ keys --

// A keyed bijection on [0, n): a 4-round balanced Feistel network over the
// smallest even-width power of two >= n, cycle-walked back into range. Rank
// r of a workload maps to key perm(r), so "hashed ranks" stay distinct and a
// zipf-hot rank lands anywhere in the key space (and on any shard).
class permutation {
 public:
  permutation(uint64_t n, uint64_t key) : n_(n), key_(key) {
    int bits = 2;
    while (bits < 62 && (uint64_t{1} << bits) < n) bits += 2;
    half_ = bits / 2;
    mask_ = (uint64_t{1} << half_) - 1;
  }

  uint64_t operator()(uint64_t x) const {
    do {
      x = feistel(x);
    } while (x >= n_);
    return x;
  }

 private:
  uint64_t feistel(uint64_t x) const {
    uint64_t l = x >> half_;
    uint64_t r = x & mask_;
    for (uint64_t i = 0; i < 4; i++) {
      uint64_t t = l ^ (pam::hash64(r ^ pam::hash64(key_ + i)) & mask_);
      l = r;
      r = t;
    }
    return (l << half_) | r;
  }

  uint64_t n_;
  uint64_t key_;
  int half_ = 1;
  uint64_t mask_ = 1;
};

// The preload value of a key: small, so value bytes stay representative of
// a counter-like column, and a pure function of (seed, key).
inline uint64_t initial_value(uint64_t seed, uint64_t key) {
  return 1 + pam::hash64(key ^ pam::hash64(seed + 0x51u)) % 1000;
}

// A client write's value: unique per (client, lap, stream position), so a
// replayed stream position in a later lap is a real update, and the final
// contents can be predicted from the prefix each client completed.
inline uint64_t write_value(int client, uint64_t lap, uint64_t pos) {
  return ((lap + 1) << 32) | (pos << 2) | static_cast<uint64_t>(client);
}

// Which lap last executed stream position `pos` of a client that completed
// `done` ops of a cyclic stream of length `len`; -1 if never executed.
inline int64_t last_lap(uint64_t done, uint64_t len, uint64_t pos) {
  uint64_t full = done / len;
  if (pos < done % len) return static_cast<int64_t>(full);
  return static_cast<int64_t>(full) - 1;
}

// ------------------------------------------------------------ phases --

// Client threads loop until `stopped`, recording only inside the two
// measured windows: window 0 is untraced (the end-to-end numbers), window 1
// exists only in a traced run and is the per-layer window.
enum phase : int { warm = 0, window0 = 1, window1 = 2, stopped = 3 };

inline bool measuring(int ph) { return ph == window0 || ph == window1; }

// ----------------------------------------------------------- bench spans --

struct span_rec {
  const char* name;
  uint64_t id;
  uint64_t parent;
  uint64_t t0;
  uint64_t t1;
};

// One bench thread's span buffer. Spans stay in memory until the run ends.
struct thread_spans {
  uint32_t index = 0;
  uint64_t next_id = 1;
  std::vector<span_rec> spans;

  uint64_t fresh_id() { return (uint64_t{index} << 40) | next_id++; }
};

// Registry of bench threads that record spans. Each attached thread also
// plants a zero-length marker span in its obs trace ring whose start time
// is its bench index + 1; the trace post-processor uses the marker to put
// bench spans on the same thread row as the library spans recorded by that
// thread (self time = span minus covered children on the same thread).
class tracer {
 public:
  static tracer& get() {
    static tracer t;
    return t;
  }

  thread_spans* attach() {
    std::lock_guard<std::mutex> lock(mu_);
    auto ts = std::make_unique<thread_spans>();
    ts->index = static_cast<uint32_t>(threads_.size());
    pam::obs::record_span("bench.thread", uint64_t{ts->index} + 1, 0);
    threads_.push_back(std::move(ts));
    return threads_.back().get();
  }

  // Tab-separated: name, id, parent, bench thread, start ns, end ns.
  void write(const std::string& path) {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    for (const auto& ts : threads_) {
      for (const span_rec& s : ts->spans) {
        std::fprintf(f, "%s\t%llu\t%llu\t%u\t%llu\t%llu\n", s.name,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent), ts->index,
                     static_cast<unsigned long long>(s.t0),
                     static_cast<unsigned long long>(s.t1));
      }
    }
    std::fclose(f);
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<thread_spans>> threads_;
};

// RAII bench span; a no-op when `ts` is null (untraced or not sampled).
class scoped_span {
 public:
  scoped_span(thread_spans* ts, const char* name, uint64_t parent = 0)
      : ts_(ts), name_(name), parent_(parent),
        id_(ts != nullptr ? ts->fresh_id() : 0),
        t0_(ts != nullptr ? now_ns() : 0) {}
  ~scoped_span() {
    if (ts_ != nullptr) ts_->spans.push_back({name_, id_, parent_, t0_, now_ns()});
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

  uint64_t id() const { return id_; }

 private:
  thread_spans* ts_;
  const char* name_;
  uint64_t parent_;
  uint64_t id_;
  uint64_t t0_;
};

// --------------------------------------------------------------- registry --

// Lookups into one registry scrape; absent series read as zero.
struct scrape {
  pam::obs::registry_snapshot s;

  uint64_t counter(const std::string& name) const {
    for (const auto& c : s.counters)
      if (c.name == name && c.label.empty()) return c.value;
    return 0;
  }
  int64_t gauge(const std::string& name) const {
    for (const auto& g : s.gauges)
      if (g.name == name && g.label.empty()) return g.value;
    return 0;
  }
  pam::obs::histogram_value histogram(const std::string& name) const {
    for (const auto& h : s.histograms)
      if (h.name == name && h.label.empty()) return h;
    return {};
  }
};

// Growth of a registry counter between two scrapes.
inline double delta(const scrape& before, const scrape& after,
                    const std::string& name) {
  return static_cast<double>(after.counter(name) - before.counter(name));
}

inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------- result --

struct metric {
  double value = 0;
  uint64_t samples = 0;  // ops behind a percentile or median; 0 = n/a
};

struct result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;  // ops that threw
  std::vector<std::string> errors;
  std::map<std::string, metric> e2e;    // the BENCHMARK.json end_to_end set
  std::map<std::string, metric> extra;  // workload-specific, reported only
  std::map<std::string, metric> layer;  // per-layer, from the layer window
  uint64_t layer_t0 = 0;                // layer window, steady ns
  uint64_t layer_t1 = 0;
  std::map<std::string, double> info;   // sizes and knobs, for provenance

  void fail(const std::string& why) {
    correct = false;
    if (errors.size() < 32) errors.push_back(why);
  }
  void check(bool ok, const std::string& why) {
    if (!ok) fail(why);
  }
};

// Percentile metrics: value in microseconds, with the sample count.
inline metric p_us(const latency_hist& h, double q) {
  return {h.quantile(q) * 1e-3, h.count()};
}

// Throughput and latency of the untraced window. They are reported, not
// gated: on a shared host they drift with the host's speed by more than any
// bound BENCHMARK.json may set (bench/e2e/README.md).
inline void speed_metrics(result& res, double ops_per_s, uint64_t ops,
                          const latency_hist& reads, const latency_hist& writes) {
  res.extra["throughput_ops_s"] = {ops_per_s, ops};
  res.extra["read_p50_us"] = p_us(reads, 0.50);
  res.extra["read_p95_us"] = p_us(reads, 0.95);
  res.extra["read_p99_us"] = p_us(reads, 0.99);
  res.extra["write_p50_us"] = p_us(writes, 0.50);
  res.extra["write_p95_us"] = p_us(writes, 0.95);
  res.extra["write_p99_us"] = p_us(writes, 0.99);
}

// Layer metrics every workload reads from the registry and the pools. The
// counters are deltas over the layer window, `seconds` long.
inline void shared_layer_metrics(result& res, const scrape& before,
                                 const scrape& after, double seconds,
                                 size_t reserved_bytes, size_t limbo_retired) {
  auto d = [&](const char* name) { return delta(before, after, name); };
  auto& L = res.layer;
  L["alloc.reserved_bytes"] = {static_cast<double>(reserved_bytes), 0};
  L["alloc.limbo_retired"] = {static_cast<double>(limbo_retired), 0};
  L["alloc.epoch_advances_per_s"] = {d("pam_epoch_advances_total") / seconds, 0};
  L["parallel.steal_ratio"] = {
      ratio(d("pam_sched_steals_total"), d("pam_sched_forks_total")), 0};
  L["sharded_map.cut_retry_ratio"] = {
      ratio(d("pam_cut_retries_total"), d("pam_cut_attempts_total")), 0};
  L["sharded_map.cut_fallback_ratio"] = {
      ratio(d("pam_cut_writer_fallbacks_total"), d("pam_cut_attempts_total")),
      0};
}

// The windows of a client-driven workload, run from the main thread while
// the clients loop on `ph`: warm-up, the untraced window 0, then in a traced
// run the traced window 1. `scrape_now` is taken around the layer window:
// window 1 when tracing, else window 0.
struct windows {
  uint64_t t0 = 0, t1 = 0;    // window 0
  uint64_t lt0 = 0, lt1 = 0;  // the layer window
  scrape before, after;
};

template <typename ScrapeNow>
windows run_windows(const options& opt, std::atomic<int>& ph,
                    const ScrapeNow& scrape_now) {
  auto sleep_s = [](double s) {
    std::this_thread::sleep_for(std::chrono::duration<double>(s));
  };
  windows w;
  sleep_s(opt.warmup);
  if (!opt.trace) w.before.s = scrape_now();
  w.t0 = now_ns();
  ph.store(window0, std::memory_order_release);
  sleep_s(opt.seconds);
  w.t1 = now_ns();
  w.lt0 = w.t0;
  w.lt1 = w.t1;
  if (opt.trace) {
    pam::obs::set_trace_enabled(true);
    w.before.s = scrape_now();
    w.lt0 = now_ns();
    ph.store(window1, std::memory_order_release);
    sleep_s(opt.seconds);
    w.lt1 = now_ns();
  }
  ph.store(stopped, std::memory_order_release);
  w.after.s = scrape_now();
  return w;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// Set up `reps` times, tearing down all but the last, and report the median
// set-up time: one cold set-up is too noisy to gate on. `prepare` copies the
// inputs outside the clock, so only the library's build is timed, as if a
// user handed over vectors they own; `build` consumes them and returns an
// owning handle; `teardown` runs between repetitions.
template <typename Prepare, typename Build, typename Teardown>
auto timed_setup(int reps, double* median_s, const Prepare& prepare,
                 const Build& build, const Teardown& teardown) {
  std::vector<double> ts;
  for (int i = 0;; i++) {
    auto input = prepare();
    uint64_t t0 = now_ns();
    auto h = build(std::move(input));
    ts.push_back(seconds_between(t0, now_ns()));
    if (i + 1 == reps) {
      *median_s = median(ts);
      return h;
    }
    h.reset();
    teardown();
  }
}

// Workload entry points (one translation unit each).
result run_ycsb_a(const options& opt);
result run_ycsb_b(const options& opt);
result run_scan_sum(const options& opt);
result run_bulk_kernel(const options& opt);

}  // namespace e2e
