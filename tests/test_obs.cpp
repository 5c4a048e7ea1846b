// Tests for the observability layer (src/obs/): counter/histogram stress
// with exact-sum and monotonicity asserts (run under TSan in CI), the
// histogram-quantile oracle against a sorted reference, trace-ring
// wrap-around, registry merge semantics, the expositions, and the
// kv_store::metrics() surface. The PAM_METRICS=0 compile-out checks live in
// test_obs_off.cpp, built into this binary with the switch off.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pam/pam.h"
#include "server/kv_store.h"
#include "util/random.h"

// Everything here asserts live recording, so the whole file is metrics-on
// only. Under a global -DPAM_METRICS=0 build the off-mode TU
// (test_obs_off.cpp) still runs; this one contributes nothing.
#if PAM_METRICS

namespace {

using namespace pam;

// Find one series in a scrape; nullptr when absent.
const obs::counter_value* find_counter(const obs::registry_snapshot& snap,
                                       const std::string& name) {
  for (const auto& c : snap.counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const obs::histogram_value* find_histogram(const obs::registry_snapshot& snap,
                                           const std::string& name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

// ------------------------------------------------------------- counters --

TEST(ObsCounter, ExactSumAcrossThreads) {
  obs::counter c("pam_test_exact_total");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 200000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; t++) {
    ts.emplace_back([&] {
      for (uint64_t i = 0; i < kPerThread; i++) c.inc();
    });
  }
  for (auto& t : ts) t.join();
  // Striped relaxed cells lose nothing: the sum is exact once quiescent.
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(ObsCounter, MonotoneUnderConcurrentReads) {
  obs::counter c("pam_test_monotone_total");
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) c.inc();
  });
  uint64_t prev = 0;
  for (int i = 0; i < 10000; i++) {
    uint64_t now = c.value();
    ASSERT_GE(now, prev);  // every stripe is monotone, so the sum is
    prev = now;
  }
  stop.store(true);
  writer.join();
  EXPECT_EQ(c.value(), c.value());
}

TEST(ObsCounter, WeightedIncrements) {
  obs::counter c("pam_test_weighted_total");
  c.inc(7);
  c.inc();
  c.inc(100);
  EXPECT_EQ(c.value(), 108u);
}

TEST(ObsGauge, SetAndAdd) {
  obs::gauge g("pam_test_depth");
  g.set(42);
  g.add(-40);
  EXPECT_EQ(g.value(), 2);
  g.add(-10);
  EXPECT_EQ(g.value(), -8);  // gauges may go negative mid-transition
}

// ------------------------------------------------------------ histogram --

TEST(ObsHistogram, BucketBoundsRoundTrip) {
  // Every value maps to a bucket whose [lo, hi) actually contains it.
  for (uint64_t v : {0ull, 1ull, 7ull, 8ull, 9ull, 100ull, 1023ull, 1024ull,
                     123456789ull, (1ull << 39), (1ull << 41)}) {
    size_t b = obs::histogram::bucket_of(v);
    auto [lo, hi] = obs::histogram::bucket_bounds(b);
    if (v < (1ull << obs::histogram::kMaxOctave)) {
      EXPECT_LE(lo, v) << "v=" << v;
      EXPECT_GT(hi, v) << "v=" << v;
    } else {
      EXPECT_EQ(b, obs::histogram::kBuckets - 1);  // overflow bucket
    }
  }
  // Bucket index is monotone in the value.
  size_t prev = 0;
  for (uint64_t v = 0; v < 100000; v += 13) {
    size_t b = obs::histogram::bucket_of(v);
    EXPECT_GE(b, prev);
    prev = b;
  }
}

TEST(ObsHistogram, ExactSumAndCountAcrossThreads) {
  obs::histogram h("pam_test_sum_ns");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> ts;
  std::atomic<uint64_t> expect_sum{0};
  for (int t = 0; t < kThreads; t++) {
    ts.emplace_back([&, t] {
      random_gen g(static_cast<uint64_t>(t) + 1);
      uint64_t local = 0;
      for (int i = 0; i < kPerThread; i++) {
        uint64_t v = g.next() % 1000000;
        h.record(v);
        local += v;
      }
      expect_sum.fetch_add(local);
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(h.count(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(h.sum(), expect_sum.load());
}

TEST(ObsHistogram, QuantileOracle) {
  // Log-bucket quantiles vs the sorted reference: relative error is bounded
  // by the sub-bucket width (1/8 = 12.5%), tested across three shapes.
  auto check = [](std::vector<uint64_t> values) {
    obs::histogram h("pam_test_oracle_ns");
    for (uint64_t v : values) h.record(v);
    std::sort(values.begin(), values.end());
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
      size_t rank = static_cast<size_t>(q * double(values.size() - 1));
      double exact = double(values[rank]);
      double est = h.quantile(q);
      if (exact < 8) {
        EXPECT_LE(std::abs(est - exact), 1.0) << "q=" << q;
      } else {
        EXPECT_LE(std::abs(est - exact) / exact, 0.13)
            << "q=" << q << " exact=" << exact << " est=" << est;
      }
    }
  };
  // Uniform.
  {
    random_gen g(7);
    std::vector<uint64_t> v(50000);
    for (auto& x : v) x = g.next() % 2000000;
    check(std::move(v));
  }
  // Heavy-tailed (squared uniform).
  {
    random_gen g(8);
    std::vector<uint64_t> v(50000);
    for (auto& x : v) {
      uint64_t u = g.next() % 65536;
      x = u * u;
    }
    check(std::move(v));
  }
  // Bimodal: fast path ~1us, slow path ~1ms.
  {
    random_gen g(9);
    std::vector<uint64_t> v(50000);
    for (auto& x : v) {
      x = (g.next() % 100 < 90) ? 1000 + g.next() % 100
                                : 1000000 + g.next() % 10000;
    }
    check(std::move(v));
  }
}

TEST(ObsHistogram, EmptyQuantileIsZero) {
  obs::histogram h("pam_test_empty_ns");
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.count(), 0u);
}

// ------------------------------------------------------------- registry --

TEST(ObsRegistry, MergesInstancesByNameAndLabel) {
  obs::counter a("pam_test_merge_total");
  obs::counter b("pam_test_merge_total");
  obs::counter other("pam_test_merge_total", "shard=\"1\"");
  a.inc(10);
  b.inc(5);
  other.inc(3);
  auto snap = obs::registry::get().scrape();
  uint64_t unlabeled = 0, labeled = 0;
  for (const auto& c : snap.counters) {
    if (c.name != "pam_test_merge_total") continue;
    if (c.label.empty()) unlabeled = c.value;
    else labeled = c.value;
  }
  EXPECT_EQ(unlabeled, 15u);  // two instances, one series
  EXPECT_EQ(labeled, 3u);     // the label splits the series
}

TEST(ObsRegistry, UnregistersOnDestruction) {
  {
    obs::counter c("pam_test_transient_total");
    c.inc();
    EXPECT_NE(find_counter(obs::registry::get().scrape(),
                           "pam_test_transient_total"),
              nullptr);
  }
  EXPECT_EQ(find_counter(obs::registry::get().scrape(),
                         "pam_test_transient_total"),
            nullptr);
}

TEST(ObsRegistry, ScrapeWhileRecording) {
  // Scrapes race recording threads freely; under TSan this is the
  // wait-free-hot-path claim in executable form.
  obs::counter c("pam_test_race_total");
  obs::histogram h("pam_test_race_ns");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; t++) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        c.inc();
        h.record(1234);
      }
    });
  }
  for (int i = 0; i < 200; i++) {
    auto snap = obs::registry::get().scrape();
    EXPECT_NE(find_counter(snap, "pam_test_race_total"), nullptr);
    EXPECT_NE(find_histogram(snap, "pam_test_race_ns"), nullptr);
  }
  stop.store(true);
  for (auto& t : writers) t.join();
}

// ---------------------------------------------------------------- trace --

TEST(ObsTrace, SpanRoundTripAndWrapAround) {
  obs::set_trace_enabled(true);
  uint64_t before = obs::trace_span_count();
  // More spans than one ring holds: the ring must wrap, the monotone count
  // must see every one of them.
  const uint64_t n = 4096 * 2 + 100;
  for (uint64_t i = 0; i < n; i++) {
    obs::span s("test.span");
  }
  EXPECT_EQ(obs::trace_span_count() - before, n);
  std::ostringstream os;
  obs::dump_chrome_json(os);
  std::string out = os.str();
  obs::set_trace_enabled(false);
  // Valid Chrome-trace envelope with our span present.
  EXPECT_EQ(out.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(out.find("\"name\":\"test.span\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
  // Wrapped ring: at most ring-capacity events for this thread survive.
  size_t count = 0;
  for (size_t pos = 0; (pos = out.find("test.span", pos)) != std::string::npos;
       pos++) {
    count++;
  }
  EXPECT_LE(count, size_t{4096});
  EXPECT_GT(count, size_t{0});
}

// ts and dur are microseconds as JSON decimals; read back as numbers they
// must give the exact nanoseconds, so the sub-microsecond part is padded to
// three digits (1000045 ns is 1000.045, not 1000.45).
TEST(ObsTrace, TimestampsReadBackAsExactNanoseconds) {
  const uint64_t cases[][2] = {{1000045, 5}, {2000100, 1000}, {7, 999}, {3000000, 123456}};
  for (const auto& c : cases) obs::record_span("test.exact_ts", c[0], c[1]);
  std::ostringstream os;
  obs::dump_chrome_json(os);
  std::string out = os.str();
  auto field_ns = [&](size_t from, const std::string& key) {
    size_t at = out.find("\"" + key + "\":", from);
    EXPECT_NE(at, std::string::npos) << key;
    double us = std::stod(out.substr(at + key.size() + 3));
    return static_cast<uint64_t>(std::llround(us * 1000));
  };
  size_t pos = 0;
  for (const auto& c : cases) {
    pos = out.find("\"name\":\"test.exact_ts\"", pos);
    ASSERT_NE(pos, std::string::npos);
    EXPECT_EQ(field_ns(pos, "ts"), c[0]);
    EXPECT_EQ(field_ns(pos, "dur"), c[1]);
    pos++;
  }
}

TEST(ObsTrace, DisabledSpansRecordNothing) {
  obs::set_trace_enabled(false);
  uint64_t before = obs::trace_span_count();
  for (int i = 0; i < 100; i++) {
    obs::span s("test.disabled");
  }
  EXPECT_EQ(obs::trace_span_count(), before);
}

TEST(ObsTrace, RecordSpanFromManyThreads) {
  obs::set_trace_enabled(true);
  uint64_t before = obs::trace_span_count();
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; t++) {
    ts.emplace_back([] {
      for (int i = 0; i < 1000; i++) {
        obs::span s("test.mt");
      }
    });
  }
  for (auto& t : ts) t.join();
  obs::set_trace_enabled(false);
  EXPECT_EQ(obs::trace_span_count() - before, 4000u);
}

// ----------------------------------------------------------- exposition --

TEST(ObsExport, PrometheusTextShape) {
  obs::counter c("pam_test_prom_total");
  obs::gauge g("pam_test_prom_depth", "shard=\"2\"");
  obs::histogram h("pam_test_prom_ns");
  c.inc(9);
  g.set(-4);
  for (int i = 0; i < 100; i++) h.record(1000);
  std::ostringstream os;
  obs::prometheus_text(obs::registry::get().scrape(), os);
  std::string out = os.str();
  EXPECT_NE(out.find("# TYPE pam_test_prom_total counter"), std::string::npos);
  EXPECT_NE(out.find("pam_test_prom_total 9"), std::string::npos);
  EXPECT_NE(out.find("pam_test_prom_depth{shard=\"2\"} -4"),
            std::string::npos);
  EXPECT_NE(out.find("pam_test_prom_ns{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(out.find("pam_test_prom_ns_count 100"), std::string::npos);
  EXPECT_NE(out.find("pam_test_prom_ns_sum 100000"), std::string::npos);
}

TEST(ObsExport, JsonShape) {
  obs::counter c("pam_test_json_total");
  c.inc(3);
  std::ostringstream os;
  obs::metrics_json(obs::registry::get().scrape(), os);
  std::string out = os.str();
  EXPECT_EQ(out.rfind("{\"counters\":{", 0), 0u);
  EXPECT_NE(out.find("\"pam_test_json_total\":3"), std::string::npos);
  EXPECT_NE(out.find("\"gauges\":{"), std::string::npos);
  EXPECT_NE(out.find("\"histograms\":{"), std::string::npos);
}

// ------------------------------------------------- kv_store::metrics() --

TEST(ObsKvStore, ExpositionCoversTheStack) {
  using map_t = pam_map<map_entry<uint64_t, uint64_t>>;
  using entry_t = map_t::entry_t;
  std::vector<entry_t> init;
  for (uint64_t i = 0; i < 1000; i++) init.push_back({i * 10, i});
  kv_store<map_t> store(map_t{std::move(init)}, {.num_shards = 4});
  for (uint64_t i = 0; i < 500; i++) store.put(i * 7, i);
  store.flush();
  for (uint64_t i = 0; i < 200; i++) (void)store.get(i * 10);
  (void)store.snapshot();

  auto snap = store.metrics();
  // Combiner series, fed by the puts above.
  const auto* enq = find_counter(snap, "pam_combiner_ops_enqueued_total");
  ASSERT_NE(enq, nullptr);
  EXPECT_GE(enq->value, 500u);
  EXPECT_NE(find_counter(snap, "pam_combiner_batches_flushed_total"), nullptr);
  EXPECT_NE(find_histogram(snap, "pam_combiner_batch_ops"), nullptr);
  // Read path and cut engine.
  const auto* finds = find_counter(snap, "pam_read_finds_total");
  ASSERT_NE(finds, nullptr);
  EXPECT_GE(finds->value, 200u);
  EXPECT_NE(find_counter(snap, "pam_cut_attempts_total"), nullptr);
  // Epoch/arena (the flushes above displaced roots through snapshot_box).
  EXPECT_NE(find_counter(snap, "pam_epoch_retired_total"), nullptr);
  bool have_reserved = false;
  int64_t used_bytes = -1;
  for (const auto& g : snap.gauges) {
    if (g.name == "pam_arena_reserved_bytes") have_reserved = true;
    if (g.name == "pam_arena_used_bytes") used_bytes = g.value;
  }
  EXPECT_TRUE(have_reserved);
  // Refreshed by metrics() itself: the store's live trees are in the pools.
  EXPECT_GT(used_bytes, 0);
  // Per-shard entry gauges, labeled per shard.
  size_t shard_gauges = 0;
  int64_t total_entries = 0;
  for (const auto& g : snap.gauges) {
    if (g.name == "pam_shard_entries") {
      shard_gauges++;
      total_entries += g.value;
    }
  }
  EXPECT_EQ(shard_gauges, store.shards().num_shards());
  EXPECT_EQ(static_cast<size_t>(total_entries), store.size());

  // The compaction pass's series (alloc/arena.h), scraped after a trim.
  kv_store<map_t>::trim_memory();
  auto trimmed = store.metrics();
  EXPECT_NE(find_counter(trimmed, "pam_arena_relocated_bytes_total"), nullptr);
  EXPECT_NE(find_histogram(trimmed, "pam_arena_compaction_ns"), nullptr);
  EXPECT_NE(store.metrics_text().find("pam_arena_relocated_bytes_total"),
            std::string::npos);

  // Both expositions render without blowing up and carry a known series.
  EXPECT_NE(store.metrics_text().find("pam_combiner_ops_enqueued_total"),
            std::string::npos);
  EXPECT_NE(store.metrics_json().find("pam_read_finds_total"),
            std::string::npos);
}

TEST(ObsKvStore, IngestStatsIsAViewOverTheRegistry) {
  using map_t = pam_map<map_entry<uint64_t, uint64_t>>;
  kv_store<map_t> store(map_t{}, {});
  auto before = store.ingest_stats();
  for (uint64_t i = 0; i < 100; i++) store.put(i, i);
  store.flush();
  auto after = store.ingest_stats();
  EXPECT_EQ(after.ops_enqueued - before.ops_enqueued, 100u);
  EXPECT_EQ(after.ops_committed - before.ops_committed, 100u);
  EXPECT_GE(after.batches_flushed, before.batches_flushed + 1);
  EXPECT_EQ(after.sink_failures, before.sink_failures);
}

}  // namespace

#endif  // PAM_METRICS
