// bulk-kernel: the paper's Table 3 kernel and the fork-join scheduler, with
// no server layer.
//
// aug_map<sum_entry> at n = 4M, m = n/1000, driven from one thread with the
// scheduler's workers (one per core by default). Each round: build(n),
// union(n,n), union(n,m), multi_insert(n,m), filter(n), n/64 range
// extractions, n/16 aug_range queries and n/16 finds (parallel loops, each
// query timed), and n/256 sequential point inserts (each timed). Results are
// dropped inside the timed region. The one workload where the scheduler does
// most of the work.
#include <algorithm>
#include <array>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "pam/pam.h"
#include "server/kv_store.h"

namespace e2e {
namespace {

using map_t = pam::aug_map<pam::sum_entry<uint64_t, uint64_t>>;
using entry_t = map_t::entry_t;

struct range_q {
  uint64_t lo, hi;
};

// Per-worker accumulators, padded apart.
struct alignas(64) worker_acc {
  uint64_t sum = 0;
  uint64_t misses = 0;
};

// Order-independent content fingerprint of a map or a reference vector.
uint64_t mix(uint64_t k, uint64_t v) { return pam::hash64(k * 31 + v); }

uint64_t fingerprint(const map_t& m) {
  return m.map_reduce<uint64_t>(
      [](uint64_t k, uint64_t v) { return mix(k, v); },
      [](uint64_t a, uint64_t b) { return a + b; }, uint64_t{0});
}

struct expect {
  size_t size = 0;
  uint64_t sum = 0;
  uint64_t print = 0;
};

expect expect_of(const std::vector<entry_t>& v) {
  expect e;
  e.size = v.size();
  for (const auto& [k, x] : v) {
    e.sum += x;
    e.print += mix(k, x);
  }
  return e;
}

// Sorted, duplicate-free, last value wins: what build(v) must contain.
std::vector<entry_t> sorted_unique(std::vector<entry_t> v) {
  pam::parallel_sort(v, [](const entry_t& a, const entry_t& b) {
    return a.first < b.first;
  });
  std::vector<entry_t> out;
  for (const auto& e : v) {
    if (!out.empty() && out.back().first == e.first) {
      out.back().second = e.second;
    } else {
      out.push_back(e);
    }
  }
  return out;
}

// Union of sorted unique runs; on equal keys b's value wins.
std::vector<entry_t> merged(const std::vector<entry_t>& a,
                            const std::vector<entry_t>& b) {
  std::vector<entry_t> out;
  out.reserve(a.size() + b.size());
  size_t i = 0, j = 0;
  while (i < a.size() || j < b.size()) {
    if (j == b.size() || (i < a.size() && a[i].first < b[j].first)) {
      out.push_back(a[i++]);
    } else {
      if (i < a.size() && a[i].first == b[j].first) i++;
      out.push_back(b[j++]);
    }
  }
  return out;
}

struct inputs {
  map_t a, b, c;
};

enum phase_id { p_build, p_union, p_union_small, p_multi_insert, p_filter,
                p_range, p_aug, p_find, p_insert, kPhases };

constexpr const char* kPhaseSpan[kPhases] = {
    "kernel.build",       "kernel.union",           "kernel.union_small",
    "kernel.multi_insert", "kernel.filter",         "kernel.range_batch",
    "kernel.aug_range_batch", "kernel.find_batch",  "kernel.point_insert"};
constexpr const char* kPhaseMetric[kPhases] = {
    "pam.build_ms",           "pam.union_ms",       "pam.union_small_ms",
    "pam.multi_insert_small_ms", "pam.filter_ms",   "pam.range_batch_ms",
    "pam.aug_range_batch_ms", "pam.find_batch_ms",  "pam.point_insert_ms"};

}  // namespace

result run_bulk_kernel(const options& opt) {
  result res;
  const size_t n = opt.smoke ? 50'000 : 4'000'000;
  const size_t m = std::max<size_t>(n / 1000, 16);
  const uint64_t universe = 4 * n;
  const size_t P = static_cast<size_t>(pam::num_workers());

  // ---- inputs and the sorted-vector reference (before any clock) ----
  auto entries = [&](size_t cnt, uint64_t salt) {
    std::vector<entry_t> v(cnt);
    uint64_t s = pam::hash64(opt.seed * 0x9e37 + salt);
    pam::parallel_for(0, cnt, [&](size_t i) {
      uint64_t k = pam::hash64(s + i) % universe;
      v[i] = {k, initial_value(s, k + i)};
    });
    return v;
  };
  const std::vector<entry_t> e1 = entries(n, 1), e2 = entries(n, 2),
                             e3 = entries(m, 3);
  pam::random_gen g(pam::hash64(opt.seed * 61 + 9));
  std::vector<range_q> range_qs(n / 64), aug_qs(n / 16);
  for (auto& q : range_qs) {
    q.lo = g.next() % universe;
    q.hi = q.lo + universe / 1000;
  }
  for (auto& q : aug_qs) {
    q.lo = g.next() % universe;
    q.hi = q.lo + universe / 100;
  }
  std::vector<uint64_t> find_keys(n / 16), insert_keys(n / 256);
  for (auto& k : find_keys) k = e1[g.next() % n].first;
  for (auto& k : insert_keys) k = g.next() % universe;

  const auto ref_a = sorted_unique(e1);
  const auto ref_b = sorted_unique(e2);
  const auto ref_c = sorted_unique(e3);
  expect want[kPhases];
  want[p_build] = expect_of(ref_a);
  want[p_union] = expect_of(merged(ref_a, ref_b));
  want[p_union_small] = expect_of(merged(ref_a, ref_c));
  want[p_multi_insert] = want[p_union_small];
  {
    std::vector<entry_t> kept;
    for (const auto& e : ref_a)
      if (e.second % 2 == 0) kept.push_back(e);
    want[p_filter] = expect_of(kept);
  }
  auto lower = [&](uint64_t k) {
    return static_cast<size_t>(
        std::lower_bound(ref_a.begin(), ref_a.end(), k,
                         [](const entry_t& e, uint64_t x) { return e.first < x; }) -
        ref_a.begin());
  };
  std::vector<uint64_t> prefix(ref_a.size() + 1, 0);
  for (size_t i = 0; i < ref_a.size(); i++) prefix[i + 1] = prefix[i] + ref_a[i].second;
  for (const auto& q : range_qs) want[p_range].size += lower(q.hi + 1) - lower(q.lo);
  for (const auto& q : aug_qs)
    want[p_aug].sum += prefix[lower(q.hi + 1)] - prefix[lower(q.lo)];
  for (uint64_t k : find_keys) want[p_find].sum += ref_a[lower(k)].second;
  {
    std::vector<uint64_t> fresh(insert_keys);
    std::sort(fresh.begin(), fresh.end());
    fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());
    size_t present = 0;
    for (uint64_t k : fresh) {
      size_t i = lower(k);
      present += i < ref_a.size() && ref_a[i].first == k;
    }
    want[p_insert].size = ref_a.size() + fresh.size() - present;
  }
  const uint64_t units_per_round = 6 * n + 2 * m + range_qs.size() +
                                   aug_qs.size() + find_keys.size() +
                                   insert_keys.size();
  res.info["n"] = static_cast<double>(n);
  res.info["m"] = static_cast<double>(m);
  res.info["workers"] = static_cast<double>(P);

  // ---- set-up: build the three kernel inputs, median of 3 ----
  double setup_s = 0;
  auto in = timed_setup(
      3, &setup_s, [&] { return std::array{e1, e2, e3}; },
      [&](std::array<std::vector<entry_t>, 3> v) {
        auto h = std::make_unique<inputs>();
        h->a = map_t(std::move(v[0]));
        h->b = map_t(std::move(v[1]));
        h->c = map_t(std::move(v[2]));
        return h;
      },
      [] { pam::kv_store<map_t>::trim_memory(); });
  res.e2e["setup_s"] = {setup_s, 3};
  const map_t& A = in->a;
  const map_t& B = in->b;
  const map_t& C = in->c;

  // ---- one round ----
  thread_spans* main_ts = opt.trace ? tracer::get().attach() : nullptr;
  std::vector<latency_hist> read_h(P);
  latency_hist write_h;
  std::vector<worker_acc> acc(P);

  struct round_out {
    double phase_s[kPhases];
    double total_s;
  };
  // deep: also fingerprint every map result against the reference (round 1).
  auto run_round = [&](bool record, bool deep, thread_spans* ts) {
    round_out out{};
    scoped_span round_span(ts, "kernel.round");
    uint64_t r0 = now_ns();
    auto timed = [&](phase_id ph, auto&& body) {
      uint64_t t0 = now_ns();
      {
        scoped_span s(ts, kPhaseSpan[ph], round_span.id());
        body();
      }
      out.phase_s[ph] = seconds_between(t0, now_ns());
    };
    auto check_map = [&](phase_id ph, const map_t& r) {
      res.check(r.size() == want[ph].size,
                std::string(kPhaseSpan[ph]) + ": wrong result size");
      res.check(r.aug_val() == want[ph].sum,
                std::string(kPhaseSpan[ph]) + ": wrong augmented sum");
      if (deep) {
        res.check(fingerprint(r) == want[ph].print,
                  std::string(kPhaseSpan[ph]) + ": contents differ from reference");
      }
    };
    {
      std::vector<entry_t> v(e1);
      timed(p_build, [&] { check_map(p_build, map_t(std::move(v))); });
    }
    timed(p_union, [&] { check_map(p_union, map_t::map_union(A, B)); });
    timed(p_union_small, [&] { check_map(p_union_small, map_t::map_union(A, C)); });
    {
      std::vector<entry_t> v(e3);
      timed(p_multi_insert, [&] {
        check_map(p_multi_insert, map_t::multi_insert(A, std::move(v)));
      });
    }
    timed(p_filter, [&] {
      check_map(p_filter,
                map_t::filter(A, [](uint64_t, uint64_t v) { return v % 2 == 0; }));
    });
    for (auto& a : acc) a = {};
    timed(p_range, [&] {
      pam::parallel_for(0, range_qs.size(), [&](size_t i) {
        size_t w = static_cast<size_t>(pam::worker_id());
        uint64_t t0 = now_ns();
        acc[w].sum += map_t::range(A, range_qs[i].lo, range_qs[i].hi).size();
        if (record) read_h[w].add(now_ns() - t0);
      });
    });
    uint64_t got = 0;
    for (auto& a : acc) got += std::exchange(a.sum, 0);
    res.check(got == want[p_range].size, "kernel.range_batch: wrong total size");
    timed(p_aug, [&] {
      pam::parallel_for(0, aug_qs.size(), [&](size_t i) {
        size_t w = static_cast<size_t>(pam::worker_id());
        uint64_t t0 = now_ns();
        acc[w].sum += A.aug_range(aug_qs[i].lo, aug_qs[i].hi);
        if (record) read_h[w].add(now_ns() - t0);
      });
    });
    got = 0;
    for (auto& a : acc) got += std::exchange(a.sum, 0);
    res.check(got == want[p_aug].sum, "kernel.aug_range_batch: wrong total");
    timed(p_find, [&] {
      pam::parallel_for(0, find_keys.size(), [&](size_t i) {
        size_t w = static_cast<size_t>(pam::worker_id());
        uint64_t t0 = now_ns();
        auto v = A.find(find_keys[i]);
        if (record) read_h[w].add(now_ns() - t0);
        if (v.has_value()) acc[w].sum += *v; else acc[w].misses++;
      });
    });
    got = 0;
    uint64_t misses = 0;
    for (auto& a : acc) {
      got += a.sum;
      misses += a.misses;
    }
    res.check(misses == 0 && got == want[p_find].sum,
              "kernel.find_batch: missing keys or wrong values");
    timed(p_insert, [&] {
      map_t mm = A;
      for (uint64_t k : insert_keys) {
        uint64_t t0 = now_ns();
        mm = map_t::insert(std::move(mm), k, k % 1000);
        if (record) write_h.add(now_ns() - t0);
      }
      res.check(mm.size() == want[p_insert].size,
                "kernel.point_insert: wrong result size");
    });
    out.total_s = seconds_between(r0, now_ns());
    res.attempted += 5 + range_qs.size() + aug_qs.size() + find_keys.size() +
                     insert_keys.size();
    return out;
  };

  // ---- warm-up (round 1 is the deep-checked one), then the windows ----
  auto run_window = [&](double secs, bool record, thread_spans* ts) {
    std::vector<round_out> rounds;
    uint64_t t0 = now_ns();
    do {
      rounds.push_back(run_round(record, false, ts));
    } while (seconds_between(t0, now_ns()) < secs);
    return rounds;
  };
  run_round(false, true, nullptr);
  if (opt.warmup > 0) run_window(opt.warmup, false, nullptr);
  scrape la{pam::obs::registry::get().scrape()};
  res.layer_t0 = now_ns();
  auto w0 = run_window(opt.seconds, true, nullptr);
  res.layer_t1 = now_ns();
  scrape lb{pam::obs::registry::get().scrape()};
  std::vector<round_out> w1;
  auto tput = [&](const std::vector<round_out>& rs) {
    double t = 0;
    for (const auto& r : rs) t += r.total_s;
    return static_cast<double>(units_per_round * rs.size()) / t;
  };
  if (opt.trace) {
    pam::obs::set_trace_enabled(true);
    la = scrape{pam::obs::registry::get().scrape()};
    res.layer_t0 = now_ns();
    w1 = run_window(opt.seconds, false, main_ts);
    res.layer_t1 = now_ns();
    lb = scrape{pam::obs::registry::get().scrape()};
    // T1/T4 of one round: the same round on one worker, then on all.
    pam::set_num_workers(1);
    double t1 = run_round(false, false, nullptr).total_s;
    pam::set_num_workers(static_cast<int>(P));
    double tp = run_round(false, false, nullptr).total_s;
    res.layer["parallel.speedup"] = {t1 / tp, 2};
    res.layer["trace.overhead_ratio"] = {tput(w0) / tput(w1), w1.size()};
  }
  const auto& lw = opt.trace ? w1 : w0;

  // ---- metrics ----
  latency_hist reads;
  for (const auto& h : read_h) reads.merge(h);
  speed_metrics(res, tput(w0), w0.size(), reads, write_h);
  const size_t limbo_at_end = pam::kv_store<map_t>::memory().limbo_retired;
  pam::kv_store<map_t>::trim_memory();
  auto mem = pam::kv_store<map_t>::memory();
  res.e2e["space_bytes_per_entry"] = {
      static_cast<double>(mem.reserved_bytes) /
          static_cast<double>(A.size() + B.size() + C.size()),
      0};

  shared_layer_metrics(res, la, lb, seconds_between(res.layer_t0, res.layer_t1),
                       mem.reserved_bytes, limbo_at_end);
  for (int ph = 0; ph < kPhases; ph++) {
    std::vector<double> ms;
    for (const auto& r : lw) ms.push_back(r.phase_s[ph] * 1e3);
    res.layer[kPhaseMetric[ph]] = {median(ms), ms.size()};
  }
  return res;
}

}  // namespace e2e
