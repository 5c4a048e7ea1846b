// Reproduces paper Table 3: timings for PAM functions with and without
// augmentation, against the STL (union-tree / union-array / insert) and a
// bulk-parallel sorted-array map standing in for MCSTL multi-insert.
//
// Paper workloads: n = m = 1e8 and (n = 1e8, m = 1e5); here scaled to
// laptop size with the same n:m ratios (PAM_BENCH_SCALE restores larger
// sizes). "T1" is the parallel code on one worker; "Tp" on all workers.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <thread>
#include <vector>

#include "apps/range_sum.h"
#include "baselines/sorted_array_map.h"
#include "baselines/stl_map_baseline.h"
#include "common/bench_util.h"
#include "pam/pam.h"

namespace {

using namespace pam;
using namespace pam::bench;

using aug_t = range_sum_map;                                  // sum-augmented
using plain_t = plain_sum_map;                                // no augmentation
using maxm_t = aug_map<max_entry<uint64_t, uint64_t>>;        // for aug_filter

// "Augmented functions" on a NON-augmented tree: a range sum must scan
// every entry in the range (paper Section 6.1). Walks read-only cursors.
uint64_t scan_range_sum(plain_t::cursor t, uint64_t lo, uint64_t hi) {
  if (t.empty()) return 0;
  if (t.key() < lo) return scan_range_sum(t.right(), lo, hi);
  if (t.key() > hi) return scan_range_sum(t.left(), lo, hi);
  return scan_range_sum(t.left(), lo, hi) + t.value() + scan_range_sum(t.right(), lo, hi);
}

}  // namespace

int main() {
  print_header("bench_table3_functions", "Table 3 (PAM vs STL vs MCSTL-style bulk)");

  const size_t n = scaled_size(4000000);
  const size_t m_small = n / 1000 == 0 ? 1 : n / 1000;  // the paper's 1e8 : 1e5
  const size_t queries = n / 4;

  auto ea = kv_entries(n, 1);
  auto eb = kv_entries(n, 2);
  auto eb_small = kv_entries(m_small, 3);
  aug_t A(ea), B(eb), Bs(eb_small);
  plain_t PA(ea), PB(eb), PBs(eb_small);

  std::printf("\n--- PAM (with augmentation) ---\n");
  {
    auto [t1, tp] = seq_vs_par([&] {
      auto u = aug_t::map_union(A, B, [](uint64_t a, uint64_t b) { return a + b; });
    });
    row("Union", n, n, t1, tp);
  }
  {
    auto [t1, tp] = seq_vs_par([&] {
      auto u = aug_t::map_union(A, Bs, [](uint64_t a, uint64_t b) { return a + b; });
    });
    row("Union", n, m_small, t1, tp);
  }
  {
    auto qs = keys_only(queries, 4);
    std::vector<uint64_t> sink(queries);
    auto [t1, tp] = seq_vs_par([&] {
      parallel_for(0, queries, [&](size_t i) {
        auto v = A.find(qs[i]);
        sink[i] = v.has_value() ? *v : 0;
      });
    });
    row("Find", n, queries, t1, tp);
  }
  {
    size_t ni = n / 4;  // insert is sequential: keep the loop affordable
    auto es = kv_entries(ni, 5);
    double t1 = timed([&] {
      aug_t m;
      for (auto& [k, v] : es) m.insert_inplace(k, v);
    });
    row("Insert", ni, 0, t1, 0);
  }
  {
    auto [t1, tp] = seq_vs_par([&] { aug_t built(ea); });
    row("Build", n, 0, t1, tp);
  }
  {
    auto [t1, tp] = seq_vs_par([&] {
      auto f = aug_t::filter(A, [](uint64_t k, uint64_t) { return k % 2 == 0; });
    });
    row("Filter", n, 0, t1, tp);
  }
  {
    auto [t1, tp] = seq_vs_par([&] {
      auto mi = aug_t::multi_insert(A, eb, [](uint64_t a, uint64_t b) { return a + b; });
    });
    row("Multi-Insert", n, n, t1, tp);
  }
  {
    auto [t1, tp] = seq_vs_par([&] {
      auto mi = aug_t::multi_insert(A, eb_small,
                                    [](uint64_t a, uint64_t b) { return a + b; });
    });
    row("Multi-Insert", n, m_small, t1, tp);
  }
  {
    // L1 ledger row: the same multi_insert of n/4 entries into A, driven
    // from a spawned std::thread and from the main thread, in alternating
    // reps. Both are user threads, so both hand the whole fork-join to the
    // pool; gated <= 1.3 in bench/baselines/BENCH_PR10.json.
    auto ef = kv_entries(n / 4, 10);
    auto once = [&] {
      aug_t mi;  // freed after the timed region
      return timed([&] {
        mi = aug_t::multi_insert(A, ef, [](uint64_t a, uint64_t b) { return a + b; });
      });
    };
    // Each side times its second call: a fresh thread's first one also
    // pays for its allocator arena and pool caches.
    auto warm_once = [&] {
      once();
      return once();
    };
    std::vector<double> t_main, t_foreign;
    for (int rep = 0; rep < 7; rep++) {
      t_main.push_back(warm_once());
      std::thread t([&] { t_foreign.push_back(warm_once()); });
      t.join();
    }
    std::sort(t_main.begin(), t_main.end());
    std::sort(t_foreign.begin(), t_foreign.end());
    double main_s = t_main[t_main.size() / 2];
    double foreign_s = t_foreign[t_foreign.size() / 2];
    std::printf("%-28s n=%-11zu m=%-11zu main=%8.4fs  thread=%8.4fs  ratio=%5.2f\n",
                "Multi-Insert(foreign)", n, n / 4, main_s, foreign_s,
                foreign_s / main_s);
    bench_json(current_bench().c_str(), "foreign_over_main", "time_ratio",
               foreign_s / main_s);
  }
  {
    // m range extractions (each O(log n + out) via path copying).
    size_t m = queries / 4;
    auto los = keys_only(m, 6);
    auto [t1, tp] = seq_vs_par([&] {
      parallel_for(0, m, [&](size_t i) {
        auto r = aug_t::range(A, los[i], los[i] + (~0ull / n));
      }, 64);
    });
    row("Range", n, m, t1, tp);
  }
  {
    // The lazy alternative: a range_view allocates no nodes; its size() is
    // two rank queries against the shared tree.
    size_t m = queries / 4;
    auto los = keys_only(m, 6);
    std::vector<uint64_t> sink(m);
    auto [t1, tp] = seq_vs_par([&] {
      parallel_for(0, m, [&](size_t i) {
        sink[i] = A.view(los[i], los[i] + (~0ull / n)).size();
      }, 64);
    });
    row("Range(view)", n, m, t1, tp);
  }
  {
    auto qs = keys_only(queries, 7);
    std::vector<uint64_t> sink(queries);
    auto [t1, tp] = seq_vs_par([&] {
      parallel_for(0, queries, [&](size_t i) { sink[i] = A.aug_left(qs[i]); });
    });
    row("AugLeft", n, queries, t1, tp);
  }
  {
    auto qs = keys_only(queries, 8);
    std::vector<uint64_t> sink(queries);
    auto [t1, tp] = seq_vs_par([&] {
      parallel_for(0, queries, [&](size_t i) {
        sink[i] = A.aug_range(qs[i], qs[i] + (~0ull / 4));
      });
    });
    row("AugRange", n, queries, t1, tp);
  }
  {
    // aug_filter with max augmentation; thresholds chosen for the paper's
    // two output sizes (~n/100 and ~n/1000). Values are uniform in [0,1000).
    maxm_t M(ea);
    for (auto [frac, label] : {std::pair<double, const char*>{0.01, "AugFilter(k~n/100)"},
                               {0.001, "AugFilter(k~n/1000)"}}) {
      uint64_t theta = static_cast<uint64_t>(1000 * (1.0 - frac));
      auto [t1, tp] = seq_vs_par([&] {
        auto f = maxm_t::aug_filter(M, [=](uint64_t mx) { return mx > theta; });
      });
      row(label, n, static_cast<size_t>(static_cast<double>(n) * frac), t1, tp);
    }
  }

  std::printf("\n--- Non-augmented PAM (general map functions) ---\n");
  {
    auto [t1, tp] = seq_vs_par([&] {
      auto u = plain_t::map_union(PA, PB, [](uint64_t a, uint64_t b) { return a + b; });
    });
    row("Union", n, n, t1, tp);
  }
  {
    size_t ni = n / 4;
    auto es = kv_entries(ni, 5);
    double t1 = timed([&] {
      plain_t m;
      for (auto& [k, v] : es) m.insert_inplace(k, v);
    });
    row("Insert", ni, 0, t1, 0);
  }
  {
    auto [t1, tp] = seq_vs_par([&] { plain_t built(ea); });
    row("Build", n, 0, t1, tp);
  }
  {
    size_t m = queries / 4;
    auto los = keys_only(m, 6);
    auto [t1, tp] = seq_vs_par([&] {
      parallel_for(0, m, [&](size_t i) {
        auto r = plain_t::range(PA, los[i], los[i] + (~0ull / n));
      }, 64);
    });
    row("Range", n, m, t1, tp);
  }

  std::printf("\n--- Non-augmented PAM (augmented functions by scanning) ---\n");
  {
    // Each "range sum" must scan all entries in the range: queries are far
    // fewer (paper: 1e4 vs 1e8) because each costs O(entries in range).
    size_t m = std::max<size_t>(16, n / 2000);
    auto qs = keys_only(m, 9);
    std::vector<uint64_t> sink(m);
    auto [t1, tp] = seq_vs_par([&] {
      parallel_for(0, m, [&](size_t i) {
        sink[i] = scan_range_sum(PA.root_cursor(), qs[i], qs[i] + (~0ull / 4));
      }, 1);
    });
    row("AugRange(scan)", n, m, t1, tp);
  }
  {
    for (auto [frac, label] :
         {std::pair<double, const char*>{0.01, "AugFilter(plain,k~n/100)"},
          {0.001, "AugFilter(plain,k~n/1000)"}}) {
      uint64_t theta = static_cast<uint64_t>(1000 * (1.0 - frac));
      auto [t1, tp] = seq_vs_par([&] {
        auto f = plain_t::filter(PA, [=](uint64_t, uint64_t v) { return v > theta; });
      });
      row(label, n, static_cast<size_t>(static_cast<double>(n) * frac), t1, tp);
    }
  }

  std::printf("\n--- STL (sequential) ---\n");
  {
    std::map<uint64_t, uint64_t> sa(ea.begin(), ea.end()), sb(eb.begin(), eb.end()),
        sbs(eb_small.begin(), eb_small.end());
    std::vector<std::pair<uint64_t, uint64_t>> va(sa.begin(), sa.end()),
        vb(sb.begin(), sb.end()), vbs(sbs.begin(), sbs.end());
    row_seq("Union-Tree", n, n, timed([&] { auto u = baselines::stl_union_tree(sa, sb); }));
    row_seq("Union-Tree", n, m_small,
            timed([&] { auto u = baselines::stl_union_tree(sa, sbs); }));
    row_seq("Union-Array", n, n,
            timed([&] { auto u = baselines::stl_union_array(va, vb); }));
    row_seq("Union-Array", n, m_small,
            timed([&] { auto u = baselines::stl_union_array(va, vbs); }));
    size_t ni = n / 4;
    auto es = kv_entries(ni, 5);
    row_seq("Insert", ni, 0, timed([&] { auto m = baselines::stl_insert_n(es); }));
  }

  std::printf("\n--- MCSTL-style bulk sorted-array map ---\n");
  {
    auto [t1, tp] = seq_vs_par([&] {
      baselines::sorted_array_map<uint64_t, uint64_t> m(ea);
      m.multi_insert(eb);
    });
    row("Multi-Insert(array)", n, n, t1, tp);
  }
  {
    auto [t1, tp] = seq_vs_par([&] {
      baselines::sorted_array_map<uint64_t, uint64_t> m(ea);
      m.multi_insert(eb_small);
    });
    row("Multi-Insert(array)", n, m_small, t1, tp);
  }

  std::printf("\nShape checks vs paper Table 3:\n");
  std::printf(" * PAM union/build/multi-insert should speed up substantially with workers\n");
  std::printf(" * PAM union(n,m<<n) should beat Union-Array (O(m log(n/m)) vs O(n+m))\n");
  std::printf(" * augmented AugRange >> faster than scanning; AugFilter >> plain filter\n");
  std::printf(" * PAM insert within ~2x of STL insert (paper: 17%% slower)\n");
  return 0;
}
