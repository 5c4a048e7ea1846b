// Leaf-encoding microbenchmarks: the two CI gates for the variable-length
// key stack.
//
//  (a) space — shared-prefix string keys stored front-coded (sealed coded
//      blocks, byte-class pools) vs the same entries in flat
//      std::pair<std::string, V> leaf slots. Keys are SSO-sized, so the
//      flat side has no untracked heap and the comparison is exact. Gate:
//      flat/coded leaf-bytes ratio >= 1.5x (PAM_PERF_GATE=1).
//
//  (b) in-block search — the branch-free counting lower-bound
//      (block_lower_idx, plain C++) vs std::lower_bound by Entry::comp, on
//      B=32 blocks of u64 keys: the hot loop of every blocked-leaf descent.
//      Gate: >= 1.3x find throughput at B=32 (PAM_PERF_GATE=1). The
//      constant run length lets the compiler specialize the counting loop,
//      so a second row repeats the search with each query's run length
//      drawn from 16..32, the spread of tree block counts. That variable-n
//      row is the honest one: it is gated at >= 1.1x here and in the
//      committed baseline (bench/baselines/BENCH_PR10.json).
//
//  (c) delta space — integer keys stored delta-coded (zigzag-varint
//      successor differences + varint value stream, delta_codec in
//      pam/coded_block.h) vs the same entries in flat u64 pair slots, at
//      1M mixed keys (dense runs interleaved with sparse gaps — the
//      id-space shape real key allocators produce). Gate: flat/delta
//      leaf-bytes ratio >= 1.5x (PAM_PERF_GATE=1).
//
//  (d) block fold — the grouped fold every block site uses
//      (fold_entries_assoc, pam/entry_traits.h) vs the strict per-entry
//      policy-order fold, on B=32 blocks of (u64, u64) sum entries: the
//      hot loop of every block seal and boundary aug query. Gate: >= 1.3x
//      fold throughput (PAM_PERF_GATE=1).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/bench_util.h"
#include "pam/pam.h"

namespace {
using namespace pam;
using namespace pam::bench;

// n sorted unique SSO-sized keys: "k/" + 8 digits (10 chars total), one
// long shared-prefix family — the serving-workload shape front coding is
// built for.
std::vector<std::pair<std::string, uint64_t>> str_entries(size_t n) {
  std::vector<std::pair<std::string, uint64_t>> es(n);
  for (size_t i = 0; i < n; i++) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "k/%08zu", i);
    es[i] = {buf, i};
  }
  return es;
}

// n sorted unique u64 keys in the mixed shape real id allocators produce:
// dense runs (sequential allocation) interleaved with sparse jumps
// (partition/time prefixes). Values are small counters — the varint value
// stream's best case, which is the honest pairing for a layout whose point
// is exploiting exactly this structure.
std::vector<std::pair<uint64_t, uint64_t>> mixed_int_entries(size_t n) {
  std::vector<std::pair<uint64_t, uint64_t>> es;
  es.reserve(n);
  uint64_t k = 1'000'000;
  uint64_t x = 0x9e3779b97f4a7c15ull;
  while (es.size() < n) {
    // One dense run of 32..287 consecutive keys...
    x ^= x << 13; x ^= x >> 7; x ^= x << 17;
    size_t run = 32 + (x & 0xff);
    for (size_t i = 0; i < run && es.size() < n; i++) {
      es.emplace_back(k++, es.size() & 0x3ff);
    }
    // ...then one sparse jump of up to ~1M.
    x ^= x << 13; x ^= x >> 7; x ^= x << 17;
    k += 1 + (x & 0xfffff);
  }
  return es;
}
}  // namespace

int main() {
  print_header("bench_leaf_encodings",
               "leaf-encoding gates: front-coded space + in-block search");

  size_t saved_b = leaf_block_size();
  set_leaf_block_size(32);

  // ------------------------------- (a) front-coded vs flat string slots --
  std::printf("\n--- string keys: flat pair slots vs front-coded blocks ---\n");
  double space_ratio;
  {
    using flat_map = aug_map<map_entry<std::string, uint64_t>>;
    using coded_map = aug_map<str_map_entry<uint64_t>>;
    size_t n = scaled_size(1000000);
    auto es = str_entries(n);

    int64_t flat0 = flat_map::used_leaf_bytes();
    flat_map fm = flat_map::from_sorted(es);
    int64_t flat_bytes = flat_map::used_leaf_bytes() - flat0;

    int64_t coded0 = coded_map::used_leaf_bytes();
    coded_map cm = coded_map::from_sorted(es);
    int64_t coded_bytes = coded_map::used_leaf_bytes() - coded0;

    // Honesty spot checks: both maps serve the same entries.
    if (fm.size() != n || cm.size() != n ||
        *fm.find(es[n / 2].first) != es[n / 2].second ||
        *cm.find(std::string_view(es[n / 2].first)) != es[n / 2].second) {
      std::printf("FAIL: layout disagreement on lookups\n");
      return 1;
    }

    double flat_bpe = static_cast<double>(flat_bytes) / static_cast<double>(n);
    double coded_bpe = static_cast<double>(coded_bytes) / static_cast<double>(n);
    space_ratio = flat_bpe / coded_bpe;
    std::printf("layout        bytes/entry\n");
    std::printf("flat pairs    %10.2f\n", flat_bpe);
    std::printf("front-coded   %10.2f\n", coded_bpe);
    std::printf("space ratio (flat / coded): %.2fx  (gate: >= 1.5x)\n",
                space_ratio);
    bench_json("bench_leaf_encodings", "flat_str", "bytes_per_entry", flat_bpe);
    bench_json("bench_leaf_encodings", "coded_str", "bytes_per_entry", coded_bpe);
    bench_json("bench_leaf_encodings", "str_space", "flat_over_coded",
               space_ratio);
  }

  // ----------------------- (b) in-block search: branch-free vs classic --
  std::printf("\n--- in-block lower-bound at B=32, u64 keys ---\n");
  double find_ratio, var_ratio;
  {
    using E = map_entry<uint64_t, uint64_t>;
    constexpr size_t kB = 32;
    std::vector<std::pair<uint64_t, uint64_t>> block(kB);
    for (size_t i = 0; i < kB; i++) block[i] = {i * 977, i};

    size_t q = scaled_size(4000000);
    std::vector<uint64_t> queries = keys_only(q, 7, kB * 977 + 500);

    uint64_t sink = 0;
    auto classic_sweep = [&] {
      uint64_t acc = 0;
      for (uint64_t k : queries) {
        auto it = std::lower_bound(
            block.begin(), block.end(), k,
            [](const auto& e, uint64_t key) { return E::comp(e.first, key); });
        acc += static_cast<uint64_t>(it - block.begin());
      }
      sink += acc;
    };
    auto count_sweep = [&] {
      uint64_t acc = 0;
      for (uint64_t k : queries) acc += block_lower_idx<E>(block.data(), kB, k);
      sink += acc;
    };

    // Paired (bench_util.h timed_paired): the ratio is the median of
    // per-rep classic / branch-free times.
    paired_times find_t = timed_paired(1, 5, classic_sweep, count_sweep);
    if (sink == 0) std::printf("(unreachable sink)\n");

    double mq_classic = static_cast<double>(q) / find_t.t_a / 1e6;
    double mq_count = static_cast<double>(q) / find_t.t_b / 1e6;
    find_ratio = find_t.ratio;
    std::printf("search            Mops/s\n");
    std::printf("std::lower_bound %7.1f\n", mq_classic);
    std::printf("branch-free     %8.1f\n", mq_count);
    std::printf("find speedup (classic / branch-free): %.2fx  (gate: >= 1.3x)\n",
                find_ratio);
    bench_json("bench_leaf_encodings", "block_find_B=32", "classic_mops",
               mq_classic);
    bench_json("bench_leaf_encodings", "block_find_B=32", "branchfree_mops",
               mq_count);
    bench_json("bench_leaf_encodings", "block_find_B=32", "speedup",
               find_ratio);

    // The reference row: the same queries, each over a run of 16..32.
    std::vector<uint64_t> lens = keys_only(q, 11, 17);
    for (uint64_t& n : lens) n += 16;
    auto classic_var = [&] {
      uint64_t acc = 0;
      for (size_t i = 0; i < q; i++) {
        auto it = std::lower_bound(
            block.begin(), block.begin() + static_cast<std::ptrdiff_t>(lens[i]), queries[i],
            [](const auto& e, uint64_t key) { return E::comp(e.first, key); });
        acc += static_cast<uint64_t>(it - block.begin());
      }
      sink += acc;
    };
    auto count_var = [&] {
      uint64_t acc = 0;
      for (size_t i = 0; i < q; i++) acc += block_lower_idx<E>(block.data(), lens[i], queries[i]);
      sink += acc;
    };
    paired_times var_t = timed_paired(1, 5, classic_var, count_var);
    double t_classic_var = var_t.t_a;
    double t_count_var = var_t.t_b;
    var_ratio = var_t.ratio;
    if (sink == 0) std::printf("(unreachable sink)\n");
    std::printf("B=16..32: std::lower_bound %.1f  branch-free %.1f Mops/s  (%.2fx, gate: >= 1.1x)\n",
                static_cast<double>(q) / t_classic_var / 1e6,
                static_cast<double>(q) / t_count_var / 1e6, var_ratio);
    bench_json("bench_leaf_encodings", "block_find_B=16..32", "classic_mops",
               static_cast<double>(q) / t_classic_var / 1e6);
    bench_json("bench_leaf_encodings", "block_find_B=16..32", "branchfree_mops",
               static_cast<double>(q) / t_count_var / 1e6);
    bench_json("bench_leaf_encodings", "block_find_B=16..32", "speedup", var_ratio);
  }

  // --------------------------- (c) delta-coded vs flat integer entries --
  std::printf("\n--- integer keys: flat pair slots vs delta-coded blocks ---\n");
  double delta_ratio;
  {
    using flat_map = aug_map<sum_entry<uint64_t, uint64_t>>;
    using delta_map = aug_map<delta_sum_entry<uint64_t, uint64_t>>;
    size_t n = scaled_size(1000000);
    auto es = mixed_int_entries(n);

    int64_t flat0 = flat_map::used_leaf_bytes();
    flat_map fm = flat_map::from_sorted(es);
    int64_t flat_bytes = flat_map::used_leaf_bytes() - flat0;

    int64_t delta0 = delta_map::used_leaf_bytes();
    delta_map dm = delta_map::from_sorted(es);
    int64_t delta_bytes = delta_map::used_leaf_bytes() - delta0;

    // Honesty spot checks: both layouts serve the same entries and agree
    // on the whole-map aug sum.
    if (fm.size() != n || dm.size() != n ||
        *fm.find(es[n / 2].first) != es[n / 2].second ||
        *dm.find(es[n / 2].first) != es[n / 2].second ||
        fm.aug_val() != dm.aug_val()) {
      std::printf("FAIL: layout disagreement on lookups/aug\n");
      return 1;
    }

    double flat_bpe = static_cast<double>(flat_bytes) / static_cast<double>(n);
    double delta_bpe =
        static_cast<double>(delta_bytes) / static_cast<double>(n);
    delta_ratio = flat_bpe / delta_bpe;
    std::printf("layout        bytes/entry\n");
    std::printf("flat pairs    %10.2f\n", flat_bpe);
    std::printf("delta-coded   %10.2f\n", delta_bpe);
    std::printf("space ratio (flat / delta): %.2fx  (gate: >= 1.5x)\n",
                delta_ratio);
    bench_json("bench_leaf_encodings", "flat_u64", "bytes_per_entry", flat_bpe);
    bench_json("bench_leaf_encodings", "delta_u64", "bytes_per_entry",
               delta_bpe);
    bench_json("bench_leaf_encodings", "delta_space", "flat_over_delta",
               delta_ratio);
  }

  // -------------------------- (d) grouped fold vs strict scalar fold --
  // Baseline is the strict per-entry fold in policy order — what a generic
  // aug fold does without reassociation. The shipped fold
  // (fold_entries_assoc) regroups by associativity alone; that licence is
  // the optimization, so the A/B must not hand it to the baseline too. The
  // regrouped loop has independent sub-folds, which the compiler
  // vectorizes wherever the target allows.
  std::printf("\n--- block aug fold at B=32, (u64,u64) sum entries ---\n");
  double fold_ratio;
  {
    using E = sum_entry<uint64_t, uint64_t>;
    using traits = entry_traits<E>;
    constexpr size_t kB = 32;
    // Many distinct blocks so whole-block folds cannot be hoisted or
    // value-numbered away; every fold covers the full B=32 window.
    constexpr size_t kBlocks = 1024;
    std::vector<std::pair<uint64_t, uint64_t>> blocks(kBlocks * kB);
    for (size_t i = 0; i < blocks.size(); i++)
      blocks[i] = {i * 977, i * 31 + 1};

    size_t folds = scaled_size(4000000);
    uint64_t sink = 0;
    auto strict_sweep = [&] {
      uint64_t acc = 0;
      for (size_t i = 0; i < folds; i++) {
        const auto* blk = blocks.data() + (i % kBlocks) * kB;
        uint64_t f = traits::identity();
        for (size_t j = 0; j < kB; j++) {
          f = traits::combine(f, traits::base(blk[j].first, blk[j].second));
          // Pin the loop-carried accumulator so the compiler cannot
          // reassociate the strict fold into the very vector kernel it
          // is the baseline for.
          asm volatile("" : "+r"(f));
        }
        acc += f;
      }
      sink += acc;
    };
    auto grouped_sweep = [&] {
      uint64_t acc = 0;
      for (size_t i = 0; i < folds; i++) {
        const auto* blk = blocks.data() + (i % kBlocks) * kB;
        acc += fold_entries_assoc<traits>(blk, 0, kB);
      }
      sink += acc;
    };

    // Paired, as the find rows: median of per-rep strict / grouped times.
    paired_times fold_t = timed_paired(1, 5, strict_sweep, grouped_sweep);
    if (sink == 0) std::printf("(unreachable sink)\n");

    double mf_strict = static_cast<double>(folds) / fold_t.t_a / 1e6;
    double mf_grouped = static_cast<double>(folds) / fold_t.t_b / 1e6;
    fold_ratio = fold_t.ratio;
    std::printf("fold                Mops/s\n");
    std::printf("strict scalar     %8.1f\n", mf_strict);
    std::printf("grouped           %8.1f\n", mf_grouped);
    std::printf(
        "fold speedup (strict scalar / grouped): %.2fx  (gate: >= 1.3x)\n",
        fold_ratio);
    bench_json("bench_leaf_encodings", "block_fold_B=32", "strict_mops",
               mf_strict);
    bench_json("bench_leaf_encodings", "block_fold_B=32", "grouped_mops",
               mf_grouped);
    bench_json("bench_leaf_encodings", "block_fold_B=32", "speedup",
               fold_ratio);
  }

  set_leaf_block_size(saved_b);

  if (env_long("PAM_PERF_GATE", 0) != 0) {
    bool fail = false;
    if (space_ratio < 1.5) {
      std::printf("\nFAIL: string space ratio %.2fx below the 1.5x gate\n",
                  space_ratio);
      fail = true;
    }
    if (find_ratio < 1.3) {
      std::printf("\nFAIL: in-block find speedup %.2fx below the 1.3x gate\n",
                  find_ratio);
      fail = true;
    }
    if (var_ratio < 1.1) {
      std::printf("\nFAIL: B=16..32 find speedup %.2fx below the 1.1x gate\n",
                  var_ratio);
      fail = true;
    }
    if (delta_ratio < 1.5) {
      std::printf("\nFAIL: delta space ratio %.2fx below the 1.5x gate\n",
                  delta_ratio);
      fail = true;
    }
    if (fold_ratio < 1.3) {
      std::printf("\nFAIL: block fold speedup %.2fx below the 1.3x gate\n",
                  fold_ratio);
      fail = true;
    }
    if (fail) return 1;
  }
  return 0;
}
