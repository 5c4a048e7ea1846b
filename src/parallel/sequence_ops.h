// Higher-level sequence operations built from the primitives:
//  * fold_sorted_runs / combine_sorted_runs - collapse runs of equal keys
//    with a combine function (the duplicate-removal step of build(), paper
//    Figure 2);
//  * run_boundaries - start indices of equal-key runs (used by the
//    inverted-index group-by build).
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "parallel/primitives.h"

namespace pam {

// Given a *sorted* sequence, collapses each maximal run of elements with
// equal keys (key_of, equality derived from the strict order `less`) into
// its first element, folding the rest of the run into it left to right with
// fold(acc, elem). Two blocked passes: count the run starts in each block and
// scan the counts. When every element starts a run (no duplicates) the input
// comes back as is, without a copy. Otherwise each block writes the runs that
// start in it into one packed output, reading past its end to finish its
// last run.
template <typename T, typename KeyOf, typename Less, typename Fold>
std::vector<T> fold_sorted_runs(std::vector<T> a, const KeyOf& key_of, const Less& less,
                                const Fold& fold) {
  size_t n = a.size();
  auto starts_run = [&](size_t i) {
    return i == 0 || less(key_of(a[i - 1]), key_of(a[i]));
  };
  size_t block = internal::kSeqBase;
  size_t nb = internal::num_blocks(n, block);
  std::vector<size_t> offset(nb);
  parallel_for(0, nb, [&](size_t b) {
    size_t c = 0;
    for (size_t i = b * block, hi = std::min(n, i + block); i < hi; i++) c += starts_run(i);
    offset[b] = c;
  }, 1);
  size_t m = scan_exclusive(offset.data(), nb, [](size_t x, size_t y) { return x + y; },
                            size_t{0});
  if (m == n) return a;
  std::vector<T> out(m);
  parallel_for(0, nb, [&](size_t b) {
    size_t o = offset[b];
    for (size_t i = b * block, hi = std::min(n, i + block); i < hi; i++) {
      if (!starts_run(i)) continue;
      T acc = a[i];
      for (size_t j = i + 1; j < n && !starts_run(j); j++) fold(acc, a[j]);
      out[o++] = std::move(acc);
    }
  }, 1);
  return out;
}

// fold_sorted_runs over (key, value) pairs: each run keeps its first key and
// the left-to-right fold of its values under `comb`.
template <typename KV, typename Less, typename Comb>
std::vector<KV> combine_sorted_runs(std::vector<KV> a, const Less& less, const Comb& comb) {
  return fold_sorted_runs(
      std::move(a), [](const KV& e) -> const auto& { return e.first; }, less,
      [&](KV& acc, const KV& e) { acc.second = comb(acc.second, e.second); });
}

// Start indices of maximal runs under the equivalence !less(a,b) && !less(b,a)
// of key projections. `key_of(elem)` extracts the grouping key.
template <typename T, typename KeyOf, typename Less>
std::vector<size_t> run_boundaries(const std::vector<T>& a, const KeyOf& key_of,
                                   const Less& less) {
  size_t n = a.size();
  if (n == 0) return {};
  std::vector<unsigned char> starts(n);
  parallel_for(0, n, [&](size_t i) {
    starts[i] = (i == 0 || less(key_of(a[i - 1]), key_of(a[i]))) ? 1 : 0;
  });
  return pack_indices(starts.data(), n);
}

}  // namespace pam
