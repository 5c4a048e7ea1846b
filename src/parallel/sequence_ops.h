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

// Given a *sorted* a[0, n), collapses each maximal run of elements with
// equal keys (key_of, equality derived from the strict order `less`) into
// its first element, folding the rest of the run into it left to right with
// fold(acc, elem), and returns the number of runs m. Two blocked passes:
// count the run starts in each block and scan the counts. When every element
// starts a run (no duplicates) nothing is written: a is the result.
// Otherwise out_of(m) supplies the output, at least m slots disjoint from a,
// and each block writes the runs that start in it there, reading past its
// end to finish its last run.
template <typename T, typename KeyOf, typename Less, typename Fold, typename OutOf>
size_t fold_sorted_runs(const T* a, size_t n, const KeyOf& key_of, const Less& less,
                        const Fold& fold, const OutOf& out_of) {
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
  if (m == n) return n;
  T* out = out_of(m);
  parallel_for(0, nb, [&](size_t b) {
    size_t o = offset[b];
    for (size_t i = b * block, hi = std::min(n, i + block); i < hi; i++) {
      if (!starts_run(i)) continue;
      T acc = a[i];
      for (size_t j = i + 1; j < n && !starts_run(j); j++) fold(acc, a[j]);
      out[o++] = std::move(acc);
    }
  }, 1);
  return m;
}

// fold_sorted_runs over (key, value) pairs: each run keeps its first key and
// the left-to-right fold of its values under `comb`.
template <typename KV, typename Less, typename Comb, typename OutOf>
size_t combine_sorted_runs(const KV* a, size_t n, const Less& less, const Comb& comb,
                           const OutOf& out_of) {
  return fold_sorted_runs(
      a, n, [](const KV& e) -> const auto& { return e.first; }, less,
      [&](KV& acc, const KV& e) { acc.second = comb(acc.second, e.second); }, out_of);
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
