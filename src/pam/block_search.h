// In-block search over the sorted entry run of a sealed leaf block.
//
// With blocked leaves, the per-block binary search *is* the hot comparison
// loop of every point operation: a find on a B=32 tree does a handful of
// node descents and then one 32-entry search. A branchy binary search takes
// ~log2(B) dependent, poorly-predicted branches; on a sorted run the same
// answer is a *count* — lower_bound(k) == |{i : e[i].key < k}| — which is a
// branch-free reduction of independent comparisons that the compiler turns
// into cmov/setcc chains or vector compares.
//
// Dispatch is by input alone: integral keys on runs up to kBranchFreeCutoff
// take the counting loop; longer runs and non-integral keys take the classic
// binary search. Both compare through Entry::comp, so custom comparators
// are honoured on either side.
#pragma once

#include <cstddef>
#include <type_traits>

namespace pam {

// Runs at most this long take the counting kernel: B comparisons with full
// ILP beat log2(B) dependent mispredictable branches up to roughly a cache
// line's worth of entries; past that the binary search's O(log B) wins back.
inline constexpr size_t kBranchFreeCutoff = 64;

// First index i in the sorted run es[0, n) with !(es[i].first < k), i.e.
// std::lower_bound by Entry::comp. ET is any struct with the key in `first`
// (leaf-block slots and materialized entry vectors both qualify).
template <typename Entry, typename ET, typename Key>
size_t block_lower_idx(const ET* es, size_t n, const Key& k) {
  if constexpr (std::is_integral_v<typename Entry::key_t>) {
    if (n <= kBranchFreeCutoff) {
      // Sortedness makes lower_bound a count; the loop is branch-free.
      size_t cnt = 0;
      for (size_t i = 0; i < n; i++) {
        cnt += static_cast<size_t>(Entry::comp(es[i].first, k));
      }
      return cnt;
    }
  }
  size_t lo = 0, hi = n;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (Entry::comp(es[mid].first, k)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// First index i in es[0, n) with k < es[i].first (std::upper_bound).
template <typename Entry, typename ET, typename Key>
size_t block_upper_idx(const ET* es, size_t n, const Key& k) {
  if constexpr (std::is_integral_v<typename Entry::key_t>) {
    if (n <= kBranchFreeCutoff) {
      size_t cnt = 0;
      for (size_t i = 0; i < n; i++) {
        cnt += static_cast<size_t>(!Entry::comp(k, es[i].first));
      }
      return cnt;
    }
  }
  size_t lo = 0, hi = n;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (Entry::comp(k, es[mid].first)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

}  // namespace pam
