// Stable parallel merge sort with a parallel divide-and-conquer merge.
//
// This is the comparison sort used by build(), multi_insert and
// multi_delete for every key type the radix sort (radix_sort.h) does not
// take, and by the benchmark generators. Work O(n log n), span O(log^3 n)
// (binary-search splits in the merge), stable — stability matters because
// build() combines duplicate keys left-to-right with a user function.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "parallel/parallel.h"

namespace pam {
namespace internal {

inline constexpr size_t kSortBase = 8192;   // std::stable_sort below this
inline constexpr size_t kMergeBase = 8192;  // std::merge below this

// Stable merge of sorted a[0,na) and b[0,nb) into out. Ties take from `a`
// first. The parallel case splits on the median of the larger side.
template <typename T, typename Comp>
void parallel_merge(T* a, size_t na, T* b, size_t nb, T* out, const Comp& comp) {
  if (na + nb <= kMergeBase) {
    std::merge(std::make_move_iterator(a), std::make_move_iterator(a + na),
               std::make_move_iterator(b), std::make_move_iterator(b + nb), out, comp);
    return;
  }
  if (na >= nb) {
    // Pivot from a: b-elements equal to the pivot stay on the right, which
    // keeps all-of-a-before-b order for ties.
    size_t ma = na / 2;
    size_t mb = std::lower_bound(b, b + nb, a[ma], comp) - b;
    par_do([&] { parallel_merge(a, ma, b, mb, out, comp); },
           [&] { parallel_merge(a + ma, na - ma, b + mb, nb - mb, out + ma + mb, comp); });
  } else {
    // Pivot from b: a-elements equal to the pivot go left (before b's pivot).
    size_t mb = nb / 2;
    size_t ma = std::upper_bound(a, a + na, b[mb], comp) - a;
    par_do([&] { parallel_merge(a, ma, b, mb, out, comp); },
           [&] { parallel_merge(a + ma, na - ma, b + mb, nb - mb, out + ma + mb, comp); });
  }
}

// Sorts in[0,n). If out_in_tmp, the sorted result lands in tmp, else in `in`.
template <typename T, typename Comp>
void merge_sort_rec(T* in, T* tmp, size_t n, const Comp& comp, bool out_in_tmp) {
  if (n <= kSortBase) {
    std::stable_sort(in, in + n, comp);
    if (out_in_tmp) std::move(in, in + n, tmp);
    return;
  }
  size_t mid = n / 2;
  par_do([&] { merge_sort_rec(in, tmp, mid, comp, !out_in_tmp); },
         [&] { merge_sort_rec(in + mid, tmp + mid, n - mid, comp, !out_in_tmp); });
  if (out_in_tmp) {
    parallel_merge(in, mid, in + mid, n - mid, tmp, comp);
  } else {
    parallel_merge(tmp, mid, tmp + mid, n - mid, in, comp);
  }
}

}  // namespace internal

// True iff a[0, n) is non-decreasing under comp: one parallel pass over
// adjacent pairs in blocks of kSortBase, which skips the remaining blocks
// once any block finds a descent.
template <typename T, typename Comp>
bool is_sorted_parallel(const T* a, size_t n, const Comp& comp) {
  std::atomic<bool> sorted{true};
  size_t nb = (n + internal::kSortBase - 1) / internal::kSortBase;
  parallel_for(0, nb, [&](size_t b) {
    if (!sorted.load(std::memory_order_relaxed)) return;
    size_t lo = b == 0 ? 0 : b * internal::kSortBase - 1;  // pair across the seam
    size_t hi = std::min(n, (b + 1) * internal::kSortBase);
    if (!std::is_sorted(a + lo, a + hi, comp)) {
      sorted.store(false, std::memory_order_relaxed);
    }
  }, 1);
  return sorted.load(std::memory_order_relaxed);
}

// Stable parallel sort of a[0, n) in place. Already-sorted input returns
// after one parallel check.
template <typename T, typename Comp>
void parallel_sort(T* a, size_t n, const Comp& comp) {
  if (n <= internal::kSortBase) {
    std::stable_sort(a, a + n, comp);
    return;
  }
  if (is_sorted_parallel(a, n, comp)) return;
  std::vector<T> tmp(n);
  internal::merge_sort_rec(a, tmp.data(), n, comp, /*out_in_tmp=*/false);
}

template <typename T, typename Comp>
void parallel_sort(std::vector<T>& v, const Comp& comp) {
  parallel_sort(v.data(), v.size(), comp);
}

}  // namespace pam
