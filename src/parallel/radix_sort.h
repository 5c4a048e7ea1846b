// Stable parallel LSD radix sort for integral keys.
//
// This is the sort behind build(), multi_insert and multi_delete when the
// key is a plain integer under the default order (pam/map_ops.h picks it by
// type traits; every other key type takes the merge sort). Keys map onto
// uint64 order-preservingly (signed keys flip their sign bit) and are sorted
// as k - min over only the significant bits of max - min, in passes of at
// most kRadixBits bits: keys spanning [0, 32M) take 3 passes of 9 bits.
//
// Each pass counts digits per block, scans the counts digit-major and
// block-minor (which is what makes it stable), and scatters block by block
// into one n-sized scratch vector. The two vectors swap roles every pass;
// the result stays in whichever one the last pass wrote (a vector swap, no
// copy-back). Work O(n * passes), scratch n elements.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "parallel/merge_sort.h"
#include "parallel/parallel.h"

namespace pam {
namespace internal {

inline constexpr int kRadixBits = 11;  // widest digit: 2^11 counters per block

// Order-preserving map of an integral key onto uint64.
template <typename K>
uint64_t radix_key(K k) {
  static_assert(std::is_integral_v<K> && sizeof(K) <= sizeof(uint64_t));
  if constexpr (std::is_signed_v<K>) {
    return static_cast<uint64_t>(static_cast<int64_t>(k)) ^ (uint64_t{1} << 63);
  } else {
    return static_cast<uint64_t>(k);
  }
}

}  // namespace internal

// Stable sort of v by the integral key key_of(elem). Input of at most
// kSortBase elements goes to std::stable_sort; already-sorted input returns
// after one parallel check.
template <typename T, typename KeyOf>
void radix_sort(std::vector<T>& v, const KeyOf& key_of) {
  size_t n = v.size();
  auto key_less = [&](const T& x, const T& y) { return key_of(x) < key_of(y); };
  if (n <= internal::kSortBase) {
    std::stable_sort(v.begin(), v.end(), key_less);
    return;
  }
  if (is_sorted_parallel(v.data(), n, key_less)) return;

  size_t max_blocks = 8 * static_cast<size_t>(num_workers());
  size_t nb = std::min((n + internal::kSortBase - 1) / internal::kSortBase, max_blocks);
  size_t block = (n + nb - 1) / nb;
  nb = (n + block - 1) / block;
  auto for_blocks = [&](const auto& f) {
    parallel_for(0, nb, [&](size_t b) { f(b, b * block, std::min(n, (b + 1) * block)); }, 1);
  };

  // The key range fixes the digit count and width. It is not empty: input
  // whose keys are all equal is sorted and returned above.
  std::vector<std::pair<uint64_t, uint64_t>> bounds(nb);
  for_blocks([&](size_t b, size_t lo, size_t hi) {
    uint64_t mn = internal::radix_key(key_of(v[lo])), mx = mn;
    for (size_t i = lo + 1; i < hi; i++) {
      uint64_t k = internal::radix_key(key_of(v[i]));
      mn = std::min(mn, k);
      mx = std::max(mx, k);
    }
    bounds[b] = {mn, mx};
  });
  uint64_t kmin = bounds[0].first, kmax = bounds[0].second;
  for (const auto& [mn, mx] : bounds) {
    kmin = std::min(kmin, mn);
    kmax = std::max(kmax, mx);
  }
  int bits = 64 - std::countl_zero(kmax - kmin);
  int passes = (bits + internal::kRadixBits - 1) / internal::kRadixBits;
  int width = (bits + passes - 1) / passes;
  size_t radix = size_t{1} << width;

  std::vector<T> tmp(n);
  std::vector<size_t> counts(nb * radix);
  T* src = v.data();
  T* dst = tmp.data();
  for (int p = 0; p < passes; p++) {
    int shift = p * width;
    auto digit = [&](const T& x) {
      return static_cast<size_t>(((internal::radix_key(key_of(x)) - kmin) >> shift) &
                                 (radix - 1));
    };
    for_blocks([&](size_t b, size_t lo, size_t hi) {
      size_t* c = &counts[b * radix];
      std::fill(c, c + radix, size_t{0});
      for (size_t i = lo; i < hi; i++) c[digit(src[i])]++;
    });
    size_t sum = 0;
    for (size_t d = 0; d < radix; d++) {
      for (size_t b = 0; b < nb; b++) {
        size_t c = counts[b * radix + d];
        counts[b * radix + d] = sum;
        sum += c;
      }
    }
    for_blocks([&](size_t b, size_t lo, size_t hi) {
      size_t* off = &counts[b * radix];
      for (size_t i = lo; i < hi; i++) dst[off[digit(src[i])]++] = src[i];
    });
    std::swap(src, dst);
  }
  if (src != v.data()) v.swap(tmp);
}

}  // namespace pam
