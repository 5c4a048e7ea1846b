// Stable parallel radix sort for integral keys.
//
// This is the sort behind build(), multi_insert and multi_delete when the
// key is a plain integer under the default order (pam/map_ops.h picks it by
// type traits; every other key type takes the merge sort). Keys map onto
// uint64 order-preservingly (signed keys flip their sign bit) and are sorted
// as k - min over only the significant bits of max - min.
//
// The sort crosses DRAM once and does the rest in cache, in two phases:
//
//   1. One stable MSD pass on the top digit scatters v into scratch. Its
//      width is the fewest bits that bring the average bucket under
//      kBucketBytes, a per-core cache budget: 16M 16-byte entries take 11
//      bits, 2048 buckets of 128 KiB. Bucket starts that crowd into a few
//      cache sets take a scatter staged a cache line at a time.
//   2. Buckets sort in parallel, each with stable LSD passes over the bits
//      below that digit, ping-ponging between its scratch range and its v
//      range while both stay in cache. A bucket more than four budgets large
//      (skewed keys) takes another MSD pass instead, so phase 2 stays
//      parallel and in cache whatever the key distribution.
//
// Every pass flips which buffer holds a bucket. One whose pass count leaves
// it in scratch is copied back while it is still in cache, so the result
// always lands in v and the scratch, raw storage from the caller
// (alloc/scratch_buffer.h: no zero fill, huge pages when large), is free
// again when the sort returns: build's duplicate fold writes its output
// there. Work O(n * passes), scratch n elements.
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

inline constexpr int kRadixBits = 11;              // widest digit: 2^11 counters
inline constexpr size_t kBucketBytes = 128 << 10;  // per-core cache budget of a bucket

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

// A tiling of [0, n), n > 0, into at most 8 blocks per worker of at least
// kSortBase elements each; run(f) calls f(b, lo, hi) for every block in
// parallel.
struct sort_blocks {
  size_t n, block, count;

  explicit sort_blocks(size_t n_) : n(n_) {
    size_t nb = std::min((n + kSortBase - 1) / kSortBase, 8 * static_cast<size_t>(num_workers()));
    block = (n + nb - 1) / nb;
    count = (n + block - 1) / block;
  }

  template <typename F>
  void run(const F& f) const {
    parallel_for(0, count, [&](size_t b) { f(b, b * block, std::min(n, (b + 1) * block)); }, 1);
  }
};

// Sorts ranges by the low `bits` bits of radix_key(key_of(x)) - kmin; within
// a range the bits above them are equal.
template <typename T, typename KeyOf>
struct radix_sorter {
  const KeyOf& key_of;
  uint64_t kmin;

  size_t digit(const T& x, int shift, size_t radix) const {
    return static_cast<size_t>((radix_key(key_of(x)) - kmin) >> shift) & (radix - 1);
  }

  // Sorts the n > 0 elements at `in`, with the n slots at `other` as the
  // second buffer. The result lands in `other` when to_other, else in `in`.
  void sort(T* in, T* other, size_t n, int bits, bool to_other) const {
    if (bits > 0 && n * sizeof(T) > 4 * kBucketBytes) {
      msd(in, other, n, bits, to_other);
    } else {
      lsd(in, other, n, bits, to_other);
    }
  }

  // One stable blocked pass on the top digit scatters in -> other: per-block
  // histograms, scanned digit-major and block-minor. Then the buckets sort
  // the bits below the digit in parallel, with the buffers' roles swapped.
  void msd(T* in, T* other, size_t n, int bits, bool to_other) const {
    int fit = static_cast<int>(std::bit_width((n * sizeof(T) - 1) / kBucketBytes));
    int width = std::min({bits, kRadixBits, fit});
    int shift = bits - width;
    size_t radix = size_t{1} << width;
    sort_blocks blocks(n);
    std::vector<size_t> counts(blocks.count * radix);
    blocks.run([&](size_t b, size_t lo, size_t hi) {
      size_t* c = &counts[b * radix];
      for (size_t i = lo; i < hi; i++) c[digit(in[i], shift, radix)]++;
    });
    std::vector<size_t> starts(radix + 1);
    size_t sum = 0;
    for (size_t d = 0; d < radix; d++) {
      starts[d] = sum;
      for (size_t b = 0; b < blocks.count; b++) sum += std::exchange(counts[b * radix + d], sum);
    }
    starts[radix] = n;
    if (crowded(starts, radix)) {
      staged_scatter(in, other, blocks, counts, shift, radix);
    } else {
      blocks.run([&](size_t b, size_t lo, size_t hi) {
        size_t* off = &counts[b * radix];
        for (size_t i = lo; i < hi; i++) other[off[digit(in[i], shift, radix)]++] = in[i];
      });
    }
    parallel_for(0, radix, [&](size_t d) {
      size_t lo = starts[d], hi = starts[d + 1];
      if (hi > lo) sort(other + lo, in + lo, hi - lo, shift, !to_other);
    }, 1);
  }

  // Whether more bucket starts share one cache-set slot than a set has
  // ways. Dense keys at a power-of-two n put every start exactly
  // kBucketBytes apart, and on the scratch's 2 MiB pages all of them then
  // fall in one L2 set: scattered an element at a time, each destination
  // line is evicted and fetched again for every element written to it.
  // Random keys spread the starts over all the slots.
  static bool crowded(const std::vector<size_t>& starts, size_t radix) {
    constexpr size_t kLine = 64, kSetSlots = kBucketBytes / kLine, kWays = 16;
    std::vector<size_t> per_slot(kSetSlots);
    for (size_t d = 0; d < radix; d++) {
      if (++per_slot[starts[d] * sizeof(T) / kLine % kSetSlots] > kWays) return true;
    }
    return false;
  }

  // The scatter for crowded starts: each block stages a cache line per
  // digit and writes a line out only when it is full, so each destination
  // line is fetched once.
  void staged_scatter(const T* in, T* other, const sort_blocks& blocks,
                      std::vector<size_t>& counts, int shift, size_t radix) const {
    constexpr size_t kStage = std::max<size_t>(1, 64 / sizeof(T));
    blocks.run([&](size_t b, size_t lo, size_t hi) {
      size_t* off = &counts[b * radix];
      scratch_buffer<T> stage(radix * kStage);
      std::vector<unsigned char> fill(radix);
      for (size_t i = lo; i < hi; i++) {
        size_t d = digit(in[i], shift, radix);
        T* line = stage.data() + d * kStage;
        line[fill[d]++] = in[i];
        if (fill[d] == kStage) {
          std::copy(line, line + kStage, other + off[d]);
          off[d] += kStage;
          fill[d] = 0;
        }
      }
      for (size_t d = 0; d < radix; d++) {
        T* line = stage.data() + d * kStage;
        std::copy(line, line + fill[d], other + off[d]);
      }
    });
  }

  // Stable LSD passes of at most kRadixBits bits each, ping-ponging between
  // the buffers, then one copy if the last pass left the result in the other
  // one. With bits == 0 the range is already sorted and only that copy runs.
  void lsd(T* in, T* other, size_t n, int bits, bool to_other) const {
    int passes = (bits + kRadixBits - 1) / kRadixBits;
    int width = passes == 0 ? 0 : (bits + passes - 1) / passes;
    size_t radix = size_t{1} << width;
    size_t counts[size_t{1} << kRadixBits];
    T* src = in;
    T* dst = other;
    for (int p = 0; p < passes; p++) {
      int shift = p * width;
      std::fill(counts, counts + radix, size_t{0});
      for (size_t i = 0; i < n; i++) counts[digit(src[i], shift, radix)]++;
      size_t sum = 0;
      for (size_t d = 0; d < radix; d++) sum += std::exchange(counts[d], sum);
      for (size_t i = 0; i < n; i++) dst[counts[digit(src[i], shift, radix)]++] = src[i];
      std::swap(src, dst);
    }
    if ((src == other) != to_other) {
      sort_blocks(n).run(
          [&](size_t, size_t lo, size_t hi) { std::copy(src + lo, src + hi, dst + lo); });
    }
  }
};

}  // namespace internal

// Stable sort of v by the integral key key_of(elem), with scratch as the
// second buffer. Input of at most kSortBase elements goes to
// std::stable_sort and already-sorted input returns after one parallel
// check, neither touching scratch; otherwise scratch gets n slots, which the
// caller may reuse once the sort returns.
template <typename T, typename KeyOf>
void radix_sort(std::vector<T>& v, const KeyOf& key_of, internal::sort_scratch<T>& scratch) {
  static_assert(scratch_storable<T>, "radix_sort keeps copies of T in raw scratch");
  size_t n = v.size();
  auto key_less = [&](const T& x, const T& y) { return key_of(x) < key_of(y); };
  if (n <= internal::kSortBase) {
    std::stable_sort(v.begin(), v.end(), key_less);
    return;
  }
  if (is_sorted_parallel(v.data(), n, key_less)) return;

  // The key range fixes how many bits to sort. It is not empty: input whose
  // keys are all equal is sorted and returned above.
  internal::sort_blocks blocks(n);
  std::vector<std::pair<uint64_t, uint64_t>> bounds(blocks.count);
  blocks.run([&](size_t b, size_t lo, size_t hi) {
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

  internal::radix_sorter<T, KeyOf>{key_of, kmin}.sort(
      v.data(), internal::scratch_slots(scratch, n), n, bits, /*to_other=*/false);
}

template <typename T, typename KeyOf>
void radix_sort(std::vector<T>& v, const KeyOf& key_of) {
  internal::sort_scratch<T> scratch;
  radix_sort(v, key_of, scratch);
}

}  // namespace pam
