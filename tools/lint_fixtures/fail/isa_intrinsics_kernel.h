// pam-lint-fixture-path: src/pam/block_kernel.h
// pam-lint-fixture-expect: isa-intrinsics
// A hand-written AVX2 kernel beside the plain loop it claims to beat, with
// no committed bench row to show that it does.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace pam {

inline size_t count_less(const uint64_t* keys, size_t n, uint64_t k) {
  size_t cnt = 0;
  size_t i = 0;
#if defined(__AVX2__)
  const __m256i kv = _mm256_set1_epi64x(static_cast<long long>(k));
  for (; i + 4 <= n; i += 4) {
    __m256i lt = _mm256_cmpgt_epi64(
        kv, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i)));
    cnt += static_cast<size_t>(__builtin_popcount(
        static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(lt)))));
  }
#endif
  for (; i < n; i++) cnt += static_cast<size_t>(keys[i] < k);
  return cnt;
}

}  // namespace pam
