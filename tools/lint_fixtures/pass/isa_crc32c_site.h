// pam-lint-fixture-path: src/store/crc32c.h
// The one sanctioned intrinsics site: the SSE4.2 CRC32C, backed by the
// bench_durability crc32c hw_over_sw row.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace pam::store {

#if defined(__x86_64__) && defined(__SSE4_2__)
inline uint32_t crc32c_u8(uint32_t crc, const unsigned char* p, size_t n) {
  while (n-- > 0) crc = _mm_crc32_u8(crc, *p++);
  return crc;
}
#endif

}  // namespace pam::store
