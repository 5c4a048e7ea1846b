// CRC32C (Castagnoli, polynomial 0x1EDC6F41) — the checksum guarding every
// WAL record, checkpoint page and manifest in the durability layer. CRC32C
// over plain CRC32 follows what storage systems standardized on (iSCSI,
// ext4, LevelDB/RocksDB): better burst error detection, and an instruction
// for it on x86-64.
//
// Two kernels compute the same function:
//
//   crc32c_sse42   the SSE4.2 crc32 instruction, 8 bytes per step. It is
//                  compiled for SSE4.2 whatever the build's -march, so
//                  portable builds (PAM_NATIVE=OFF) carry it too, and runs
//                  only where the CPU reports SSE4.2.
//   crc32c_slice8  software slice-by-8: eight 256-entry tables generated
//                  once at first use, 8 input bytes per step. The fallback
//                  on every other CPU, and the tests' oracle for the first.
//
// crc32c() picks one once, on first call. bench_durability's `crc32c` row
// records both kernels' MB/s and the ratio BENCH_PR10.json gates.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace pam::store {

namespace detail {

struct crc32c_tables {
  std::array<std::array<uint32_t, 256>, 8> t;

  crc32c_tables() {
    constexpr uint32_t kPoly = 0x82F63B78;  // 0x1EDC6F41 bit-reflected
    for (uint32_t i = 0; i < 256; i++) {
      uint32_t c = i;
      for (int k = 0; k < 8; k++) c = (c & 1) ? (c >> 1) ^ kPoly : c >> 1;
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; i++) {
      uint32_t c = t[0][i];
      for (size_t s = 1; s < 8; s++) {
        c = t[0][c & 0xFF] ^ (c >> 8);
        t[s][i] = c;
      }
    }
  }
};

inline const crc32c_tables& crc_tables() {
  static const crc32c_tables tables;
  return tables;
}

}  // namespace detail

// CRC32C of `n` bytes, in software. `seed` chains incremental computation:
// pass the previous result to extend a running checksum over more spans.
inline uint32_t crc32c_slice8(const void* data, size_t n, uint32_t seed = 0) {
  const auto& t = detail::crc_tables().t;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
  while (n >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) crc = t[0][(crc ^ *p++) & 0xFF] ^ (crc >> 8);
  return ~crc;
}

#if defined(__x86_64__)

inline bool crc32c_sse42_available() {
  __builtin_cpu_init();  // callable before main, from static initializers
  return __builtin_cpu_supports("sse4.2");
}

// The same function with the crc32 instruction. Call it only where
// crc32c_sse42_available() holds.
__attribute__((target("sse4.2"))) inline uint32_t crc32c_sse42(const void* data, size_t n,
                                                                uint32_t seed = 0) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t crc = ~seed;
  while (n >= 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    crc = _mm_crc32_u64(crc, w);
    p += 8;
    n -= 8;
  }
  auto c = static_cast<uint32_t>(crc);
  while (n-- > 0) c = _mm_crc32_u8(c, *p++);
  return ~c;
}

#else

inline bool crc32c_sse42_available() { return false; }

// No crc32 instruction on this architecture: the software kernel stands in.
inline uint32_t crc32c_sse42(const void* data, size_t n, uint32_t seed = 0) {
  return crc32c_slice8(data, n, seed);
}

#endif

// CRC32C of `n` bytes with the fastest kernel this CPU runs; `seed` chains
// as for crc32c_slice8.
inline uint32_t crc32c(const void* data, size_t n, uint32_t seed = 0) {
  static const bool hw = crc32c_sse42_available();
  return hw ? crc32c_sse42(data, n, seed) : crc32c_slice8(data, n, seed);
}

}  // namespace pam::store
