// Runtime-sized pool storage for the blocked-leaf layer.
//
// A leaf block is a header plus a payload whose length depends on the
// block's entries and codec (pam/coded_block.h), so its slot size cannot be
// a template parameter. raw_pool is the runtime-sized face of the one pool
// implementation (alloc/arena.h): the same block_pool class that
// type_allocator instantiates per node type, so reserved_bytes()/trim()
// work uniformly across node and leaf storage.
//
// Every codec — flat entry arrays, front-coded strings, delta-coded
// integers — draws from one class geometry, defined below over *payload*
// bytes: quarter-stepped sizes between 2^kMinByteClassLog and
// 2^kMaxByteClassLog. The block store (coded_store) adds its header and
// rounds up to the block's own alignment to get a slot, creates one pool
// per class lazily, and sends payloads past the largest class to
// individually counted aligned heap allocations. Coded blocks ask for their
// exact encoded length; flat blocks for a power-of-two entry capacity.
#pragma once

#include <bit>
#include <cstddef>

#include "alloc/arena.h"

namespace pam {

using raw_pool = block_pool;

// Payload classes of 8 B .. 1 MiB in quarter steps — four per power-of-two
// octave, 8, 10, 12, 14, 16, 20, 24, 28, 32, 40, ... (2^k + j * 2^(k-2),
// j in 0..3). Quarter steps bound internal fragmentation at 25%, and every
// power of two is a class, so the power-of-two capacity of a flat block of
// 8- or 16-byte entries is a class exactly. Measuring the payload rather
// than the slot keeps the header out of the rounding: a full 32-entry block
// of 16-byte entries under a 24-byte header takes 536 bytes, not the 640
// of the first slot class above it. byte_class_of(bytes) returns
// kByteClasses for anything larger — the caller's overflow path.
inline constexpr int kMinByteClassLog = 3;
inline constexpr int kMaxByteClassLog = 20;
inline constexpr int kByteSubClasses = 4;
inline constexpr int kByteClasses =
    (kMaxByteClassLog - kMinByteClassLog) * kByteSubClasses + 1;

constexpr size_t byte_class_slot(int cls) {
  size_t base = size_t{1} << (kMinByteClassLog + cls / kByteSubClasses);
  return base + (base / kByteSubClasses) * (size_t(cls) % kByteSubClasses);
}

// The smallest class holding `bytes`: with 2^k < bytes <= 2^(k+1), the
// two bits below the top bit of bytes - 1 name the quarter step under it.
constexpr int byte_class_of(size_t bytes) {
  if (bytes <= byte_class_slot(0)) return 0;
  size_t x = bytes - 1;
  int k = static_cast<int>(std::bit_width(x)) - 1;
  int cls = (k - kMinByteClassLog) * kByteSubClasses + int((x >> (k - 2)) & 3) + 1;
  return cls < kByteClasses ? cls : kByteClasses;  // kByteClasses: overflow
}

}  // namespace pam
