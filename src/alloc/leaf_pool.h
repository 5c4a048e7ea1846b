// Runtime-sized pool storage for the blocked-leaf layer.
//
// Leaf blocks are `header + capacity * sizeof(entry)` bytes where the
// capacity follows the env-tunable PAM_LEAF_BLOCK knob, so their size cannot
// be a template parameter. raw_pool is the runtime-sized face of the one
// unified pool implementation (alloc/arena.h): historically this header held
// a second copy of the two-level design, which is now block_pool — the same
// class type_allocator instantiates per node type. One pool per leaf
// capacity class is created lazily (see pam/node.h leaf_store) and is
// immortal; all pools share the arena's chunk-provenance accounting, so
// reserved_bytes()/trim() work uniformly across node and leaf storage.
//
// Fixed-width (flat) blocks use *entry-count* capacity classes: the slot for
// capacity 2^c is slot_bytes(2^c). Variable-length coded blocks — front-
// and delta-coded alike (pam/coded_block.h) — have no per-entry slot width
// at all, so they draw from *byte-granular* capacity classes instead:
// quarter-stepped byte sizes between 2^kMinByteClassLog and
// 2^kMaxByteClassLog, with larger blocks overflowing to individually
// counted aligned heap allocations. The helpers below define that class
// geometry; the coded-block skeleton owns the pool table (it is part of the
// sanctioned allocation surface, see tools/pam_lint.py).
#pragma once

#include <cstddef>

#include "alloc/arena.h"

namespace pam {

using raw_pool = block_pool;

// Byte-granular capacity classes for variable-length blocks: 64 B .. 1 MiB
// slots in quarter-stepped sizes — four classes per power-of-two octave,
// 64, 80, 96, 112, 128, 160, ... (2^k + j * 2^(k-2), j in 0..3). Pure
// power-of-two slots wasted up to 50% of every variable-length block, and
// since used_bytes() accounts full slot footprints that slack showed up
// directly in the Table 4 space experiments; quarter steps bound internal
// fragmentation at 25% while every slot stays a multiple of 16 bytes
// (max_align_t), so the alignment contract of the encoders is unchanged.
// class_of(bytes) returns kByteClasses for anything larger — the caller's
// overflow path.
inline constexpr int kMinByteClassLog = 6;
inline constexpr int kMaxByteClassLog = 20;
inline constexpr int kByteSubClasses = 4;
inline constexpr int kByteClasses =
    (kMaxByteClassLog - kMinByteClassLog) * kByteSubClasses + 1;

constexpr size_t byte_class_slot(int cls) {
  size_t base = size_t{1} << (kMinByteClassLog + cls / kByteSubClasses);
  return base + (base / kByteSubClasses) * (size_t(cls) % kByteSubClasses);
}

constexpr int byte_class_of(size_t bytes) {
  int cls = 0;
  while (cls < kByteClasses && byte_class_slot(cls) < bytes) cls++;
  return cls;  // == kByteClasses when bytes exceeds the largest slot
}

}  // namespace pam
