// Leaf blocks: one block store, written as one skeleton plus per-layout
// codec policies (the PaC-tree view of block encodings as pluggable codecs
// over one compressed-block format).
//
// A sealed block stores n sorted entries in one pool slot as:
//
//   [ header | payload: key stream | pad | value stream ]
//
// The skeleton — coded_block (the header) and coded_store — owns everything
// that does not depend on the encoding: allocation from the quarter-stepped
// payload byte classes of alloc/leaf_pool.h (a slot is the header plus a
// payload class, rounded up to the block's own alignment; payloads past
// 1 MiB overflow to individually counted aligned heap allocations), the
// refcount, the cached augmented value, the raw-payload serialization hooks
// and their frame checks, the in-block search and decode, and the live
// accounting. Blocks are immutable once sealed, so any number of tree
// versions share one by pointer. This file is part of the sanctioned
// allocation surface (tools/pam_lint.py): the pool-table singletons and the
// overflow path are the only places the encoders touch raw memory.
//
// A codec owns its key stream and names its value stream:
//
//   in_place                  is the key stream the entry_t array itself?
//   kAlign                    alignment of the key stream in the payload;
//   kLeafScale                leaf capacity as a multiple of the base block
//                             size (node_manager::leaf_capacity);
//   using values              raw_values<V>, varint_values<V> or no_values;
//   key_bytes(es, n)          encoded size of the key stream;
//   encode(dst, es, n)        write it, returning its end.
//
// The two coded codecs (in_place false) add what their reads and the
// kCodedRaw wire frame need:
//
//   using key_arg             what the in-block search compares against
//                             (std::string_view or K);
//   kWireVersion              its record format version, stamped into
//                             map_codec streams (serialize.h);
//   check(p, limit, n)        validate untrusted bytes in [p, limit),
//                             returning the stream's end or nullptr;
//   cursor(keys, n).next()    yield key 0, then key 1, ... by incremental
//                             decode (the returned key_arg is valid until
//                             the next call).
//
// No codec keeps a directory: coded readers walk the stream in order.
// Three codecs implement it:
//
//   flat_codec   any entry: the key stream is the sorted entry_t array,
//                constructed in place by encode and destroyed on release,
//                and there is no value stream. Reads are zero-copy and point
//                searches run the branch-free kernels of pam/block_search.h.
//                Entries may be any copyable type (std::string keys, nested
//                maps as values). A flat block reserves a power-of-two entry
//                capacity (capacity_bytes); coded blocks reserve their exact
//                encoded length.
//   front_codec  std::string keys: n records {varint prefix_len, varint
//                suffix_len, suffix bytes} — key i is the first prefix_len
//                bytes of key i-1 plus the suffix. Record 0 has prefix 0 and
//                stores the whole key; varints put no ceiling on either
//                length. Values are a raw array.
//   delta_codec  integral keys: varint 0 is the base key (plain for unsigned
//                key types, zigzag for signed), varint i >= 1 the zigzag of
//                key_i - key_{i-1} computed in the key's unsigned width and
//                sign-extended, so a descending comparator round-trips
//                through the two's-complement wrap. Integral values are
//                varint-packed (varint_values); any other value is a raw
//                array.
//
// Pad rule: the pad between the key stream's end and val_off (an offset
// from the payload start) is shorter than one value-alignment step and all
// zero, so a block's payload is a pure function of its entries; from_payload
// rejects any other pad.
//
// Contracts: the key type is asserted by each coded codec
// (tests/compile_fail/front_coded_fixed_key.cpp and delta_string_key.cpp pin
// the messages); value triviality by raw_values, since coded values are
// stored raw and released without destruction.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "alloc/leaf_pool.h"
#include "alloc/scratch_buffer.h"
#include "pam/block_search.h"
#include "pam/entry_traits.h"
#include "util/thread_annotations.h"

namespace pam {

// The header of every leaf block: 12 bytes plus the augmented value (24
// with a u64 aug). The payload follows at the store's kPayloadOffset.
template <typename Entry>
struct coded_block {
  using K = typename Entry::key_t;
  using V = typename Entry::val_t;
  using A = typename entry_traits<Entry>::aug_t;
  using entry_t = std::pair<K, V>;

  std::atomic<uint32_t> ref_cnt;
  uint16_t count;
  int16_t cls;       // payload byte class; kOverflowClass for heap-allocated blocks
  uint32_t val_off;  // byte offset of the value stream from the payload start
  [[no_unique_address]] A aug;

  static constexpr int16_t kOverflowClass = -1;
};

// True when every byte of a T belongs to the value of some member, so a raw
// copy of a T carries no padding. Floating-point members count as padding
// free (they have no unique representation only because of -0.0 and NaNs).
template <typename T>
inline constexpr bool padding_free = std::has_unique_object_representations_v<T> ||
                                     std::is_same_v<T, float> || std::is_same_v<T, double>;
template <typename A, typename B>
inline constexpr bool padding_free<std::pair<A, B>> =
    padding_free<A> && padding_free<B> && sizeof(A) + sizeof(B) == sizeof(std::pair<A, B>);

// No value stream: the flat codec's values live in its entries.
struct no_values {
  static constexpr size_t kAlign = 1;

  template <typename E>
  static size_t bytes(const E*, uint32_t) { return 0; }

  template <typename E>
  static char* encode(char* dst, const E*, uint32_t) { return dst; }

  static size_t length(const char*, uint32_t) { return 0; }
};

// Values as a raw aligned V[n] array (any trivially copyable V).
template <typename V>
struct raw_values {
  static_assert(std::is_trivially_copyable_v<V>,
                "PAM leaf-layout contract: coded leaf layouts require a "
                "trivially copyable val_t (values are stored raw inside "
                "sealed blocks)");

  static constexpr size_t kAlign = alignof(V);

  template <typename E>
  static size_t bytes(const E*, uint32_t n) { return size_t{n} * sizeof(V); }

  template <typename E>
  static char* encode(char* dst, const E* es, uint32_t n) {
    V* vs = reinterpret_cast<V*>(dst);
    for (uint32_t i = 0; i < n; i++) vs[i] = es[i].second;
    return reinterpret_cast<char*>(vs + n);
  }

  static bool check(const char*, size_t len, uint32_t n) {
    return len == size_t{n} * sizeof(V);
  }

  static size_t length(const char*, uint32_t n) { return size_t{n} * sizeof(V); }

  static V at(const char* vals, uint32_t i) {
    return reinterpret_cast<const V*>(vals)[i];
  }

  struct reader {
    const V* p;
    explicit reader(const char* vals) : p(reinterpret_cast<const V*>(vals)) {}
    V next() { return *p++; }
  };
};

// ---------------------------------------------------------------- varints --

// LEB128-style varints with zigzag mapping for signed numbers. The checked
// decoder is only used on untrusted (deserialized) bytes; in-memory blocks
// are validated once at from_payload and walked unchecked after.
namespace vint {

inline constexpr size_t kMaxLen = 10;  // 64 payload bits / 7 bits per byte

// (v ^ sign) is non-negative, so the shift never drops a set bit.
constexpr uint64_t zigzag(int64_t v) {
  return (uint64_t(v ^ (v >> 63)) << 1) | uint64_t(v < 0);
}

constexpr int64_t unzigzag(uint64_t u) {
  return int64_t(u >> 1) ^ -int64_t(u & 1);
}

// Bytes put() writes for v: one per started 7-bit group, without a loop.
constexpr size_t length(uint64_t v) {
  return (static_cast<size_t>(std::bit_width(v | 1)) + 6) / 7;
}

inline char* put(char* p, uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<char>(v | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
  return p;
}

// Trusted decode: the stream was validated when the block was sealed or
// rebuilt, so no bounds checks on the hot read path.
inline const char* get(const char* p, uint64_t& out) {
  uint64_t v = uint64_t(uint8_t(*p++));
  if (v < 0x80) {
    out = v;
    return p;
  }
  v &= 0x7F;
  for (int shift = 7;; shift += 7) {
    uint64_t byte = uint64_t(uint8_t(*p++));
    v |= (byte & 0x7F) << shift;
    if (byte < 0x80) break;
  }
  out = v;
  return p;
}

// Untrusted decode: nullptr on truncation, on a varint longer than ten
// bytes, or on bits past the 64th — so a corrupted stream can never walk
// the decoder outside the frame or round-trip to different bytes.
inline const char* get_checked(const char* p, const char* end, uint64_t& out) {
  uint64_t v = 0;
  for (size_t i = 0; i < kMaxLen; i++) {
    if (p == end) return nullptr;
    uint64_t byte = uint64_t(uint8_t(*p++));
    if (i == 9 && byte > 0x01) return nullptr;  // overflow past bit 63
    v |= (byte & 0x7F) << (7 * i);
    if (byte < 0x80) {
      // Reject non-canonical zero padding ("overlong" encodings) so every
      // value has exactly one byte representation and payload_bytes stays
      // a pure function of the entries.
      if (byte == 0 && i > 0) return nullptr;
      out = v;
      return p;
    }
  }
  return nullptr;
}

// n varints from [p, end): the end of the last one, or nullptr.
inline const char* skip_checked(const char* p, const char* end, uint32_t n) {
  uint64_t u;
  for (uint32_t i = 0; i < n && p != nullptr; i++) p = get_checked(p, end, u);
  return p;
}

}  // namespace vint

// Integral values as a varint stream (zigzag iff signed), no alignment.
template <typename V>
struct varint_values {
  static constexpr size_t kAlign = 1;

  static uint64_t code(V v) {
    if constexpr (std::is_signed_v<V>) {
      return vint::zigzag(int64_t(v));
    } else {
      return uint64_t(v);
    }
  }

  static V decode(uint64_t u) {
    if constexpr (std::is_signed_v<V>) {
      return static_cast<V>(vint::unzigzag(u));
    } else {
      return static_cast<V>(u);
    }
  }

  template <typename E>
  static size_t bytes(const E* es, uint32_t n) {
    size_t total = 0;
    for (uint32_t i = 0; i < n; i++) total += vint::length(code(es[i].second));
    return total;
  }

  template <typename E>
  static char* encode(char* dst, const E* es, uint32_t n) {
    for (uint32_t i = 0; i < n; i++) dst = vint::put(dst, code(es[i].second));
    return dst;
  }

  static bool check(const char* p, size_t len, uint32_t n) {
    return vint::skip_checked(p, p + len, n) == p + len;
  }

  static size_t length(const char* p, uint32_t n) {
    uint64_t u;
    const char* q = p;
    for (uint32_t i = 0; i < n; i++) q = vint::get(q, u);
    return size_t(q - p);
  }

  static V at(const char* vals, uint32_t i) {
    reader r(vals);
    for (uint32_t j = 0; j < i; j++) r.next();
    return r.next();
  }

  struct reader {
    const char* p;
    explicit reader(const char* vals) : p(vals) {}
    V next() {
      uint64_t u;
      p = vint::get(p, u);
      return decode(u);
    }
  };
};

// ------------------------------------------------------------ front codec --

template <typename Entry>
struct front_codec {
  using K = typename Entry::key_t;
  using V = typename Entry::val_t;
  using entry_t = std::pair<K, V>;
  using key_arg = std::string_view;
  // Raw, not varint-packed: a value update must not change a block's byte
  // size, or rewritten blocks hop between byte classes and the slots they
  // leave pin half-empty pool chunks that trim cannot release.
  using values = raw_values<V>;

  static_assert(std::is_same_v<K, std::string>,
                "PAM leaf-layout contract: key_layout::front_coded requires "
                "key_t = std::string; fixed-width keys must use "
                "key_layout::flat or key_layout::delta");

  static constexpr bool in_place = false;
  static constexpr size_t kAlign = 1;
  // Base-sized blocks: a point read or scan materializes every key of the
  // block it lands in, and that cost grows with the block's length (at
  // twice the base size, scan-sum's read p50 rose 27% for 16-character
  // keys).
  static constexpr size_t kLeafScale = 1;

  // Record format version, stamped into map_codec streams (serialize.h):
  // 2 frames a block as {u32 val_off from the payload start} + payload.
  // Older streams are refused: 1 carried {u32 bytes, u32 val_off} measured
  // from the block start, 0 the u32-directory record format.
  static constexpr uint16_t kWireVersion = 2;

  static size_t key_bytes(const entry_t* es, uint32_t n) {
    size_t total = 0;
    for (uint32_t i = 0; i < n; i++) {
      size_t plen = prefix_len(es, i), slen = es[i].first.size() - plen;
      total += vint::length(plen) + vint::length(slen) + slen;
    }
    return total;
  }

  static char* encode(char* dst, const entry_t* es, uint32_t n) {
    for (uint32_t i = 0; i < n; i++) {
      size_t plen = prefix_len(es, i), slen = es[i].first.size() - plen;
      dst = vint::put(vint::put(dst, plen), slen);
      std::memcpy(dst, es[i].first.data() + plen, slen);
      dst += slen;
    }
    return dst;
  }

  // Every varint must be canonical and inside limit, no record may share
  // more prefix than its predecessor's key has (so record 0 shares none),
  // and no suffix may run past limit.
  static const char* check(const char* p, const char* limit, uint32_t n) {
    uint64_t prev_len = 0;
    for (uint32_t i = 0; i < n; i++) {
      uint64_t plen, slen;
      if ((p = vint::get_checked(p, limit, plen)) == nullptr || plen > prev_len ||
          (p = vint::get_checked(p, limit, slen)) == nullptr ||
          slen > uint64_t(limit - p)) {
        return nullptr;
      }
      p += slen;
      prev_len = plen + slen;
    }
    return p;
  }

  // Incremental decode: each step re-derives only the suffix on top of the
  // running key.
  struct cursor {
    const char* p;
    std::string cur;

    cursor(const char* keys, uint32_t) : p(keys) {}

    std::string_view next() {
      uint64_t plen, slen;
      p = vint::get(vint::get(p, plen), slen);
      cur.resize(plen);
      cur.append(p, slen);
      p += slen;
      return cur;
    }
  };

 private:
  // Length of the prefix of es[i].first shared with es[i-1].first (0 for
  // the block's first key).
  static size_t prefix_len(const entry_t* es, uint32_t i) {
    if (i == 0) return 0;
    const std::string& prev = es[i - 1].first;
    const std::string& cur = es[i].first;
    size_t lim = std::min(prev.size(), cur.size());
    size_t p = 0;
    while (p < lim && prev[p] == cur[p]) p++;
    return p;
  }
};

// ------------------------------------------------------------ delta codec --

template <typename Entry>
struct delta_codec {
  using K = typename Entry::key_t;
  using V = typename Entry::val_t;
  using entry_t = std::pair<K, V>;
  using key_arg = K;
  using values =
      std::conditional_t<std::is_integral_v<V>, varint_values<V>, raw_values<V>>;

  static constexpr bool in_place = false;
  static constexpr size_t kAlign = 1;
  // Four times the base entries per block. Every block also costs a fixed
  // 72 bytes (its 48-byte tree node and a 24-byte header with a u64 aug);
  // a base-sized block of close u64 keys and small values encodes only
  // about 110 payload bytes, so at 1x that fixed cost is two thirds of its
  // payload. At 4x it is a sixth.
  static constexpr size_t kLeafScale = 4;

  // Stamped into map_codec streams (serialize.h): 1 frames a block as
  // {u32 val_off from the payload start} + payload; streams stamped 0
  // measured {u32 bytes, u32 val_off} from the block start and are refused.
  static constexpr uint16_t kWireVersion = 1;

  static_assert(std::is_integral_v<K>,
                "PAM leaf-layout contract: key_layout::delta requires an "
                "integral key_t (the difference encoding is defined on "
                "unsigned wrap-around arithmetic); string keys must use "
                "key_layout::front_coded");

  using UK = std::make_unsigned_t<K>;
  using SK = std::make_signed_t<K>;

  static size_t key_bytes(const entry_t* es, uint32_t n) {
    size_t total = 0;
    for (uint32_t i = 0; i < n; i++) total += vint::length(code(es, i));
    return total;
  }

  static char* encode(char* dst, const entry_t* es, uint32_t n) {
    for (uint32_t i = 0; i < n; i++) dst = vint::put(dst, code(es, i));
    return dst;
  }

  static const char* check(const char* p, const char* limit, uint32_t n) {
    return vint::skip_checked(p, limit, n);
  }

  // Incremental decode: each step adds one difference to the running key.
  struct cursor {
    const char* p;
    UK cur = 0;
    bool at_base = true;

    cursor(const char* keys, uint32_t) : p(keys) {}

    PAM_NO_SANITIZE_UNSIGNED_WRAP
    K next() {
      uint64_t u;
      p = vint::get(p, u);
      cur = at_base ? base_key(u) : UK(cur + UK(vint::unzigzag(u)));
      at_base = false;
      return static_cast<K>(cur);
    }
  };

 private:
  // Varint code for key i: the base key whole, then successor differences
  // in the key's unsigned width, sign-extended into zigzag — close keys
  // yield small codes under ascending *or* descending comparators.
  PAM_NO_SANITIZE_UNSIGNED_WRAP
  static uint64_t code(const entry_t* es, uint32_t i) {
    if (i == 0) {
      if constexpr (std::is_signed_v<K>) {
        return vint::zigzag(int64_t(es[0].first));
      } else {
        return uint64_t(es[0].first);
      }
    }
    UK d = UK(UK(es[i].first) - UK(es[i - 1].first));
    return vint::zigzag(int64_t(SK(d)));
  }

  static UK base_key(uint64_t u) {
    if constexpr (std::is_signed_v<K>) {
      return UK(vint::unzigzag(u));
    } else {
      return UK(u);
    }
  }
};

// ------------------------------------------------------------- flat codec --

template <typename Entry>
struct flat_codec {
  using K = typename Entry::key_t;
  using V = typename Entry::val_t;
  using entry_t = std::pair<K, V>;
  using values = no_values;

  static constexpr bool in_place = true;
  static constexpr size_t kAlign = alignof(entry_t);
  // A base-sized block of 16-byte entries carries 512 payload bytes, so the
  // fixed per-block cost is already small next to it.
  static constexpr size_t kLeafScale = 1;

  static size_t key_bytes(const entry_t*, uint32_t n) { return size_t{n} * sizeof(entry_t); }

  // Payload bytes a block of n entries reserves: a power-of-two entry
  // capacity, so a block keeps its slot class while it grows from 2^k + 1
  // to 2^(k+1) entries. Exact quarter-step classes would fit partial blocks
  // about 20% tighter, but point inserts then move every block to a new
  // class each few entries, and the slots left behind pin pool chunks that
  // trim cannot release: after serving churn the pools reserved 2.2x their
  // live bytes, against 1.3-1.4x with this capacity.
  static size_t capacity_bytes(uint32_t n) { return std::bit_ceil(n) * sizeof(entry_t); }

  // Copy-construct the entries in place; the store destroys them on release.
  static char* encode(char* dst, const entry_t* es, uint32_t n) {
    entry_t* out = reinterpret_cast<entry_t*>(dst);
    for (uint32_t i = 0; i < n; i++) new (&out[i]) entry_t(es[i]);
    return reinterpret_cast<char*>(out + n);
  }
};

// The codec an Entry's key_layout selects.
template <typename Entry>
using codec_of = std::conditional_t<
    entry_layout_v<Entry> == key_layout::flat, flat_codec<Entry>,
    std::conditional_t<entry_layout_v<Entry> == key_layout::front_coded,
                       front_codec<Entry>, delta_codec<Entry>>>;

// A sealed block's entries as one sorted run: zero-copy into an in-place
// block's array, or a decoded copy the run owns. Move-only, since es points
// into buf for a decoded run (a move keeps buf's storage).
template <typename E>
struct entry_run {
  std::vector<E> buf;
  const E* es = nullptr;
  size_t n = 0;

  entry_run() = default;
  entry_run(entry_run&&) = default;
  entry_run& operator=(entry_run&&) = default;

  const E* data() const { return es; }
  size_t size() const { return n; }
};

// ---------------------------------------------------------------- skeleton --

// Storage for the leaf blocks of one Entry type under one Codec: build,
// serialization hooks, retain/release, in-block search and decoding, plus
// live accounting for the space experiments (shared by every balance scheme
// over the Entry).
template <typename Entry, typename Codec>
struct coded_store {
  using block = coded_block<Entry>;
  using K = typename block::K;
  using V = typename block::V;
  using A = typename block::A;
  using entry_t = typename block::entry_t;
  using traits = entry_traits<Entry>;
  using values = typename Codec::values;

  static constexpr bool in_place = Codec::in_place;
  static constexpr size_t kValAlign = values::kAlign;
  // The block's own alignment: its header's, its key stream's and its value
  // stream's. Slots are rounded up to it, not to max_align_t.
  static constexpr size_t kAlign = std::max({alignof(block), Codec::kAlign, kValAlign});
  static constexpr size_t kPayloadOffset = (sizeof(block) + kAlign - 1) / kAlign * kAlign;

  // Encode n sorted unique entries (1 <= n <= kMaxLeafBlock) into a fresh
  // sealed block.
  static block* build(const entry_t* es, uint32_t n) {
    size_t key_end = Codec::key_bytes(es, n);
    size_t val_off = (key_end + kValAlign - 1) / kValAlign * kValAlign;
    block* b = allocate(val_off + values::bytes(es, n), n, val_off);
    char* p = payload(b);
    char* pad = Codec::encode(p, es, n);
    std::memset(pad, 0, size_t(p + val_off - pad));
    values::encode(p + val_off, es, n);
    new (&b->aug) A(fold(es, n));
    return b;
  }

  // ------------------------------------------------- serialization hooks --
  // A sealed block serializes as its payload — key stream, pad and value
  // stream exactly as laid out in memory — because every codec's encoding
  // is position-independent. For coded blocks val_off travels in the frame
  // and the payload length is the record's; the augmented value is
  // recomputed on rebuild, never trusted from disk. A flat payload can
  // leave as one memcpy only when its entries are plain bytes:
  // scratch_storable (std::pair is never trivially copyable, so that trait
  // would reject every entry) and padding_free (a pad byte would carry
  // recycled pool contents to disk). Flat readers rebuild through build().
  static constexpr bool raw_payload =
      !in_place || (scratch_storable<entry_t> && padding_free<entry_t>);

  static size_t payload_bytes(const block* b) {
    return b->val_off + values::length(payload(b) + b->val_off, b->count);
  }

  static const char* payload(const block* b) {
    return reinterpret_cast<const char*>(b) + kPayloadOffset;
  }

  // Rebuild a sealed coded block from its `len`-byte payload. Returns
  // nullptr when the framing is internally inconsistent — a key or value
  // stream the codec rejects, a pad that breaks the pad rule, a misaligned
  // value stream — so a decoder can never be walked outside the slot. Key
  // *ordering* is the serializer's check (map_codec re-compares decoded
  // keys); CRC checks at the store layer catch torn media; this guards the
  // in-memory decode paths.
  static block* from_payload(const char* region, size_t len, uint32_t count,
                             uint32_t val_off) {
    static_assert(!in_place, "flat blocks are rebuilt through build()");
    if (count == 0 || count > UINT16_MAX || val_off > len || val_off % kValAlign != 0) {
      return nullptr;
    }
    const char* vals = region + val_off;
    const char* pad = Codec::check(region, vals, count);
    if (pad == nullptr || size_t(vals - pad) >= kValAlign ||
        std::any_of(pad, vals, [](char c) { return c != 0; }) ||
        !values::check(vals, len - val_off, count)) {
      return nullptr;
    }
    block* b = allocate(len, count, val_off);
    std::memcpy(payload(b), region, len);
    if constexpr (traits::has_aug) {
      std::vector<entry_t> es;
      es.reserve(count);
      decode_all(b, es);
      new (&b->aug) A(fold(es.data(), count));
    } else {
      new (&b->aug) A();
    }
    return b;
  }

  static block* retain(block* b) {
    b->ref_cnt.fetch_add(1, std::memory_order_relaxed);
    return b;
  }

  // Drop one reference; the last one destroys a flat block's entries (coded
  // keys are encoded bytes and coded values trivially copyable) and frees
  // the slot.
  static void release(block* b) {
    if (b->ref_cnt.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    if constexpr (in_place && !std::is_trivially_destructible_v<entry_t>) {
      entry_t* es = reinterpret_cast<entry_t*>(payload(b));
      for (uint32_t i = 0; i < b->count; i++) es[i].~entry_t();
    }
    b->aug.~A();
    if (b->cls != block::kOverflowClass) {
      pool(b->cls).deallocate(b);
    } else {
      table().overflow_blocks.fetch_sub(1, std::memory_order_relaxed);
      table().overflow_bytes.fetch_sub(
          static_cast<int64_t>(kPayloadOffset + payload_bytes(b)), std::memory_order_relaxed);
      ::operator delete(b, std::align_val_t{kAlign});
    }
  }

  // ------------------------------------------------------------- reading --

  // The sorted entry array of a flat block.
  static const entry_t* entries(const block* b) {
    static_assert(in_place, "only flat blocks hold an entry array");
    return reinterpret_cast<const entry_t*>(payload(b));
  }

  // All n entries as one run: a flat block's own array, or a decode with
  // the keys materialized.
  static entry_run<entry_t> read(const block* b) {
    entry_run<entry_t> r;
    if constexpr (in_place) {
      r.es = entries(b);
    } else {
      r.buf.reserve(b->count);
      decode_all(b, r.buf);
      r.es = r.buf.data();
    }
    r.n = b->count;
    return r;
  }

  // Append all n entries of a coded block, keys materialized, onto out.
  static void decode_all(const block* b, std::vector<entry_t>& out) {
    typename Codec::cursor c(payload(b), b->count);
    typename values::reader vr(payload(b) + b->val_off);
    for (uint32_t i = 0; i < b->count; i++) out.emplace_back(c.next(), vr.next());
  }

  static V value_at(const block* b, uint32_t i) {
    if constexpr (in_place) {
      return entries(b)[i].second;
    } else {
      return values::at(payload(b) + b->val_off, i);
    }
  }

  // Entry i (a coded block decodes the key chain up to i).
  static entry_t entry_at(const block* b, uint32_t i) {
    if constexpr (in_place) {
      return entries(b)[i];
    } else {
      typename Codec::cursor c(payload(b), b->count);
      for (uint32_t j = 0; j < i; j++) c.next();
      return {K(c.next()), value_at(b, i)};
    }
  }

  // First slot i with !(key_i < k); *eq (optional) reports key_i == k.
  template <typename Key>
  static uint32_t lower_idx(const block* b, const Key& k, bool* eq) {
    if constexpr (in_place) {
      const entry_t* es = entries(b);
      auto pos = static_cast<uint32_t>(block_lower_idx<Entry>(es, b->count, k));
      if (eq != nullptr) *eq = pos < b->count && !Entry::comp(k, es[pos].first);
      return pos;
    } else {
      const typename Codec::key_arg ka = k;
      typename Codec::cursor c(payload(b), b->count);
      for (uint32_t i = 0; i < b->count; i++) {
        typename Codec::key_arg key = c.next();
        if (!Entry::comp(key, ka)) {
          if (eq != nullptr) *eq = !Entry::comp(ka, key);
          return i;
        }
      }
      if (eq != nullptr) *eq = false;
      return b->count;
    }
  }

  // First slot i with k < key_i.
  template <typename Key>
  static uint32_t upper_idx(const block* b, const Key& k) {
    if constexpr (in_place) {
      return static_cast<uint32_t>(block_upper_idx<Entry>(entries(b), b->count, k));
    } else {
      const typename Codec::key_arg ka = k;
      typename Codec::cursor c(payload(b), b->count);
      for (uint32_t i = 0; i < b->count; i++) {
        if (Entry::comp(ka, c.next())) return i;
      }
      return b->count;
    }
  }

  // -------------------------------------------------------- accounting --

  // Live blocks / bytes across all maps of this Entry type (Table 4). Bytes
  // count full slot footprints.
  static int64_t used_blocks() {
    int64_t total = table().overflow_blocks.load(std::memory_order_relaxed);
    for (int c = 0; c < kByteClasses; c++) {
      raw_pool* p = table().pools[c].load(std::memory_order_acquire);
      if (p != nullptr) total += p->used();
    }
    return total;
  }

  static int64_t used_bytes() {
    int64_t total = table().overflow_bytes.load(std::memory_order_relaxed);
    for (int c = 0; c < kByteClasses; c++) {
      raw_pool* p = table().pools[c].load(std::memory_order_acquire);
      if (p != nullptr) total += p->used() * static_cast<int64_t>(p->slot_bytes());
    }
    return total;
  }

 private:
  static char* payload(block* b) { return reinterpret_cast<char*>(b) + kPayloadOffset; }

  static A fold(const entry_t* es, uint32_t n) {
    if constexpr (traits::has_aug) {
      return fold_entries_assoc<traits>(es, 0, n);
    } else {
      return A();
    }
  }

  // A pool slot or counted overflow allocation for a block with a
  // `len`-byte payload, with every header field but aug set.
  static block* allocate(size_t len, uint32_t n, size_t val_off) {
    size_t want = len;
    if constexpr (in_place) want = Codec::capacity_bytes(n);
    int cls = byte_class_of(want);
    block* b;
    if (cls < kByteClasses) {
      b = static_cast<block*>(pool(cls).allocate());
    } else {
      size_t total = kPayloadOffset + len;
      b = static_cast<block*>(::operator new(total, std::align_val_t{kAlign}));
      table().overflow_blocks.fetch_add(1, std::memory_order_relaxed);
      table().overflow_bytes.fetch_add(static_cast<int64_t>(total),
                                       std::memory_order_relaxed);
    }
    new (&b->ref_cnt) std::atomic<uint32_t>(1);
    b->count = static_cast<uint16_t>(n);
    b->cls = static_cast<int16_t>(cls < kByteClasses ? cls : block::kOverflowClass);
    b->val_off = static_cast<uint32_t>(val_off);
    return b;
  }

  struct pool_table {
    // pam-lint: allow(unguarded-mutex) — mu serializes pool *creation*
    // only; the pools themselves are published through the atomics and
    // read lock-free (double-checked init in pool() below), so there is
    // no member for GUARDED_BY to name.
    mutex mu;
    std::array<std::atomic<raw_pool*>, kByteClasses> pools{};
    std::atomic<int64_t> overflow_blocks{0};
    std::atomic<int64_t> overflow_bytes{0};
  };

  static pool_table& table() {
    static pool_table* t = new pool_table();  // immortal
    return *t;
  }

  // One pool per payload class; block_pool rounds the slot up to kAlign.
  static raw_pool& pool(int cls) {
    pool_table& t = table();
    raw_pool* p = t.pools[cls].load(std::memory_order_acquire);
    if (p == nullptr) {
      mutex_guard lock(t.mu);
      p = t.pools[cls].load(std::memory_order_relaxed);
      if (p == nullptr) {
        p = new raw_pool(kPayloadOffset + byte_class_slot(cls), kAlign);  // immortal
        t.pools[cls].store(p, std::memory_order_release);
      }
    }
    return *p;
  }
};

}  // namespace pam
