// Byte-exact map serialization: the kernel half of the durability layer.
//
// map_codec<Map> turns a map into a self-framing record stream and back:
//
//   [ u32 magic | u8 layout | u8 byte_order | u16 entry_abi |
//     u64 total_entries | u32 record_count | records... ]
//
//   record := u8 kind | u32 count | u32 payload_len | payload
//
// Five record kinds, chosen by the entry's type traits and the tree region
// during an in-order walk:
//
//   kRun        per-field encoded entries (wire::field_codec): the node
//               entries between blocks, flushed every kRunFlush entries, for every
//               entry that is not an integer pair; std::string keys forced
//               flat send their blocks this way too;
//   kRunDelta   the same runs for integer pairs, delta-coded like
//               kFlatDelta;
//   kFlatRaw    a sealed flat leaf block as one memcpy of its entry array,
//               for plain, padding-free entries that are not integer pairs
//               (coded_store::raw_payload, e.g. double keys). Readers also
//               accept it for integer pairs: streams written before the
//               delta-coded kinds existed carry those blocks this way;
//   kCodedRaw   a sealed front-coded or delta-coded block as its payload:
//               {u32 val_off} + the layout's byte streams, with val_off
//               measured from the payload start and the payload length
//               taken from the record's, so the frame is independent of the
//               in-memory header. The u8 layout stamp in the header (the
//               numeric key_layout value) keeps the two coded layouts from
//               misreading each other's streams, and the u16 entry_abi
//               stamp carries the codec's record format version, so a
//               stream of an older block framing is refused;
//   kFlatDelta  a sealed flat leaf block whose key and value types are both
//               integral (not bool), difference-encoded on the way out:
//               {u32 key_bytes, key stream, value stream}, the byte streams
//               of a delta-layout block (delta_codec and varint_values in
//               pam/coded_block.h). The reader validates them with the
//               codec's checked decoders and rebuilds a flat block.
//
// The delta-coded kinds shrink a 1M-entry sum_entry<u64, u64> stream (keys
// at density 1/2, values below 1000, B = 32) from 16.56 MB to 3.81 MB.
//
// Writing is one walk over a byte sink, run twice by a writer that needs
// the size first: measure() over a counting sink gives the exact stream
// size and record count, and encode() writes the same bytes through any
// sink — a vector, or the checkpoint writer's page cursor
// (store/checkpoint.h).
//
// Deserialization rebuilds each record into a map piece (flat blocks through
// coded_store::build, coded blocks through coded_store::from_payload, runs
// through from_sorted_unique) and folds the pieces left-to-right with
// join2, checking key ordering inside every record and at every boundary.
// The augmented values of rebuilt blocks are recomputed, never read from
// the payload. Integrity of the bytes themselves is the caller's
// contract: the durability layer (src/store/) wraps these streams in
// CRC32C-checked pages, and deserialize throws pam::wire::error on any
// framing it cannot prove consistent (truncation, bad counts, out-of-order
// keys, undecodable blocks).
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "pam/augmented_map.h"
#include "pam/node.h"

namespace pam {

// ------------------------------------------------------------------ wire --
// Plain-data framing helpers shared by the map codec and the store layer's
// WAL/manifest formats (reached through pam/pam.h). Multi-byte fields
// travel in the writing host's NATIVE byte order (put_pod/reader::pod are
// memcpys, and CRCs are seeded over in-memory values), so on-disk files
// are not portable across hosts of different endianness. The map codec
// stamps kHostByteOrder in its header so a cross-endian load fails loudly
// there; manifest and page CRCs fail closed before anything else is
// interpreted.

namespace wire {

// 1 = little-endian, 2 = big-endian: the byte-order stamp written into
// every map_codec stream header and checked on deserialize.
inline constexpr uint8_t kHostByteOrder =
#if defined(__BYTE_ORDER__) && defined(__ORDER_BIG_ENDIAN__) && \
    (__BYTE_ORDER__ == __ORDER_BIG_ENDIAN__)
    2;
#else
    1;
#endif

class error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Byte sinks: the writers below take any type with put(const void*, size_t),
// and std::vector<char> (appended to) through the put_bytes overload.
inline void put_bytes(std::vector<char>& out, const void* p, size_t n) {
  const char* c = static_cast<const char*>(p);
  out.insert(out.end(), c, c + n);
}

template <typename Sink>
void put_bytes(Sink& out, const void* p, size_t n) {
  out.put(p, n);
}

template <typename Sink, typename T>
void put_pod(Sink& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  put_bytes(out, &v, sizeof(T));
}

template <typename Sink>
void put_u8(Sink& out, uint8_t v) { put_pod(out, v); }
template <typename Sink>
void put_u16(Sink& out, uint16_t v) { put_pod(out, v); }
template <typename Sink>
void put_u32(Sink& out, uint32_t v) { put_pod(out, v); }
template <typename Sink>
void put_u64(Sink& out, uint64_t v) { put_pod(out, v); }

// Counts what is written through it: the sizing pass of a writer that must
// know its output's exact length before it writes.
struct byte_counter {
  size_t bytes = 0;
  void put(const void*, size_t n) { bytes += n; }
};

// Bounds-checked sequential reader over a byte range; every primitive
// throws wire::error instead of reading past `end`.
struct reader {
  const char* p;
  const char* end;

  reader(const char* data, size_t n) : p(data), end(data + n) {}

  size_t remaining() const { return static_cast<size_t>(end - p); }

  void require(size_t n) const {
    if (remaining() < n) throw error("pam::wire: truncated input");
  }

  const char* skip(size_t n) {
    require(n);
    const char* at = p;
    p += n;
    return at;
  }

  void read_bytes(void* dst, size_t n) { std::memcpy(dst, skip(n), n); }

  template <typename T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    read_bytes(&v, sizeof(T));
    return v;
  }

  uint8_t u8() { return pod<uint8_t>(); }
  uint16_t u16() { return pod<uint16_t>(); }
  uint32_t u32() { return pod<uint32_t>(); }
  uint64_t u64() { return pod<uint64_t>(); }
};

// Per-field value codec: trivially copyable types travel raw; std::string
// as u32 length + bytes; pairs member-wise. This is the encoding of kRun
// records and of the store layer's WAL batch payloads. kMinBytes is the
// fewest bytes one encoded value takes, which bounds any decoded count.
template <typename T, typename = void>
struct field_codec {
  static_assert(std::is_trivially_copyable_v<T>,
                "wire::field_codec: provide a specialization for "
                "non-trivially-copyable fields");
  static constexpr size_t kMinBytes = sizeof(T);
  template <typename Sink>
  static void write(const T& v, Sink& out) { put_pod(out, v); }
  static T read(reader& r) { return r.template pod<T>(); }
};

template <>
struct field_codec<std::string> {
  static constexpr size_t kMinBytes = sizeof(uint32_t);
  template <typename Sink>
  static void write(const std::string& s, Sink& out) {
    put_u32(out, static_cast<uint32_t>(s.size()));
    put_bytes(out, s.data(), s.size());
  }
  static std::string read(reader& r) {
    uint32_t n = r.u32();
    const char* at = r.skip(n);
    return std::string(at, n);
  }
};

template <typename A, typename B>
struct field_codec<std::pair<A, B>> {
  static constexpr size_t kMinBytes = field_codec<A>::kMinBytes + field_codec<B>::kMinBytes;
  template <typename Sink>
  static void write(const std::pair<A, B>& v, Sink& out) {
    field_codec<A>::write(v.first, out);
    field_codec<B>::write(v.second, out);
  }
  static std::pair<A, B> read(reader& r) {
    // Braced init pins left-to-right evaluation of the two reads.
    return {field_codec<A>::read(r), field_codec<B>::read(r)};
  }
};

}  // namespace wire

// ------------------------------------------------------------- map codec --

template <typename Map>
struct map_codec {
  using ops = typename Map::ops;
  using node = typename Map::node;
  using K = typename Map::K;
  using V = typename Map::V;
  using entry_t = typename Map::entry_t;
  using lstore = typename ops::lstore;
  using lblock = typename ops::lblock;

  static constexpr uint32_t kMagic = 0x314D4150;  // "PAM1"
  static constexpr uint8_t kRun = 1;
  static constexpr uint8_t kFlatRaw = 2;
  static constexpr uint8_t kCodedRaw = 3;
  static constexpr uint8_t kFlatDelta = 4;
  static constexpr uint8_t kRunDelta = 5;
  // Runs of node entries flush at this many entries so one record never grows
  // unbounded (the store layer re-chunks streams into fixed-size pages).
  static constexpr size_t kRunFlush = 4096;

  static constexpr bool flat = lstore::in_place;
  // Do this layout's entries travel delta-coded (kFlatDelta, kRunDelta)?
  // bool is left out: it has no difference encoding, and a varint other
  // than 0 or 1 would not round-trip.
  template <typename T>
  static constexpr bool delta_field = std::is_integral_v<T> && !std::is_same_v<T, bool>;
  static constexpr bool delta_entries = flat && delta_field<K> && delta_field<V>;
  using key_stream = delta_codec<typename Map::entry_policy>;
  using value_stream = varint_values<V>;
  // Can this layout's sealed blocks travel as raw payloads?
  static constexpr bool raw_blocks = lstore::raw_payload;
  // The ABI stamp pins sizeof(entry_t) wherever kFlatRaw records can occur,
  // and a coded layout's record format version (codec kWireVersion), so a
  // stream written by one build cannot be misread by another.
  static constexpr uint16_t entry_abi = [] {
    if constexpr (flat) {
      return raw_blocks ? static_cast<uint16_t>(sizeof(entry_t)) : uint16_t{0};
    } else {
      return codec_of<typename Map::entry_policy>::kWireVersion;
    }
  }();

  // ------------------------------------------------------------ writing --

  // A stream's exact byte size and record count: what a writer needs to lay
  // the stream out before writing it (store/checkpoint.h sizes a whole data
  // file from these, then writes each stream into its pages in place).
  struct extent {
    size_t bytes = 0;
    uint32_t records = 0;
  };

  // The sizing pass: the encoding walk over a counting sink. Raw blocks
  // cost one header read each (plus a skip over the value varints of a
  // delta-layout block), kFlatDelta blocks one length sum over their
  // entries; nothing is encoded.
  static extent measure(const Map& m) {
    wire::byte_counter c;
    extent e;
    e.records = emit(m, 0, c);
    e.bytes = c.bytes;
    return e;
  }

  // Write m's stream, exactly e.bytes bytes with e = measure(m), through
  // `out` (any wire sink).
  template <typename Sink>
  static void encode(const Map& m, const extent& e, Sink& out) {
    emit(m, e.records, out);
  }

  static void serialize(const Map& m, std::vector<char>& out) {
    extent e = measure(m);
    out.reserve(out.size() + e.bytes);
    encode(m, e, out);
  }

  // ------------------------------------------------------------ reading --

  static Map deserialize(const char* data, size_t n) {
    wire::reader r(data, n);
    if (r.u32() != kMagic) throw wire::error("map_codec: bad magic");
    uint8_t layout = r.u8();
    if (layout != static_cast<uint8_t>(ops::layout)) {
      throw wire::error("map_codec: layout mismatch");
    }
    if (r.u8() != wire::kHostByteOrder) {
      throw wire::error(
          "map_codec: byte-order mismatch — stream written on a host of "
          "different endianness");
    }
    if (r.u16() != entry_abi) {
      throw wire::error("map_codec: entry ABI mismatch");
    }
    uint64_t total = r.u64();
    uint32_t records = r.u32();

    node* acc = nullptr;
    bool have_last = false;
    K last_key{};
    std::vector<entry_t> es;  // one record's entries, reused across records
    try {
      for (uint32_t i = 0; i < records; i++) {
        uint8_t kind = r.u8();
        uint32_t count = r.u32();
        uint32_t len = r.u32();
        const char* payload = r.skip(len);
        K first{}, last{};
        node* piece = read_record(kind, count, payload, len, es, first, last);
        if (have_last && !ops::less(last_key, first)) {
          ops::dec(piece);
          throw wire::error("map_codec: records out of key order");
        }
        last_key = std::move(last);
        have_last = true;
        acc = ops::join2(acc, piece);
      }
    } catch (...) {
      ops::dec(acc);
      throw;
    }
    if (ops::size(acc) != total) {
      ops::dec(acc);
      throw wire::error("map_codec: entry count mismatch");
    }
    return Map(acc);
  }

 private:
  template <typename Sink>
  struct state {
    Sink* out;
    std::vector<entry_t> run;
    uint32_t records;
    std::vector<char> streams;  // one delta-coded payload, encoded
  };

  // Write the stream header, claiming `records` records, then every record;
  // returns how many records were written.
  template <typename Sink>
  static uint32_t emit(const Map& m, uint32_t records, Sink& out) {
    wire::put_u32(out, kMagic);
    wire::put_u8(out, static_cast<uint8_t>(ops::layout));
    wire::put_u8(out, wire::kHostByteOrder);
    wire::put_u16(out, entry_abi);
    wire::put_u64(out, static_cast<uint64_t>(m.size()));
    wire::put_u32(out, records);
    state<Sink> s{&out, {}, 0, {}};
    walk(m.root_, s);
    flush_run(s);
    return s.records;
  }

  template <typename Sink>
  static void put_record_header(state<Sink>& s, uint8_t kind, uint32_t count, size_t len) {
    wire::put_u8(*s.out, kind);
    wire::put_u32(*s.out, count);
    wire::put_u32(*s.out, static_cast<uint32_t>(len));
    s.records++;
  }

  template <typename Sink>
  static void flush_run(state<Sink>& s) {
    if (s.run.empty()) return;
    auto n = static_cast<uint32_t>(s.run.size());
    if constexpr (delta_entries) {
      emit_delta(kRunDelta, s.run.data(), n, s);
    } else {
      wire::byte_counter len;
      for (const entry_t& e : s.run) wire::field_codec<entry_t>::write(e, len);
      put_record_header(s, kRun, n, len.bytes);
      for (const entry_t& e : s.run) wire::field_codec<entry_t>::write(e, *s.out);
    }
    s.run.clear();
  }

  // n sorted entries as one delta-coded record: u32 key_bytes, then the key
  // and value streams. The sizing pass sums the codec's lengths; the writing
  // pass encodes into the state's buffer, then copies out.
  template <typename Sink>
  static void emit_delta(uint8_t kind, const entry_t* es, uint32_t n, state<Sink>& s) {
    if constexpr (std::is_same_v<Sink, wire::byte_counter>) {
      size_t len = sizeof(uint32_t) + key_stream::key_bytes(es, n) + value_stream::bytes(es, n);
      put_record_header(s, kind, n, len);
      s.out->bytes += len;
    } else {
      size_t most = 2 * size_t{n} * vint::kMaxLen;
      if (s.streams.size() < most) s.streams.resize(most);
      char* keys = s.streams.data();
      char* vals = key_stream::encode(keys, es, n);
      char* end = value_stream::encode(vals, es, n);
      put_record_header(s, kind, n, sizeof(uint32_t) + size_t(end - keys));
      wire::put_u32(*s.out, static_cast<uint32_t>(vals - keys));
      wire::put_bytes(*s.out, keys, size_t(end - keys));
    }
  }

  template <typename Sink>
  static void emit_block(const lblock* b, state<Sink>& s) {
    flush_run(s);
    if constexpr (delta_entries) {
      emit_delta(kFlatDelta, lstore::entries(b), b->count, s);
    } else {
      size_t len = lstore::payload_bytes(b);
      if constexpr (flat) {
        put_record_header(s, kFlatRaw, b->count, len);
      } else {
        put_record_header(s, kCodedRaw, b->count, sizeof(uint32_t) + len);
        wire::put_u32(*s.out, b->val_off);
      }
      wire::put_bytes(*s.out, lstore::payload(b), len);
    }
  }

  template <typename Sink>
  static void walk(const node* t, state<Sink>& s) {
    if (t == nullptr) return;
    if (ops::is_block(t)) {
      if constexpr (delta_entries || raw_blocks) {
        emit_block(ops::block_of(t), s);
      } else {
        // std::string keys forced flat: decode and ride the encoded run.
        auto run = lstore::read(ops::block_of(t));
        for (size_t i = 0; i < run.size(); i++) {
          s.run.push_back(run.data()[i]);
          if (s.run.size() >= kRunFlush) flush_run(s);
        }
      }
      return;
    }
    walk(t->left, s);
    s.run.emplace_back(t->key, t->value);
    if (s.run.size() >= kRunFlush) flush_run(s);
    walk(t->right, s);
  }

  // Rebuild one record into an owned map piece; reports the piece's first
  // and last key for the cross-record ordering check. Every kind decodes to
  // its entries, which are checked for key order; a block kind becomes one
  // sealed block, a run kind goes through from_sorted_unique.
  static node* read_record(uint8_t kind, uint32_t count, const char* payload,
                           uint32_t len, std::vector<entry_t>& es, K& first, K& last) {
    if (count == 0) throw wire::error("map_codec: empty record");
    es.clear();
    lblock* adopted = nullptr;  // kCodedRaw: the block rebuilt from its region
    switch (kind) {
      case kRun:
        read_fields(count, payload, len, es);
        break;
      case kFlatRaw:
        if constexpr (flat && raw_blocks) {
          if (count > kMaxLeafBlock ||
              size_t{len} != size_t{count} * sizeof(entry_t)) {
            throw wire::error("map_codec: bad flat block frame");
          }
          es.resize(count);
          std::memcpy(static_cast<void*>(es.data()), payload, len);
        } else {
          throw wire::error("map_codec: flat block in non-flat stream");
        }
        break;
      case kFlatDelta:
      case kRunDelta:
        if constexpr (delta_entries) {
          if (kind == kFlatDelta && count > kMaxLeafBlock) {
            throw wire::error("map_codec: delta-coded block larger than a leaf block");
          }
          read_delta(count, payload, len, es);
        } else {
          throw wire::error("map_codec: delta-coded record in a stream that has none");
        }
        break;
      case kCodedRaw:
        if constexpr (!flat) {
          if (count > kMaxLeafBlock || len < sizeof(uint32_t)) {
            throw wire::error("map_codec: bad coded block frame");
          }
          wire::reader pr(payload, len);
          uint32_t val_off = pr.u32();
          adopted = lstore::from_payload(pr.p, pr.remaining(), count, val_off);
          if (adopted == nullptr) {
            throw wire::error("map_codec: inconsistent coded block");
          }
          // Bounds-safe after from_payload's frame validation.
          es.reserve(count);
          lstore::decode_all(adopted, es);
        } else {
          throw wire::error("map_codec: coded block in flat stream");
        }
        break;
      default:
        throw wire::error("map_codec: unknown record kind");
    }
    for (size_t i = 1; i < es.size(); i++) {
      if (!ops::less(es[i - 1].first, es[i].first)) {
        if (adopted != nullptr) lstore::release(adopted);
        throw wire::error("map_codec: record entries out of key order");
      }
    }
    first = es.front().first;
    last = es.back().first;
    if (kind == kRun || kind == kRunDelta) return ops::from_sorted_unique(es.data(), es.size());
    return ops::as_leaf(adopted != nullptr ? adopted : lstore::build(es.data(), count));
  }

  // A kRun payload: count field_codec entries, exactly filling it.
  static void read_fields(uint32_t count, const char* payload, uint32_t len,
                          std::vector<entry_t>& es) {
    // Bound the count by the payload before reserving for it, so a corrupt
    // count is a wire::error and never a huge allocation.
    if (count > len / wire::field_codec<entry_t>::kMinBytes) {
      throw wire::error("map_codec: run count exceeds its payload");
    }
    wire::reader pr(payload, len);
    es.reserve(count);
    for (uint32_t i = 0; i < count; i++) es.push_back(wire::field_codec<entry_t>::read(pr));
    if (pr.remaining() != 0) {
      throw wire::error("map_codec: run payload length mismatch");
    }
  }

  // A delta-coded payload: u32 key_bytes, then exactly count key varints in
  // that many bytes and count value varints in the rest, both validated by
  // the codec's checked decoders before the trusted decode (which also
  // bounds count by the payload before anything is reserved).
  static void read_delta(uint32_t count, const char* payload, uint32_t len,
                         std::vector<entry_t>& es) {
    wire::reader pr(payload, len);
    uint32_t key_len = pr.u32();
    if (key_len > pr.remaining()) {
      throw wire::error("map_codec: key stream runs past its payload");
    }
    const char* keys = pr.p;
    const char* vals = keys + key_len;
    if (key_stream::check(keys, vals, count) != vals ||
        !value_stream::check(vals, size_t(pr.end - vals), count)) {
      throw wire::error("map_codec: undecodable delta-coded record");
    }
    es.reserve(count);
    typename key_stream::cursor kc(keys, count);
    typename value_stream::reader vr(vals);
    for (uint32_t i = 0; i < count; i++) es.emplace_back(kc.next(), vr.next());
  }
};

}  // namespace pam
