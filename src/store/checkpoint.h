// Checkpoint files: CRC32C-checksummed pages, an atomic rename-to-commit
// manifest, and full/incremental snapshot streams.
//
// A checkpoint persists one consistent cut (the object sharded_map
// publishes, via snapshot_all_versioned) as data files plus a manifest:
//
//   ckpt-<id>-full.pam    one map_codec stream per shard, paged
//   ckpt-<id>-delta.pam   one change stream, paged: the current entry (or
//                         its absence) of every key the WAL logged since
//                         the previous checkpoint, so its size tracks the
//                         churn, not the map
//   manifest-<id>         the chain: splitters, covered WAL seq, and the
//                         data files to apply in order (full, then deltas)
//   CURRENT               the name of the committed manifest
//
// Page framing (native byte order — see the wire note in pam/serialize.h;
// checkpoint files are not portable across hosts of different endianness,
// and a cross-endian load fails closed on the manifest CRC / the map
// codec's byte-order stamp):
//
//   [ u32 magic | u32 shard | u32 index | u32 len | u8 last | u32 crc |
//     payload(len) ]
//
// crc is CRC32C over (shard, index, len, last, payload). A stream larger
// than page_bytes spans consecutive pages with increasing index; `last`
// closes it. A data file is every stream's pages, stream after stream.
//
// The writer makes one pass over the bytes it writes, one scheduler task
// per shard. map_codec::measure gives every shard stream's exact size,
// which fixes the whole file's page layout; one page_image buffer of
// exactly the file's size is allocated; each stream is encoded straight
// into its own disjoint pages through a page_cursor that steps over the
// header slots; the pages are then checksummed in place, in parallel, and
// the file goes out as one append and one fsync. The bytes do not depend
// on how the tasks were scheduled. Sealed leaf blocks reach their pages as
// one memcpy each (kFlatRaw / kCodedRaw) or difference-encoded
// (kFlatDelta, integer flat blocks).
//
// Readers reject any page that fails its checksum or breaks the index
// chain, and any stream that never saw its last page — so a checkpoint
// interrupted mid-write is never loadable, even though it is also never
// referenced (its manifest was never committed).
//
// Commit protocol: data file(s) written and fsynced -> manifest written and
// fsynced -> directory synced -> CURRENT.tmp written, fsynced, renamed
// onto CURRENT, directory synced. The rename is the commit point: a crash
// anywhere before it leaves the previous checkpoint current, and partial
// files from the dead attempt are garbage that recovery never reads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "alloc/scratch_buffer.h"
#include "obs/trace.h"
#include "pam/pam.h"
#include "server/sharded_map.h"
#include "store/crc32c.h"
#include "store/file.h"
#include "util/env.h"

namespace pam::store {

// ------------------------------------------------------------ env config --

// All knobs ride the validated env parsers (util/env.h): trailing garbage
// and ERANGE fall back to the default, then clamp to the sane range.
struct ckpt_config {
  // Target page payload size (PAM_CKPT_PAGE_BYTES, clamped to
  // [4 KiB, 64 MiB]): bounds how much data one torn page can poison.
  size_t page_bytes = size_t{1} << 20;
  // Force a full checkpoint after this many incrementals
  // (PAM_CKPT_MAX_CHAIN, >= 1): bounds recovery's apply chain.
  long max_chain = 8;
  // Write a full checkpoint when the delta stream exceeds this fraction of
  // the last full checkpoint's bytes (PAM_CKPT_INCR_RATIO, in [0, 1]):
  // past that point replaying the delta saves nothing.
  double incr_max_ratio = 0.5;

  static ckpt_config from_env() {
    ckpt_config c;
    long pb = env_long("PAM_CKPT_PAGE_BYTES", static_cast<long>(c.page_bytes));
    if (pb < 4 * 1024) pb = 4 * 1024;
    if (pb > 64 * 1024 * 1024) pb = 64 * 1024 * 1024;
    c.page_bytes = static_cast<size_t>(pb);
    long mc = env_long("PAM_CKPT_MAX_CHAIN", c.max_chain);
    if (mc < 1) mc = 1;
    c.max_chain = mc;
    double r = env_double("PAM_CKPT_INCR_RATIO", c.incr_max_ratio);
    if (r < 0.0) r = 0.0;
    if (r > 1.0) r = 1.0;
    c.incr_max_ratio = r;
    return c;
  }
};

// ---------------------------------------------------------- page framing --

inline constexpr uint32_t kCkptMagic = 0x54504B43;   // "CKPT"
inline constexpr uint32_t kManifestMagic = 0x464E4D50;  // "PMNF"
inline constexpr uint32_t kDeltaShard = 0xFFFFFFFF;
inline constexpr size_t kCkptPageHeader = 4 + 4 + 4 + 4 + 1 + 4;

inline std::string ckpt_file_name(uint64_t id, bool full) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "ckpt-%016llx-%s.pam",
                static_cast<unsigned long long>(id), full ? "full" : "delta");
  return buf;
}

inline std::string manifest_file_name(uint64_t id) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "manifest-%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

// Writes one stream's bytes into its pages' payload slots, stepping over the
// page header between consecutive pages: the wire sink the checkpoint
// writer encodes through. It holds exactly the stream's measured size, and
// a write past that is a writer bug, refused before it touches memory.
class page_cursor {
 public:
  page_cursor(char* first_payload, size_t page_bytes, size_t stream_bytes)
      : p_(first_payload),
        room_(stream_bytes < page_bytes ? stream_bytes : page_bytes),
        left_(stream_bytes),
        page_bytes_(page_bytes) {}

  void put(const void* src, size_t n) {
    if (n > left_) throw std::logic_error("page_cursor: write past the measured stream");
    left_ -= n;
    const char* s = static_cast<const char*>(src);
    while (n > room_) {
      std::memcpy(p_, s, room_);
      s += room_;
      n -= room_;
      p_ += room_ + kCkptPageHeader;
      room_ = page_bytes_;
    }
    std::memcpy(p_, s, n);
    p_ += n;
    room_ -= n;
  }

  // Bytes of the stream not yet written.
  size_t left() const { return left_; }

 private:
  char* p_;
  size_t room_;  // payload bytes left in the current page
  size_t left_;
  size_t page_bytes_;
};

// One data file assembled in memory in its final layout. Its streams' exact
// sizes fix every page before a byte is written, so the file is one
// allocation of its exact size: each stream is written in place through a
// page_cursor, then seal() fills in each page's header and CRC.
class page_image {
 public:
  struct stream {
    uint32_t shard;
    size_t bytes;
    size_t offset = 0;  // of the stream's first page header
  };

  page_image(std::vector<stream> streams, size_t page_bytes)
      : streams_(std::move(streams)), page_bytes_(page_bytes) {
    if (page_bytes == 0) throw std::invalid_argument("page_image: zero page size");
    size_t total = 0;
    for (stream& s : streams_) {
      s.offset = total;
      total += s.bytes + pages(s) * kCkptPageHeader;
    }
    buf_ = scratch_buffer<char>(total);
  }

  // An image of one stream already held in memory.
  static page_image of(uint32_t shard, const std::vector<char>& bytes, size_t page_bytes) {
    page_image img({{shard, bytes.size()}}, page_bytes);
    if (!bytes.empty()) img.cursor(0).put(bytes.data(), bytes.size());
    return img;
  }

  page_cursor cursor(size_t i) {
    const stream& s = streams_[i];
    return page_cursor(buf_.data() + s.offset + kCkptPageHeader, page_bytes_, s.bytes);
  }

  // Write every page header, its CRC32C over (shard, index, len, last,
  // payload) included; pages are independent, so they are sealed in
  // parallel. Call once every stream is written.
  void seal() {
    parallel_for(0, streams_.size(), [&](size_t s) {
      parallel_for(0, pages(streams_[s]), [&](size_t i) { seal_page(streams_[s], i); }, 1);
    }, 1);
  }

  const char* data() const { return buf_.data(); }
  size_t size() const { return buf_.size(); }

 private:
  // A stream spans at least one page, so an empty stream still closes.
  size_t pages(const stream& s) const {
    return s.bytes == 0 ? 1 : (s.bytes + page_bytes_ - 1) / page_bytes_;
  }

  void seal_page(const stream& s, size_t i) {
    char* h = buf_.data() + s.offset + i * (kCkptPageHeader + page_bytes_);
    size_t off = i * page_bytes_;
    auto len = static_cast<uint32_t>(s.bytes - off < page_bytes_ ? s.bytes - off : page_bytes_);
    auto index = static_cast<uint32_t>(i);
    uint8_t last = i + 1 == pages(s) ? 1 : 0;
    std::memcpy(h, &kCkptMagic, 4);
    std::memcpy(h + 4, &s.shard, 4);
    std::memcpy(h + 8, &index, 4);
    std::memcpy(h + 12, &len, 4);
    std::memcpy(h + 16, &last, 1);
    uint32_t crc = crc32c(h + 4, 13);
    crc = crc32c(h + kCkptPageHeader, len, crc);
    std::memcpy(h + 17, &crc, 4);
  }

  std::vector<stream> streams_;
  size_t page_bytes_;
  scratch_buffer<char> buf_;
};

// Seal `img` and write it as the data file `path` with one append and one
// fsync; returns the bytes written. The file is complete on return but
// unreferenced until a manifest naming it commits.
inline uint64_t write_data_file(file_system& fs, const std::string& path, page_image img) {
  {
    obs::span span("ckpt.crc");
    img.seal();
  }
  std::unique_ptr<file> f = fs.create(path);
  {
    obs::span span("ckpt.write");
    f->append(img.data(), img.size());
  }
  obs::span span("ckpt.sync");
  f->sync();
  return img.size();
}

// Parse a paged file back into complete (shard, stream) pairs, in order of
// first appearance. Throws wire::error on any checksum or chain violation,
// or if a stream never saw its closing page.
inline std::vector<std::pair<uint32_t, std::vector<char>>> read_page_streams(
    file_system& fs, const std::string& path) {
  std::unique_ptr<file> f = fs.open_read(path);
  uint64_t fsize = f->size();
  std::vector<char> buf(fsize);
  if (fsize > 0 && f->read_at(0, buf.data(), buf.size()) != fsize) {
    throw io_error("checkpoint file shrank mid-read: " + path);
  }
  std::vector<std::pair<uint32_t, std::vector<char>>> streams;
  std::map<uint32_t, size_t> stream_of;  // shard -> index into streams
  std::map<uint32_t, uint32_t> next_index;
  std::map<uint32_t, bool> closed;
  wire::reader r(buf.data(), buf.size());
  while (r.remaining() > 0) {
    if (r.remaining() < kCkptPageHeader) {
      throw wire::error("checkpoint: truncated page header");
    }
    uint32_t magic = r.u32();
    uint32_t shard = r.u32();
    uint32_t index = r.u32();
    uint32_t len = r.u32();
    uint8_t last = r.u8();
    uint32_t crc = r.u32();
    if (magic != kCkptMagic) throw wire::error("checkpoint: bad page magic");
    const char* payload = r.skip(len);
    uint32_t actual = crc32c(&shard, sizeof(shard));
    actual = crc32c(&index, sizeof(index), actual);
    actual = crc32c(&len, sizeof(len), actual);
    actual = crc32c(&last, sizeof(last), actual);
    actual = crc32c(payload, len, actual);
    if (actual != crc) throw wire::error("checkpoint: page checksum mismatch");
    auto it = stream_of.find(shard);
    if (it == stream_of.end()) {
      it = stream_of.emplace(shard, streams.size()).first;
      streams.emplace_back(shard, std::vector<char>());
      next_index[shard] = 0;
      closed[shard] = false;
    }
    if (closed[shard] || index != next_index[shard]) {
      throw wire::error("checkpoint: page chain violation");
    }
    next_index[shard] = index + 1;
    if (last != 0) closed[shard] = true;
    auto& dst = streams[it->second].second;
    dst.insert(dst.end(), payload, payload + len);
  }
  for (const auto& [shard, idx] : stream_of) {
    if (!closed[shard]) {
      throw wire::error("checkpoint: stream missing its final page");
    }
    (void)idx;
  }
  return streams;
}

// ------------------------------------------------------------- manifests --

// The per-Map checkpoint codec: manifests (which embed splitter keys),
// full-cut streams, delta streams, and the load path.
template <typename Map>
struct checkpoint_io {
  using K = typename Map::K;
  using V = typename Map::V;
  using entry_t = typename Map::entry_t;
  using snapshot_t = sharded_snapshot<Map>;

  struct manifest_t {
    uint64_t id = 0;
    uint64_t covered_wal_seq = 0;
    std::vector<K> splitters;
    // Data files in apply order: kind 0 = full, 1 = delta.
    std::vector<std::pair<uint8_t, std::string>> files;
  };

  static void write_manifest(file_system& fs, const std::string& dir,
                             const manifest_t& m) {
    std::vector<char> out;
    wire::put_u32(out, kManifestMagic);
    wire::put_u32(out, 1);  // format version
    wire::put_u64(out, m.id);
    wire::put_u64(out, m.covered_wal_seq);
    wire::put_u32(out, static_cast<uint32_t>(m.splitters.size()));
    for (const K& k : m.splitters) wire::field_codec<K>::write(k, out);
    wire::put_u32(out, static_cast<uint32_t>(m.files.size()));
    for (const auto& [kind, name] : m.files) {
      wire::put_u8(out, kind);
      wire::field_codec<std::string>::write(name, out);
    }
    wire::put_u32(out, crc32c(out.data(), out.size()));
    std::unique_ptr<file> f = fs.create(dir + "/" + manifest_file_name(m.id));
    f->append(out.data(), out.size());
    f->sync();
  }

  static manifest_t read_manifest(file_system& fs, const std::string& dir,
                                  const std::string& name) {
    std::unique_ptr<file> f = fs.open_read(dir + "/" + name);
    uint64_t fsize = f->size();
    std::vector<char> buf(fsize);
    if (fsize > 0 && f->read_at(0, buf.data(), buf.size()) != fsize) {
      throw io_error("manifest shrank mid-read: " + name);
    }
    if (fsize < 4) throw wire::error("manifest: too short");
    uint32_t crc;
    std::memcpy(&crc, buf.data() + fsize - 4, 4);
    if (crc != crc32c(buf.data(), fsize - 4)) {
      throw wire::error("manifest: checksum mismatch");
    }
    wire::reader r(buf.data(), fsize - 4);
    if (r.u32() != kManifestMagic) throw wire::error("manifest: bad magic");
    if (r.u32() != 1) throw wire::error("manifest: unknown format version");
    manifest_t m;
    m.id = r.u64();
    m.covered_wal_seq = r.u64();
    uint32_t nsp = r.u32();
    m.splitters.reserve(nsp);
    for (uint32_t i = 0; i < nsp; i++) {
      m.splitters.push_back(wire::field_codec<K>::read(r));
    }
    uint32_t nf = r.u32();
    m.files.reserve(nf);
    for (uint32_t i = 0; i < nf; i++) {
      uint8_t kind = r.u8();
      m.files.emplace_back(kind, wire::field_codec<std::string>::read(r));
    }
    return m;
  }

  // The commit point: publish `manifest_name` as CURRENT via write-temp,
  // fsync, atomic rename, directory sync.
  static void commit_current(file_system& fs, const std::string& dir,
                             const std::string& manifest_name) {
    const std::string tmp = dir + "/CURRENT.tmp";
    std::unique_ptr<file> f = fs.create(tmp);
    f->append(manifest_name.data(), manifest_name.size());
    f->sync();
    f.reset();
    fs.rename(tmp, dir + "/CURRENT");
    fs.sync_dir(dir);
  }

  static std::optional<std::string> read_current(file_system& fs,
                                                 const std::string& dir) {
    const std::string path = dir + "/CURRENT";
    if (!fs.exists(path)) return std::nullopt;
    std::unique_ptr<file> f = fs.open_read(path);
    uint64_t fsize = f->size();
    std::string name(fsize, '\0');
    if (fsize > 0 && f->read_at(0, name.data(), fsize) != fsize) {
      throw io_error("CURRENT shrank mid-read");
    }
    return name;
  }

  // --------------------------------------------------------- cut streams --

  // The full checkpoint of a cut as a data-file image: shard s's map_codec
  // stream under id s. A sizing pass over every shard lays out the pages,
  // then each stream is encoded straight into them; both passes run one
  // task per shard.
  static page_image full_image(const snapshot_t& cut, size_t page_bytes) {
    using codec = map_codec<Map>;
    const size_t n = cut.num_shards();
    std::vector<typename codec::extent> extents(n);
    {
      obs::span span("ckpt.measure");
      per_shard(n, [&](size_t s) { extents[s] = codec::measure(cut.shard(s)); });
    }
    std::vector<page_image::stream> streams;
    streams.reserve(n);
    for (size_t s = 0; s < n; s++) streams.push_back({static_cast<uint32_t>(s), extents[s].bytes});
    obs::span span("ckpt.encode");
    page_image img(std::move(streams), page_bytes);
    per_shard(n, [&](size_t s) {
      page_cursor c = img.cursor(s);
      codec::encode(cut.shard(s), extents[s], c);
      if (c.left() != 0) throw std::logic_error("map_codec: encode fell short of measure");
    });
    return img;
  }

  // f(s) for every shard s in parallel. An exception escaping a stolen task
  // would terminate the program (parallel/scheduler.h), so each shard's
  // failure is held and the first one rethrown after the join.
  template <typename F>
  static void per_shard(size_t n, const F& f) {
    std::vector<std::exception_ptr> failed(n);
    parallel_for(0, n, [&](size_t s) {
      try {
        f(s);
      } catch (...) {
        failed[s] = std::current_exception();
      }
    }, 1);
    for (const std::exception_ptr& e : failed) {
      if (e) std::rethrow_exception(e);
    }
  }

  // The change stream of `keys` (sorted, distinct) against the cut: for
  // each key its present flag, the key, and its value if present. A key
  // the cut holds unchanged still travels; applying it is a no-op.
  static std::vector<char> delta_stream(const snapshot_t& cut,
                                        const std::vector<K>& keys) {
    std::vector<std::optional<V>> found = cut.multi_find(keys);
    std::vector<char> out;
    wire::put_u32(out, static_cast<uint32_t>(keys.size()));
    for (size_t i = 0; i < keys.size(); i++) {
      wire::put_u8(out, found[i].has_value() ? 1 : 0);
      wire::field_codec<K>::write(keys[i], out);
      if (found[i].has_value()) wire::field_codec<V>::write(*found[i], out);
    }
    return out;
  }

  // ------------------------------------------------------------ loading --

  struct loaded_t {
    manifest_t manifest;
    Map contents;
    uint64_t files_applied = 0;
  };

  // Load the committed checkpoint chain: full streams deserialized per
  // shard and concatenated (shard ranges tile the key space), then each
  // delta's change stream applied in order. Returns nullopt when no
  // checkpoint has ever committed. Throws wire::error on corruption in
  // committed files (which the crash model says cannot happen — every
  // committed file was fsynced before its manifest was referenced).
  static std::optional<loaded_t> load(file_system& fs,
                                      const std::string& dir) {
    std::optional<std::string> current = read_current(fs, dir);
    if (!current.has_value()) return std::nullopt;
    loaded_t out;
    out.manifest = read_manifest(fs, dir, *current);
    for (const auto& [kind, name] : out.manifest.files) {
      auto streams = read_page_streams(fs, dir + "/" + name);
      if (kind == 0) {
        Map contents;
        for (size_t i = 0; i < streams.size(); i++) {
          if (streams[i].first != i) {
            throw wire::error("checkpoint: full file shard order violation");
          }
          Map shard = Map::deserialize(streams[i].second.data(),
                                       streams[i].second.size());
          contents = Map::concat(std::move(contents), std::move(shard));
        }
        out.contents = std::move(contents);
      } else {
        if (streams.size() != 1 || streams[0].first != kDeltaShard) {
          throw wire::error("checkpoint: malformed delta file");
        }
        apply_delta(out.contents, streams[0].second);
      }
      out.files_applied++;
    }
    return out;
  }

  static void apply_delta(Map& m, const std::vector<char>& stream) {
    wire::reader r(stream.data(), stream.size());
    uint32_t n = r.u32();
    std::vector<entry_t> ups;
    std::vector<K> dels;
    for (uint32_t i = 0; i < n; i++) {
      uint8_t has_after = r.u8();
      K k = wire::field_codec<K>::read(r);
      if (has_after != 0) {
        ups.emplace_back(std::move(k), wire::field_codec<V>::read(r));
      } else {
        dels.push_back(std::move(k));
      }
    }
    if (r.remaining() != 0) {
      throw wire::error("checkpoint: delta stream length mismatch");
    }
    // One delta's keys are distinct, so the two bulk passes commute.
    if (!ups.empty()) m = Map::multi_insert(std::move(m), std::move(ups));
    if (!dels.empty()) m = Map::multi_delete(std::move(m), std::move(dels));
  }
};

}  // namespace pam::store
