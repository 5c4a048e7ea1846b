// A reference checkpoint-page framer for tests: frames a finished stream the
// plain way, copying it page by page into a growing vector and checksumming
// each page with the slice-by-8 kernel. The one-buffer writer
// (store::page_image) must produce these bytes exactly.
#pragma once

#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "store/checkpoint.h"

namespace pam_test {

inline void append_reference_pages(std::vector<char>& out, uint32_t shard,
                                   const std::vector<char>& stream, size_t page_bytes) {
  auto put = [&](const void* p, size_t n) {
    const char* c = static_cast<const char*>(p);
    out.insert(out.end(), c, c + n);
  };
  size_t off = 0;
  uint32_t index = 0;
  do {
    size_t len = stream.size() - off < page_bytes ? stream.size() - off : page_bytes;
    uint8_t last = off + len == stream.size() ? 1 : 0;
    auto len32 = static_cast<uint32_t>(len);
    uint32_t crc = pam::store::crc32c_slice8(&shard, sizeof(shard));
    crc = pam::store::crc32c_slice8(&index, sizeof(index), crc);
    crc = pam::store::crc32c_slice8(&len32, sizeof(len32), crc);
    crc = pam::store::crc32c_slice8(&last, sizeof(last), crc);
    crc = pam::store::crc32c_slice8(stream.data() + off, len, crc);
    put(&pam::store::kCkptMagic, 4);
    put(&shard, 4);
    put(&index, 4);
    put(&len32, 4);
    put(&last, 1);
    put(&crc, 4);
    put(stream.data() + off, len);
    off += len;
    index++;
  } while (off < stream.size());
}

// The reference framing of a cut's full checkpoint: shard s's
// Map::serialize stream, paged under id s.
template <typename Snapshot>
std::vector<char> reference_full_file(const Snapshot& cut, size_t page_bytes) {
  std::vector<char> out;
  for (size_t s = 0; s < cut.num_shards(); s++) {
    std::vector<char> stream;
    cut.shard(s).serialize(stream);
    append_reference_pages(out, static_cast<uint32_t>(s), stream, page_bytes);
  }
  return out;
}

// The one-buffer writer's bytes for the same cut, sealed.
template <typename Snapshot>
std::vector<char> image_full_file(const Snapshot& cut, size_t page_bytes) {
  using map_t = std::decay_t<decltype(cut.shard(0))>;
  pam::store::page_image img = pam::store::checkpoint_io<map_t>::full_image(cut, page_bytes);
  img.seal();
  return std::vector<char>(img.data(), img.data() + img.size());
}

}  // namespace pam_test
