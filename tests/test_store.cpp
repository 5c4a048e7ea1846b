// Tests for the durability layer (src/store/): CRC32C vectors, the file
// shim and its failpoints, WAL append/replay/rotation/repair, checkpoint
// pages and manifest commit, the map wire codec across every balance
// scheme and leaf layout, and the incremental-checkpoint byte footprint.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "page_oracle.h"
#include "pam/pam.h"
#include "server/write_combiner.h"
#include "store/durability.h"
#include "util/random.h"

namespace {

using u64_map = pam::aug_map<pam::sum_entry<uint64_t, uint64_t>>;
using str_map = pam::aug_map<pam::str_sum_entry<uint64_t>>;
using delta_map = pam::aug_map<pam::delta_sum_entry<uint64_t, uint64_t>>;
using padded_map = pam::aug_map<pam::sum_entry<uint32_t, uint64_t>>;
using dbl_map = pam::aug_map<pam::sum_entry<double, uint64_t>>;

// Sets the leaf block size for one test, restoring the previous one.
struct block_size_guard {
  size_t saved = pam::leaf_block_size();
  explicit block_size_guard(size_t b) { pam::set_leaf_block_size(b); }
  ~block_size_guard() { pam::set_leaf_block_size(saved); }
};

// A fresh scratch directory per test, removed on destruction.
struct temp_dir {
  std::string path;
  explicit temp_dir(const std::string& tag) {
    path = ::testing::TempDir() + "pam_store_" + tag + "_" +
           std::to_string(::getpid());
    std::string cmd = "rm -rf " + path;
    EXPECT_EQ(std::system(cmd.c_str()), 0);
  }
  ~temp_dir() {
    std::string cmd = "rm -rf " + path;
    (void)std::system(cmd.c_str());
  }
};

// ----------------------------------------------------------------- crc32c --

// Both kernels, the hardware one only where the CPU has it.
using crc_kernel = uint32_t (*)(const void*, size_t, uint32_t);
std::vector<std::pair<const char*, crc_kernel>> crc_kernels() {
  std::vector<std::pair<const char*, crc_kernel>> ks = {
      {"slice8", pam::store::crc32c_slice8}};
  if (pam::store::crc32c_sse42_available()) {
    ks.emplace_back("sse42", pam::store::crc32c_sse42);
  }
  return ks;
}

TEST(Crc32c, KnownVectors) {
  for (auto [name, crc] : crc_kernels()) {
    // The canonical CRC32C check value (RFC 3720 appendix / every storage
    // system's self-test): "123456789" -> 0xE3069283.
    EXPECT_EQ(crc("123456789", 9, 0), 0xE3069283u) << name;
    EXPECT_EQ(crc("", 0, 0), 0u) << name;
    // 32 zero bytes (iSCSI test vector).
    unsigned char zeros[32] = {};
    EXPECT_EQ(crc(zeros, sizeof zeros, 0), 0x8A9136AAu) << name;
  }
  EXPECT_EQ(pam::store::crc32c("123456789", 9), 0xE3069283u);
}

TEST(Crc32c, SeedChainingMatchesOneShot) {
  const char* data = "the quick brown fox jumps over the lazy dog";
  size_t n = std::strlen(data);
  for (auto [name, crc] : crc_kernels()) {
    uint32_t whole = crc(data, n, 0);
    for (size_t split : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, n}) {
      uint32_t a = crc(data, split, 0);
      uint32_t chained = crc(data + split, n - split, a);
      EXPECT_EQ(chained, whole) << name << " split at " << split;
    }
  }
}

// The hardware kernel against the software oracle: every length up to past
// a page, every start offset within a word, and chained seeds.
TEST(Crc32c, HardwareKernelMatchesSlice8) {
  if (!pam::store::crc32c_sse42_available()) GTEST_SKIP() << "no SSE4.2 on this CPU";
  std::vector<char> buf(4100 + 16);
  pam::random_gen g(5);
  for (auto& c : buf) c = static_cast<char>(g.next());
  for (size_t start = 0; start < 8; start++) {
    for (size_t n = 0; n <= 4100; n++) {
      const char* p = buf.data() + start;
      uint32_t seed = static_cast<uint32_t>(n * 0x9E3779B9u);
      ASSERT_EQ(pam::store::crc32c_sse42(p, n, seed), pam::store::crc32c_slice8(p, n, seed))
          << "start " << start << " n " << n;
    }
  }
  // A checksum chained across kernels is still the one-shot checksum.
  uint32_t whole = pam::store::crc32c_slice8(buf.data(), buf.size());
  for (size_t split : {size_t{1}, size_t{9}, size_t{4096}}) {
    uint32_t a = pam::store::crc32c_slice8(buf.data(), split);
    EXPECT_EQ(pam::store::crc32c_sse42(buf.data() + split, buf.size() - split, a), whole);
    uint32_t b = pam::store::crc32c_sse42(buf.data(), split);
    EXPECT_EQ(pam::store::crc32c_slice8(buf.data() + split, buf.size() - split, b), whole);
  }
}

TEST(Crc32c, DetectsSingleBitFlips) {
  std::vector<char> buf(256);
  pam::random_gen g(7);
  for (auto& c : buf) c = static_cast<char>(g.next());
  uint32_t base = pam::store::crc32c(buf.data(), buf.size());
  for (size_t bit : {size_t{0}, size_t{77}, size_t{2047}}) {
    buf[bit / 8] = static_cast<char>(buf[bit / 8] ^ (1 << (bit % 8)));
    EXPECT_NE(pam::store::crc32c(buf.data(), buf.size()), base);
    buf[bit / 8] = static_cast<char>(buf[bit / 8] ^ (1 << (bit % 8)));
  }
}

// -------------------------------------------------------------- file shim --

TEST(FileShim, PosixRoundTrip) {
  temp_dir td("posix");
  auto fs = pam::store::posix_fs();
  fs->mkdirs(td.path + "/a/b");
  EXPECT_TRUE(fs->exists(td.path + "/a/b"));

  auto f = fs->create(td.path + "/a/b/x");
  f->append("hello ", 6);
  f->append("world", 5);
  f->sync();
  EXPECT_EQ(f->size(), 11u);
  f.reset();

  auto r = fs->open_read(td.path + "/a/b/x");
  char buf[16] = {};
  EXPECT_EQ(r->read_at(0, buf, sizeof buf), 11u);  // short at EOF
  EXPECT_EQ(std::string(buf, 11), "hello world");
  EXPECT_EQ(r->read_at(6, buf, 5), 5u);
  EXPECT_EQ(std::string(buf, 5), "world");

  auto w = fs->open_append(td.path + "/a/b/x");
  w->truncate(5);
  EXPECT_EQ(w->size(), 5u);
  w.reset();

  fs->rename(td.path + "/a/b/x", td.path + "/a/b/y");
  EXPECT_FALSE(fs->exists(td.path + "/a/b/x"));
  EXPECT_TRUE(fs->exists(td.path + "/a/b/y"));
  fs->sync_dir(td.path + "/a/b");
  auto names = fs->list(td.path + "/a/b");
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "y");
  fs->remove(td.path + "/a/b/y");
  fs->remove(td.path + "/a/b/y");  // ENOENT-tolerant
  EXPECT_FALSE(fs->exists(td.path + "/a/b/y"));
}

TEST(FileShim, FailpointsTripOnNthOperation) {
  temp_dir td("faults");
  auto fp = std::make_shared<pam::store::failpoints>();
  auto fs = std::make_shared<pam::store::faulty_fs>(pam::store::posix_fs(), fp);
  fs->mkdirs(td.path);

  // Third write trips a short write: half the bytes land, then crash.
  fp->writes_until_short.store(3);
  auto f = fs->create(td.path + "/f");
  f->append("aaaa", 4);
  f->append("bbbb", 4);
  EXPECT_THROW(f->append("cccc", 4), pam::store::crash_error);
  EXPECT_EQ(f->size(), 10u);  // 4 + 4 + 2
  EXPECT_EQ(fp->crashes_injected.load(), 1);
  fp->disarm();
  f->append("dddd", 4);  // disarmed: full write goes through
  EXPECT_EQ(f->size(), 14u);

  // Torn write: all bytes present but the tail is garbage.
  fp->writes_until_torn.store(1);
  auto g = fs->create(td.path + "/g");
  EXPECT_THROW(g->append("ABCDEFGH", 8), pam::store::crash_error);
  EXPECT_EQ(g->size(), 8u);
  char buf[8];
  ASSERT_EQ(fs->open_read(td.path + "/g")->read_at(0, buf, 8), 8u);
  EXPECT_EQ(std::memcmp(buf, "ABCD", 4), 0);
  EXPECT_EQ(std::memcmp(buf + 4, "\xA5\xA5\xA5\xA5", 4), 0);
  fp->disarm();

  // fsync failure and rename crash.
  fp->fsyncs_until_fail.store(1);
  EXPECT_THROW(g->sync(), pam::store::crash_error);
  g->sync();  // self-disarms after firing
  fp->renames_until_crash.store(1);
  EXPECT_THROW(fs->rename(td.path + "/g", td.path + "/h"),
               pam::store::crash_error);
  EXPECT_TRUE(fs->exists(td.path + "/g"));  // the rename never happened
  fp->disarm();
}

// -------------------------------------------------------------------- wal --

pam::store::wal_config small_wal(size_t segment_bytes = 64 * 1024) {
  pam::store::wal_config cfg;
  cfg.segment_bytes = segment_bytes;
  cfg.sync_every = 1;
  return cfg;
}

TEST(Wal, AppendReplayRoundTrip) {
  temp_dir td("wal_rt");
  auto fs = pam::store::posix_fs();
  fs->mkdirs(td.path);
  {
    pam::store::wal_writer w(fs, td.path, small_wal(), 1);
    for (int i = 0; i < 100; i++) {
      std::string payload = "record-" + std::to_string(i);
      EXPECT_EQ(w.append(payload.data(), payload.size()),
                static_cast<uint64_t>(i + 1));
    }
    EXPECT_EQ(w.last_seq(), 100u);
    EXPECT_EQ(w.durable_seq(), 100u);  // sync_every = 1
    EXPECT_FALSE(w.dead());
  }
  uint64_t next = 0;
  auto st = pam::store::wal_replay(
      *fs, td.path, 0,
      [&](uint64_t seq, const char* p, size_t n) {
        EXPECT_EQ(seq, ++next);
        EXPECT_EQ(std::string(p, n), "record-" + std::to_string(seq - 1));
      },
      /*repair=*/false);
  EXPECT_EQ(st.records, 100u);
  EXPECT_EQ(st.next_seq, 101u);
  EXPECT_FALSE(st.tail_truncated);

  // after_seq skips the covered prefix.
  uint64_t seen = 0;
  auto st2 = pam::store::wal_replay(
      *fs, td.path, 90, [&](uint64_t, const char*, size_t) { seen++; }, false);
  EXPECT_EQ(seen, 10u);
  EXPECT_EQ(st2.next_seq, 101u);
}

TEST(Wal, RotationAndTruncateThrough) {
  temp_dir td("wal_rot");
  auto fs = pam::store::posix_fs();
  fs->mkdirs(td.path);
  std::vector<char> big(8 * 1024, 'x');
  pam::store::wal_writer w(fs, td.path, small_wal(16 * 1024), 1);
  for (int i = 0; i < 20; i++) w.append(big.data(), big.size());
  auto segs = pam::store::wal_segments(*fs, td.path);
  ASSERT_GE(segs.size(), 3u) << "rotation never happened";
  for (size_t i = 1; i < segs.size(); i++) {
    EXPECT_GT(segs[i].first, segs[i - 1].first);
  }

  // Truncating through a mid-log seq unlinks fully-covered segments only;
  // the active segment always survives.
  w.truncate_through(10);
  auto after = pam::store::wal_segments(*fs, td.path);
  EXPECT_LT(after.size(), segs.size());
  ASSERT_FALSE(after.empty());
  // Replay of what remains still yields every record after the cut.
  uint64_t seen = 0;
  auto st = pam::store::wal_replay(
      *fs, td.path, 10, [&](uint64_t, const char*, size_t) { seen++; }, false);
  EXPECT_EQ(seen, 10u);
  EXPECT_EQ(st.next_seq, 21u);
}

TEST(Wal, TornTailStopsReplayAndRepairTruncates) {
  temp_dir td("wal_torn");
  auto fs = pam::store::posix_fs();
  fs->mkdirs(td.path);
  {
    pam::store::wal_writer w(fs, td.path, small_wal(), 1);
    for (int i = 0; i < 10; i++) {
      std::string payload = "payload-" + std::to_string(i);
      w.append(payload.data(), payload.size());
    }
  }
  // Corrupt the last record's payload byte on disk.
  auto segs = pam::store::wal_segments(*fs, td.path);
  ASSERT_EQ(segs.size(), 1u);
  const std::string path = td.path + "/" + segs[0].second;
  uint64_t fsize = fs->open_read(path)->size();
  {
    auto f = fs->open_append(path);
    std::vector<char> all(fsize);
    fs->open_read(path)->read_at(0, all.data(), all.size());
    all.back() = static_cast<char>(all.back() ^ 0xFF);
    f->truncate(0);
    f->append(all.data(), all.size());
  }
  // Replay: 9 good records, the corrupted tail cut; repair truncates it.
  uint64_t seen = 0;
  auto st = pam::store::wal_replay(
      *fs, td.path, 0, [&](uint64_t, const char*, size_t) { seen++; }, true);
  EXPECT_EQ(seen, 9u);
  EXPECT_TRUE(st.tail_truncated);
  EXPECT_EQ(st.next_seq, 10u);
  EXPECT_LT(fs->open_read(path)->size(), fsize);

  // A writer resumed at next_seq appends over the repaired tail seamlessly.
  pam::store::wal_writer w2(fs, td.path, small_wal(), st.next_seq);
  std::string payload = "after-repair";
  EXPECT_EQ(w2.append(payload.data(), payload.size()), 10u);
  seen = 0;
  pam::store::wal_replay(
      *fs, td.path, 0, [&](uint64_t, const char*, size_t) { seen++; }, false);
  EXPECT_EQ(seen, 10u);
}

TEST(Wal, MissingMiddleSegmentIsCorruptionNotSplice) {
  temp_dir td("wal_gap");
  auto fs = pam::store::posix_fs();
  fs->mkdirs(td.path);
  std::vector<char> big(8 * 1024, 'x');
  {
    pam::store::wal_writer w(fs, td.path, small_wal(16 * 1024), 1);
    for (int i = 0; i < 20; i++) w.append(big.data(), big.size());
  }
  auto segs = pam::store::wal_segments(*fs, td.path);
  ASSERT_GE(segs.size(), 3u);
  // Lose a middle segment: records [gap_first, gap_end) vanish from the
  // chain while later segments survive intact.
  const uint64_t gap_first = segs[1].first;
  const uint64_t gap_end = segs[2].first;
  fs->remove(td.path + "/" + segs[1].second);

  // Replay from 0 must stop at the boundary and flag the break — splicing
  // over the hole would present non-contiguous history as contiguous.
  uint64_t last = 0, seen = 0;
  auto st = pam::store::wal_replay(
      *fs, td.path, 0,
      [&](uint64_t seq, const char*, size_t) {
        last = seq;
        seen++;
      },
      /*repair=*/false);
  EXPECT_EQ(seen, gap_first - 1);
  EXPECT_EQ(last, gap_first - 1);
  EXPECT_TRUE(st.tail_truncated);
  EXPECT_EQ(st.next_seq, gap_first);

  // A boundary gap lying entirely inside the covered prefix is fine:
  // nothing the checkpoint chain needs is absent.
  seen = 0;
  auto st2 = pam::store::wal_replay(
      *fs, td.path, gap_end - 1,
      [&](uint64_t, const char*, size_t) { seen++; }, /*repair=*/false);
  EXPECT_EQ(seen, 21 - gap_end);
  EXPECT_FALSE(st2.tail_truncated);
  EXPECT_EQ(st2.next_seq, 21u);

  // Repair mode unlinks the segments stranded past the break.
  auto st3 = pam::store::wal_replay(
      *fs, td.path, 0, [](uint64_t, const char*, size_t) {}, /*repair=*/true);
  EXPECT_TRUE(st3.tail_truncated);
  EXPECT_EQ(st3.next_seq, gap_first);
  auto after = pam::store::wal_segments(*fs, td.path);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].first, segs[0].first);
}

TEST(Wal, DeadWriterUnacksSilently) {
  temp_dir td("wal_dead");
  auto fp = std::make_shared<pam::store::failpoints>();
  auto fs = std::make_shared<pam::store::faulty_fs>(pam::store::posix_fs(), fp);
  fs->mkdirs(td.path);
  pam::store::wal_writer w(fs, td.path, small_wal(), 1);
  EXPECT_EQ(w.append("ok", 2), 1u);
  fp->writes_until_short.store(1);
  EXPECT_THROW(w.append("boom", 4), pam::store::crash_error);
  EXPECT_TRUE(w.dead());
  fp->disarm();
  EXPECT_EQ(w.append("late", 4), 0u);  // dead: unacked, no side effects
  EXPECT_EQ(w.last_seq(), 1u);
}

// ------------------------------------------------- checkpoint page format --

// Frame `streams` as one data file through page_image.
std::vector<char> framed(const std::vector<std::pair<uint32_t, std::vector<char>>>& streams,
                         size_t page_bytes) {
  std::vector<pam::store::page_image::stream> layout;
  for (const auto& [shard, bytes] : streams) layout.push_back({shard, bytes.size()});
  pam::store::page_image img(layout, page_bytes);
  for (size_t i = 0; i < streams.size(); i++) {
    const std::vector<char>& bytes = streams[i].second;
    pam::store::page_cursor c = img.cursor(i);
    // Uneven writes, so pieces straddle the page boundaries.
    for (size_t off = 0, step = 1; off < bytes.size(); off += step, step = step * 3 % 997 + 1) {
      c.put(bytes.data() + off, std::min(step, bytes.size() - off));
    }
    EXPECT_EQ(c.left(), 0u);
  }
  img.seal();
  return std::vector<char>(img.data(), img.data() + img.size());
}

TEST(CheckpointPages, MultiPageStreamsRoundTrip) {
  temp_dir td("pages");
  auto fs = pam::store::posix_fs();
  fs->mkdirs(td.path);
  pam::random_gen g(11);
  std::vector<char> s0(10000), s1(3), s2, s3(8192);  // multi-page, tiny, empty, exact
  for (auto& c : s0) c = static_cast<char>(g.next());
  for (auto& c : s1) c = static_cast<char>(g.next());
  for (auto& c : s3) c = static_cast<char>(g.next());

  std::vector<char> ref;
  pam_test::append_reference_pages(ref, 0, s0, 4096);
  pam_test::append_reference_pages(ref, 1, s1, 4096);
  pam_test::append_reference_pages(ref, 2, s2, 4096);
  pam_test::append_reference_pages(ref, 3, s3, 4096);
  std::vector<char> out = framed({{0, s0}, {1, s1}, {2, s2}, {3, s3}}, 4096);
  EXPECT_EQ(out, ref) << "page_image must frame exactly as the reference framer";
  auto f = fs->create(td.path + "/p");
  f->append(out.data(), out.size());
  f.reset();

  auto streams = pam::store::read_page_streams(*fs, td.path + "/p");
  ASSERT_EQ(streams.size(), 4u);
  EXPECT_EQ(streams[0].first, 0u);
  EXPECT_EQ(streams[0].second, s0);
  EXPECT_EQ(streams[1].second, s1);
  EXPECT_TRUE(streams[2].second.empty());
  EXPECT_EQ(streams[3].second, s3);

  // Pages smaller than a header, and pages of one byte.
  for (size_t page : {size_t{1}, size_t{7}, size_t{21}, size_t{4095}}) {
    std::vector<char> r;
    pam_test::append_reference_pages(r, 0, s0, page);
    pam_test::append_reference_pages(r, 1, s1, page);
    EXPECT_EQ(framed({{0, s0}, {1, s1}}, page), r) << "page " << page;
  }
}

TEST(CheckpointPages, CursorRefusesWritesPastTheStream) {
  pam::store::page_image img({{0, 10}}, 4);
  pam::store::page_cursor c = img.cursor(0);
  char bytes[11] = {};
  c.put(bytes, 6);
  EXPECT_THROW(c.put(bytes, 5), std::logic_error);
  c.put(bytes, 4);
  EXPECT_EQ(c.left(), 0u);
}

TEST(CheckpointPages, CorruptPageOrMissingTailRejected) {
  temp_dir td("pages_bad");
  auto fs = pam::store::posix_fs();
  fs->mkdirs(td.path);
  std::vector<char> stream(9000, 'q');
  std::vector<char> out = framed({{0, stream}}, 4096);

  // Flip one payload byte: checksum mismatch.
  auto bad = out;
  bad[bad.size() - 1] = static_cast<char>(bad.back() ^ 1);
  auto f = fs->create(td.path + "/bad");
  f->append(bad.data(), bad.size());
  f.reset();
  EXPECT_THROW(pam::store::read_page_streams(*fs, td.path + "/bad"),
               pam::wire::error);

  // Drop the closing page: the stream never completes.
  auto cut = out;
  cut.resize(pam::store::kCkptPageHeader + 4096);  // first page only
  f = fs->create(td.path + "/cut");
  f->append(cut.data(), cut.size());
  f.reset();
  EXPECT_THROW(pam::store::read_page_streams(*fs, td.path + "/cut"),
               pam::wire::error);
}

// ------------------------------------------------------ manifest + commit --

TEST(Manifest, RoundTripAndCommitPoint) {
  temp_dir td("manifest");
  auto fs = pam::store::posix_fs();
  fs->mkdirs(td.path);
  using cio = pam::store::checkpoint_io<str_map>;
  cio::manifest_t m;
  m.id = 42;
  m.covered_wal_seq = 1234;
  m.splitters = {"alpha", "omega"};
  m.files = {{0, "ckpt-000000000000002a-full.pam"},
             {1, "ckpt-000000000000002b-delta.pam"}};
  cio::write_manifest(*fs, td.path, m);

  EXPECT_FALSE(cio::read_current(*fs, td.path).has_value());
  cio::commit_current(*fs, td.path, pam::store::manifest_file_name(42));
  auto cur = cio::read_current(*fs, td.path);
  ASSERT_TRUE(cur.has_value());
  auto back = cio::read_manifest(*fs, td.path, *cur);
  EXPECT_EQ(back.id, 42u);
  EXPECT_EQ(back.covered_wal_seq, 1234u);
  EXPECT_EQ(back.splitters, m.splitters);
  EXPECT_EQ(back.files, m.files);

  // A corrupted manifest byte fails its trailing CRC.
  const std::string mpath = td.path + "/" + *cur;
  uint64_t fsize = fs->open_read(mpath)->size();
  std::vector<char> all(fsize);
  fs->open_read(mpath)->read_at(0, all.data(), all.size());
  all[8] = static_cast<char>(all[8] ^ 1);
  auto f = fs->create(mpath);
  f->append(all.data(), all.size());
  f.reset();
  EXPECT_THROW(cio::read_manifest(*fs, td.path, *cur), pam::wire::error);
}

// ------------------------------------------------------------ wire codec --

// Round-trip `m` through the wire format and compare against the oracle.
template <typename Map, typename Oracle>
void expect_round_trip(const Map& m, const Oracle& oracle) {
  std::vector<char> wire;
  m.serialize(wire);
  Map rt = Map::deserialize(wire.data(), wire.size());
  ASSERT_TRUE(rt.check_valid());
  ASSERT_EQ(rt.size(), oracle.size());
  auto it = rt.begin();
  for (auto& [k, v] : oracle) {
    ASSERT_TRUE(it != rt.end());
    ASSERT_EQ(it->key, k);
    ASSERT_EQ(it->value, v);
    ++it;
  }
  ASSERT_TRUE(it == rt.end());
  ASSERT_EQ(rt.aug_val(), m.aug_val());  // recomputed, not read from disk
}

template <typename Balance>
void codec_sweep_u64(uint64_t seed) {
  using map_t = pam::aug_map<pam::sum_entry<uint64_t, uint64_t>, Balance>;
  pam::random_gen g(seed);
  map_t m;
  std::map<uint64_t, uint64_t> oracle;
  expect_round_trip(m, oracle);  // empty map
  for (int i = 0; i < 2000; i++) {
    uint64_t k = g.next() % 4096, v = g.next() % 100000;
    m = map_t::insert(std::move(m), k, v);
    oracle[k] = v;
  }
  for (int i = 0; i < 500; i++) {
    uint64_t k = g.next() % 4096;
    m = map_t::remove(std::move(m), k);
    oracle.erase(k);
  }
  expect_round_trip(m, oracle);
}

template <typename Balance>
void codec_sweep_str(uint64_t seed) {
  using map_t = pam::aug_map<pam::str_sum_entry<uint64_t>, Balance>;
  pam::random_gen g(seed);
  map_t m;
  std::map<std::string, uint64_t> oracle;
  for (int i = 0; i < 1500; i++) {
    std::string k = "user/profile/" + std::to_string(g.next() % 2048);
    uint64_t v = g.next() % 100000;
    m = map_t::insert(std::move(m), k, v);
    oracle[k] = v;
  }
  expect_round_trip(m, oracle);
}

template <typename Balance>
void codec_sweep_delta(uint64_t seed) {
  using map_t =
      pam::aug_map<pam::delta_sum_entry<uint64_t, uint64_t>, Balance>;
  pam::random_gen g(seed);
  map_t m;
  std::map<uint64_t, uint64_t> oracle;
  for (int i = 0; i < 2000; i++) {
    // Dense runs punctuated by sparse jumps: one- and multi-byte varints.
    uint64_t k = g.next() % 8 == 0 ? g.next() : g.next() % 4096;
    uint64_t v = g.next() % 100000;
    m = map_t::insert(std::move(m), k, v);
    oracle[k] = v;
  }
  expect_round_trip(m, oracle);
}

// All four balance schemes x flat/front-coded/delta-coded leaves x base
// block sizes 0 (no blocks), 1 (degenerate), 32 (default), 256 (multi
// byte-class). Delta-coded blocks hold 4x the base: 4, 128 and 1024.
TEST(WireCodec, AllSchemesAllLayoutsAllBlockSizes) {
  size_t saved_b = pam::leaf_block_size();
  for (size_t b : {size_t{0}, size_t{1}, size_t{32}, size_t{256}}) {
    pam::set_leaf_block_size(b);
    codec_sweep_u64<pam::weight_balanced>(100 + b);
    codec_sweep_u64<pam::red_black>(200 + b);
    codec_sweep_u64<pam::avl_tree>(300 + b);
    codec_sweep_u64<pam::treap>(400 + b);
    codec_sweep_str<pam::weight_balanced>(500 + b);
    codec_sweep_str<pam::red_black>(600 + b);
    codec_sweep_str<pam::avl_tree>(700 + b);
    codec_sweep_str<pam::treap>(800 + b);
    codec_sweep_delta<pam::weight_balanced>(900 + b);
    codec_sweep_delta<pam::red_black>(1000 + b);
    codec_sweep_delta<pam::avl_tree>(1100 + b);
    codec_sweep_delta<pam::treap>(1200 + b);
  }
  pam::set_leaf_block_size(saved_b);
}

// The stream header's size and one record header's: u8 kind | u32 count |
// u32 payload_len.
constexpr size_t kStreamHeader = 20;
constexpr size_t kRecordHeader = 9;
// Record kinds (pam/serialize.h).
constexpr uint8_t kRun = 1, kFlatRaw = 2, kFlatDelta = 4, kRunDelta = 5;

// (kind, offset) of every record in a well-formed stream.
std::vector<std::pair<uint8_t, size_t>> records_of(const std::vector<char>& wire) {
  std::vector<std::pair<uint8_t, size_t>> rs;
  for (size_t at = kStreamHeader; at < wire.size();) {
    uint32_t len;
    std::memcpy(&len, wire.data() + at + 5, 4);
    rs.emplace_back(static_cast<uint8_t>(wire[at]), at);
    at += kRecordHeader + len;
  }
  return rs;
}

bool has_record_kind(const std::vector<char>& wire, uint8_t kind) {
  for (auto [k, at] : records_of(wire)) {
    if (k == kind) return true;
  }
  return false;
}

// Truncations at every prefix length of the header region and a sample of
// interior cuts must throw wire::error, never crash or misparse; bit flips
// in every byte of the stream header and of every record header, and in a
// sample of payload bytes, either throw cleanly or (for flips confined to
// value bytes, or key bytes that stay in order) yield a map that still
// validates. A flipped count must never reach an allocation.
template <typename Map>
void expect_corruptions_handled(const Map& m) {
  std::vector<char> wire;
  m.serialize(wire);
  for (size_t cut : {size_t{0}, size_t{3}, size_t{10}, size_t{19},
                     wire.size() / 2, wire.size() - 1}) {
    EXPECT_THROW(Map::deserialize(wire.data(), cut), pam::wire::error)
        << "cut " << cut;
  }
  std::vector<size_t> flips;
  for (size_t at = 0; at < kStreamHeader; at++) flips.push_back(at);
  for (auto [kind, rec] : records_of(wire)) {
    for (size_t i = 0; i < kRecordHeader; i++) flips.push_back(rec + i);
  }
  for (size_t at = 0; at < wire.size(); at += 97) flips.push_back(at);
  for (size_t at : flips) {
    for (int mask : {0x10, 0x01, 0x80}) {
      auto bad = wire;
      bad[at] = static_cast<char>(bad[at] ^ mask);
      try {
        Map rt = Map::deserialize(bad.data(), bad.size());
        EXPECT_TRUE(rt.check_valid()) << "flip at " << at;
      } catch (const pam::wire::error&) {
        // rejected — the expected common case
      }
    }
  }
}

TEST(WireCodec, CorruptStreamsThrowNeverCrash) {
  block_size_guard guard(32);
  pam::random_gen g(3);
  u64_map flat;
  str_map front;
  delta_map delta;
  for (int i = 0; i < 1000; i++) {
    uint64_t k = g.next() % 2048, v = g.next();
    flat = u64_map::insert(std::move(flat), k, v);
    front = str_map::insert(std::move(front),
                            "user/profile/" + std::to_string(k), v % 1000);
    delta = delta_map::insert(std::move(delta), k, v % 1000);
  }
  expect_corruptions_handled(flat);
  expect_corruptions_handled(front);
  expect_corruptions_handled(delta);
}

// A run whose count claims more entries than its payload could hold is
// rejected before anything is reserved for it.
TEST(WireCodec, RunCountBoundedByPayload) {
  block_size_guard guard(0);  // classic nodes: the stream is all runs
  dbl_map m;
  for (uint64_t k = 0; k < 100; k++) m = dbl_map::insert(std::move(m), double(k), k);
  std::vector<char> wire;
  m.serialize(wire);
  auto rs = records_of(wire);
  ASSERT_EQ(rs.size(), 1u);
  ASSERT_EQ(rs[0].first, kRun) << "expected one kRun record";
  for (uint32_t count : {uint32_t{101}, uint32_t{1} << 31, ~uint32_t{0}}) {
    auto bad = wire;
    std::memcpy(bad.data() + rs[0].second + 1, &count, 4);
    EXPECT_THROW(dbl_map::deserialize(bad.data(), bad.size()), pam::wire::error) << count;
  }
}

// The near-memcpy path: sealed blocks of plain entries that are not integer
// pairs leave as kFlatRaw records, one memcpy each, and come back as blocks.
static_assert(pam::map_codec<dbl_map>::raw_blocks && !pam::map_codec<dbl_map>::delta_entries,
              "sum_entry<double, uint64_t> blocks must serialize raw");

TEST(WireCodec, FlatBlocksTravelRaw) {
  block_size_guard guard(32);
  std::vector<dbl_map::entry_t> es;
  for (uint64_t k = 0; k < 1000; k++) es.emplace_back(double(k) * 0.75 - 300.0, k);
  dbl_map m(std::move(es));
  std::vector<char> wire;
  m.serialize(wire);
  EXPECT_TRUE(has_record_kind(wire, kFlatRaw)) << "no kFlatRaw record in the stream";
  EXPECT_EQ(pam::map_codec<dbl_map>::measure(m).bytes, wire.size());
  dbl_map rt = dbl_map::deserialize(wire.data(), wire.size());
  ASSERT_TRUE(rt.check_valid());
  EXPECT_EQ(rt.entries(), m.entries());
  EXPECT_EQ(rt.aug_val(), m.aug_val());
}

// Round-trip m through serialize and check that its blocks left as
// kFlatDelta records and its inline entries as kRunDelta records, that
// nothing left raw or per field, and that measure() predicted the stream's
// size.
template <typename Map>
void expect_travels_delta_coded(const Map& m) {
  std::vector<char> wire;
  m.serialize(wire);
  EXPECT_TRUE(has_record_kind(wire, kFlatDelta)) << "no kFlatDelta record in the stream";
  EXPECT_FALSE(has_record_kind(wire, kFlatRaw));
  EXPECT_FALSE(has_record_kind(wire, kRun));
  EXPECT_EQ(pam::map_codec<Map>::measure(m).bytes, wire.size());
  Map rt = Map::deserialize(wire.data(), wire.size());
  ASSERT_TRUE(rt.check_valid());
  EXPECT_EQ(rt.entries(), m.entries());
  EXPECT_EQ(rt.aug_val(), m.aug_val());
}

// Integer flat blocks and runs travel difference-encoded: a base key,
// zigzag key deltas and varint values, under 4 bytes an entry here instead
// of 16.
static_assert(pam::map_codec<u64_map>::delta_entries && pam::map_codec<padded_map>::delta_entries);

TEST(WireCodec, IntegerFlatBlocksTravelDeltaCoded) {
  block_size_guard guard(32);
  std::vector<u64_map::entry_t> es;
  for (uint64_t k = 0; k < 1000; k++) es.emplace_back(k * 3, k % 300);
  u64_map m(std::move(es));
  expect_travels_delta_coded(m);
  std::vector<char> wire;
  m.serialize(wire);
  EXPECT_TRUE(has_record_kind(wire, kRunDelta)) << "no inline entries between the blocks";
  EXPECT_LT(wire.size(), 4 * m.size()) << "integer blocks are not compact";

  // Values and keys across the whole range, in multi-byte varints.
  pam::random_gen g(11);
  u64_map wide;
  for (int i = 0; i < 1000; i++) wide = u64_map::insert(std::move(wide), g.next(), g.next());
  expect_travels_delta_coded(wide);

  // Signed keys under a descending comparator, negative values: the key
  // differences wrap in the key's unsigned width.
  using desc_map = pam::aug_map<pam::sum_entry<int32_t, int16_t, std::greater<int32_t>>>;
  desc_map d;
  for (int32_t k = -700; k < 700; k += 3) {
    d = desc_map::insert(std::move(d), k * 1000, static_cast<int16_t>(k));
  }
  d = desc_map::insert(std::move(d), INT32_MIN, int16_t{-32768});
  d = desc_map::insert(std::move(d), INT32_MAX, int16_t{32767});
  expect_travels_delta_coded(d);
  expect_travels_delta_coded(padded_map{{1, 2}, {3, 4}, {UINT32_MAX, UINT64_MAX}});
}

// A u64 stream written the way the previous writer wrote it, every sealed
// block as one kFlatRaw memcpy and every inline entry between two blocks as
// a one-entry kRun, still loads: checkpoints taken before the delta-coded
// kinds existed recover.
TEST(WireCodec, RawFlatBlocksOfIntegerEntriesStillLoad) {
  using codec = pam::map_codec<u64_map>;
  constexpr uint32_t kEntry = sizeof(u64_map::entry_t);
  std::vector<u64_map::entry_t> es;
  for (uint64_t k = 0; k < 1000; k++) es.emplace_back(k * 5 + 1, k * k);
  std::vector<char> records;
  uint32_t n_records = 0;
  for (size_t at = 0; at < es.size(); n_records++) {
    // Blocks of 32 entries, each followed by one inline entry.
    bool block = n_records % 2 == 0;
    auto n = static_cast<uint32_t>(std::min<size_t>(block ? 32 : 1, es.size() - at));
    pam::wire::put_u8(records, block ? kFlatRaw : kRun);
    pam::wire::put_u32(records, n);
    pam::wire::put_u32(records, n * kEntry);
    pam::wire::put_bytes(records, es.data() + at, n * kEntry);
    at += n;
  }
  std::vector<char> wire;
  pam::wire::put_u32(wire, codec::kMagic);
  pam::wire::put_u8(wire, static_cast<uint8_t>(pam::key_layout::flat));
  pam::wire::put_u8(wire, pam::wire::kHostByteOrder);
  pam::wire::put_u16(wire, uint16_t{kEntry});
  pam::wire::put_u64(wire, es.size());
  pam::wire::put_u32(wire, n_records);
  wire.insert(wire.end(), records.begin(), records.end());
  u64_map rt = u64_map::deserialize(wire.data(), wire.size());
  ASSERT_TRUE(rt.check_valid());
  EXPECT_EQ(rt.entries(), es);
  // Raw blocks keep their key-order check.
  std::swap_ranges(wire.end() - 32, wire.end() - 24, wire.end() - 16);
  EXPECT_THROW(u64_map::deserialize(wire.data(), wire.size()), pam::wire::error);
}

// ---- hand-built coded-block records: each breaks exactly one frame rule --

// The one coded-block record of a single-block map's stream.
struct coded_record {
  std::vector<char> head;  // stream header + record kind and count
  uint32_t val_off;        // value stream offset from the payload start
  std::vector<char> region;
};

template <typename Map>
coded_record coded_record_of(const Map& m) {
  std::vector<char> wire;
  m.serialize(wire);
  // u32 magic | u8 layout | u8 order | u16 abi | u64 total | u32 records,
  // then one record: u8 kind | u32 count | u32 len | u32 val_off | payload.
  const size_t at = 20;
  EXPECT_EQ(wire.at(at), 3) << "expected one coded-block record";
  uint32_t records, len, val_off;
  std::memcpy(&records, wire.data() + 16, 4);
  std::memcpy(&len, wire.data() + at + 5, 4);
  std::memcpy(&val_off, wire.data() + at + 9, 4);
  EXPECT_EQ(records, 1u);
  EXPECT_EQ(wire.size(), at + 9 + len);
  coded_record r;
  r.head.assign(wire.begin(), wire.begin() + at + 5);
  r.region.assign(wire.begin() + at + 13, wire.end());
  r.val_off = val_off;
  return r;
}

// Reassemble a stream around `region`, with the value stream at val_at.
std::vector<char> coded_stream(const coded_record& r,
                               const std::vector<char>& region,
                               size_t val_at) {
  std::vector<char> w = r.head;
  uint32_t len = static_cast<uint32_t>(region.size() + 4);
  uint32_t val_off = static_cast<uint32_t>(val_at);
  for (uint32_t f : {len, val_off}) {
    const char* p = reinterpret_cast<const char*>(&f);
    w.insert(w.end(), p, p + 4);
  }
  w.insert(w.end(), region.begin(), region.end());
  return w;
}

std::vector<char> concat(std::initializer_list<std::vector<char>> parts) {
  std::vector<char> out;
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

TEST(WireCodec, DeltaBlockFrameRulesEnforced) {
  block_size_guard guard(32);
  // Keys 1..4 and values 10..40: key varints 01 02 02 02 (base, then
  // zigzag(+1) three times), value varints 0a 14 1e 28, no pad.
  delta_map m{{1, 10}, {2, 20}, {3, 30}, {4, 40}};
  coded_record r = coded_record_of(m);
  const std::vector<char> keys = {1, 2, 2, 2}, vals = {10, 20, 30, 40};
  ASSERT_EQ(r.region, concat({keys, vals}));
  auto load = [&](const std::vector<char>& key_stream, size_t pad) {
    auto region = concat({key_stream, std::vector<char>(pad, 0), vals});
    auto w = coded_stream(r, region, key_stream.size() + pad);
    return delta_map::deserialize(w.data(), w.size());
  };
  EXPECT_EQ(load(keys, 0).aug_val(), 100u);  // the reassembly itself is sound

  // An overlong base key (0x81 0x00 also decodes to 1).
  const std::vector<char> overlong = {char(0x81), 0, 2, 2, 2};
  EXPECT_THROW(load(overlong, 0), pam::wire::error);
  // A ten-byte base key carrying bits past the 64th.
  std::vector<char> wide(9, char(0xFF));
  wide.push_back(2);
  EXPECT_THROW(load(concat({wide, {2, 2, 2}}), 0), pam::wire::error);
  // Packed values align to one byte, so any pad is too long.
  EXPECT_THROW(load(keys, 1), pam::wire::error);
}

TEST(WireCodec, DeltaCodedFlatBlockFrameRulesEnforced) {
  block_size_guard guard(32);
  // Keys 1..4 and values 10..40 in one flat block: u32 key_bytes = 4, key
  // varints 01 02 02 02, value varints 0a 14 1e 28.
  u64_map m{{1, 10}, {2, 20}, {3, 30}, {4, 40}};
  std::vector<char> wire;
  m.serialize(wire);
  ASSERT_EQ(records_of(wire).size(), 1u);
  ASSERT_EQ(wire.at(kStreamHeader), char(kFlatDelta));
  const std::vector<char> head(wire.begin(), wire.begin() + kStreamHeader + 1);
  const std::vector<char> keys = {1, 2, 2, 2}, vals = {10, 20, 30, 40};
  auto u32 = [](uint32_t v) {
    std::vector<char> b(4);
    std::memcpy(b.data(), &v, 4);
    return b;
  };
  auto record = [&](uint32_t count, uint32_t key_len, const std::vector<char>& key_stream,
                    const std::vector<char>& value_stream) {
    auto payload = concat({u32(key_len), key_stream, value_stream});
    return concat({head, u32(count), u32(static_cast<uint32_t>(payload.size())), payload});
  };
  auto load = [&](const std::vector<char>& key_stream, const std::vector<char>& value_stream) {
    auto w = record(4, static_cast<uint32_t>(key_stream.size()), key_stream, value_stream);
    return u64_map::deserialize(w.data(), w.size());
  };
  ASSERT_EQ(record(4, 4, keys, vals), wire);
  EXPECT_EQ(load(keys, vals).aug_val(), 100u);  // the reassembly itself is sound

  // A key-stream length running past the payload.
  for (uint32_t key_len : {uint32_t{9}, ~uint32_t{0}}) {
    auto w = record(4, key_len, keys, vals);
    EXPECT_THROW(u64_map::deserialize(w.data(), w.size()), pam::wire::error) << key_len;
  }
  // A key stream with a byte left over past its fourth varint.
  EXPECT_THROW(load({1, 2, 2, 2, 0}, vals), pam::wire::error);
  // A truncated varint: the last key delta's continuation bit set at the
  // end of the key stream.
  EXPECT_THROW(load({1, 2, 2, char(0x82)}, vals), pam::wire::error);
  // An 11-byte varint base key.
  std::vector<char> eleven(10, char(0x80));
  eleven.push_back(1);
  EXPECT_THROW(load(concat({eleven, {2, 2, 2}}), vals), pam::wire::error);
  // Non-canonical zero padding (0x81 0x00 also decodes to 1), in a key and
  // in a value.
  EXPECT_THROW(load({char(0x81), 0, 2, 2, 2}, vals), pam::wire::error);
  EXPECT_THROW(load(keys, {10, 20, 30, char(0xA8), 0}), pam::wire::error);
  // A zero key delta: key 2 repeated breaks the block's key order.
  EXPECT_THROW(load({1, 2, 0, 2}, vals), pam::wire::error);
  // A count past the largest leaf block, and counts the streams disagree
  // with.
  for (uint32_t count : {uint32_t(pam::kMaxLeafBlock + 1), uint32_t{3}, uint32_t{5}}) {
    auto w = record(count, 4, keys, vals);
    EXPECT_THROW(u64_map::deserialize(w.data(), w.size()), pam::wire::error) << count;
  }
  // A value stream one value short, and one byte long.
  EXPECT_THROW(load(keys, {10, 20, 30}), pam::wire::error);
  EXPECT_THROW(load(keys, {10, 20, 30, 40, 50}), pam::wire::error);
  // A payload too short to hold its key-stream length.
  auto w = concat({head, u32(4), u32(3), {0, 0, 0}});
  EXPECT_THROW(u64_map::deserialize(w.data(), w.size()), pam::wire::error);

  // The same payload as a kRunDelta record loads too, and the same rules
  // hold; its count is bounded by the payload, not by a block.
  std::vector<char> run = record(4, 4, keys, vals);
  run[kStreamHeader] = char(kRunDelta);
  EXPECT_EQ(u64_map::deserialize(run.data(), run.size()).entries(), m.entries());
  for (uint32_t count : {uint32_t{5}, uint32_t{1} << 31}) {
    auto bad = run;
    std::memcpy(bad.data() + kStreamHeader + 1, &count, 4);
    EXPECT_THROW(u64_map::deserialize(bad.data(), bad.size()), pam::wire::error) << count;
  }
  run[kStreamHeader + 1 + 4 + 4 + 4 + 2] = 0;  // key 3 = key 2
  EXPECT_THROW(u64_map::deserialize(run.data(), run.size()), pam::wire::error);
}

TEST(WireCodec, FrontCodedBlockFrameRulesEnforced) {
  block_size_guard guard(32);
  // Keys "a" "b" "c": three records {varint prefix 0, varint suffix 1, key
  // byte}, a zero pad to the next 8-byte boundary, then the raw u64 values.
  str_map m{{"a", 1}, {"b", 2}, {"c", 3}};
  coded_record r = coded_record_of(m);
  const std::vector<char> keys = {0, 1, 'a', 0, 1, 'b', 0, 1, 'c'};
  const size_t val_at = r.val_off, pad = val_at - keys.size();
  ASSERT_GT(pad, 0u) << "the fixture needs a non-empty pad";
  ASSERT_LT(pad, 8u);
  auto raw = [](std::initializer_list<uint64_t> vs) {
    std::vector<char> out(vs.size() * 8);
    std::memcpy(out.data(), std::data(vs), out.size());
    return out;
  };
  const std::vector<char> vals = raw({1, 2, 3});
  ASSERT_EQ(r.region, concat({keys, std::vector<char>(pad, 0), vals}));
  auto load_with = [&](const std::vector<char>& key_stream, size_t pad_len,
                       const std::vector<char>& value_stream, char pad_byte = 0) {
    auto region = concat({key_stream, std::vector<char>(pad_len, pad_byte), value_stream});
    auto w = coded_stream(r, region, key_stream.size() + pad_len);
    return str_map::deserialize(w.data(), w.size());
  };
  // Every key stream below is 9 bytes long, so the value array keeps its
  // offset.
  auto load = [&](const std::vector<char>& key_stream) {
    return load_with(key_stream, pad, vals);
  };
  EXPECT_EQ(load(keys).aug_val(), 6u);  // the reassembly itself is sound

  // An overlong suffix length (0x81 0x00 also decodes to 1).
  EXPECT_THROW(load({0, char(0x81), 0, 'a', 0, 1, 'b', 0, 1}), pam::wire::error);
  // A prefix longer than the previous key: record 1 sharing 2 bytes of "a",
  // and record 0 sharing any, though it has no predecessor.
  EXPECT_THROW(load({0, 1, 'a', 2, 1, 'b', 0, 1, 'c'}), pam::wire::error);
  EXPECT_THROW(load({1, 1, 'a', 0, 1, 'b', 0, 1, 'c'}), pam::wire::error);
  // A suffix running past the key stream: record 2 claims one byte more
  // than its key byte and the pad hold, and a nine-byte length of 2^56.
  EXPECT_THROW(load({0, 1, 'a', 0, 1, 'b', 0, char(pad + 2), 'c'}), pam::wire::error);
  const char c = char(0x80);
  EXPECT_THROW(load_with({0, 1, 'a', 0, c, c, c, c, c, c, c, c, 1, 'b'}, 2, vals),
               pam::wire::error);
  // A truncated varint: record 2's suffix length has its continuation bit
  // set at the end of a 16-byte key stream with no pad.
  const std::vector<char> truncated = {0, 9, 'a', 'a', 'a', 'a', 'a', 'a', 'a', 'a',
                                       'a', 0, 1, 'b', 0, char(0x81)};
  EXPECT_THROW(load_with(truncated, 0, vals), pam::wire::error);
  // A value array one value short, and one value long.
  EXPECT_THROW(load_with(keys, pad, raw({1, 2})), pam::wire::error);
  EXPECT_THROW(load_with(keys, pad, raw({1, 2, 3, 4})), pam::wire::error);
  // A non-zero pad byte, and a pad of a whole extra alignment step.
  EXPECT_THROW(load_with(keys, pad, vals, 0x5A), pam::wire::error);
  EXPECT_THROW(load_with(keys, pad + 8, vals), pam::wire::error);
  // A value array at an offset that is not a multiple of alignof(uint64_t),
  // with every other rule intact (a one-byte zero pad).
  ASSERT_NE((keys.size() + 1) % alignof(uint64_t), 0u);
  EXPECT_THROW(load_with(keys, 1, vals), pam::wire::error);
}

// A front-coded stream in the older record format: a u32 end[n] directory,
// {u16 prefix_len, suffix} records and a raw value array, stamped with
// entry_abi 0. It must be refused, never misread.
TEST(WireCodec, OldFormatFrontCodedStreamRejected) {
  auto put = [](std::string& out, auto v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  // Keys "a" "b" "c", values 1 2 3, in a block whose 32-byte header made
  // the key region start at 32 and the value array at 56.
  std::string region;
  for (uint32_t end : {3u, 6u, 9u}) put(region, end);
  for (char k : {'a', 'b', 'c'}) {
    put(region, uint16_t{0});
    put(region, k);
  }
  region.resize(56 - 32, 0);
  for (uint64_t v : {1u, 2u, 3u}) put(region, v);
  std::string w;
  put(w, uint32_t{0x314D4150});
  put(w, static_cast<uint8_t>(pam::key_layout::front_coded));
  put(w, pam::wire::kHostByteOrder);
  put(w, uint16_t{0});
  put(w, uint64_t{3});
  put(w, uint32_t{1});
  put(w, uint8_t{3});  // kCodedRaw
  put(w, uint32_t{3});
  put(w, static_cast<uint32_t>(8 + region.size()));
  put(w, static_cast<uint32_t>(32 + region.size()));
  put(w, uint32_t{56});
  w += region;
  ASSERT_EQ(w.size(), kStreamHeader + kRecordHeader + 8 + 48);
  EXPECT_THROW(str_map::deserialize(w.data(), w.size()), pam::wire::error);

  // The stamp alone refuses it: a current-format stream stamped 0 fails
  // too.
  std::vector<char> cur;
  str_map{{"a", 1}, {"b", 2}, {"c", 3}}.serialize(cur);
  uint16_t abi;
  std::memcpy(&abi, cur.data() + 6, 2);
  ASSERT_EQ(abi, 2u) << "front-coded streams carry record format 2";
  EXPECT_EQ(str_map::deserialize(cur.data(), cur.size()).size(), 3u);
  for (uint16_t old : {uint16_t{0}, uint16_t{1}}) {
    std::memcpy(cur.data() + 6, &old, 2);
    EXPECT_THROW(str_map::deserialize(cur.data(), cur.size()), pam::wire::error) << old;
  }
}

// Coded streams of the previous block framing: {u32 bytes, u32 val_off}
// measured from the start of a block whose 32-byte header put the key
// stream at offset 32, stamped with that framing's record format version
// (front-coded 1, delta-coded 0). They must be refused, never misread, and
// the stamp alone refuses a current-format stream.
TEST(WireCodec, PreviousFramingCodedStreamsRejected) {
  auto put = [](std::string& out, auto v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  auto stream = [&](pam::key_layout layout, uint16_t abi, uint64_t total,
                    uint32_t count, uint32_t val_off, const std::string& region) {
    std::string w;
    put(w, uint32_t{0x314D4150});
    put(w, static_cast<uint8_t>(layout));
    put(w, pam::wire::kHostByteOrder);
    put(w, abi);
    put(w, total);
    put(w, uint32_t{1});
    put(w, uint8_t{3});  // kCodedRaw
    put(w, count);
    put(w, static_cast<uint32_t>(8 + region.size()));
    put(w, static_cast<uint32_t>(32 + region.size()));
    put(w, val_off);
    return w + region;
  };
  // Front-coded "a" "b" "c" -> 1 2 3: records {0, 1, key byte}, zero pad to
  // block offset 48, raw u64 values.
  std::string front = {0, 1, 'a', 0, 1, 'b', 0, 1, 'c'};
  front.resize(48 - 32, 0);
  for (uint64_t v : {1u, 2u, 3u}) put(front, v);
  std::string w = stream(pam::key_layout::front_coded, 1, 3, 3, 48, front);
  EXPECT_THROW(str_map::deserialize(w.data(), w.size()), pam::wire::error);
  // Delta-coded 1..4 -> 10..40: key varints 01 02 02 02, value varints at
  // block offset 36.
  const std::string delta = {1, 2, 2, 2, 10, 20, 30, 40};
  w = stream(pam::key_layout::delta, 0, 4, 4, 36, delta);
  EXPECT_THROW(delta_map::deserialize(w.data(), w.size()), pam::wire::error);

  std::vector<char> cur;
  delta_map{{1, 10}, {2, 20}, {3, 30}, {4, 40}}.serialize(cur);
  uint16_t abi;
  std::memcpy(&abi, cur.data() + 6, 2);
  ASSERT_EQ(abi, 1u) << "delta-coded streams carry record format 1";
  EXPECT_EQ(delta_map::deserialize(cur.data(), cur.size()).aug_val(), 100u);
  abi = 0;
  std::memcpy(cur.data() + 6, &abi, 2);
  EXPECT_THROW(delta_map::deserialize(cur.data(), cur.size()), pam::wire::error);
}

// A block's payload is a function of its entries alone: rebuilding the same
// map after the byte-class pools have recycled other blocks must serialize
// byte for byte the same, so no recycled pool byte (in the pad between key
// stream and values) reaches a checkpoint.
template <typename Map, typename MakeKey>
void expect_serialize_stable_across_churn(MakeKey key) {
  auto make = [&](uint64_t salt) {
    std::vector<typename Map::entry_t> es;
    es.reserve(2000);
    for (uint64_t i = 0; i < 2000; i++) es.push_back({key(i, salt), i * 7 + salt});
    return Map(std::move(es));
  };
  std::vector<char> before, after;
  make(0).serialize(before);
  for (uint64_t salt = 1; salt <= 8; salt++) {
    Map other = make(salt * 0x9E3779B9);  // dropped at scope end
    ASSERT_EQ(other.size(), 2000u);
  }
  make(0).serialize(after);
  EXPECT_EQ(before, after);
}

TEST(WireCodec, SerializeIsByteIdenticalAcrossPoolChurn) {
  block_size_guard guard(32);
  expect_serialize_stable_across_churn<str_map>([](uint64_t i, uint64_t salt) {
    return "user/" + std::to_string(salt) + "/" + std::to_string(i * 13);
  });
  expect_serialize_stable_across_churn<delta_map>(
      [](uint64_t i, uint64_t salt) { return i * 3 + salt; });
  expect_serialize_stable_across_churn<u64_map>(
      [](uint64_t i, uint64_t salt) { return i * 3 + salt; });
  // A padded pair (4 pad bytes after the key) must never travel raw: a raw
  // copy would carry recycled pool bytes in the pad.
  static_assert(!pam::map_codec<padded_map>::raw_blocks);
  expect_serialize_stable_across_churn<padded_map>(
      [](uint64_t i, uint64_t salt) { return static_cast<uint32_t>(i * 3 + salt); });
  std::vector<char> wire;
  padded_map{{1, 2}, {3, 4}}.serialize(wire);
  EXPECT_FALSE(has_record_kind(wire, kFlatRaw));
}

TEST(WireCodec, CrossEndianStreamRejected) {
  u64_map m;
  for (uint64_t k = 0; k < 100; k++) {
    m = u64_map::insert(std::move(m), k, k * 3);
  }
  std::vector<char> wire;
  m.serialize(wire);
  // Header: u32 magic | u8 layout | u8 byte_order | ... — the stamp pins
  // the writing host's endianness so a cross-endian load fails loudly
  // instead of misparsing raw block payloads.
  ASSERT_GT(wire.size(), 6u);
  EXPECT_EQ(static_cast<uint8_t>(wire[5]), pam::wire::kHostByteOrder);
  wire[5] = static_cast<char>(wire[5] == 1 ? 2 : 1);
  EXPECT_THROW(u64_map::deserialize(wire.data(), wire.size()),
               pam::wire::error);
}

// -------------------------------------------- durability manager + deltas --

// The write protocol kv_store runs under its writer fence, driven by hand:
// log the batch as a one-record round (its keys join the dirty-key log),
// then apply it.
template <typename Map>
void logged_insert(pam::store::durability<Map>& d, pam::sharded_map<Map>& shards,
                   std::vector<typename Map::entry_t> es) {
  using batch_t = typename pam::write_combiner<Map>::batch;
  ASSERT_NE(d.log_round(std::vector<batch_t>{{0, es, {}}}), 0u);
  shards.multi_insert(std::move(es));
}

// A checkpoint of everything logged and applied so far, with the keys
// logged since the previous one.
template <typename Map>
auto checkpoint_all(pam::store::durability<Map>& d, const pam::sharded_map<Map>& shards) {
  d.sync_wal();
  return d.save_checkpoint(shards.snapshot_all(), d.durable_seq(), d.take_dirty());
}

TEST(Durability, IncrementalCheckpointPersistsOnlyChangedBlocks) {
  temp_dir td("incr");
  pam::store::durability_options opts;
  opts.dir = td.path;
  opts.ckpt.page_bytes = 4096;

  std::vector<uint64_t> splitters = {50000};
  pam::sharded_map<u64_map> shards(splitters);
  // The ctor commits a full checkpoint of the (empty) initial contents.
  pam::store::durability<u64_map> d(opts, shards.snapshot_all());

  std::vector<u64_map::entry_t> bulk;
  for (uint64_t i = 0; i < 100000; i++) bulk.emplace_back(i, i);
  logged_insert(d, shards, std::move(bulk));
  // 100k fresh keys dwarf the empty baseline: the ratio policy forces full.
  auto full = checkpoint_all(d, shards);
  EXPECT_TRUE(full.full);

  // Touch 20 of 100k keys: the delta must be proportional to the churn,
  // not the map — the byte-footprint guarantee of log-driven checkpoints.
  std::vector<u64_map::entry_t> churn;
  for (uint64_t i = 0; i < 20; i++) churn.emplace_back(i * 977, 1);
  logged_insert(d, shards, std::move(churn));
  auto delta = checkpoint_all(d, shards);
  EXPECT_FALSE(delta.full);
  EXPECT_LT(delta.bytes * 100, full.bytes)
      << "delta " << delta.bytes << "B should be <1% of full " << full.bytes
      << "B for 20/100k churn";

  // The chain (full + delta) still loads to the exact contents.
  auto rec = pam::store::durability<u64_map>::recover(opts);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->checkpoint_files, 2u);
  EXPECT_EQ(rec->contents.size(), 100000u);
  for (uint64_t i = 0; i < 20; i++) {
    auto got = rec->contents.find(i * 977);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, 1u);
  }
}

TEST(Durability, FullCheckpointForcedPastMaxChainAndGcSweeps) {
  temp_dir td("chain");
  pam::store::durability_options opts;
  opts.dir = td.path;
  opts.ckpt.max_chain = 2;
  opts.ckpt.incr_max_ratio = 1.0;

  pam::sharded_map<u64_map> shards(u64_map{}, size_t{1});
  std::vector<u64_map::entry_t> bulk;
  for (uint64_t i = 0; i < 5000; i++) bulk.emplace_back(i, i);
  shards.multi_insert(std::move(bulk));

  pam::store::durability<u64_map> d(opts, shards.snapshot_all());
  int fulls = 0, deltas = 0;
  for (int round = 0; round < 8; round++) {
    logged_insert(d, shards, {{uint64_t(round), 99u}});
    auto r = checkpoint_all(d, shards);
    (r.full ? fulls : deltas)++;
  }
  EXPECT_GE(fulls, 2) << "max_chain=2 must force periodic fulls";
  EXPECT_GE(deltas, 4);

  // GC: only the live chain (<= 1 full + max_chain deltas + manifest +
  // CURRENT) remains on disk after eight commits.
  auto fs = pam::store::posix_fs();
  size_t ckpt_files = 0, manifests = 0;
  for (const auto& name : fs->list(td.path)) {
    ckpt_files += name.rfind("ckpt-", 0) == 0;
    manifests += name.rfind("manifest-", 0) == 0;
  }
  EXPECT_LE(ckpt_files, size_t{1} + 2);
  EXPECT_EQ(manifests, 1u);

  auto rec = pam::store::durability<u64_map>::recover(opts);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->contents.size(), 5000u);
  EXPECT_EQ(rec->contents.find(7), std::optional<uint64_t>(99));
}

// The byte oracle at the file level: a full checkpoint's data file, written
// through the one-buffer path, equals the reference framing of every
// shard's Map::serialize stream.
template <typename Map, typename MakeEntry>
void expect_full_file_matches_reference(const char* tag, std::vector<typename Map::K> splitters,
                                        MakeEntry make) {
  temp_dir td(tag);
  pam::store::durability_options opts;
  opts.dir = td.path;
  opts.ckpt.page_bytes = 4096;
  pam::sharded_map<Map> shards(splitters);
  pam::store::durability<Map> d(opts, shards.snapshot_all());
  std::vector<typename Map::entry_t> bulk;
  for (uint64_t i = 0; i < 20000; i++) bulk.push_back(make(i));
  logged_insert(d, shards, std::move(bulk));
  auto cut = shards.snapshot_all();
  d.sync_wal();
  auto r = d.save_checkpoint(cut, d.durable_seq(), d.take_dirty());
  ASSERT_TRUE(r.full);
  auto fs = pam::store::posix_fs();
  const std::string path = td.path + "/" + pam::store::ckpt_file_name(r.id, true);
  auto f = fs->open_read(path);
  std::vector<char> file(f->size());
  ASSERT_EQ(f->read_at(0, file.data(), file.size()), file.size());
  EXPECT_EQ(r.bytes, file.size());
  EXPECT_TRUE(file == pam_test::reference_full_file(cut, 4096)) << tag;
}

TEST(Durability, FullCheckpointFileMatchesReferenceFraming) {
  block_size_guard guard(32);
  expect_full_file_matches_reference<u64_map>("oracle_u64", {30000, 60000}, [](uint64_t i) {
    return u64_map::entry_t{i * 5, i};
  });
  expect_full_file_matches_reference<str_map>("oracle_str", {"k/5"}, [](uint64_t i) {
    return str_map::entry_t{"k/" + std::to_string(i), i};
  });
  expect_full_file_matches_reference<delta_map>("oracle_delta", {50000}, [](uint64_t i) {
    return delta_map::entry_t{i * 7, i};
  });
}

// The full image does not depend on how its shard tasks and page CRCs were
// scheduled: on 1 worker and on 4 it is the same bytes, and those are the
// reference framing.
template <typename Map, typename MakeEntry>
void expect_image_independent_of_workers(std::vector<typename Map::K> splitters, size_t n,
                                         MakeEntry make) {
  pam::sharded_map<Map> shards(splitters);
  std::vector<typename Map::entry_t> bulk;
  for (uint64_t i = 0; i < n; i++) bulk.push_back(make(i));
  shards.multi_insert(std::move(bulk));
  auto cut = shards.snapshot_all();
  const int before = pam::num_workers();
  for (size_t page : {size_t{61}, size_t{4096}}) {
    pam::set_num_workers(1);
    std::vector<char> serial = pam_test::image_full_file(cut, page);
    pam::set_num_workers(4);
    std::vector<char> parallel = pam_test::image_full_file(cut, page);
    pam::set_num_workers(before);
    EXPECT_TRUE(serial == parallel) << "page " << page;
    EXPECT_TRUE(parallel == pam_test::reference_full_file(cut, page)) << "page " << page;
  }
}

TEST(Durability, FullImageSameOnOneWorkerAndOnFour) {
  block_size_guard guard(32);
  // Eight shards, the last two empty.
  expect_image_independent_of_workers<u64_map>(
      {1000, 2000, 4000, 8000, 16000, 40000, 50000}, 10000,
      [](uint64_t i) { return u64_map::entry_t{i * 3, i}; });
  expect_image_independent_of_workers<str_map>(
      {"k/2", "k/4", "k/6"}, 5000,
      [](uint64_t i) { return str_map::entry_t{"k/" + std::to_string(i), i}; });
}

// No exception leaves a shard task: every shard still runs, and the first
// shard's failure is rethrown on the calling thread after the join.
TEST(Durability, ShardTaskFailuresRethrownAfterTheJoin) {
  const int before = pam::num_workers();
  pam::set_num_workers(4);
  std::vector<std::atomic<int>> ran(64);
  try {
    pam::store::checkpoint_io<u64_map>::per_shard(ran.size(), [&](size_t s) {
      ran[s]++;
      if (s % 7 == 3) throw std::logic_error("shard " + std::to_string(s));
    });
    ADD_FAILURE() << "no failure rethrown";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "shard 3");
  }
  pam::set_num_workers(before);
  for (const auto& r : ran) EXPECT_EQ(r.load(), 1);
}

TEST(Durability, RecoverOnEmptyDirectoryIsNullopt) {
  temp_dir td("empty");
  pam::store::durability_options opts;
  opts.dir = td.path;
  EXPECT_FALSE(pam::store::durability<u64_map>::recover(opts).has_value());
}

}  // namespace
