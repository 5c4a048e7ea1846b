// Fault-injected crash recovery: the durability layer's contract, verified
// differentially against an oracle.
//
// The harness runs a deterministic workload of acked batches against a
// durable kv_store whose I/O rides store::faulty_fs, arms exactly one
// failpoint (short write / torn page / fsync failure / crash-before-rename)
// at the Nth operation of its kind, catches the injected crash_error, then
// recovers from the surviving bytes and checks:
//
//   * the recovered state equals the oracle at SOME prefix of committed
//     batches — never a torn half-batch, never an interleaving;
//   * the prefix is at least everything acked before the crash (an acked
//     batch is never lost) — it may extend past the ack point, matching
//     real storage semantics where bytes can land without their barrier;
//   * recovery itself is clean: a second recover of the repaired directory
//     yields the identical state.
//
// Sweeping the arm count N drags the crash point across the whole
// lifecycle: mid-WAL-append, mid-checkpoint-write, mid-fsync, mid-rename.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "pam/pam.h"
#include "server/kv_store.h"
#include "util/random.h"

namespace {

using map_t = pam::aug_map<pam::sum_entry<uint64_t, uint64_t>>;
using store_t = pam::kv_store<map_t>;
using oracle_t = std::map<uint64_t, uint64_t>;

struct temp_dir {
  std::string path;
  explicit temp_dir(const std::string& tag) {
    // The pid keeps two concurrent runs of this suite (e.g. two build
    // directories' ctest) out of each other's stores.
    path = ::testing::TempDir() + "pam_crash_" + tag + "_" +
           std::to_string(::getpid());
    std::string cmd = "rm -rf " + path;
    EXPECT_EQ(std::system(cmd.c_str()), 0);
  }
  ~temp_dir() {
    std::string cmd = "rm -rf " + path;
    (void)std::system(cmd.c_str());
  }
};

// The deterministic workload, expressed as the durability layer sees it: a
// flat sequence of batches, each one WAL record logged-then-applied
// synchronously. Batch 2r upserts round r's keys (plus a rotating overwrite
// of a shared key so every prefix state is distinct); batch 2r+1 deletes
// one of them. The atomicity unit of the crash contract is the BATCH — a
// crash may land between a round's two batches, and recovering that state
// is correct.
struct batch_t {
  std::vector<map_t::entry_t> ups;
  std::vector<uint64_t> dels;
};

std::vector<batch_t> make_batches(uint64_t rounds) {
  std::vector<batch_t> out;
  for (uint64_t r = 0; r < rounds; r++) {
    batch_t puts;
    for (uint64_t k = 0; k < 10; k++) {
      puts.ups.emplace_back(1000 + r * 10 + k, r * 1000 + k);
    }
    puts.ups.emplace_back(7, r);  // distinguishes prefixes
    out.push_back(std::move(puts));
    batch_t dels;
    dels.dels.push_back(1000 + r * 10);
    out.push_back(std::move(dels));
  }
  return out;
}

void oracle_apply(oracle_t& o, const batch_t& b) {
  for (const auto& [k, v] : b.ups) o[k] = v;
  for (uint64_t k : b.dels) o.erase(k);
}

// Throws crash_error when the armed failpoint fires mid-batch.
void store_apply(store_t& s, const batch_t& b) {
  if (!b.ups.empty()) s.put_batch(b.ups);
  if (!b.dels.empty()) s.erase_batch(b.dels);
}

void expect_equals(const store_t& s, const oracle_t& o, const char* what) {
  ASSERT_EQ(s.size(), o.size()) << what;
  auto entries = s.snapshot().entries();
  size_t i = 0;
  for (const auto& [k, v] : o) {
    ASSERT_EQ(entries[i].first, k) << what;
    ASSERT_EQ(entries[i].second, v) << what;
    i++;
  }
}

bool snapshot_equals(const pam::sharded_snapshot<map_t>& snap,
                     const oracle_t& o) {
  if (snap.size() != o.size()) return false;
  auto entries = snap.entries();
  size_t i = 0;
  for (const auto& [k, v] : o) {
    if (entries[i].first != k || entries[i].second != v) return false;
    i++;
  }
  return true;
}

// One crash experiment: arm `counter` at N, run rounds (checkpoint every
// third) until the injected crash (or workload end), recover, and verify
// the prefix contract. Returns false when N exceeded the total number of
// ops of that kind (the sweep's stop condition).
bool run_crash_case(const std::string& tag,
                    std::atomic<long> pam::store::failpoints::* counter,
                    long n) {
  constexpr uint64_t kRounds = 12;
  temp_dir td(tag + "_" + std::to_string(n));
  auto fp = std::make_shared<pam::store::failpoints>();
  auto fs = std::make_shared<pam::store::faulty_fs>(pam::store::posix_fs(), fp);

  // Every oracle prefix state: prefix_states[i] = oracle after i batches.
  std::vector<batch_t> batches = make_batches(kRounds);
  std::vector<oracle_t> prefix_states(1);
  for (const batch_t& b : batches) {
    oracle_t next = prefix_states.back();
    oracle_apply(next, b);
    prefix_states.push_back(std::move(next));
  }

  uint64_t acked = 0;      // batches fully acked before the crash
  uint64_t attempted = 0;  // batches started (the crashed one may surface)
  bool crashed = false;
  {
    store_t::options opt;
    opt.splitters = {1040, 1080};
    opt.combiner.flush_interval = std::chrono::milliseconds(0);
    pam::store::durability_options dopts;
    dopts.dir = td.path;
    dopts.io = fs;
    opt.durability = dopts;
    store_t store(map_t{}, opt);

    (fp.get()->*counter).store(n);
    try {
      for (uint64_t i = 0; i < batches.size(); i++) {
        attempted = i + 1;
        store_apply(store, batches[i]);
        acked = i + 1;
        if (i % 5 == 4) store.save_checkpoint();
      }
    } catch (const pam::store::crash_error&) {
      crashed = true;
    }
    fp->disarm();
    // Tear down with the dead writer still in place — the destructor path
    // must not throw even though the final drain cannot log.
  }

  if (!crashed) {
    // N was larger than the number of ops of this kind in the whole run:
    // nothing fired, the store must simply equal the full oracle.
    EXPECT_EQ(fp->crashes_injected.load(), 0) << tag << " N=" << n;
  }

  pam::store::durability_options dopts;
  dopts.dir = td.path;
  dopts.io = fs;  // disarmed; recovery reads are never failed anyway
  store_t::recovery_stats rs;
  store_t recovered = store_t::recover(dopts, {}, &rs);
  EXPECT_TRUE(rs.recovered) << tag << " N=" << n;

  // The contract: the recovered state is the oracle at some round count j
  // with acked <= j <= attempted. Nothing else is acceptable — not a torn
  // record, not a lost acked batch, not a half-applied round.
  auto snap = recovered.snapshot();
  bool matched = false;
  uint64_t matched_j = 0;
  for (uint64_t j = acked; j <= attempted && j < prefix_states.size(); j++) {
    if (snapshot_equals(snap, prefix_states[j])) {
      matched = true;
      matched_j = j;
      break;
    }
  }
  EXPECT_TRUE(matched) << tag << " N=" << n << ": recovered state matches no "
                       << "prefix in [" << acked << ", " << attempted << "]"
                       << " (crashed=" << crashed << ")";

  // Recovery is deterministic: recovering the repaired directory again
  // (fresh store each time) reproduces the same state.
  {
    store_t again = store_t::recover(dopts);
    if (matched) {
      expect_equals(again, prefix_states[matched_j], "second recover");
    }
  }

  // The recovered store serves writes durably.
  recovered.put(424242, 1);
  recovered.flush();
  EXPECT_FALSE(recovered.failed());
  return crashed;
}

class CrashMatrix : public ::testing::Test {};

// Sweep each fault kind's arm count until the workload completes without
// tripping — every N in between lands the crash at a different point in
// the WAL-append / checkpoint-write / fsync / rename lifecycle.
void sweep(const std::string& tag,
           std::atomic<long> pam::store::failpoints::* counter, long step,
           long max_n) {
  int fired = 0;
  for (long n = 1; n <= max_n; n += step) {
    if (run_crash_case(tag, counter, n)) {
      fired++;
    } else {
      break;  // N exceeded the op count: later arms cannot fire either
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(fired, 0) << tag << ": no arm count ever fired";
}

TEST_F(CrashMatrix, ShortWriteMidWalAppendOrCheckpoint) {
  sweep("short", &pam::store::failpoints::writes_until_short, 7, 120);
}

TEST_F(CrashMatrix, TornPageMidWalAppendOrCheckpoint) {
  sweep("torn", &pam::store::failpoints::writes_until_torn, 9, 120);
}

TEST_F(CrashMatrix, FsyncFailure) {
  sweep("fsync", &pam::store::failpoints::fsyncs_until_fail, 5, 90);
}

TEST_F(CrashMatrix, CrashBeforeCommitRename) {
  // Renames only happen at checkpoint commit points, so every N lands
  // exactly on a CURRENT publication.
  sweep("rename", &pam::store::failpoints::renames_until_crash, 1, 8);
}

// The mutexed-oracle differential under real concurrency: many writer
// threads race buffered puts through the combiner (every flushed batch
// WAL-logged before it becomes visible), a clean shutdown drains, and
// recovery must reproduce exactly the oracle. Runs under TSan in CI.
TEST(CrashRecovery, ConcurrentWritersCleanShutdownRecoverExactly) {
  temp_dir td("concurrent");
  std::mutex oracle_mu;
  oracle_t oracle;
  {
    store_t::options opt;
    opt.splitters = {2500, 5000, 7500};
    opt.combiner.batch_size = 64;
    opt.combiner.flush_interval = std::chrono::milliseconds(1);
    pam::store::durability_options dopts;
    dopts.dir = td.path;
    opt.durability = dopts;
    store_t store(map_t{}, opt);

    constexpr int kThreads = 4;
    constexpr uint64_t kOps = 800;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; t++) {
      workers.emplace_back([&, t] {
        pam::random_gen g(uint64_t(t) + 1);
        for (uint64_t i = 0; i < kOps; i++) {
          // Disjoint per-thread key space: the oracle needs no cross-thread
          // ordering, only that every acked op lands.
          uint64_t k = uint64_t(t) * 10000 + (g.next() % 2500);
          uint64_t v = g.next();
          store.put(k, v);
          std::lock_guard<std::mutex> lk(oracle_mu);
          oracle[k] = v;
        }
      });
    }
    for (auto& w : workers) w.join();
    store.flush();
    store.save_checkpoint();
    ASSERT_FALSE(store.failed());
    expect_equals(store, oracle, "pre-shutdown");
  }
  pam::store::durability_options dopts;
  dopts.dir = td.path;
  store_t recovered = store_t::recover(dopts);
  expect_equals(recovered, oracle, "post-recovery");
}

// Checkpoints racing live writers: a batch whose WAL record lands with
// seq <= covered but whose apply had not yet happened when the cut was
// snapshotted would be absent from the checkpoint AND skipped by replay —
// an acked batch silently lost after recovery. save_checkpoint fences the
// (sync, read covered, snapshot) triple against every writer by holding
// all of the combiner's flush locks (quiesced), under which buffered and
// bulk batches alike log and apply; this test hammers continuous
// checkpoints against concurrent put() and put_batch() traffic on shared
// per-thread keys and requires exact oracle equality after recovery.
// Runs under TSan in CI.
TEST(CrashRecovery, CheckpointsRacingWritersNeverLoseAckedBatches) {
  temp_dir td("ckpt_race");
  std::mutex oracle_mu;
  oracle_t oracle;
  {
    store_t::options opt;
    opt.splitters = {2500, 5000, 7500};
    opt.combiner.batch_size = 8;  // small batches: many sink/apply windows
    opt.combiner.flush_interval = std::chrono::milliseconds(1);
    pam::store::durability_options dopts;
    dopts.dir = td.path;
    opt.durability = dopts;
    store_t store(map_t{}, opt);

    // The checkpointer stops FIRST, while writers are still going: a batch
    // lost by a racy cut stays lost only if no later checkpoint re-covers
    // its effects, so the last checkpoint must be the one racing traffic.
    std::atomic<bool> ckpts_done{false};
    std::thread checkpointer([&] {
      for (int k = 0; k < 15; k++) store.save_checkpoint();
      ckpts_done.store(true, std::memory_order_release);
    });

    constexpr int kThreads = 4;
    constexpr uint64_t kMinOps = 400;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; t++) {
      workers.emplace_back([&, t] {
        pam::random_gen g(uint64_t(t) + 99);
        for (uint64_t i = 0;
             i < kMinOps || !ckpts_done.load(std::memory_order_acquire);
             i++) {
          uint64_t v = g.next();
          uint64_t k = uint64_t(t) * 10000 + (g.next() % 1500);
          if (i % 4 == 3) {
            store.put_batch({{k, v}});
          } else {
            store.put(k, v);
          }
          std::lock_guard<std::mutex> lk(oracle_mu);
          oracle[k] = v;
        }
      });
    }
    checkpointer.join();
    for (auto& w : workers) w.join();
    store.flush();
    ASSERT_FALSE(store.failed());
    expect_equals(store, oracle, "pre-shutdown");
  }
  pam::store::durability_options dopts;
  dopts.dir = td.path;
  store_t recovered = store_t::recover(dopts);
  expect_equals(recovered, oracle, "post-recovery: no acked batch lost");
}

// Two writers race on one fresh key per round — put_batch against
// put_batch, or put_batch against a buffered put — with no fault injected.
// Every write of a key logs and applies under that key's combiner flush
// lock, so WAL order equals apply order per key and recovery must rebuild
// exactly the live store. A bulk path that logged and applied outside that
// lock could log A, B and apply B, A: the live store keeps A, recovery
// replays to B. batch_size 1 makes every put() commit at once, and a spin
// barrier lines the two writes of a round up as closely as possible.
void race_writers_on_one_key(const std::string& tag, bool both_bulk) {
  constexpr uint64_t kRounds = 50000;
  temp_dir td(tag);
  std::vector<map_t::entry_t> live;
  {
    store_t::options opt;
    opt.splitters = {kRounds / 2};
    opt.combiner.batch_size = 1;
    opt.combiner.flush_interval = std::chrono::milliseconds(0);
    pam::store::durability_options dopts;
    dopts.dir = td.path;
    dopts.wal.sync_every = 1 << 20;  // the race, not the fsync, is the point
    opt.durability = dopts;
    store_t store(map_t{}, opt);

    std::atomic<uint64_t> arrived{0};
    auto writer = [&](uint64_t v) {
      for (uint64_t r = 0; r < kRounds; r++) {
        arrived.fetch_add(1, std::memory_order_acq_rel);
        for (uint64_t spins = 0;
             arrived.load(std::memory_order_acquire) < 2 * (r + 1);
             spins++) {
          if (spins % 1024 == 1023) std::this_thread::yield();
        }
        if (v == 1 || both_bulk) {
          store.put_batch({{r, v}});
        } else {
          store.put(r, v);
        }
      }
    };
    std::thread a(writer, 1);
    std::thread b(writer, 2);
    a.join();
    b.join();
    store.flush();
    ASSERT_FALSE(store.failed());
    live = store.snapshot().entries();
    ASSERT_EQ(live.size(), kRounds);
  }
  pam::store::durability_options dopts;
  dopts.dir = td.path;
  store_t recovered = store_t::recover(dopts);
  auto got = recovered.snapshot().entries();
  ASSERT_EQ(got.size(), live.size());
  size_t diverged = 0;
  for (size_t i = 0; i < got.size(); i++) diverged += got[i] != live[i];
  EXPECT_EQ(diverged, 0u) << "keys whose recovered value differs from live";
}

TEST(CrashRecovery, BulkWritersRacingOneKeyRecoverTheLiveStore) {
  race_writers_on_one_key("race_bulk_bulk", /*both_bulk=*/true);
}

TEST(CrashRecovery, BulkAndBufferedWritersRacingOneKeyRecoverTheLiveStore) {
  race_writers_on_one_key("race_bulk_put", /*both_bulk=*/false);
}

// Recovery rebuilds the shard directory from the manifest, whatever the
// caller's options ask for. A store built with explicit splitters writes a
// checkpoint and then a WAL tail; recover() is handed other splitters and
// another shard count, and must still come back with the manifest's
// splitters and every entry of the oracle, each in the shard that owns it.
TEST(CrashRecovery, RecoverRestoresManifestSplitters) {
  temp_dir td("manifest_splitters");
  const std::vector<uint64_t> splitters = {10000, 20000, 30000};
  oracle_t oracle;
  {
    store_t::options opt;
    opt.splitters = splitters;
    pam::store::durability_options dopts;
    dopts.dir = td.path;
    opt.durability = dopts;
    store_t store(map_t{}, opt);
    pam::random_gen g(17);
    for (uint64_t i = 0; i < 6000; i++) {
      uint64_t k = g.next() % 40000;
      uint64_t v = g.next();
      store.put(k, v);
      oracle[k] = v;
    }
    store.save_checkpoint();
    // A WAL tail past the checkpoint, replayed at recovery.
    for (uint64_t k = 0; k < 40000; k += 13) {
      store.erase(k);
      oracle.erase(k);
    }
    std::vector<map_t::entry_t> bulk;
    for (uint64_t k = 40000; k < 40100; k++) {
      bulk.emplace_back(k, k);
      oracle[k] = k;
    }
    store.put_batch(std::move(bulk));
    store.flush();
    ASSERT_FALSE(store.failed());
    expect_equals(store, oracle, "pre-shutdown");
  }
  pam::store::durability_options dopts;
  dopts.dir = td.path;
  store_t::options ropt;
  ropt.splitters = {500, 1500};
  ropt.num_shards = 2;
  store_t::recovery_stats stats;
  store_t recovered = store_t::recover(dopts, ropt, &stats);
  ASSERT_TRUE(stats.recovered);
  EXPECT_GT(stats.wal_records, 0u);
  EXPECT_EQ(recovered.shards().splitters(), splitters);
  ASSERT_EQ(recovered.shards().num_shards(), splitters.size() + 1);
  expect_equals(recovered, oracle, "post-recovery");
  auto snap = recovered.snapshot();
  for (size_t s = 0; s < snap.num_shards(); s++) {
    snap.shard(s).for_each([&](uint64_t k, uint64_t) {
      EXPECT_EQ(recovered.shards().shard_of(k), s) << "key " << k;
    });
  }
}

// ------------------------------------------- delta checkpoints from logs --

// Incremental checkpoints are built from the keys the WAL logged since the
// previous checkpoint, looked up in the cut. Within one interval: a rewrite
// of a key to its current value, an insert then erase of a fresh key, an
// erase of a key that never existed, plus real changes. Each interval ends
// in a delta checkpoint, and recovery through full + delta + delta, with no
// WAL tail to replay, must equal the oracle exactly.
template <typename Map, typename MakeKey>
void expect_delta_chain_recovers(const std::string& tag, MakeKey key) {
  using K = typename Map::K;
  using V = typename Map::V;
  using kv_t = pam::kv_store<Map>;
  temp_dir td(tag);
  std::map<K, V> oracle;
  std::vector<typename Map::entry_t> preload;
  for (uint64_t i = 0; i < 4000; i++) {
    preload.emplace_back(key(i), i);
    oracle[key(i)] = i;
  }
  {
    typename kv_t::options opt;
    opt.splitters = {key(1000), key(3000)};
    pam::store::durability_options dopts;
    dopts.dir = td.path;
    opt.durability = dopts;
    kv_t store(Map(std::move(preload)), opt);
    for (uint64_t round = 0; round < 2; round++) {
      store.put(key(10), 10);  // the value it already has
      store.put_batch({{key(20), 20}});
      store.put(key(900000 + round), 1);  // fresh, then erased
      store.erase(key(900000 + round));
      store.erase(key(800000 + round));  // never existed
      store.erase_batch({key(800100 + round)});
      for (uint64_t i = 0; i < 50; i++) {
        uint64_t k = 37 * i + round;
        store.put(key(k), 7 + round);
        oracle[key(k)] = 7 + round;
      }
      store.erase(key(2000 + round));
      oracle.erase(key(2000 + round));
      auto res = store.save_checkpoint();
      EXPECT_FALSE(res.full) << tag << " round " << round;
    }
    ASSERT_FALSE(store.failed());
  }
  pam::store::durability_options dopts;
  dopts.dir = td.path;
  typename kv_t::recovery_stats rs;
  kv_t recovered = kv_t::recover(dopts, {}, &rs);
  EXPECT_EQ(rs.checkpoint_files, 3u) << tag;
  EXPECT_EQ(rs.wal_records, 0u) << tag;
  auto got = recovered.snapshot().entries();
  ASSERT_EQ(got.size(), oracle.size()) << tag;
  size_t i = 0;
  for (const auto& [k, v] : oracle) {
    EXPECT_TRUE(got[i].first == k && got[i].second == v) << tag << " entry " << i;
    i++;
  }
}

TEST(DeltaCheckpoint, NoOpAndTransientChangesRecoverThroughTheChain) {
  expect_delta_chain_recovers<map_t>("delta_u64", [](uint64_t i) { return i; });
}

TEST(DeltaCheckpoint, StringKeyStoreRecoversThroughTheChain) {
  using str_map = pam::aug_map<pam::str_sum_entry<uint64_t>>;
  expect_delta_chain_recovers<str_map>("delta_str", [](uint64_t i) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "user%012llu", static_cast<unsigned long long>(i));
    return std::string(buf);
  });
}

// A checkpoint that fails before its commit point (its data file, manifest
// or CURRENT write cut short) hands its dirty keys back to the log, so the
// next good delta still carries them. That delta covers, and the WAL
// truncation it triggers unlinks, the records of the failed interval:
// without the hand-back their keys would be in neither the chain nor the
// replayed WAL tail.
TEST(DeltaCheckpoint, FailedCommitKeepsItsKeysForTheNextDelta) {
  // Short writes 1, 2 and 3 of a checkpoint: data file, manifest, CURRENT.
  for (long n = 1; n <= 3; n++) {
    temp_dir td("ckpt_fail_" + std::to_string(n));
    auto fp = std::make_shared<pam::store::failpoints>();
    auto fs = std::make_shared<pam::store::faulty_fs>(pam::store::posix_fs(), fp);
    oracle_t oracle;
    std::vector<map_t::entry_t> preload;
    for (uint64_t k = 0; k < 4000; k++) {
      preload.emplace_back(k, k);
      oracle[k] = k;
    }
    auto wal_segments = [&] {
      size_t segs = 0;
      for (const std::string& name : fs->list(td.path)) segs += name.rfind("wal-", 0) == 0;
      return segs;
    };
    {
      store_t::options opt;
      opt.splitters = {2000};
      pam::store::durability_options dopts;
      dopts.dir = td.path;
      dopts.io = fs;
      dopts.wal.segment_bytes = 1;  // one record per segment
      opt.durability = dopts;
      store_t store(map_t(std::move(preload)), opt);

      for (uint64_t k = 0; k < 40; k++) {
        store.put_batch({{k * 11, 1}});
        oracle[k * 11] = 1;
      }
      store.erase_batch({5});
      oracle.erase(5);
      store.flush();
      fp->writes_until_short.store(n);
      EXPECT_THROW(store.save_checkpoint(), pam::store::crash_error) << "N=" << n;
      fp->disarm();
      ASSERT_FALSE(store.failed());

      for (uint64_t k = 0; k < 20; k++) {
        store.put_batch({{k * 13 + 1, 2}});
        oracle[k * 13 + 1] = 2;
      }
      const size_t before = wal_segments();
      auto res = store.save_checkpoint();
      EXPECT_FALSE(res.full) << "N=" << n;
      EXPECT_LT(wal_segments() + 40, before) << "N=" << n << ": WAL not truncated";
      expect_equals(store, oracle, "pre-shutdown");
    }
    pam::store::durability_options dopts;
    dopts.dir = td.path;
    store_t::recovery_stats rs;
    store_t recovered = store_t::recover(dopts, {}, &rs);
    EXPECT_EQ(rs.wal_records, 0u) << "N=" << n;
    expect_equals(recovered, oracle, "post-recovery");
  }
}

// The dirty-key log is bounded: a store that takes far more writes than
// the delta budget can carry, with no checkpoint in between, keeps the log
// at or under its bound (it is dropped once its distinct keys cannot fit),
// exports its size as pam_ckpt_dirty_keys, and escalates the next
// checkpoint to full.
TEST(DeltaCheckpoint, DirtyLogStaysBoundedAndEscalatesToFull) {
  temp_dir td("dirty_bound");
  oracle_t oracle;
  std::vector<map_t::entry_t> preload;
  for (uint64_t k = 0; k < 2000; k++) {
    preload.emplace_back(k, k);
    oracle[k] = k;
  }
  {
    store_t::options opt;
    opt.splitters = {1000, 100000};
    pam::store::durability_options dopts;
    dopts.dir = td.path;
    dopts.wal.sync_every = 1 << 20;
    opt.durability = dopts;
    store_t store(map_t(std::move(preload)), opt);
    auto& d = store.durable();
    const size_t bound = d.dirty_bound();
    auto gauge = [&] {
      for (const auto& g : store.metrics().gauges) {
        if (g.name == "pam_ckpt_dirty_keys") return g.value;
      }
      return int64_t{-1};
    };

    size_t peak = 0;
    for (uint64_t b = 0; b < 200; b++) {
      std::vector<map_t::entry_t> batch;
      for (uint64_t i = 0; i < 500; i++) {
        uint64_t k = 10000 + b * 500 + i;
        batch.emplace_back(k, b);
        oracle[k] = b;
      }
      store.put_batch(std::move(batch));
      peak = std::max(peak, d.dirty_size());
      ASSERT_LE(d.dirty_size(), bound) << "batch " << b;
    }
    EXPECT_GT(peak, 0u);
    if (pam::obs::kEnabled) {
      EXPECT_LE(gauge(), static_cast<int64_t>(bound));
    }
    auto res = store.save_checkpoint();
    EXPECT_TRUE(res.full) << "100k distinct keys cannot fit the delta budget";
    EXPECT_EQ(d.dirty_size(), 0u);
    if (pam::obs::kEnabled) {
      EXPECT_EQ(gauge(), 0);
    }
    store.flush();
    expect_equals(store, oracle, "pre-shutdown");
  }
  pam::store::durability_options dopts;
  dopts.dir = td.path;
  store_t recovered = store_t::recover(dopts);
  expect_equals(recovered, oracle, "post-recovery");
}

// Recovery leaves an audit trail in the metrics registry: runs, replayed
// records, and the WAL/checkpoint counters the recovered store touched. The
// fault-injected matrix above exercises recovery dozens of times before this
// test runs; here we take a scrape delta around one more recovery and assert
// the counters moved (ISSUE 9 acceptance: a crash-recovery run shows
// recovery counters in the exposition).
TEST(CrashRecovery, RecoveryCountersAppearInScrape) {
  if (!pam::obs::kEnabled) GTEST_SKIP() << "built with PAM_METRICS=0";
  temp_dir td("obs_counters");
  constexpr uint64_t kOps = 300;
  {
    store_t::options opt;
    opt.splitters = {100, 200};
    pam::store::durability_options dopts;
    dopts.dir = td.path;
    opt.durability = dopts;
    store_t store(map_t{}, opt);
    // WAL-only tail: no checkpoint after these, so recovery must replay.
    for (uint64_t i = 0; i < kOps; i++) store.put(i, i * 3);
    store.flush();
    ASSERT_FALSE(store.failed());
  }

  auto counter_of = [](const pam::obs::registry_snapshot& s,
                       const std::string& name) -> uint64_t {
    for (const auto& c : s.counters) {
      if (c.name == name) return c.value;
    }
    return 0;
  };
  auto before = pam::obs::registry::get().scrape();

  pam::store::durability_options dopts;
  dopts.dir = td.path;
  store_t recovered = store_t::recover(dopts);
  ASSERT_EQ(recovered.size(), kOps);
  // One durable write post-recovery: feeds the recovered store's own WAL
  // series (the crashed store's instance counters left the registry with it).
  recovered.put(999999, 1);
  recovered.flush();

  auto after = recovered.metrics();
  EXPECT_EQ(counter_of(after, "pam_recovery_runs_total") -
                counter_of(before, "pam_recovery_runs_total"),
            1u);
  // Every op above was WAL-tail-only, so replay saw at least that many
  // records (batching may pack several ops per record, hence >= batches).
  EXPECT_GT(counter_of(after, "pam_recovery_replayed_records_total"),
            counter_of(before, "pam_recovery_replayed_records_total"));
  // The writing store fed the WAL series too.
  EXPECT_GT(counter_of(after, "pam_wal_records_total"), 0u);
  EXPECT_GT(counter_of(after, "pam_ckpt_total"), 0u);
  // And the text exposition carries them for operators.
  std::string text = recovered.metrics_text();
  EXPECT_NE(text.find("pam_recovery_runs_total"), std::string::npos);
  EXPECT_NE(text.find("pam_recovery_replay_ns"), std::string::npos);
}

}  // namespace
