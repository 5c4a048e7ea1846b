// Durability layer costs: checkpoint bandwidth, incremental footprint, WAL
// append throughput and recovery replay rate (ISSUE 8).
//
// Workload: a sharded u64 store of N keys (default 2M, scaled by
// PAM_BENCH_SCALE). Measured:
//
//   * full checkpoint    serialize a consistent cut through the sealed-leaf
//                        paths and page it out — MB/s, and the data file's
//                        bytes per entry (gated in BENCH_PR10.json: integer
//                        flat blocks travel delta-coded);
//   * full image encode  full_image (measure + encode) on 1 worker and on
//                        all workers; encode_speedup = serial time /
//                        parallel time (gated against pathological slowdown
//                        only, since CI runners may have one core);
//   * incremental        churn 1% of keys, checkpoint again — the delta
//                        carries the keys the WAL logged since the full
//                        checkpoint, so its byte footprint must track the
//                        churn, not the map (the ratio is the gated metric);
//   * WAL append         group-commit throughput (sync_every=16) in ops/s;
//   * recovery           load checkpoint chain + replay the WAL tail — wall
//                        time and replayed ops/s, verified against the
//                        expected final contents;
//   * crc32c             MB/s of the software slice-by-8 kernel and of the
//                        SSE4.2 kernel over one 16 MiB buffer, and their
//                        ratio hw_over_sw (gated in BENCH_PR10.json; the
//                        row is absent on CPUs without SSE4.2);
//   * combiner round     a durable 16-shard kv_store, R rounds of one put
//                        per shard, each followed by flush(): WAL fsyncs
//                        per flush and cut publications per round, read
//                        from the registry probes a live scrape shows
//                        (gated at 1.0 in BENCH_PR10.json; absent with
//                        PAM_METRICS=0).
//
// Acceptance gate (ISSUE 8): the incremental checkpoint after 1% churn must
// persist only changed blocks — its bytes must be <= PAM_DURABILITY_GATE
// (default 0.30, target 0.10) of the full checkpoint. PAM_PERF_GATE=1
// enforces it by exit code.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/bench_util.h"
#include "pam/pam.h"
#include "server/kv_store.h"
#include "server/sharded_map.h"
#include "store/checkpoint.h"
#include "store/crc32c.h"
#include "store/durability.h"

namespace {
using namespace pam;
using namespace pam::bench;

using K = uint64_t;
using map_t = aug_map<sum_entry<K, uint64_t>>;
using entry_t = map_t::entry_t;
using durability_t = store::durability<map_t>;

// The write protocol kv_store runs under its writer fence: log the entries
// as WAL batches (their keys join the dirty-key log), apply them, and make
// the log durable.
void logged_insert(durability_t& d, sharded_map<map_t>& shards, std::vector<entry_t> es) {
  constexpr size_t kBatch = 1 << 16;
  for (size_t i = 0; i < es.size(); i += kBatch) {
    std::vector<write_combiner<map_t>::batch> round(1);
    round[0].upserts.assign(es.begin() + i, es.begin() + std::min(es.size(), i + kBatch));
    if (d.log_round(round) == 0) {
      std::printf("ERROR: WAL writer died mid-bench\n");
      std::exit(2);
    }
  }
  shards.multi_insert(std::move(es));
  d.sync_wal();
}

// A checkpoint of everything logged, synced and applied so far.
durability_t::ckpt_result checkpoint_all(durability_t& d, const sharded_map<map_t>& shards) {
  return d.save_checkpoint(shards.snapshot_all(), d.durable_seq(), d.take_dirty());
}

struct temp_dir {
  std::string path;
  explicit temp_dir(const std::string& tag = "") {
    path = "/tmp/pam_bench_durability" + tag + "_" + std::to_string(::getpid());
    std::string cmd = "rm -rf " + path;
    (void)std::system(cmd.c_str());
  }
  ~temp_dir() {
    std::string cmd = "rm -rf " + path;
    (void)std::system(cmd.c_str());
  }
};

}  // namespace

int main() {
  print_header("bench_durability",
               "durability layer: checkpoint + WAL + recovery (ISSUE 8)");
  double scale = env_double("PAM_BENCH_SCALE", 1.0);
  const size_t n = static_cast<size_t>(2'000'000 * scale);
  const size_t churn = std::max<size_t>(n / 100, 1);  // 1%
  const uint64_t universe = 2 * n;
  std::printf("n=%zu  churn=%zu (1%%)\n\n", n, churn);

  temp_dir td;
  store::durability_options opts;
  opts.dir = td.path;
  opts.wal.sync_every = 16;  // group commit; PAM_WAL_SYNC_EVERY=1 for strict

  std::vector<K> splitters = {universe / 4, universe / 2, 3 * universe / 4};
  sharded_map<map_t> shards(splitters);
  durability_t d(opts, shards.snapshot_all());

  // ------------------------------------------------------ full checkpoint --
  logged_insert(d, shards, kv_entries(n, 1, universe));
  durability_t::ckpt_result full;
  double t_full = timed([&] { full = checkpoint_all(d, shards); });
  if (!full.full) {
    std::printf("ERROR: first checkpoint of %zu fresh keys was not full\n", n);
    return 2;
  }
  double full_mb = double(full.bytes) / 1e6;
  double full_mb_s = t_full > 0 ? full_mb / t_full : 0.0;
  std::printf("%-26s %10.4fs   %8.1f MB   %8.1f MB/s\n", "full checkpoint",
              t_full, full_mb, full_mb_s);
  bench_json("bench_durability", "full_n=" + std::to_string(n), "t_s", t_full);
  bench_json("bench_durability", "full_n=" + std::to_string(n), "bytes",
             double(full.bytes));
  bench_json("bench_durability", "full_n=" + std::to_string(n), "mb_s",
             full_mb_s);
  const size_t entries = shards.snapshot_all().size();
  double bytes_per_entry = entries > 0 ? double(full.bytes) / double(entries) : 0.0;
  std::printf("%-26s %10.2f B/entry\n", "full image", bytes_per_entry);
  bench_json("bench_durability", "full_image_u64", "bytes_per_entry", bytes_per_entry);

  // ----------------------------------------- full image, 1 vs all workers --
  {
    const auto cut = shards.snapshot_all();
    const int p = num_workers();
    auto encode_s = [&](int workers) {
      set_num_workers(workers);
      return timed_median(1, 5, [&] {
        store::page_image img = store::checkpoint_io<map_t>::full_image(cut, opts.ckpt.page_bytes);
        if (img.size() != full.bytes) {
          std::printf("ERROR: full image of %zu B, checkpoint wrote %llu B\n", img.size(),
                      static_cast<unsigned long long>(full.bytes));
          std::exit(2);
        }
      });
    };
    double t1 = encode_s(1);
    double tp = encode_s(p);
    double speedup = tp > 0 ? t1 / tp : 0.0;
    std::printf("%-26s %10.4fs   1 worker %8.4fs   %d workers  (%.2fx)\n",
                "full image encode", t1, tp, p, speedup);
    bench_json("bench_durability", "full_image_encode", "t1_s", t1);
    bench_json("bench_durability", "full_image_encode", "tp_s", tp);
    bench_json("bench_durability", "full_image_encode", "encode_speedup", speedup);
  }

  // --------------------------------------------- incremental checkpoint --
  logged_insert(d, shards, kv_entries(churn, 2, universe));
  durability_t::ckpt_result delta;
  double t_delta = timed([&] { delta = checkpoint_all(d, shards); });
  if (delta.full) {
    std::printf("ERROR: 1%% churn checkpoint escalated to full\n");
    return 2;
  }
  double ratio = full.bytes > 0 ? double(delta.bytes) / double(full.bytes) : 1.0;
  std::printf("%-26s %10.4fs   %8.1f MB   ratio %.4f of full\n",
              "incremental (1% churn)", t_delta, double(delta.bytes) / 1e6,
              ratio);
  bench_json("bench_durability", "delta_n=" + std::to_string(n), "t_s",
             t_delta);
  bench_json("bench_durability", "delta_n=" + std::to_string(n), "bytes",
             double(delta.bytes));
  bench_json("bench_durability", "delta_n=" + std::to_string(n),
             "ratio_vs_full", ratio);

  // ------------------------------------------------------- WAL appends --
  constexpr size_t kBatches = 256;
  constexpr size_t kBatchOps = 500;
  // One one-batch round per append, as a put_batch logs.
  std::vector<std::vector<write_combiner<map_t>::batch>> rounds(kBatches);
  for (size_t b = 0; b < kBatches; b++) {
    rounds[b].resize(1);
    rounds[b][0].shard = write_combiner<map_t>::kBulkShard;
    for (size_t i = 0; i < kBatchOps; i++) {
      // Fresh key space above the universe: replay lands ops the
      // checkpoint chain does not already contain.
      rounds[b][0].upserts.emplace_back(universe + b * kBatchOps + i, b);
    }
  }
  std::vector<double> batch_lat_ns;
  batch_lat_ns.reserve(kBatches);
  double t_append = timed([&] {
    for (size_t b = 0; b < kBatches; b++) {
      uint64_t t0 = obs::now_ns();
      if (d.log_round(rounds[b]) == 0) {
        std::printf("ERROR: WAL writer died mid-bench\n");
        std::exit(2);
      }
      batch_lat_ns.push_back(double(obs::now_ns() - t0));
    }
    d.sync_wal();
  });
  const size_t wal_ops = kBatches * kBatchOps;
  double append_ops_s = t_append > 0 ? double(wal_ops) / t_append : 0.0;
  std::sort(batch_lat_ns.begin(), batch_lat_ns.end());
  double append_p50 = percentile_sorted(batch_lat_ns, 0.5);
  double append_p99 = percentile_sorted(batch_lat_ns, 0.99);
  std::printf("%-26s %10.4fs   %8zu ops  %10.0f ops/s  (sync_every=16, "
              "batch p50=%.0fns p99=%.0fns)\n",
              "WAL append", t_append, wal_ops, append_ops_s, append_p50,
              append_p99);
  bench_json("bench_durability", "wal_ops=" + std::to_string(wal_ops), "t_s",
             t_append);
  bench_json("bench_durability", "wal_ops=" + std::to_string(wal_ops),
             "append_ops_s", append_ops_s);
  bench_json("bench_durability", "wal_ops=" + std::to_string(wal_ops),
             "p50_ns", append_p50);
  bench_json("bench_durability", "wal_ops=" + std::to_string(wal_ops),
             "p99_ns", append_p99);

  // --------------------------------------------------------- recovery --
  // Load the full+delta chain, then replay the WAL tail; verified against
  // the expected contents (checkpointed keys + every WAL op).
  std::optional<durability_t::recovered_t> rec;
  double t_recover = timed([&] { rec = durability_t::recover(opts); });
  // Checkpointed keys plus every WAL op (disjoint key space above universe).
  const size_t expect = shards.snapshot_all().size() + wal_ops;
  if (!rec.has_value() || rec->contents.size() != expect) {
    std::printf("ERROR: recovery mismatch: got %zu want %zu\n",
                rec.has_value() ? rec->contents.size() : 0, expect);
    return 2;
  }
  double replay_ops_s = t_recover > 0 ? double(wal_ops) / t_recover : 0.0;
  std::printf("%-26s %10.4fs   %8zu rec  %10.0f ops/s  (incl. ckpt load)\n\n",
              "recovery", t_recover, size_t(rec->wal_records), replay_ops_s);
  bench_json("bench_durability", "recover_n=" + std::to_string(n), "t_s",
             t_recover);
  bench_json("bench_durability", "recover_n=" + std::to_string(n),
             "replay_ops_s", replay_ops_s);
  bench_json("bench_durability", "recover_n=" + std::to_string(n),
             "wal_records", double(rec->wal_records));

  // ---------------------------------------------------------- crc32c --
  if (store::crc32c_sse42_available()) {
    std::vector<char> buf(size_t{16} << 20);
    random_gen g(3);
    for (char& c : buf) c = static_cast<char>(g.next());
    uint32_t sink = 0;
    auto mb_s = [&](uint32_t (*kernel)(const void*, size_t, uint32_t)) {
      double t = timed_median(1, 5, [&] { sink += kernel(buf.data(), buf.size(), 0); });
      return t > 0 ? double(buf.size()) / 1e6 / t : 0.0;
    };
    double sw = mb_s(store::crc32c_slice8);
    double hw = mb_s(store::crc32c_sse42);
    double hw_over_sw = sw > 0 ? hw / sw : 0.0;
    std::printf("%-26s %10.0f MB/s slice-by-8  %8.0f MB/s sse4.2  (%.2fx, sink %08x)\n\n",
                "crc32c (16 MiB)", sw, hw, hw_over_sw, sink);
    bench_json("bench_durability", "crc32c", "sw_mb_s", sw);
    bench_json("bench_durability", "crc32c", "hw_mb_s", hw);
    bench_json("bench_durability", "crc32c", "hw_over_sw", hw_over_sw);
  }

  // ---------------------------------------------------- combiner round --
  // Every flush() is one combiner round over the 16 queues: one WAL record
  // per queue under one fsync, applied as one published cut.
  if constexpr (obs::kEnabled) {
    temp_dir rd("_round");
    kv_store<map_t>::options ko;
    for (K s = 1; s < 16; s++) ko.splitters.push_back(s * (universe / 16));
    ko.combiner = {.batch_size = size_t{1} << 20,
                   .flush_interval = std::chrono::milliseconds(0)};
    ko.durability = store::durability_options{.dir = rd.path};
    kv_store<map_t> kv(map_t{}, ko);
    auto probes = [] {
      std::pair<uint64_t, uint64_t> fsyncs_pubs{0, 0};
      obs::registry_snapshot snap = obs::registry::get().scrape();
      for (const auto& h : snap.histograms)
        if (h.name == "pam_wal_fsync_ns") fsyncs_pubs.first = h.count;
      for (const auto& c : snap.counters)
        if (c.name == "pam_cut_publications_total") fsyncs_pubs.second = c.value;
      return fsyncs_pubs;
    };
    constexpr size_t kRounds = 64;
    auto before = probes();
    for (size_t r = 0; r < kRounds; r++) {
      for (K s = 0; s < 16; s++) kv.put(s * (universe / 16) + r, r);
      kv.flush();
    }
    auto after = probes();
    double fsyncs_per_flush = double(after.first - before.first) / kRounds;
    double pubs_per_round = double(after.second - before.second) / kRounds;
    std::printf("%-26s %10zu rounds  %6.2f fsyncs/flush  %6.2f publications/round\n\n",
                "combiner round (16 shards)", kRounds, fsyncs_per_flush,
                pubs_per_round);
    bench_json("bench_durability", "combiner_round", "fsyncs_per_flush",
               fsyncs_per_flush);
    bench_json("bench_durability", "combiner_round", "publications_per_round",
               pubs_per_round);
  }

  // The acceptance target is 0.10 on dedicated hardware; PAM_DURABILITY_GATE
  // lets shared CI runners enforce a tolerant floor instead of flaking.
  double gate = env_double("PAM_DURABILITY_GATE", 0.30);
  std::printf("incremental checkpoint ratio at 1%% churn: %.4f  "
              "[acceptance target <= 0.10, enforcing <= %.2f]\n",
              ratio, gate);
  bench_json("bench_durability", "gate", "incr_ratio", ratio);
  dump_observability();  // PAM_METRICS_DUMP / PAM_TRACE_JSON artifacts
  if (env_long("PAM_PERF_GATE", 0) != 0 && ratio > gate) {
    std::printf("PERF GATE FAILED: %.4f > %.2f\n", ratio, gate);
    return 1;
  }
  return 0;
}
