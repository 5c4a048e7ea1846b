// YCSB-style point workloads through kv_store: 3 closed-loop clients replay
// pre-generated streams of get/put against a preloaded store. Instantiated
// by ycsb_a.cpp (durable, flat leaves) and ycsb_b.cpp (large, delta leaves).
#pragma once

#include <condition_variable>
#include <filesystem>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common.h"
#include "pam/pam.h"
#include "server/kv_store.h"
#include "util/zipf.h"

namespace e2e {

struct ycsb_spec {
  size_t n;           // preloaded keys: perm(r) for r < n
  uint64_t universe;  // keys live in [0, universe)
  int read_pct;
  bool zipf;          // zipf 0.99 over hashed ranks, else uniform
  bool durable;       // WAL, acks, 1 s checkpoints, recovery
  size_t stream_len;  // ops per client, replayed cyclically
};

namespace ycsb_detail {

constexpr int kClients = 3;
constexpr uint64_t kWriteBit = uint64_t{1} << 63;
constexpr size_t kAckEvery = 256;       // a client's puts between flush() acks
constexpr uint64_t kSampleMask = 63;    // bench spans: 1 in 64 client ops
constexpr int kRecoveryRuns = 5;
constexpr size_t kTailBatches = 100;    // put_batch(1000) x 100 before close
constexpr size_t kTailBatchSize = 1000;

namespace fs = std::filesystem;

struct client_state {
  latency_hist get_h[2], put_h[2], ack_h[2], stall_h[2];
  uint64_t ops[2] = {0, 0};   // gets + puts inside each window
  uint64_t puts[2] = {0, 0};
  uint64_t acks[2] = {0, 0};
  uint64_t done = 0;          // stream positions executed, all phases
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t misses = 0;        // gets of preloaded keys that found nothing
};

// Client c writes only keys with key % 3 == c, so each written key's final
// value is decided by one client's stream order alone.
inline std::vector<std::vector<uint64_t>> make_streams(
    const ycsb_spec& sp, const permutation& keyof,
    const std::vector<std::vector<uint64_t>>& cls, uint64_t seed) {
  std::vector<std::vector<uint64_t>> streams(kClients);
  pam::parallel_for(
      0, kClients,
      [&](size_t c) {
        pam::random_gen g(pam::hash64(seed * 31 + c));
        std::optional<pam::zipf_generator> zr, zw;
        if (sp.zipf) {
          zr.emplace(sp.n, 0.99, pam::hash64(seed * 37 + c));
          zw.emplace(cls[c].size(), 0.99, pam::hash64(seed * 41 + c));
        }
        auto& ops = streams[c];
        ops.resize(sp.stream_len);
        for (auto& op : ops) {
          bool write = static_cast<int>(g.next() % 100) >= sp.read_pct;
          uint64_t k;
          if (!write) {
            k = keyof(sp.zipf ? (*zr)() : g.next() % sp.n);
          } else if (sp.zipf) {
            k = cls[c][(*zw)()];
          } else {
            do {
              k = keyof(g.next() % sp.n);
            } while (k % kClients != c);
          }
          op = k | (write ? kWriteBit : 0);
        }
      },
      1);
  return streams;
}

}  // namespace ycsb_detail

template <typename Map>
result run_ycsb(const options& opt, const ycsb_spec& sp) {
  using namespace ycsb_detail;
  using store_t = pam::kv_store<Map>;
  using entry_t = typename Map::entry_t;
  result res;

  // ---- inputs (before any clock) ----
  permutation keyof(sp.universe, pam::hash64(opt.seed));
  std::vector<entry_t> preload(sp.n);
  pam::parallel_for(0, sp.n, [&](size_t r) {
    uint64_t k = keyof(r);
    preload[r] = {k, initial_value(opt.seed, k)};
  });
  uint64_t preload_sum = 0;
  for (const auto& e : preload) preload_sum += e.second;
  std::vector<std::vector<uint64_t>> cls(kClients);
  if (sp.zipf) {
    for (const auto& e : preload) cls[e.first % kClients].push_back(e.first);
  }
  auto streams = make_streams(sp, keyof, cls, opt.seed);
  res.info["preload_keys"] = static_cast<double>(sp.n);
  res.info["stream_ops_per_client"] = static_cast<double>(sp.stream_len);

  // ---- set-up: build the preload map and the store (durable: its first
  // full checkpoint), median of 3 ----
  const std::string dir = opt.scratch + "/store";
  typename store_t::options sopt;
  sopt.num_shards = 16;
  if (sp.durable) {
    sopt.durability.emplace();
    sopt.durability->dir = dir;
  }
  double setup_s = 0;
  auto st = timed_setup(
      3, &setup_s, [&] { return preload; },
      [&](std::vector<entry_t> v) {
        return std::make_unique<store_t>(Map(std::move(v)), sopt);
      },
      [&] {
        std::error_code ec;
        fs::remove_all(dir, ec);
        store_t::trim_memory();
      });
  res.e2e["setup_s"] = {setup_s, 3};
  std::vector<entry_t>().swap(preload);  // only set-up reads it

  // ---- run ----
  std::atomic<int> ph{warm};
  std::atomic<uint64_t> ckpt_epoch{0};  // odd while a checkpoint runs
  std::vector<client_state> cs(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; c++) {
    clients.emplace_back([&, c] {
      thread_spans* ts = opt.trace ? tracer::get().attach() : nullptr;
      const auto& ops = streams[static_cast<size_t>(c)];
      client_state& me = cs[static_cast<size_t>(c)];
      const uint64_t len = ops.size();
      uint64_t pos = 0, lap = 0, calls = 0;
      size_t puts_since_ack = 0;
      for (;;) {
        int p = ph.load(std::memory_order_acquire);
        if (p == stopped) break;
        const bool rec = measuring(p);
        const size_t w = p == window1 ? 1 : 0;
        auto sampled = [&] {
          return p == window1 && (calls++ & kSampleMask) == 0 ? ts : nullptr;
        };
        const uint64_t op = ops[pos];
        const bool is_write = (op & kWriteBit) != 0;
        const uint64_t k = op & ~kWriteBit;
        uint64_t e0 = ckpt_epoch.load(std::memory_order_acquire);
        uint64_t t0 = now_ns();
        try {
          scoped_span s(sampled(), is_write ? "client.put" : "client.get");
          if (is_write) {
            st->put(k, write_value(c, lap, pos));
          } else if (!st->get(k).has_value()) {
            me.misses++;
          }
        } catch (...) {
          me.failed++;
        }
        uint64_t t1 = now_ns();
        uint64_t e1 = ckpt_epoch.load(std::memory_order_acquire);
        me.attempted++;
        if (rec) {
          me.ops[w]++;
          (is_write ? me.put_h : me.get_h)[w].add(t1 - t0);
          if (is_write) me.puts[w]++;
          if (is_write && ((e0 & 1) != 0 || e1 != e0)) me.stall_h[w].add(t1 - t0);
        }
        if (++pos == len) {
          pos = 0;
          lap++;
        }
        if (is_write && sp.durable && ++puts_since_ack == kAckEvery) {
          puts_since_ack = 0;
          e0 = ckpt_epoch.load(std::memory_order_acquire);
          t0 = now_ns();
          try {
            scoped_span s(sampled(), "client.ack");
            st->flush();
          } catch (...) {
            me.failed++;
          }
          t1 = now_ns();
          e1 = ckpt_epoch.load(std::memory_order_acquire);
          me.attempted++;
          if (rec) {
            me.ack_h[w].add(t1 - t0);
            me.acks[w]++;
            if ((e0 & 1) != 0 || e1 != e0) me.stall_h[w].add(t1 - t0);
          }
        }
      }
      me.done = lap * len + pos;
    });
  }

  // One more thread takes a checkpoint every second (durable only).
  std::mutex ck_mu;
  std::condition_variable ck_cv;
  bool ck_stop = false;
  std::vector<double> ckpt_ms[2];
  uint64_t ckpt_failed = 0;
  std::thread checkpointer;
  if (sp.durable) {
    checkpointer = std::thread([&] {
      thread_spans* ts = opt.trace ? tracer::get().attach() : nullptr;
      auto next = std::chrono::steady_clock::now() + std::chrono::seconds(1);
      for (;;) {
        {
          std::unique_lock<std::mutex> lk(ck_mu);
          if (ck_cv.wait_until(lk, next, [&] { return ck_stop; })) break;
        }
        next += std::chrono::seconds(1);
        int p = ph.load(std::memory_order_acquire);
        ckpt_epoch.fetch_add(1, std::memory_order_acq_rel);
        uint64_t t0 = now_ns();
        try {
          scoped_span s(p == window1 ? ts : nullptr, "bench.checkpoint");
          st->save_checkpoint();
        } catch (...) {
          ckpt_failed++;
        }
        uint64_t t1 = now_ns();
        ckpt_epoch.fetch_add(1, std::memory_order_acq_rel);
        if (measuring(p)) ckpt_ms[p == window1 ? 1 : 0].push_back(
            static_cast<double>(t1 - t0) * 1e-6);
      }
    });
  }

  const windows win = run_windows(opt, ph, [&] { return st->metrics(); });
  const size_t limbo_at_end = store_t::memory().limbo_retired;
  for (auto& t : clients) t.join();
  if (checkpointer.joinable()) {
    {
      std::lock_guard<std::mutex> lk(ck_mu);
      ck_stop = true;
    }
    ck_cv.notify_all();
    checkpointer.join();
  }

  // ---- correctness: the store equals the preload with each client's
  // completed stream prefix applied ----
  st->flush();
  client_state all;
  for (const auto& c : cs) {
    for (size_t w = 0; w < 2; w++) {
      all.get_h[w].merge(c.get_h[w]);
      all.put_h[w].merge(c.put_h[w]);
      all.ack_h[w].merge(c.ack_h[w]);
      all.stall_h[w].merge(c.stall_h[w]);
      all.ops[w] += c.ops[w];
      all.puts[w] += c.puts[w];
      all.acks[w] += c.acks[w];
    }
    all.attempted += c.attempted;
    all.failed += c.failed;
    all.misses += c.misses;
  }
  res.attempted = all.attempted;
  res.failed = all.failed + ckpt_failed;
  res.check(all.misses == 0, std::to_string(all.misses) +
                                 " gets of preloaded keys found nothing");
  {
    // Last write wins per key: the latest (lap, position) executed.
    std::unordered_map<uint64_t, std::pair<int64_t, uint64_t>> last;
    for (int c = 0; c < kClients; c++) {
      const auto& ops = streams[static_cast<size_t>(c)];
      uint64_t done = cs[static_cast<size_t>(c)].done;
      for (uint64_t pos = 0; pos < ops.size(); pos++) {
        if ((ops[pos] & kWriteBit) == 0) continue;
        int64_t lap = last_lap(done, ops.size(), pos);
        if (lap < 0) continue;
        auto [it, fresh] = last.try_emplace(ops[pos] & ~kWriteBit, lap, pos);
        if (!fresh && std::pair(lap, pos) > it->second) it->second = {lap, pos};
      }
    }
    uint64_t want_sum = preload_sum;
    size_t wrong = 0;
    for (const auto& [k, lp] : last) {
      uint64_t v = write_value(static_cast<int>(k % kClients),
                               static_cast<uint64_t>(lp.first), lp.second);
      want_sum += v - initial_value(opt.seed, k);
      auto got = st->get(k);
      if (!got.has_value() || *got != v) wrong++;
    }
    auto cut = st->snapshot();
    res.check(wrong == 0, std::to_string(wrong) + " of " +
                              std::to_string(last.size()) +
                              " written keys hold the wrong final value");
    res.check(cut.size() == sp.n, "store size " + std::to_string(cut.size()) +
                                      " != preload " + std::to_string(sp.n));
    res.check(cut.aug_range(0, std::numeric_limits<uint64_t>::max()) == want_sum,
              "store value sum differs from preload + client writes");
    res.info["written_keys"] = static_cast<double>(last.size());
  }
  res.check(!st->failed(), "WAL writer died");
  res.check(st->ingest_stats().sink_failures == 0, "combiner sink failures");

  // ---- end-to-end metrics (untraced window) ----
  const double tput0 =
      static_cast<double>(all.ops[0]) / seconds_between(win.t0, win.t1);
  speed_metrics(res, tput0, all.ops[0], all.get_h[0], all.put_h[0]);
  store_t::trim_memory();
  auto mem = store_t::memory();
  res.e2e["space_bytes_per_entry"] = {
      static_cast<double>(mem.reserved_bytes) / static_cast<double>(st->size()),
      0};
  if (sp.durable) {
    res.extra["ack_p50_us"] = p_us(all.ack_h[0], 0.50);
    res.extra["ack_p99_us"] = p_us(all.ack_h[0], 0.99);
    res.extra["checkpoint_p50_ms"] = {median(ckpt_ms[0]), ckpt_ms[0].size()};
  }

  // ---- per-layer metrics (the traced window when tracing, else window 0) ----
  const size_t lw = opt.trace ? 1 : 0;
  res.layer_t0 = win.lt0;
  res.layer_t1 = win.lt1;
  shared_layer_metrics(res, win.before, win.after,
                       seconds_between(win.lt0, win.lt1), mem.reserved_bytes,
                       limbo_at_end);
  auto d = [&](const char* name) { return delta(win.before, win.after, name); };
  const double user_bytes =
      static_cast<double>(all.puts[lw]) * static_cast<double>(sizeof(entry_t));
  auto& L = res.layer;
  L["write_combiner.coalesce_ratio"] = {
      ratio(d("pam_combiner_ops_committed_total"),
            d("pam_combiner_ops_enqueued_total")),
      0};
  auto batch_ops = win.after.histogram("pam_combiner_batch_ops");
  L["write_combiner.batch_ops_p50"] = {batch_ops.p50, batch_ops.count};
  auto e2f = win.after.histogram("pam_combiner_enqueue_to_flush_ns");
  L["write_combiner.enqueue_to_flush_p99_us"] = {e2f.p99 * 1e-3, e2f.count};
  if (sp.durable) {
    auto fs0 = win.before.histogram("pam_wal_fsync_ns");
    auto fs1 = win.after.histogram("pam_wal_fsync_ns");
    L["wal.fsyncs_per_ack"] = {
        ratio(static_cast<double>(fs1.count - fs0.count),
              static_cast<double>(all.acks[lw])),
        all.acks[lw]};
    auto gc = win.after.histogram("pam_wal_group_commit_ops");
    L["wal.group_commit_ops_p50"] = {gc.p50, gc.count};
    L["wal.bytes_per_user_byte"] = {ratio(d("pam_wal_bytes_total"), user_bytes), 0};
    L["checkpoint.bytes_per_user_byte"] = {
        ratio(d("pam_ckpt_bytes_total"), user_bytes), 0};
    L["checkpoint.full_ratio"] = {
        ratio(d("pam_ckpt_full_total"), d("pam_ckpt_total")), 0};
    L["checkpoint.stall_write_p99_us"] = p_us(all.stall_h[lw], 0.99);
    L["checkpoint_p50_ms"] = {median(ckpt_ms[lw]), ckpt_ms[lw].size()};
    L["ack_p50_us"] = p_us(all.ack_h[lw], 0.50);
    L["ack_p99_us"] = p_us(all.ack_h[lw], 0.99);
  }
  if (opt.trace) {
    const double tput1 =
        static_cast<double>(all.ops[1]) / seconds_between(win.lt0, win.lt1);
    L["trace.overhead_ratio"] = {ratio(tput0, tput1), all.ops[1]};
  }

  // ---- recovery: close after a checkpoint plus 100 x put_batch(1000), then
  // time kv_store::recover on 5 fresh copies of the closed directory ----
  if (sp.durable) {
    thread_spans* ts = opt.trace ? tracer::get().attach() : nullptr;
    st->save_checkpoint();
    pam::random_gen g(pam::hash64(opt.seed * 43 + 7));
    for (size_t b = 0; b < kTailBatches; b++) {
      std::vector<entry_t> batch(kTailBatchSize);
      for (auto& e : batch) e = {keyof(g.next() % sp.n), g.next() % 1000 + 1};
      st->put_batch(std::move(batch));
    }
    st->flush();
    const auto want = st->snapshot();
    const uint64_t want_sum = want.aug_range(0, std::numeric_limits<uint64_t>::max());
    st.reset();
    std::vector<double> rec_s, replay_ms;
    for (int i = 0; i < kRecoveryRuns; i++) {
      const std::string copy = dir + "-recover";
      std::error_code ec;
      fs::remove_all(copy, ec);
      fs::copy(dir, copy, fs::copy_options::recursive);
      pam::store::durability_options dopt;
      dopt.dir = copy;
      typename store_t::options ropt;
      ropt.num_shards = sopt.num_shards;
      {
        uint64_t t0 = now_ns();
        auto rec = [&] {
          scoped_span s(ts, "bench.recover");
          return store_t::recover(dopt, ropt);
        }();
        rec_s.push_back(seconds_between(t0, now_ns()));
        scrape sc{rec.metrics()};
        replay_ms.push_back(
            static_cast<double>(sc.gauge("pam_recovery_replay_ns")) * 1e-6);
        auto got = rec.snapshot();
        res.check(got.size() == want.size(), "recovered size differs");
        res.check(got.aug_range(0, std::numeric_limits<uint64_t>::max()) == want_sum,
                  "recovered value sum differs");
        if (i == 0) res.check(got.entries() == want.entries(),
                              "recovered contents differ from the closed store");
      }
      fs::remove_all(copy, ec);
    }
    L["recovery_s"] = {median(rec_s), rec_s.size()};
    L["recovery.replay_ms"] = {median(replay_ms), replay_ms.size()};
    res.extra["recovery_s"] = L["recovery_s"];
  }
  return res;
}

}  // namespace e2e
