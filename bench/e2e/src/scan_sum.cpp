// scan-sum: the paper's range-sum queries served live.
//
// 2M string keys "user%012llu" over front-coded str_sum_entry leaves in a
// 16-shard kv_store. 3 clients: 90% scans, 10% put_batch of 64 entries. A
// scan takes snapshot() (a consistent cut across shards), then either walks
// ~100 keys with for_each_range or asks aug_range over ~1% of the key
// space, half and half; start keys are zipf 0.99 over hashed ranks. The
// only workload on consistent cuts, the stitched iterator, coded-block
// decode and the bulk write path.
#include <cstdio>
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
namespace {

using map_t = pam::aug_map<pam::str_sum_entry<uint64_t>>;
using store_t = pam::kv_store<map_t>;
using entry_t = map_t::entry_t;

constexpr int kClients = 3;
constexpr size_t kWalkKeys = 100;
constexpr size_t kBatch = 64;
constexpr uint64_t kSampleMask = 63;  // bench spans: 1 in 64 client ops
constexpr uint64_t kVerifyMask = 63;  // aug_range cross-check: 1 in 64 walks

enum class op_kind : uint8_t { walk, aug, batch };

struct scan_op {
  uint32_t pos;  // scans: start position in key order; batch: batch index
  op_kind kind;
};

std::string key_of(uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "user%012llu",
                static_cast<unsigned long long>(id));
  return buf;
}

struct client_state {
  latency_hist read_h[2], write_h[2], cut_h[2], walk_h[2], aug_h[2];
  uint64_t ops[2] = {0, 0};
  uint64_t done = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t bad_walks = 0;     // walk visited the wrong number of keys
  uint64_t bad_sums = 0;      // aug_range disagreed with the walk's sum
  uint64_t checksum = 0;      // keeps aug results observable
};

}  // namespace

result run_scan_sum(const options& opt) {
  result res;
  const size_t n = opt.smoke ? 20'000 : 2'000'000;
  const size_t stream_len = opt.smoke ? 20'000 : 1'000'000;
  const size_t aug_keys = std::max<size_t>(n / 100, kWalkKeys);

  // ---- inputs ----
  permutation idperm(2 * n, pam::hash64(opt.seed + 3));
  std::vector<uint64_t> ids(n);
  pam::parallel_for(0, n, [&](size_t r) { ids[r] = idperm(r); });
  pam::parallel_sort(ids, [](uint64_t a, uint64_t b) { return a < b; });
  std::vector<entry_t> preload(n);
  pam::parallel_for(0, n, [&](size_t i) {
    preload[i] = {key_of(ids[i]), initial_value(opt.seed, ids[i])};
  });
  uint64_t preload_sum = 0;
  for (const auto& e : preload) preload_sum += e.second;
  std::vector<std::vector<uint32_t>> cls(kClients);
  for (size_t i = 0; i < n; i++)
    cls[ids[i] % kClients].push_back(static_cast<uint32_t>(i));

  permutation posperm(n, pam::hash64(opt.seed + 5));
  std::vector<std::vector<scan_op>> streams(kClients);
  std::vector<std::vector<uint32_t>> batches(kClients);  // kBatch positions each
  pam::parallel_for(
      0, kClients,
      [&](size_t c) {
        pam::random_gen g(pam::hash64(opt.seed * 53 + c));
        pam::zipf_generator z(n, 0.99, pam::hash64(opt.seed * 59 + c));
        for (size_t j = 0; j < stream_len; j++) {
          uint64_t r = g.next();
          if (r % 100 < 90) {
            op_kind k = (r >> 32) % 2 == 0 ? op_kind::walk : op_kind::aug;
            streams[c].push_back({static_cast<uint32_t>(posperm(z())), k});
          } else {
            auto b = static_cast<uint32_t>(batches[c].size() / kBatch);
            for (size_t e = 0; e < kBatch; e++)
              batches[c].push_back(cls[c][g.next() % cls[c].size()]);
            streams[c].push_back({b, op_kind::batch});
          }
        }
      },
      1);
  res.info["preload_keys"] = static_cast<double>(n);
  res.info["stream_ops_per_client"] = static_cast<double>(stream_len);

  // ---- set-up, median of 3 ----
  typename store_t::options sopt;
  sopt.num_shards = 16;
  double setup_s = 0;
  auto st = timed_setup(
      3, &setup_s, [&] { return preload; },
      [&](std::vector<entry_t> v) {
        return std::make_unique<store_t>(map_t(std::move(v)), sopt);
      },
      [] { store_t::trim_memory(); });
  res.e2e["setup_s"] = {setup_s, 3};
  std::vector<entry_t>().swap(preload);  // only set-up reads it

  // ---- run ----
  std::atomic<int> ph{warm};
  std::vector<client_state> cs(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; c++) {
    clients.emplace_back([&, c] {
      thread_spans* ts = opt.trace ? tracer::get().attach() : nullptr;
      const auto& ops = streams[static_cast<size_t>(c)];
      const auto& bt = batches[static_cast<size_t>(c)];
      client_state& me = cs[static_cast<size_t>(c)];
      const uint64_t len = ops.size();
      uint64_t pos = 0, lap = 0, calls = 0, walks = 0;
      for (;;) {
        int p = ph.load(std::memory_order_acquire);
        if (p == stopped) break;
        const bool rec = measuring(p);
        const size_t w = p == window1 ? 1 : 0;
        thread_spans* sts =
            p == window1 && (calls++ & kSampleMask) == 0 ? ts : nullptr;
        const scan_op op = ops[pos];
        if (op.kind == op_kind::batch) {
          std::vector<entry_t> b;
          b.reserve(kBatch);
          for (size_t e = 0; e < kBatch; e++) {
            b.emplace_back(key_of(ids[bt[op.pos * kBatch + e]]),
                           write_value(c, lap, pos));
          }
          uint64_t t0 = now_ns();
          try {
            scoped_span s(sts, "client.put_batch");
            st->put_batch(std::move(b));
          } catch (...) {
            me.failed++;
          }
          uint64_t t1 = now_ns();
          if (rec) me.write_h[w].add(t1 - t0);
        } else {
          const bool walk = op.kind == op_kind::walk;
          const size_t hi_pos =
              std::min<size_t>(op.pos + (walk ? kWalkKeys : aug_keys) - 1, n - 1);
          const std::string lo = key_of(ids[op.pos]);
          const std::string hi = key_of(ids[hi_pos]);
          try {
            uint64_t sum = 0, cnt = 0;
            uint64_t t0 = now_ns(), t1 = 0, t2 = 0;
            {
              scoped_span s(sts, walk ? "client.scan" : "client.scan_aug");
              auto cut = [&] {
                scoped_span c2(sts, "scan.cut", s.id());
                return st->snapshot();
              }();
              t1 = now_ns();
              if (walk) {
                scoped_span s2(sts, "scan.walk", s.id());
                cut.for_each_range(lo, hi, [&](const std::string&, const uint64_t& v) {
                  sum += v;
                  cnt++;
                });
              } else {
                scoped_span s2(sts, "scan.aug", s.id());
                me.checksum += cut.aug_range(lo, hi);
              }
              t2 = now_ns();
              if (walk) {
                if (cnt != hi_pos - op.pos + 1) me.bad_walks++;
                if ((walks++ & kVerifyMask) == 0 && cut.aug_range(lo, hi) != sum)
                  me.bad_sums++;
              }
            }
            if (rec) {
              me.read_h[w].add(t2 - t0);
              me.cut_h[w].add(t1 - t0);
              (walk ? me.walk_h : me.aug_h)[w].add(t2 - t1);
            }
          } catch (...) {
            me.failed++;
          }
        }
        me.attempted++;
        if (rec) me.ops[w]++;
        if (++pos == len) {
          pos = 0;
          lap++;
        }
      }
      me.done = lap * len + pos;
    });
  }

  const windows win = run_windows(opt, ph, [&] { return st->metrics(); });
  const size_t limbo_at_end = store_t::memory().limbo_retired;
  for (auto& t : clients) t.join();

  // ---- correctness ----
  client_state all;
  for (const auto& c : cs) {
    for (size_t w = 0; w < 2; w++) {
      all.read_h[w].merge(c.read_h[w]);
      all.write_h[w].merge(c.write_h[w]);
      all.cut_h[w].merge(c.cut_h[w]);
      all.walk_h[w].merge(c.walk_h[w]);
      all.aug_h[w].merge(c.aug_h[w]);
      all.ops[w] += c.ops[w];
    }
    all.attempted += c.attempted;
    all.failed += c.failed;
    all.bad_walks += c.bad_walks;
    all.bad_sums += c.bad_sums;
  }
  res.attempted = all.attempted;
  res.failed = all.failed;
  res.check(all.bad_walks == 0,
            std::to_string(all.bad_walks) + " walks visited the wrong key count");
  res.check(all.bad_sums == 0, std::to_string(all.bad_sums) +
                                   " aug_range results differ from the walk sum");
  {
    // Last write wins per position: the latest (lap, stream position).
    std::unordered_map<uint32_t, std::pair<int64_t, uint64_t>> last;
    for (int c = 0; c < kClients; c++) {
      const auto& ops = streams[static_cast<size_t>(c)];
      const auto& bt = batches[static_cast<size_t>(c)];
      uint64_t done = cs[static_cast<size_t>(c)].done;
      for (uint64_t j = 0; j < ops.size(); j++) {
        if (ops[j].kind != op_kind::batch) continue;
        int64_t lap = last_lap(done, ops.size(), j);
        if (lap < 0) continue;
        for (size_t e = 0; e < kBatch; e++) {
          auto [it, fresh] = last.try_emplace(bt[ops[j].pos * kBatch + e], lap, j);
          if (!fresh && std::pair(lap, j) > it->second) it->second = {lap, j};
        }
      }
    }
    auto cut = st->snapshot();
    uint64_t want_sum = preload_sum;
    size_t wrong = 0;
    for (const auto& [i, lp] : last) {
      uint64_t v = write_value(static_cast<int>(ids[i] % kClients),
                               static_cast<uint64_t>(lp.first), lp.second);
      want_sum += v - initial_value(opt.seed, ids[i]);
      auto got = cut.find(key_of(ids[i]));
      if (!got.has_value() || *got != v) wrong++;
    }
    res.check(wrong == 0, std::to_string(wrong) + " of " +
                              std::to_string(last.size()) +
                              " written keys hold the wrong final value");
    res.check(cut.size() == n, "store size changed under updates");
    res.check(cut.aug_range(key_of(0), key_of(2 * n)) == want_sum,
              "store value sum differs from preload + client writes");
    res.info["written_keys"] = static_cast<double>(last.size());
  }

  // ---- metrics ----
  const double tput0 =
      static_cast<double>(all.ops[0]) / seconds_between(win.t0, win.t1);
  speed_metrics(res, tput0, all.ops[0], all.read_h[0], all.write_h[0]);
  store_t::trim_memory();
  auto mem = store_t::memory();
  res.e2e["space_bytes_per_entry"] = {
      static_cast<double>(mem.reserved_bytes) / static_cast<double>(st->size()),
      0};

  const size_t lw = opt.trace ? 1 : 0;
  res.layer_t0 = win.lt0;
  res.layer_t1 = win.lt1;
  shared_layer_metrics(res, win.before, win.after,
                       seconds_between(win.lt0, win.lt1), mem.reserved_bytes,
                       limbo_at_end);
  auto& L = res.layer;
  L["pam.scan_walk_p50_us"] = p_us(all.walk_h[lw], 0.50);
  L["pam.aug_range_p50_us"] = p_us(all.aug_h[lw], 0.50);
  L["sharded_map.cut_p50_us"] = p_us(all.cut_h[lw], 0.50);
  L["sharded_map.cut_p99_us"] = p_us(all.cut_h[lw], 0.99);
  if (opt.trace) {
    const double tput1 =
        static_cast<double>(all.ops[1]) / seconds_between(win.lt0, win.lt1);
    L["trace.overhead_ratio"] = {ratio(tput0, tput1), all.ops[1]};
  }
  return res;
}

}  // namespace e2e
