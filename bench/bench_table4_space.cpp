// Reproduces paper Table 4: space accounting.
//  (a) per-node overhead of augmentation (node bytes, % overhead);
//  (b) node sharing of the persistent UNION: live nodes after union with
//      both inputs kept, vs the no-sharing theoretical count
//      nodes(a) + nodes(b) + size(union) — the paper reports ~1% saving for
//      m = n and ~49% for m = n/1000;
//  (c) node sharing across the range tree's nested inner trees vs the
//      no-sharing count n * log2(n) (paper: 13.8% saving).
//  (d) blocked leaves (PaC-tree layout) vs the classic layout: live bytes
//      per entry for the same map, both layouts built in-process. The
//      blocked layout must be >= 2x denser; with PAM_PERF_GATE=1 the gate
//      is enforced by exit code (the CI perf-smoke job).
//  (e) pool footprint after a parallel free: build two maps, run a few
//      rounds of union and filter on them and drop the results (all in
//      parallel), kv_store::trim_memory(), then report the pools' reserved
//      bytes over their live bytes. Slots freed by the
//      parallel teardown sit in the workers' caches until trim hands them
//      back; any it misses pin whole chunks and push the ratio above 1.
//      The section starts from trimmed pools: maps built from the slots
//      earlier sections left on the free lists are spread over old chunks,
//      and that fragmentation (trim moves only what a live sharded_map
//      owns, and these maps are plain aug_maps) would swamp what this row
//      measures.
//  (f) pool footprint after serving churn: a 16-shard kv_store preloaded
//      with n = max(scaled 1M, 500K) entries takes n puts from 3 writer
//      threads while a fourth thread runs gets. The write combiner commits
//      the puts in per-shard batches (on batch-size overflow and on its
//      flusher tick); then flush() and trim_memory(), and the row reports
//      the pools' reserved bytes over their live bytes. Every shard commit
//      path-copies, so every commit displaces a version into epoch limbo;
//      the longer those versions wait there, the more chunks the live
//      tree's new slots spread over; trim's compaction then moves the live
//      tree's slots out of the chunks left partly free.
//  (g) tree-node bytes per entry of a delta-coded map at base B = 32 (delta
//      blocks hold 4B = 128 entries): live nodes x sizeof(node) over
//      entries, right after a build of n random keys and again after n/10
//      more random point inserts. Leaf blocks are not counted: this row
//      isolates what the tree above the blocks costs. The post-insert row
//      is gated in bench/baselines/BENCH_PR10.json.
//  (h) flat leaf bytes per entry of a sum_entry<u64, u64> map at B = 32:
//      live leaf-block bytes over entries, right after a build of n random
//      keys and again after n/10 more random point inserts. Full blocks are
//      536 bytes (a 24-byte header and 32 16-byte entries); the inserts
//      split blocks and leave them partly full, so this row shows how
//      closely the payload byte classes fit partial blocks. The
//      post-insert row is gated in bench/baselines/BENCH_PR10.json.
//  (i) node + leaf bytes per entry of a delta-coded u64 map at the default
//      base B = 32, where delta blocks hold 4B = 128 entries: live node and
//      leaf-block bytes over entries, right after a build of n keys hashed
//      into [0, 2n) with values below 1000 (the ycsb-b-large key shape) and
//      again after n/10 more random point inserts into that range. This is
//      the whole map's footprint under the codec's capacity; the
//      post-insert row is gated in bench/baselines/BENCH_PR10.json.
//  (j) pool footprint after value churn and a compacting trim: a 16-shard
//      kv_store over a delta-coded u64 map at B = 32 with n = max(scaled
//      16M, 2M) entries takes n point puts whose values alternate between
//      under 10^6 and under 1000, so a rewritten block's encoded length
//      changes and it moves to another byte class. Then flush() with the
//      flusher alive and trim_memory(); the row reports reserved over used
//      bytes (gated in bench/baselines/BENCH_PR10.json) and the trim's
//      milliseconds per million entries.
//
// Sections (b) and (c) pin the unblocked layout: the sharing percentages
// are properties of one-node-per-entry path copying.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "apps/range_sum.h"
#include "apps/range_tree.h"
#include "common/bench_util.h"
#include "server/kv_store.h"
#include "util/random.h"

namespace {
using namespace pam;
using namespace pam::bench;

void union_sharing(size_t n, size_t m) {
  using aug_t = range_sum_map;
  int64_t before = aug_t::used_nodes();
  aug_t a(kv_entries(n, 11));
  aug_t b(kv_entries(m, 12));
  int64_t inputs = aug_t::used_nodes() - before;
  aug_t u = aug_t::map_union(a, b);  // copies: inputs stay alive
  int64_t actual = aug_t::used_nodes() - before;
  int64_t theory = inputs + static_cast<int64_t>(u.size());
  double saving = 1.0 - static_cast<double>(actual) / static_cast<double>(theory);
  std::printf("Union  n=%-10zu m=%-10zu theory=%-11lld actual=%-11lld saving=%5.1f%%\n",
              n, m, static_cast<long long>(theory), static_cast<long long>(actual),
              100 * saving);
  bench_json("bench_table4_space", "union_sharing_m=" + std::to_string(m),
             "saving_frac", saving);
}

// Live bytes per entry for one freshly built map under the current layout.
double bytes_per_entry(const std::vector<std::pair<uint64_t, uint64_t>>& es) {
  int64_t nodes0 = range_sum_map::used_nodes();
  int64_t bytes0 = range_sum_map::used_bytes();
  range_sum_map m(es);
  double bpe = static_cast<double>(range_sum_map::used_bytes() - bytes0) /
               static_cast<double>(m.size());
  (void)nodes0;
  return bpe;
}
}  // namespace

int main() {
  print_header("bench_table4_space", "Table 4 (augmentation overhead + node sharing)");

  std::printf("\n--- per-node space overhead of augmentation ---\n");
  std::printf("map type                 node bytes\n");
  std::printf("plain (K,V = 64-bit)     %zu\n", plain_sum_map::node_bytes());
  std::printf("augmented sum            %zu\n", range_sum_map::node_bytes());
  double overhead = 100.0 *
                    (static_cast<double>(range_sum_map::node_bytes()) /
                         static_cast<double>(plain_sum_map::node_bytes()) -
                     1.0);
  std::printf("augmentation overhead    %.1f%%  (paper: 20%%, +8B on 40B)\n", overhead);
  bench_json("bench_table4_space", "node_bytes", "augmented",
             static_cast<double>(range_sum_map::node_bytes()));

  // Sections (b)/(c): the paper's sharing percentages assume one node per
  // entry; pin the unblocked layout for them.
  size_t saved_b = leaf_block_size();
  set_leaf_block_size(0);

  std::printf("\n--- node sharing from persistent UNION (inputs kept alive) ---\n");
  size_t n = scaled_size(2000000);
  union_sharing(n, n);
  union_sharing(n, std::max<size_t>(1, n / 1000));

  std::printf("\n--- range tree: inner-tree node sharing ---\n");
  {
    using rt = range_tree<double, int64_t>;
    size_t rn = scaled_size(100000);
    int64_t outer_before = rt::outer_nodes_used();
    int64_t inner_before = rt::inner_nodes_used();
    std::vector<rt::point> ps(rn);
    parallel_for(0, rn, [&](size_t i) {
      ps[i] = {static_cast<double>(hash64(i * 3 + 1)) / 1e15,
               static_cast<double>(hash64(i * 5 + 2)) / 1e15,
               static_cast<int64_t>(hash64(i) % 100)};
    });
    rt t(ps);
    int64_t outer_used = rt::outer_nodes_used() - outer_before;
    int64_t inner_used = rt::inner_nodes_used() - inner_before;
    double logn = std::log2(static_cast<double>(rn));
    int64_t inner_theory = static_cast<int64_t>(static_cast<double>(rn) * logn);
    double saving =
        1.0 - static_cast<double>(inner_used) / static_cast<double>(inner_theory);
    std::printf("outer nodes: n=%zu used=%lld (1 per point, no sharing possible)\n", rn,
                static_cast<long long>(outer_used));
    std::printf("inner nodes: theory(n*log2 n)=%lld actual=%lld saving=%.1f%%"
                "  (paper: 13.8%%)\n",
                static_cast<long long>(inner_theory),
                static_cast<long long>(inner_used), 100 * saving);
    std::printf("inner node bytes=%zu outer node bytes=%zu\n",
                rt::inner_map::node_bytes(), rt::outer_map::node_bytes());
    bench_json("bench_table4_space", "range_tree_inner", "saving_frac", saving);
  }

  // ------------------------- (d) blocked vs unblocked bytes per entry ----
  std::printf("\n--- blocked leaves vs classic layout (bytes per live entry) ---\n");
  double ratio;
  {
    size_t sn = scaled_size(2000000);
    auto es = kv_entries(sn, 21);

    set_leaf_block_size(0);
    double unblocked_bpe = bytes_per_entry(es);

    size_t b = 32;  // the PAM_LEAF_BLOCK default
    set_leaf_block_size(b);
    double blocked_bpe = bytes_per_entry(es);

    ratio = unblocked_bpe / blocked_bpe;
    std::printf("layout        B    bytes/entry\n");
    std::printf("classic       -    %10.2f\n", unblocked_bpe);
    std::printf("blocked       %-4zu %10.2f\n", b, blocked_bpe);
    std::printf("space ratio (classic / blocked): %.2fx  (gate: >= 2x)\n", ratio);
    bench_json("bench_table4_space", "unblocked", "bytes_per_entry", unblocked_bpe);
    bench_json("bench_table4_space", "blocked_B=32", "bytes_per_entry", blocked_bpe);
    bench_json("bench_table4_space", "blocked_vs_unblocked", "space_ratio", ratio);
  }
  set_leaf_block_size(saved_b);

  // ------------- (e) pool bytes reserved vs used after a parallel free ----
  std::printf("\n--- pools after a parallel free and trim_memory ---\n");
  {
    using store_t = kv_store<range_sum_map>;
    store_t::trim_memory();
    // Each worker keeps one partly carved chunk per pool, live slots and
    // all: a fixed ~64 KB x workers x pools. Below ~500K entries per map
    // that, not trim, sets the ratio, so small PAM_BENCH_SCALEs stop there.
    size_t tn = std::max<size_t>(scaled_size(2000000), 500000);
    range_sum_map a(kv_entries(tn, 31));
    range_sum_map b(kv_entries(tn, 32));
    // A few rounds of the bulk kernel, as a server would run them: later
    // rounds allocate from the scattered slots earlier rounds freed, so
    // their trees (and the workers' caches after teardown) span many chunks.
    for (int round = 0; round < 3; round++) {
      range_sum_map u = range_sum_map::map_union(a, b);
      range_sum_map f = range_sum_map::filter(
          u, [](uint64_t, uint64_t v) { return v % 2 == 0; });
    }  // parallel teardown of u and f
    store_t::trim_memory();
    auto mem = store_t::memory();
    double over = static_cast<double>(mem.reserved_bytes) /
                  static_cast<double>(mem.used_bytes);
    std::printf("reserved %zu B, used %zu B, reserved/used %.3f\n",
                mem.reserved_bytes, mem.used_bytes, over);
    bench_json("bench_table4_space", "trim_after_parallel_free", "reserved_bytes",
               static_cast<double>(mem.reserved_bytes));
    bench_json("bench_table4_space", "trim_after_parallel_free", "used_bytes",
               static_cast<double>(mem.used_bytes));
    bench_json("bench_table4_space", "trim_after_parallel_free",
               "reserved_over_used", over);
  }

  // ------------------- (f) pool bytes reserved vs used after serving churn --
  std::printf("\n--- pools after serving churn and trim_memory ---\n");
  {
    using store_t = kv_store<range_sum_map>;
    store_t::trim_memory();
    // The same per-worker partly carved chunks as in (e) set a floor on the
    // ratio below ~500K entries.
    size_t sn = std::max<size_t>(scaled_size(1000000), 500000);
    constexpr int kWriters = 3;
    const size_t puts_per_writer = sn / kWriters;
    const uint64_t universe = 2 * sn;
    {
      store_t store(range_sum_map(kv_entries(sn, 41, universe)),
                    {.num_shards = 16});
      std::atomic<int> writing{kWriters};
      std::vector<std::thread> threads;
      for (int w = 0; w < kWriters; w++) {
        threads.emplace_back([&, w] {
          random_gen g(100 + static_cast<uint64_t>(w));
          for (size_t i = 0; i < puts_per_writer; i++) {
            store.put(g.next_bounded(universe), g.next() % 1000);
          }
          writing.fetch_sub(1);
        });
      }
      threads.emplace_back([&] {
        random_gen g(7);
        while (writing.load() > 0) store.get(g.next_bounded(universe));
      });
      for (auto& t : threads) t.join();
      store.flush();
      store_t::trim_memory();
      auto mem = store_t::memory();
      double over = static_cast<double>(mem.reserved_bytes) /
                    static_cast<double>(mem.used_bytes);
      std::printf("n=%zu, %d writers x %zu puts, 1 reader\n", sn, kWriters,
                  puts_per_writer);
      std::printf("reserved %zu B, used %zu B, reserved/used %.3f\n",
                  mem.reserved_bytes, mem.used_bytes, over);
      bench_json("bench_table4_space", "serving_churn", "reserved_bytes",
                 static_cast<double>(mem.reserved_bytes));
      bench_json("bench_table4_space", "serving_churn", "used_bytes",
                 static_cast<double>(mem.used_bytes));
      bench_json("bench_table4_space", "serving_churn", "reserved_over_used",
                 over);
    }
  }

  // ------------- (g) tree-node bytes per entry, delta layout, B = 32 ------
  std::printf("\n--- tree-node bytes per entry (delta layout, B = 32, 128-entry blocks) ---\n");
  {
    using delta_map = aug_map<delta_sum_entry<uint64_t, uint64_t>>;
    set_leaf_block_size(32);
    size_t dn = scaled_size(2000000);
    int64_t nodes0 = delta_map::used_nodes();
    delta_map m(kv_entries(dn, 51));
    auto node_bpe = [&] {
      return static_cast<double>((delta_map::used_nodes() - nodes0) *
                                 static_cast<int64_t>(delta_map::node_bytes())) /
             static_cast<double>(m.size());
    };
    double built = node_bpe();
    random_gen g(52);
    for (size_t i = 0; i < dn / 10; i++) m.insert_inplace(g.next(), g.next() % 1000);
    double inserted = node_bpe();
    std::printf("node bytes %zu, n=%zu\n", delta_map::node_bytes(), dn);
    std::printf("after build            %6.2f B/entry\n", built);
    std::printf("after +10%% inserts     %6.2f B/entry\n", inserted);
    bench_json("bench_table4_space", "node_bytes_delta_B=32_build", "node_bytes_per_entry",
               built);
    bench_json("bench_table4_space", "node_bytes_delta_B=32_inserts", "node_bytes_per_entry",
               inserted);
    set_leaf_block_size(saved_b);
  }

  // ------------- (h) flat leaf bytes per entry, sum_entry, B = 32 ---------
  std::printf("\n--- flat leaf bytes per entry (sum_entry<u64, u64>, B = 32) ---\n");
  {
    set_leaf_block_size(32);
    size_t fn = scaled_size(2000000);
    int64_t bytes0 = range_sum_map::used_leaf_bytes();
    range_sum_map m(kv_entries(fn, 61));
    auto leaf_bpe = [&] {
      return static_cast<double>(range_sum_map::used_leaf_bytes() - bytes0) /
             static_cast<double>(m.size());
    };
    double built = leaf_bpe();
    random_gen g(62);
    for (size_t i = 0; i < fn / 10; i++) m.insert_inplace(g.next(), g.next() % 1000);
    double inserted = leaf_bpe();
    std::printf("n=%zu\n", fn);
    std::printf("after build            %6.2f B/entry\n", built);
    std::printf("after +10%% inserts     %6.2f B/entry\n", inserted);
    bench_json("bench_table4_space", "leaf_bytes_flat_B=32_build", "leaf_bytes_per_entry",
               built);
    bench_json("bench_table4_space", "leaf_bytes_flat_B=32_inserts", "leaf_bytes_per_entry",
               inserted);
    set_leaf_block_size(saved_b);
  }

  // ------- (i) node + leaf bytes per entry, delta layout, default capacity --
  std::printf("\n--- node + leaf bytes per entry (delta layout, B = 32, 128-entry blocks) ---\n");
  {
    using delta_map = aug_map<delta_sum_entry<uint64_t, uint64_t>>;
    set_leaf_block_size(32);
    size_t dn = scaled_size(2000000);
    int64_t bytes0 = delta_map::used_bytes();
    delta_map m(kv_entries(dn, 71, 2 * dn));
    auto bpe = [&] {
      return static_cast<double>(delta_map::used_bytes() - bytes0) /
             static_cast<double>(m.size());
    };
    double built = bpe();
    random_gen g(72);
    for (size_t i = 0; i < dn / 10; i++) {
      m.insert_inplace(g.next_bounded(2 * dn), g.next() % 1000);
    }
    double inserted = bpe();
    std::printf("leaf capacity %zu, n=%zu\n", delta_map::ops::leaf_capacity(), dn);
    std::printf("after build            %6.2f B/entry\n", built);
    std::printf("after +10%% inserts     %6.2f B/entry\n", inserted);
    bench_json("bench_table4_space", "bytes_delta_B=32_build", "bytes_per_entry", built);
    bench_json("bench_table4_space", "bytes_delta_B=32_inserts", "bytes_per_entry", inserted);
    set_leaf_block_size(saved_b);
  }

  // ---- (j) pool bytes reserved vs used after value churn and compaction --
  std::printf("\n--- pools after value churn and a compacting trim_memory (delta layout) ---\n");
  {
    using delta_map = aug_map<delta_sum_entry<uint64_t, uint64_t>>;
    using store_t = kv_store<delta_map>;
    set_leaf_block_size(32);
    store_t::trim_memory();
    // Below ~2M entries the pools' partly carved last chunks, not
    // compaction, set the ratio (as the ~500K floor of (f)).
    size_t cn = std::max<size_t>(scaled_size(16000000), 2000000);
    {
      auto es = kv_entries(cn, 81, 2 * cn);
      store_t store(delta_map(es), {.num_shards = 16});
      // Values alternate between under 1000 and under 10^6, so a rewritten
      // block's encoded length changes and it moves to another byte class.
      random_gen g(82);
      for (size_t i = 0; i < cn; i++) {
        store.put(es[g.next_bounded(cn)].first, g.next() % (i % 2 == 0 ? 1000000 : 1000));
      }
      store.flush();
      auto t0 = std::chrono::steady_clock::now();
      store_t::trim_memory();
      double ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0).count();
      auto mem = store_t::memory();
      double over = static_cast<double>(mem.reserved_bytes) /
                    static_cast<double>(mem.used_bytes);
      double ms_per_m = ms / (static_cast<double>(store.size()) / 1e6);
      std::printf("n=%zu, %zu puts, 16 shards\n", store.size(), cn);
      std::printf("reserved %zu B, used %zu B, reserved/used %.3f\n",
                  mem.reserved_bytes, mem.used_bytes, over);
      std::printf("trim_memory %.1f ms, %.2f ms per million entries\n", ms, ms_per_m);
      bench_json("bench_table4_space", "compaction_churn", "reserved_bytes",
                 static_cast<double>(mem.reserved_bytes));
      bench_json("bench_table4_space", "compaction_churn", "used_bytes",
                 static_cast<double>(mem.used_bytes));
      bench_json("bench_table4_space", "compaction_churn", "reserved_over_used", over);
      bench_json("bench_table4_space", "compaction_churn", "trim_ms_per_M_entries",
                 ms_per_m);
    }
    set_leaf_block_size(saved_b);
  }

  std::printf("\nShape checks vs paper Table 4:\n");
  std::printf(" * union sharing: ~0-5%% for m=n, large (tens of %%) for m<<n\n");
  std::printf(" * range-tree inner sharing ~10-20%%\n");
  std::printf(" * blocked leaves >= 2x denser than the classic layout\n");
  std::printf(" * pools reserve ~1x their live bytes after a parallel free + trim\n");
  std::printf(" * serving churn: pools reserve well under 2x their live bytes after trim\n");
  std::printf(" * about one 48-byte node per 128-entry delta block: ~0.4 B/entry of nodes\n");
  std::printf(" * full flat blocks: 16.75 B/entry of leaves; partial blocks cost a little more\n");

  if (env_long("PAM_PERF_GATE", 0) != 0 && ratio < 2.0) {
    std::printf("\nFAIL: blocked-leaf space ratio %.2fx below the 2x gate\n", ratio);
    return 1;
  }
  return 0;
}
