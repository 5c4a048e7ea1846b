// ycsb-a-durable: the full write path with background checkpoints.
//
// 1M u64 keys over flat sum_entry leaves (measured about 49 B/entry, so
// about 49 MB of pools with the durability chain's previous cut), zipf 0.99
// over hashed ranks, 3 clients at 50% get / 50% put, each client acking
// with flush() after every 256 of its own puts, one thread calling
// save_checkpoint() every second. The WAL keeps the library's default flush
// policy (one group fsync per appended batch), and kv_store its defaults
// (16 shards, batch 1024, 2 ms flusher), so this workload is fsync-bound.
#include "ycsb.h"

namespace e2e {

result run_ycsb_a(const options& opt) {
  using map_t = pam::aug_map<pam::sum_entry<uint64_t, uint64_t>>;
  ycsb_spec sp{};
  sp.n = opt.smoke ? 20'000 : 1'000'000;
  sp.universe = 2 * sp.n;
  sp.read_pct = 50;
  sp.zipf = true;
  sp.durable = true;
  sp.stream_len = opt.smoke ? 50'000 : 4'000'000;
  return run_ycsb<map_t>(opt, sp);
}

}  // namespace e2e
