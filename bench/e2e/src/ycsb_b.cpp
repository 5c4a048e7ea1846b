// ycsb-b-large: the read path on a working set larger than cache.
//
// 16M u64 keys hashed into [0, 32M) over delta-coded sum_entry leaves
// (measured about 9.8 B/entry, so about 157 MB of pools, larger than a
// 105 MB L3), uniform keys,
// 3 clients at 95% get / 5% put, no durability. The WAL and checkpoints
// are never touched and the combiner is nearly idle, so a change to those
// layers should leave this workload unchanged.
#include "ycsb.h"

namespace e2e {

result run_ycsb_b(const options& opt) {
  using map_t = pam::aug_map<pam::delta_sum_entry<uint64_t, uint64_t>>;
  ycsb_spec sp{};
  sp.n = opt.smoke ? 50'000 : 16'000'000;
  sp.universe = 2 * sp.n;
  sp.read_pct = 95;
  sp.zipf = false;
  sp.durable = false;
  sp.stream_len = opt.smoke ? 50'000 : 4'000'000;
  return run_ycsb<map_t>(opt, sp);
}

}  // namespace e2e
