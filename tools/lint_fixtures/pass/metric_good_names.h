// pam-lint-fixture-path: src/server/example.h
#pragma once

#include "obs/metrics.h"

namespace pam {
// Doc examples in comments must not fire: obs::counter bad{"no_suffix"}.
struct example {
  obs::counter ops_{"pam_example_ops_total"};
  obs::gauge depth_{"pam_example_queue_depth"};
  obs::gauge bytes_{"pam_example_reserved_bytes"};
  obs::gauge keys_{"pam_example_dirty_keys"};
  obs::histogram lat_{"pam_example_flush_ns"};
  // Wrapped member initializers are still checked (name on the next line).
  obs::histogram batch_{
      "pam_example_batch_ops"};
  // References and parameters are not constructions.
  void observe(obs::histogram& h) { h.record(1); }
};
}  // namespace pam
