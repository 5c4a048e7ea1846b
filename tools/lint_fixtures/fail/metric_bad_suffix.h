// pam-lint-fixture-path: src/server/example.h
// pam-lint-fixture-expect: metric-name
#pragma once

#include "obs/metrics.h"

namespace pam {
struct example {
  obs::counter ops_{"pam_example_ops"};        // counter without _total
  obs::gauge depth_{"example_queue_depth"};    // missing pam_ prefix
  obs::histogram lat_{"pam_example_latency"};  // no unit suffix
  obs::histogram keys_{"pam_example_keys"};    // _keys is a gauge unit only
};
}  // namespace pam
