// pam-lint-fixture-path: src/server/sharded_map.h
// pam-lint-fixture-expect: publish-site
// A second publication protocol: its own atomic pointer, swapped and
// retired by hand instead of through published<T>.
#pragma once

#include <atomic>

namespace pam {

template <typename T>
struct hand_rolled_cut {
  std::atomic<T*> cur;

  void swap_in(T* next) {
    T* old = cur.exchange(next, std::memory_order_acq_rel);
    // pam-lint: allow(naked-delete) — only the retire site is under test.
    epoch::retire(old, [](void* q) { delete static_cast<T*>(q); });
  }
};

}  // namespace pam
