// pam-lint-fixture-path: src/pam/snapshot.h
// published<T>'s retire: the one publication site outside the epoch. A
// comment naming epoch::retire(...) elsewhere is not a call site.
#pragma once

namespace pam {

template <typename T>
struct published_retire {
  void retire(T* displaced) const {
    // pam-lint: allow(naked-delete) — the limbo deleter.
    epoch::retire(displaced, [](void* q) { delete static_cast<T*>(q); });
  }
};

}  // namespace pam
