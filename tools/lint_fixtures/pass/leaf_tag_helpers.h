// pam-lint-fixture-path: src/pam/tree_ops.h
// Leaf blocks reached through node_manager's helpers; the only integer view
// of a pointer here is an alignment test, which is not a tag.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pam {

template <typename NM>
size_t leaf_count(const typename NM::node* t) {
  return NM::is_block(t) ? NM::block_of(t)->count : 0;
}

inline bool aligned_to(const void* p, size_t align) {
  return reinterpret_cast<uintptr_t>(p) % align == 0;
}

}  // namespace pam
