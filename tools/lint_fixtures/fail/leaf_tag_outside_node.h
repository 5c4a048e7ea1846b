// pam-lint-fixture-path: src/pam/tree_ops.h
// pam-lint-fixture-expect: leaf-tag
// A second copy of the leaf-tag protocol: testing and stripping the low
// bit of a child pointer by hand instead of through node_manager.
#pragma once

#include <cstdint>

namespace pam {

template <typename Node, typename Block>
const Block* leaf_block_or_null(const Node* t) {
  if ((reinterpret_cast<uintptr_t>(t) & 1) == 0) return nullptr;
  return reinterpret_cast<const Block*>(reinterpret_cast<uintptr_t>(t) & ~uintptr_t{1});
}

}  // namespace pam
