// Treap balancing scheme (Seidel & Aragon 1996), join-based.
//
// Priorities are not stored: they are recomputed as a strong hash of the
// key, which makes every treap over a given key set structurally unique and
// reproducible (important for the deterministic tests and benchmarks), and
// keeps the node as small as the weight-balanced one. Join walks down
// whichever input root has the higher priority, so the expected join depth
// is O(log n). A leaf block has no priority: it sits below every node, as
// a null child would, so a join never lifts a block above a node.
//
// Keys must be hashable: either the Entry provides
//   static uint64_t hash(const key_t&)
// or std::hash<key_t> must be well-formed.
#pragma once

#include <cstdint>
#include <functional>

#include "util/random.h"

namespace pam {

struct treap {
  static constexpr const char* name = "treap";
  // Depth bound in nodes, with high probability: a random BST's height
  // concentrates at 2.99 log2 n, and the deterministic hashed priorities
  // make every tree of a key set the same tree.
  static constexpr double depth_factor = 4.0;

  struct data {};

  template <typename NM>
  static void update_data(typename NM::node*) {}

  template <typename NM>
  struct ops {
    using node = typename NM::node;
    using K = typename NM::K;

    static uint64_t prio(const K& k) {
      if constexpr (requires(const K& key) { NM::entry::hash(key); }) {
        return hash64(NM::entry::hash(k));
      } else {
        return hash64(std::hash<K>{}(k));
      }
    }

    static node* node_join(node* l, node* m, node* r) {
      uint64_t pm = prio(m->key);
      uint64_t pl = NM::is_node(l) ? prio(l->key) : 0;
      uint64_t pr = NM::is_node(r) ? prio(r->key) : 0;
      if (pl <= pm && pr <= pm) return NM::attach(l, m, r);
      if (pl >= pr) {  // l is a node here: pl > pm >= 0
        node* t = NM::ensure_owned(l);
        t->right = node_join(t->right, m, r);
        NM::update(t);
        return t;
      }
      node* t = NM::ensure_owned(r);
      t->left = node_join(l, m, t->left);
      NM::update(t);
      return t;
    }

    static bool check(const node* t) {
      if (!NM::is_node(t)) return true;
      uint64_t p = prio(t->key);
      if (NM::is_node(t->left) && prio(t->left->key) > p) return false;
      if (NM::is_node(t->right) && prio(t->right->key) > p) return false;
      return check(t->left) && check(t->right);
    }
  };
};

}  // namespace pam
