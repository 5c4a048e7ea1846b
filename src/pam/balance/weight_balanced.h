// Weight-balanced (BB[alpha]) balancing scheme, PAM's default.
//
// The paper defaults to weight-balanced trees because they need no balance
// metadata at all beyond the subtree size, which every node already stores
// (it also serves rank/select and the parallel grain decisions) — so the
// weight-balanced node is the smallest of the four schemes.
//
// The join algorithm is the joinRightWB of Blelloch, Ferizovic & Sun, "Just
// Join for Parallel Ordered Sets" (SPAA 2016), which proves that for a
// suitable alpha the algorithm restores the BB[alpha] invariant with single
// and double rotations along the join spine. We use alpha = 2/7 (inside the
// valid (2/11, 1 - 1/sqrt(2)) range), for which the balance test reduces to
// integer arithmetic: a node with subtree weights (wl, wr), w = size + 1,
// satisfies the invariant iff 5*wl >= 2*wr and 5*wr >= 2*wl.
//
// A leaf block weighs its entry count + 1 (its size + 1, like any subtree)
// but can be neither entered nor lifted. Where a join spine reaches a block,
// or a rotation would lift one, the join rebuilds that subtree as an even
// split into blocks instead: the block outweighs its light sibling, so the
// subtree holds O(C) entries (C = leaf_capacity()), and halving balances it
// by construction. The invariant therefore holds at every node of a
// blocked tree too.
#pragma once

#include <cstddef>
#include <vector>

#include "pam/node.h"

namespace pam {

struct weight_balanced {
  static constexpr const char* name = "weight-balanced";
  // Depth bound in nodes: log base 1/(1 - 2/7) of (n + 1) = 2.06 log2(n + 1).
  static constexpr double depth_factor = 2.1;

  struct data {};  // weight = size + 1 lives in the node already

  template <typename NM>
  static void update_data(typename NM::node*) {}

  template <typename NM>
  struct ops {
    using node = typename NM::node;

    static size_t weight(const node* t) { return NM::size(t) + 1; }

    // True iff the left weight is too heavy for the pair to be a node.
    static bool left_heavy(size_t wl, size_t wr) { return 5 * wr < 2 * wl; }

    static bool balanced_pair(size_t wl, size_t wr) {
      return !left_heavy(wl, wr) && !left_heavy(wr, wl);
    }

    // JOIN(l, m, r): all three owned, returns the owned joined root.
    static node* node_join(node* l, node* m, node* r) {
      size_t wl = weight(l), wr = weight(r);
      if (left_heavy(wl, wr)) return join_heavier_left(l, m, r);
      if (left_heavy(wr, wl)) return join_heavier_right(l, m, r);
      return NM::attach(l, m, r);
    }

    static bool check(const node* t) {
      if (!NM::is_node(t)) return true;
      if (!balanced_pair(weight(t->left), weight(t->right))) return false;
      return check(t->left) && check(t->right);
    }

   private:
    // l is too heavy: descend its right spine until balanced with r, attach,
    // then fix the balance on the way back up (SPAA'16 joinRightWB).
    static node* join_heavier_left(node* tl, node* m, node* tr) {
      if (!left_heavy(weight(tl), weight(tr))) return NM::attach(tl, m, tr);
      if (!NM::is_node(tl)) return rebuild(NM::attach(tl, m, tr));
      node* t = NM::ensure_owned(tl);
      node* t1 = join_heavier_left(t->right, m, tr);
      t->right = t1;
      size_t wl = weight(t->left), w1 = weight(t1);
      if (balanced_pair(wl, w1)) {
        NM::update(t);
        return t;
      }
      if (!NM::is_node(t1)) return rebuild(t);
      size_t wl1 = weight(t1->left), wr1 = weight(t1->right);
      if (balanced_pair(wl, wl1) && balanced_pair(wl + wl1, wr1)) {
        return NM::rotate_left(t);  // single rotation restores balance
      }
      if (!NM::is_node(t1->left)) return rebuild(t);
      t->right = NM::rotate_right(t1);  // double rotation
      return NM::rotate_left(t);
    }

    static node* join_heavier_right(node* tl, node* m, node* tr) {
      if (!left_heavy(weight(tr), weight(tl))) return NM::attach(tl, m, tr);
      if (!NM::is_node(tr)) return rebuild(NM::attach(tl, m, tr));
      node* t = NM::ensure_owned(tr);
      node* t1 = join_heavier_right(tl, m, t->left);
      t->left = t1;
      size_t wr = weight(t->right), w1 = weight(t1);
      if (balanced_pair(w1, wr)) {
        NM::update(t);
        return t;
      }
      if (!NM::is_node(t1)) return rebuild(t);
      size_t wr1 = weight(t1->right), wl1 = weight(t1->left);
      if (balanced_pair(wr, wr1) && balanced_pair(wr + wr1, wl1)) {
        return NM::rotate_right(t);
      }
      if (!NM::is_node(t1->right)) return rebuild(t);
      t->left = NM::rotate_left(t1);
      return NM::rotate_right(t);
    }

    // The owned subtree t (O(C) entries; its cached size may be stale) as an
    // even split into blocks.
    static node* rebuild(node* t) {
      std::vector<typename NM::entry_t> es;
      NM::collect_entries(t, es);
      NM::dec(t);
      return build_even(es.data(), es.size());
    }

    static node* build_even(const typename NM::entry_t* es, size_t n) {
      if (n == 0) return nullptr;
      if (n <= NM::leaf_capacity()) {
        return NM::as_leaf(NM::lstore::build(es, static_cast<uint32_t>(n)));
      }
      size_t mid = n / 2;
      node* l = build_even(es, mid);
      node* r = build_even(es + mid + 1, n - mid - 1);
      return NM::attach(l, NM::make_single(es[mid].first, es[mid].second), r);
    }
  };
};

}  // namespace pam
