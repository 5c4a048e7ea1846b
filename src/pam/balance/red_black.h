// Red-black balancing scheme (Bayer 1972), join-based.
//
// Nodes store their color and black height (the number of black nodes on
// every path from the node down to a null leaf, counting the node itself if
// black; null trees have black height 0). The join follows the black-height
// formulation of Blelloch, Ferizovic & Sun (SPAA 2016): descend the right
// spine of the taller (by black height) tree to the topmost black node with
// the shorter tree's black height, insert a red joining node there, and
// repair the possible red-red chain on the way up with one recolor+rotation
// per level. Both inputs are blackened first, which keeps the invariant
// reasoning simple at a cost of at most one extra black level per join.
//
// A leaf block is a black leaf, like a null child: black height 0, never
// red. Every path still counts the same number of black nodes, a join
// attaches at a block instead of descending into it, and the red nodes
// that rotations lift are always nodes.
#pragma once

#include <cstdint>

namespace pam {

struct red_black {
  static constexpr const char* name = "red-black";
  // Depth bound in nodes: 2 log2(n + 1).
  static constexpr double depth_factor = 2.0;

  struct data {
    uint8_t black_height = 1;
    bool red = false;
  };

  template <typename NM>
  static int black_height_of(const typename NM::node* t) {
    return NM::is_node(t) ? t->bal.black_height : 0;
  }

  // Recompute black height from the left child (children agree by
  // invariant); the color is state, not derived, so update keeps it.
  template <typename NM>
  static void update_data(typename NM::node* t) {
    int ch = black_height_of<NM>(t->left);
    t->bal.black_height = static_cast<uint8_t>(ch + (t->bal.red ? 0 : 1));
  }

  template <typename NM>
  struct ops {
    using node = typename NM::node;

    static int bh(const node* t) { return black_height_of<NM>(t); }
    static bool is_red(const node* t) { return NM::is_node(t) && t->bal.red; }

    static node* node_join(node* l, node* m, node* r) {
      l = blacken(l);
      r = blacken(r);
      if (bh(l) > bh(r)) {
        node* t = join_taller_left(l, m, r);
        if (is_red(t) && is_red(t->right)) make_black(t);
        return t;
      }
      if (bh(r) > bh(l)) {
        node* t = join_taller_right(l, m, r);
        if (is_red(t) && is_red(t->left)) make_black(t);
        return t;
      }
      // Equal black heights with two black (possibly null) roots: a red
      // joining node preserves every path's black count.
      m->bal.red = true;
      return NM::attach(l, m, r);
    }

    static bool check(const node* t) { return check_rec(t) >= 0; }

   private:
    // t is owned by the caller throughout these helpers.
    static void make_black(node* t) {
      t->bal.red = false;
      t->bal.black_height++;
    }

    static node* blacken(node* t) {
      if (!is_red(t)) return t;
      t = NM::ensure_owned(t);
      make_black(t);
      return t;
    }

    static node* join_taller_left(node* tl, node* m, node* tr) {
      // pre: bh(tl) >= bh(tr), tr black
      if (bh(tl) == bh(tr) && !is_red(tl)) {
        m->bal.red = true;
        return NM::attach(tl, m, tr);
      }
      node* t = NM::ensure_owned(tl);
      t->right = join_taller_left(t->right, m, tr);
      NM::update(t);
      // The recursion may return a red node with a red right child directly
      // under a black t; recolor the grandchild and rotate it up.
      if (!t->bal.red && is_red(t->right) && is_red(t->right->right)) {
        t->right = NM::ensure_owned(t->right);
        t->right->right = NM::ensure_owned(t->right->right);
        make_black(t->right->right);
        return NM::rotate_left(t);
      }
      return t;
    }

    static node* join_taller_right(node* tl, node* m, node* tr) {
      // pre: bh(tr) >= bh(tl), tl black
      if (bh(tr) == bh(tl) && !is_red(tr)) {
        m->bal.red = true;
        return NM::attach(tl, m, tr);
      }
      node* t = NM::ensure_owned(tr);
      t->left = join_taller_right(tl, m, t->left);
      NM::update(t);
      if (!t->bal.red && is_red(t->left) && is_red(t->left->left)) {
        t->left = NM::ensure_owned(t->left);
        t->left->left = NM::ensure_owned(t->left->left);
        make_black(t->left->left);
        return NM::rotate_right(t);
      }
      return t;
    }

    // Returns the black height, or -1 on any invariant violation.
    static int check_rec(const node* t) {
      if (!NM::is_node(t)) return 0;
      int hl = check_rec(t->left);
      int hr = check_rec(t->right);
      if (hl < 0 || hr < 0 || hl != hr) return -1;
      if (t->bal.red && (is_red(t->left) || is_red(t->right))) return -1;
      int mine = hl + (t->bal.red ? 0 : 1);
      if (mine != t->bal.black_height) return -1;
      return mine;
    }
  };
};

}  // namespace pam
