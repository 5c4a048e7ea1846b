// AVL balancing scheme (Adelson-Velsky & Landis 1962), join-based.
//
// Nodes store the subtree height (one byte; heights are <= 1.44 log2 n).
// The join algorithm is joinRightAVL from Blelloch, Ferizovic & Sun
// (SPAA 2016): walk down the taller tree's spine to a subtree whose height
// is within one of the shorter tree, attach there, and fix any +2 imbalance
// on the way back up with at most one (single or double) rotation per level.
//
// A leaf block stands where a null child would, with height 0: the heights
// and the AVL invariant are those of the internal nodes. A spine never
// reaches a block (the taller side is at least 2 high), and every rotation
// promotes a node of height >= 1, so no block is ever lifted off a leaf.
#pragma once

#include <cstdint>

namespace pam {

struct avl_tree {
  static constexpr const char* name = "avl";
  // Depth bound in nodes: 1.44 log2(n + 2) (check_valid adds 2 levels).
  static constexpr double depth_factor = 1.45;

  struct data {
    uint8_t height = 1;
  };

  template <typename NM>
  static int height_of(const typename NM::node* t) {
    return NM::is_node(t) ? t->bal.height : 0;
  }

  template <typename NM>
  static void update_data(typename NM::node* t) {
    int hl = height_of<NM>(t->left), hr = height_of<NM>(t->right);
    t->bal.height = static_cast<uint8_t>(1 + (hl > hr ? hl : hr));
  }

  template <typename NM>
  struct ops {
    using node = typename NM::node;

    static int h(const node* t) { return height_of<NM>(t); }

    static node* node_join(node* l, node* m, node* r) {
      if (h(l) > h(r) + 1) return join_taller_left(l, m, r);
      if (h(r) > h(l) + 1) return join_taller_right(l, m, r);
      return NM::attach(l, m, r);
    }

    static bool check(const node* t) {
      if (!NM::is_node(t)) return true;
      int hl = h(t->left), hr = h(t->right);
      int diff = hl - hr;
      if (diff < -1 || diff > 1) return false;
      if (t->bal.height != 1 + (hl > hr ? hl : hr)) return false;
      return check(t->left) && check(t->right);
    }

   private:
    static node* join_taller_left(node* tl, node* m, node* tr) {
      // pre: h(tl) > h(tr) + 1
      node* t = NM::ensure_owned(tl);
      if (h(t->right) <= h(tr) + 1) {
        node* t1 = NM::attach(t->right, m, tr);
        t->right = t1;
        if (h(t1) <= h(t->left) + 1) {
          NM::update(t);
          return t;
        }
        t->right = NM::rotate_right(t1);
        return NM::rotate_left(t);
      }
      node* t1 = join_taller_left(t->right, m, tr);
      t->right = t1;
      if (h(t1) <= h(t->left) + 1) {
        NM::update(t);
        return t;
      }
      return NM::rotate_left(t);
    }

    static node* join_taller_right(node* tl, node* m, node* tr) {
      // pre: h(tr) > h(tl) + 1
      node* t = NM::ensure_owned(tr);
      if (h(t->left) <= h(tl) + 1) {
        node* t1 = NM::attach(tl, m, t->left);
        t->left = t1;
        if (h(t1) <= h(t->right) + 1) {
          NM::update(t);
          return t;
        }
        t->left = NM::rotate_left(t1);
        return NM::rotate_right(t);
      }
      node* t1 = join_taller_right(tl, m, t->left);
      t->left = t1;
      if (h(t1) <= h(t->right) + 1) {
        NM::update(t);
        return t;
      }
      return NM::rotate_right(t);
    }
  };
};

}  // namespace pam
