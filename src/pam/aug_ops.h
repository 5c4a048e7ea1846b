// Operations specific to augmented maps (below the dashed line of the
// paper's Figure 1): constant-time whole-map sums, logarithmic prefix and
// range sums, pruned filtering, and projected range sums. These are the
// functions whose efficiency the augmentation exists for (paper Table 2).
//
// Blocked leaves: a leaf block contributes its cached augmented value when
// the whole block is inside the query; only the (at most two) boundary
// blocks are partially folded entry-by-entry, so the O(log n) bounds become
// O(log n + B) with a tiny constant.
#pragma once

#include <cstddef>

#include "pam/map_ops.h"

namespace pam {

template <typename Entry, typename Balance>
struct aug_ops : map_ops<Entry, Balance> {
  using MO = map_ops<Entry, Balance>;
  using NM = typename MO::NM;
  using node = typename MO::node;
  using K = typename MO::K;
  using A = typename MO::A;
  using traits = typename MO::traits;
  using entry_t = typename MO::entry_t;

  using MO::aug_of;
  using MO::block_of;
  using MO::dec;
  using MO::is_block;
  using MO::join;
  using MO::join2;
  using MO::less;
  using MO::lower_idx;
  using MO::upper_idx;

  static_assert(true, "instantiating any member requires an augmented Entry");

  // AUGVAL(t) = A(t): the augmented value of the whole map, O(1) because it
  // is cached at the root.
  static A aug_val(const node* t) { return aug_of(t); }

  // AUGLEFT(t, k): augmented value of all entries with key <= k
  // (paper Figure 2; its code includes the boundary key). O(log n).
  static A aug_left(const node* t, const K& k) {
    if (t == nullptr) return traits::identity();
    if (is_block(t)) {
      auto bv = NM::lstore::read(block_of(t));
      size_t c = bv.size();
      size_t pos = upper_idx(bv.data(), c, k);  // entries [0, pos) are <= k
      return pos == c ? block_of(t)->aug : fold_entries_assoc<traits>(bv.data(), 0, pos);
    }
    if (less(k, t->key)) return aug_left(t->left, k);
    return traits::combine(
        aug_of(t->left),
        traits::combine(traits::base(t->key, t->value), aug_left(t->right, k)));
  }

  // Augmented value of all entries with key >= k. O(log n).
  static A aug_right(const node* t, const K& k) {
    if (t == nullptr) return traits::identity();
    if (is_block(t)) {
      auto bv = NM::lstore::read(block_of(t));
      size_t c = bv.size();
      size_t pos = lower_idx(bv.data(), c, k);  // entries [pos, c) are >= k
      return pos == 0 ? block_of(t)->aug : fold_entries_assoc<traits>(bv.data(), pos, c);
    }
    if (less(t->key, k)) return aug_right(t->right, k);
    return traits::combine(
        aug_right(t->left, k),
        traits::combine(traits::base(t->key, t->value), aug_of(t->right)));
  }

  // AUGRANGE(t, lo, hi): augmented value of entries with lo <= key <= hi,
  // equivalent to aug_val(range(t, lo, hi)) but O(log n) and allocation-free.
  static A aug_range(const node* t, const K& lo, const K& hi) {
    if (t == nullptr) return traits::identity();
    if (is_block(t)) {
      auto bv = NM::lstore::read(block_of(t));
      size_t c = bv.size();
      size_t i = lower_idx(bv.data(), c, lo);
      size_t j = upper_idx(bv.data(), c, hi);
      if (j <= i) return traits::identity();
      return (i == 0 && j == c) ? block_of(t)->aug
                                : fold_entries_assoc<traits>(bv.data(), i, j);
    }
    if (less(t->key, lo)) return aug_range(t->right, lo, hi);
    if (less(hi, t->key)) return aug_range(t->left, lo, hi);
    return traits::combine(
        aug_right(t->left, lo),
        traits::combine(traits::base(t->key, t->value), aug_left(t->right, hi)));
  }

  // AUGFILTER(t, h): equivalent to filter with h(g(k, v)) as the predicate,
  // valid when h(a) || h(b) == h(f(a, b)); whole subtrees whose augmented
  // value fails h are pruned without being visited. Consumes t.
  // Work O(k log(n/k + 1)) for k survivors, span O(log^2 n).
  template <typename Pred>
  static node* aug_filter(node* t, const Pred& h) {
    if (t == nullptr) return nullptr;
    if (!h(NM::aug_ref(t))) {
      dec(t);
      return nullptr;
    }
    if (is_block(t)) {
      auto bv = NM::lstore::read(block_of(t));
      const entry_t* es = bv.data();
      std::vector<entry_t> keep;
      for (size_t i = 0; i < bv.size(); i++) {
        if (h(traits::base(es[i].first, es[i].second))) keep.push_back(es[i]);
      }
      node* r = MO::build_sorted_seq(keep.data(), keep.size());
      dec(t);
      return r;
    }
    size_t n = t->size;
    node *l, *m, *r;
    NM::expose_own(t, l, m, r);
    node* l2 = nullptr;
    node* r2 = nullptr;
    par_do_if(
        n >= par_cutoff(), [&] { l2 = aug_filter(l, h); },
        [&] { r2 = aug_filter(r, h); });
    if (h(traits::base(m->key, m->value))) return join(l2, m, r2);
    dec(m);
    return join2(l2, r2);
  }

  // AUGPROJECT(g2, f2, t, lo, hi) = g2(aug_range(t, lo, hi)), computed as the
  // f2-sum of g2 over the O(log n) canonical subtrees covering [lo, hi].
  // Requires f2(g2(a), g2(b)) == g2(f(a, b)) (paper Section 3); the point is
  // that g2 may project a large A (e.g. an inner map) down to a small B
  // without materializing f over inner structures.
  template <typename G2, typename F2, typename B>
  static B aug_project(const node* t, const G2& g2, const F2& f2, const B& id,
                       const K& lo, const K& hi) {
    if (t == nullptr) return id;
    if (is_block(t)) {
      auto bv = NM::lstore::read(block_of(t));
      size_t c = bv.size();
      size_t i = lower_idx(bv.data(), c, lo);
      size_t j = upper_idx(bv.data(), c, hi);
      return fold_projected(bv.data(), i, j, g2, f2, id);
    }
    if (less(t->key, lo)) return aug_project(t->right, g2, f2, id, lo, hi);
    if (less(hi, t->key)) return aug_project(t->left, g2, f2, id, lo, hi);
    B left = project_right(t->left, g2, f2, id, lo);
    B mid = g2(traits::base(t->key, t->value));
    B right = project_left(t->right, g2, f2, id, hi);
    return f2(f2(left, mid), right);
  }

 private:
  template <typename G2, typename F2, typename B>
  static B fold_projected(const entry_t* es, size_t a, size_t b, const G2& g2,
                          const F2& f2, const B& id) {
    B acc = id;
    for (size_t i = a; i < b; i++) {
      acc = f2(acc, g2(traits::base(es[i].first, es[i].second)));
    }
    return acc;
  }

  // g2-projected sum over a whole subtree: its cached aug, projected.
  template <typename G2, typename B>
  static B project_all(const node* t, const G2& g2, const B& id) {
    return t == nullptr ? id : g2(NM::aug_ref(t));
  }

  // g2-projected sum over keys >= k.
  template <typename G2, typename F2, typename B>
  static B project_right(const node* t, const G2& g2, const F2& f2, const B& id,
                         const K& k) {
    if (t == nullptr) return id;
    if (is_block(t)) {
      auto bv = NM::lstore::read(block_of(t));
      size_t c = bv.size();
      return fold_projected(bv.data(), lower_idx(bv.data(), c, k), c, g2, f2, id);
    }
    if (less(t->key, k)) return project_right(t->right, g2, f2, id, k);
    B left = project_right(t->left, g2, f2, id, k);
    B mid = g2(traits::base(t->key, t->value));
    return f2(f2(left, mid), project_all(t->right, g2, id));
  }

  // g2-projected sum over keys <= k.
  template <typename G2, typename F2, typename B>
  static B project_left(const node* t, const G2& g2, const F2& f2, const B& id,
                        const K& k) {
    if (t == nullptr) return id;
    if (is_block(t)) {
      auto bv = NM::lstore::read(block_of(t));
      size_t c = bv.size();
      return fold_projected(bv.data(), 0, upper_idx(bv.data(), c, k), g2, f2, id);
    }
    if (less(k, t->key)) return project_left(t->left, g2, f2, id, k);
    B left = project_all(t->left, g2, id);
    B mid = g2(traits::base(t->key, t->value));
    B right = project_left(t->right, g2, f2, id, k);
    return f2(f2(left, mid), right);
  }
};

}  // namespace pam
