// Parallel bulk algorithms: union / intersect / difference, filter, build,
// multi-insert / multi-delete, mapReduce, and parallel tree <-> array
// conversion. These are the operations the paper parallelizes with
// fork-join over the tree structure (Figure 2); the work/span bounds are
// those of Table 2.
//
// With blocked leaves enabled the bulk operations work block-at-a-time:
// when a recursion bottoms out at two flat leaf blocks the result is a
// plain sorted-array merge into fresh blocks, and the traversal/projection
// passes stream whole blocks instead of chasing per-entry pointers.
//
// The fork-join granularity knob (par_cutoff) lives in parallel/parallel.h
// with the rest of the runtime knob family.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "pam/block_search.h"
#include "pam/tree_ops.h"
#include "parallel/merge_sort.h"
#include "parallel/parallel.h"
#include "parallel/radix_sort.h"
#include "parallel/sequence_ops.h"

namespace pam {

template <typename Entry, typename Balance>
struct map_ops : tree_ops<Entry, Balance> {
  using TO = tree_ops<Entry, Balance>;
  using NM = typename TO::NM;
  using node = typename TO::node;
  using K = typename TO::K;
  using V = typename TO::V;
  using entry_t = typename TO::entry_t;
  using lblock = typename TO::lblock;
  using lstore = typename TO::lstore;

  using TO::cnt;
  using TO::dec;
  using TO::expose_own;
  using TO::is_chunk;
  using TO::is_chunk_leaf;
  using TO::join;
  using TO::join2;
  using TO::less;
  using TO::make_single;
  using TO::size;
  using TO::split;

  // --------------------------------------------------------- set algebra --

  // UNION(a, b, comb): all keys of either map; a key in both gets
  // comb(value_in_a, value_in_b). Consumes both. Work O(m log(n/m + 1)).
  template <typename Comb>
  static node* union_(node* a, node* b, const Comb& comb) {
    if (a == nullptr) return b;
    if (b == nullptr) return a;
    if (is_chunk_leaf(a) && is_chunk_leaf(b)) return union_blocks(a, b, comb);
    size_t total = size(a) + size(b);
    node *l2, *m2, *r2;
    expose_own(b, l2, m2, r2);
    auto sp = split(a, m2->key);
    node* l = nullptr;
    node* r = nullptr;
    par_do_if(
        total >= par_cutoff(), [&] { l = union_(sp.left, l2, comb); },
        [&] { r = union_(sp.right, r2, comb); });
    if (sp.mid != nullptr) {
      m2->value = comb(sp.mid->value, m2->value);
      dec(sp.mid);
    }
    return join(l, m2, r);
  }

  // Plain union: on a duplicate key the second map's value wins.
  static node* union_(node* a, node* b) {
    return union_(a, b, [](const V&, const V& vb) { return vb; });
  }

  // One two-pointer merge over sorted unique runs, shared by every
  // block-at-a-time base case: `a` is a run of entries, `b` a run of any
  // sorted type keyed by key_of_b; each element lands in exactly one of
  // on_a (key only in a), on_b (key only in b), on_both (key in both).
  template <typename BT, typename KeyOfB, typename OnA, typename OnB,
            typename OnBoth>
  static void merge_runs(const entry_t* a, size_t na, const BT* b, size_t nb,
                         const KeyOfB& key_of_b, const OnA& on_a, const OnB& on_b,
                         const OnBoth& on_both) {
    size_t i = 0, j = 0;
    while (i < na && j < nb) {
      if (less(a[i].first, key_of_b(b[j]))) {
        on_a(a[i++]);
      } else if (less(key_of_b(b[j]), a[i].first)) {
        on_b(b[j++]);
      } else {
        on_both(a[i], b[j]);
        i++;
        j++;
      }
    }
    for (; i < na; i++) on_a(a[i]);
    for (; j < nb; j++) on_b(b[j]);
  }

  static const K& entry_key(const entry_t& e) { return e.first; }

  // Block-at-a-time union base case: one sorted-array merge, then a
  // balanced rebuild into fresh blocks.
  template <typename Comb>
  static node* union_blocks(node* a, node* b, const Comb& comb) {
    auto av = NM::read_block(a->blk);
    auto bv = NM::read_block(b->blk);
    std::vector<entry_t> out;
    out.reserve(av.size() + bv.size());
    merge_runs(
        av.data(), av.size(), bv.data(), bv.size(), entry_key,
        [&](const entry_t& e) { out.push_back(e); },
        [&](const entry_t& e) { out.push_back(e); },
        [&](const entry_t& ea, const entry_t& eb) {
          out.emplace_back(ea.first, comb(ea.second, eb.second));
        });
    node* r = TO::build_sorted_seq(out.data(), out.size());
    dec(a);
    dec(b);
    return r;
  }

  // INTERSECT(a, b, comb): keys in both maps, values combined by comb.
  template <typename Comb>
  static node* intersect(node* a, node* b, const Comb& comb) {
    if (a == nullptr || b == nullptr) {
      dec(a);
      dec(b);
      return nullptr;
    }
    if (is_chunk_leaf(a) && is_chunk_leaf(b)) return intersect_blocks(a, b, comb);
    size_t total = size(a) + size(b);
    node *l2, *m2, *r2;
    expose_own(b, l2, m2, r2);
    auto sp = split(a, m2->key);
    node* l = nullptr;
    node* r = nullptr;
    par_do_if(
        total >= par_cutoff(), [&] { l = intersect(sp.left, l2, comb); },
        [&] { r = intersect(sp.right, r2, comb); });
    if (sp.mid != nullptr) {
      m2->value = comb(sp.mid->value, m2->value);
      dec(sp.mid);
      return join(l, m2, r);
    }
    dec(m2);
    return join2(l, r);
  }

  template <typename Comb>
  static node* intersect_blocks(node* a, node* b, const Comb& comb) {
    auto av = NM::read_block(a->blk);
    auto bv = NM::read_block(b->blk);
    std::vector<entry_t> out;
    merge_runs(
        av.data(), av.size(), bv.data(), bv.size(), entry_key,
        [](const entry_t&) {}, [](const entry_t&) {},
        [&](const entry_t& ea, const entry_t& eb) {
          out.emplace_back(ea.first, comb(ea.second, eb.second));
        });
    node* r = TO::build_sorted_seq(out.data(), out.size());
    dec(a);
    dec(b);
    return r;
  }

  // DIFFERENCE(a, b): entries of a whose key is not in b.
  static node* difference(node* a, node* b) {
    if (a == nullptr) {
      dec(b);
      return nullptr;
    }
    if (b == nullptr) return a;
    if (is_chunk_leaf(a) && is_chunk_leaf(b)) return difference_blocks(a, b);
    size_t total = size(a) + size(b);
    node *l2, *m2, *r2;
    expose_own(b, l2, m2, r2);
    auto sp = split(a, m2->key);
    node* l = nullptr;
    node* r = nullptr;
    par_do_if(
        total >= par_cutoff(), [&] { l = difference(sp.left, l2); },
        [&] { r = difference(sp.right, r2); });
    if (sp.mid != nullptr) dec(sp.mid);
    dec(m2);
    return join2(l, r);
  }

  static node* difference_blocks(node* a, node* b) {
    auto av = NM::read_block(a->blk);
    auto bv = NM::read_block(b->blk);
    std::vector<entry_t> out;
    out.reserve(av.size());
    merge_runs(
        av.data(), av.size(), bv.data(), bv.size(), entry_key,
        [&](const entry_t& e) { out.push_back(e); },
        [](const entry_t&) {}, [](const entry_t&, const entry_t&) {});
    node* r = TO::build_sorted_seq(out.data(), out.size());
    dec(a);
    dec(b);
    return r;
  }

  // -------------------------------------------------------------- filter --

  // FILTER(t, pred): entries satisfying pred(k, v). Consumes t.
  // Work O(n), span O(log^2 n) (paper Figure 2).
  template <typename Pred>
  static node* filter(node* t, const Pred& pred) {
    if (t == nullptr) return nullptr;
    if (is_chunk_leaf(t)) {
      auto bv = NM::read_block(t->blk);
      const entry_t* es = bv.data();
      std::vector<entry_t> keep;
      for (size_t i = 0; i < bv.size(); i++) {
        if (pred(es[i].first, es[i].second)) keep.push_back(es[i]);
      }
      node* r = TO::build_sorted_seq(keep.data(), keep.size());
      dec(t);
      return r;
    }
    size_t n = t->size;
    node *l, *m, *r;
    expose_own(t, l, m, r);
    node* l2 = nullptr;
    node* r2 = nullptr;
    par_do_if(
        n >= par_cutoff(), [&] { l2 = filter(l, pred); },
        [&] { r2 = filter(r, pred); });
    if (pred(m->key, m->value)) return join(l2, m, r2);
    dec(m);
    return join2(l2, r2);
  }

  // ------------------------------------------- sort-and-combine front end --

  // Keys that take the radix sort: integers of up to 64 bits under the
  // default order, in entries that copy as plain bytes (std::pair itself
  // never qualifies as trivially copyable, so the test is on its members).
  static constexpr bool radix_keys =
      std::is_integral_v<K> && sizeof(K) <= sizeof(uint64_t) &&
      detail::uses_default_less<Entry>::value && std::is_trivially_copyable_v<V>;

  static bool key_less(const K& x, const K& y) { return less(x, y); }

  // Stable sort of v by key_of(elem): the radix sort for radix_keys, else
  // the merge sort. Both return at once on already-sorted input.
  template <typename T, typename KeyOf>
  static void sort_by_key(std::vector<T>& v, const KeyOf& key_of) {
    if constexpr (radix_keys) {
      radix_sort(v, key_of);
    } else {
      parallel_sort(v, [&](const T& x, const T& y) { return less(key_of(x), key_of(y)); });
    }
  }

  // The entries of v sorted by key, each run of equal keys folded left to
  // right with comb into one entry. Returns v's own buffer (or the sort's
  // scratch buffer) when there are no duplicates.
  template <typename Comb>
  static std::vector<entry_t> sort_and_combine(std::vector<entry_t> v, const Comb& comb) {
    sort_by_key(v, [](const entry_t& e) -> const K& { return e.first; });
    return combine_sorted_runs(std::move(v), key_less, comb);
  }

  // --------------------------------------------------------------- build --

  // Balanced divide-and-conquer construction from sorted, duplicate-free
  // entries (paper Figure 2, BUILD'). O(n) work after sorting. Bottoms out
  // in whole leaf blocks when blocking is enabled.
  static node* from_sorted_unique(const entry_t* a, size_t n) {
    if (n == 0) return nullptr;
    size_t B = leaf_block_size();
    if (B >= 1 && n <= B) return TO::make_chunk_leaf(a, n);
    size_t mid = TO::build_pivot(n, B);
    node* m = make_single(a[mid].first, a[mid].second);
    node* l = nullptr;
    node* r = nullptr;
    par_do_if(
        n >= par_cutoff(), [&] { l = from_sorted_unique(a, mid); },
        [&] { r = from_sorted_unique(a + mid + 1, n - mid - 1); });
    return join(l, m, r);
  }

  // BUILD(seq, comb): parallel sort by key, fold duplicate keys
  // left-to-right with comb, then balanced construction.
  // Work O(n log n), span O(log n) given the sort (paper Table 2).
  template <typename Comb>
  static node* build(std::vector<entry_t> v, const Comb& comb) {
    std::vector<entry_t> u = sort_and_combine(std::move(v), comb);
    return from_sorted_unique(u.data(), u.size());
  }

  static node* build(std::vector<entry_t> v) {
    return build(std::move(v), [](const V&, const V& nv) { return nv; });
  }

  // ---------------------------------------------- multi-insert / delete --

  // MULTIINSERT over a sorted duplicate-free update array: split the array
  // around the root key and recurse on both sides in parallel.
  // Work O(m log(n/m + 1)) like union. A leaf block absorbs its updates in
  // one array merge.
  template <typename Comb>
  static node* multi_insert_sorted(node* t, const entry_t* a, size_t n,
                                   const Comb& comb) {
    if (n == 0) return t;
    if (t == nullptr) return from_sorted_unique(a, n);
    if (is_chunk_leaf(t)) {
      auto tv = NM::read_block(t->blk);
      std::vector<entry_t> out;
      out.reserve(tv.size() + n);
      merge_runs(
          tv.data(), tv.size(), a, n, entry_key,
          [&](const entry_t& e) { out.push_back(e); },
          [&](const entry_t& e) { out.push_back(e); },
          [&](const entry_t& old, const entry_t& upd) {
            out.emplace_back(old.first, comb(old.second, upd.second));
          });
      node* r = from_sorted_unique(out.data(), out.size());
      dec(t);
      return r;
    }
    node *l, *m, *r;
    expose_own(t, l, m, r);
    size_t idx = std::lower_bound(a, a + n, m->key,
                                  [](const entry_t& e, const K& k) {
                                    return less(e.first, k);
                                  }) -
                 a;
    bool hit = idx < n && !less(m->key, a[idx].first);
    node* nl = nullptr;
    node* nr = nullptr;
    par_do_if(
        size(l) + size(r) + n >= par_cutoff(),
        [&] { nl = multi_insert_sorted(l, a, idx, comb); },
        [&] { nr = multi_insert_sorted(r, a + idx + hit, n - idx - hit, comb); });
    if (hit) m->value = comb(m->value, a[idx].second);
    return join(nl, m, nr);
  }

  // MULTIINSERT(t, updates, comb): duplicate update keys are folded
  // left-to-right first, then merged into the map; an existing entry gets
  // comb(old_in_map, folded_update).
  template <typename Comb>
  static node* multi_insert(node* t, std::vector<entry_t> updates, const Comb& comb) {
    std::vector<entry_t> u = sort_and_combine(std::move(updates), comb);
    return multi_insert_sorted(t, u.data(), u.size(), comb);
  }

  static node* multi_insert(node* t, std::vector<entry_t> updates) {
    return multi_insert(t, std::move(updates),
                        [](const V&, const V& nv) { return nv; });
  }

  static node* multi_delete_sorted(node* t, const K* keys, size_t n) {
    if (n == 0 || t == nullptr) return t;
    if (is_chunk_leaf(t)) {
      auto tv = NM::read_block(t->blk);
      std::vector<entry_t> out;
      out.reserve(tv.size());
      merge_runs(
          tv.data(), tv.size(), keys, n,
          [](const K& k) -> const K& { return k; },
          [&](const entry_t& e) { out.push_back(e); }, [](const K&) {},
          [](const entry_t&, const K&) {});  // key present in both: deleted
      node* r = TO::build_sorted_seq(out.data(), out.size());
      dec(t);
      return r;
    }
    node *l, *m, *r;
    expose_own(t, l, m, r);
    size_t idx = std::lower_bound(keys, keys + n, m->key,
                                  [](const K& a, const K& b) { return less(a, b); }) -
                 keys;
    bool hit = idx < n && !less(m->key, keys[idx]);
    node* nl = nullptr;
    node* nr = nullptr;
    par_do_if(
        size(l) + size(r) + n >= par_cutoff(),
        [&] { nl = multi_delete_sorted(l, keys, idx); },
        [&] { nr = multi_delete_sorted(r, keys + idx + hit, n - idx - hit); });
    if (hit) {
      dec(m);
      return join2(nl, nr);
    }
    return join(nl, m, nr);
  }

  static node* multi_delete(node* t, std::vector<K> keys) {
    auto self = [](const K& k) -> const K& { return k; };
    sort_by_key(keys, self);
    keys = fold_sorted_runs(std::move(keys), self, key_less, [](K&, const K&) {});
    return multi_delete_sorted(t, keys.data(), keys.size());
  }

  // ----------------------------------------------------------- mapReduce --

  // MAPREDUCE(t, g', f', id): fold g'(k, v) over all entries with the
  // associative f', in parallel over the tree structure (paper Figure 2).
  // Leaf blocks fold with a tight sequential scan.
  template <typename M, typename R, typename B>
  static B map_reduce(const node* t, const M& g2, const R& f2, const B& id) {
    if (t == nullptr) return id;
    if (t->size < par_cutoff()) {
      B lv = map_reduce(t->left, g2, f2, id);
      lv = fold_own(t, g2, f2, std::move(lv));
      B rv = map_reduce(t->right, g2, f2, id);
      return f2(lv, rv);
    }
    B lv = id;
    B rv = id;
    par_do([&] { lv = map_reduce(t->left, g2, f2, id); },
           [&] { rv = map_reduce(t->right, g2, f2, id); });
    lv = fold_own(t, g2, f2, std::move(lv));
    return f2(lv, rv);
  }

  // Batch lookup: out[i] = value at keys[i] (or nullopt), all lookups in
  // parallel. Borrows t; O(m log n) work, O(log n) span. Honors the same
  // granularity knob as the tree recursions so the ablation sweep covers it.
  static void multi_find(const node* t, const K* keys, size_t m,
                         std::optional<V>* out) {
    parallel_for(0, m, [&](size_t i) { out[i] = TO::find(t, keys[i]); },
                 par_cutoff());
  }

  // Same-shape value transform (the paper's `map`): a new tree with
  // identical keys and structure, value' = f(k, v), augmented values
  // recomputed bottom-up. Borrows t; O(n) work, O(log n) span. Chunk nodes
  // map onto fresh blocks of the same count.
  template <typename F>
  static node* map_values(const node* t, const F& f) {
    if (t == nullptr) return nullptr;
    node* l = nullptr;
    node* r = nullptr;
    par_do_if(
        t->size >= par_cutoff(), [&] { l = map_values(t->left, f); },
        [&] { r = map_values(t->right, f); });
    node* m;
    if (is_chunk(t)) {
      if constexpr (NM::flat_layout) {
        const entry_t* es = t->blk->entries();
        uint32_t c = t->blk->count;
        lblock* nb = lstore::allocate(c);
        entry_t* out = nb->entries();
        for (uint32_t i = 0; i < c; i++) {
          new (&out[i]) entry_t(es[i].first, f(es[i].first, es[i].second));
        }
        lstore::seal(nb);
        m = NM::make_chunk(nb);
      } else {
        auto bv = NM::read_block(t->blk);
        std::vector<entry_t> tmp(bv.data(), bv.data() + bv.size());
        for (entry_t& e : tmp) e.second = f(e.first, e.second);
        m = NM::make_chunk(
            lstore::build(tmp.data(), static_cast<uint32_t>(tmp.size())));
      }
    } else {
      m = make_single(t->key, f(t->key, t->value));
    }
    m->bal = t->bal;  // identical shape => identical balance metadata
    m->left = l;
    m->right = r;
    NM::update(m);
    return m;
  }

  // ----------------------------------------------------------- traversal --

  // Sequential in-order visit: f(key, value).
  template <typename F>
  static void foreach_inorder(const node* t, const F& f) {
    if (t == nullptr) return;
    foreach_inorder(t->left, f);
    if (is_chunk(t)) {
      auto bv = NM::read_block(t->blk);
      const entry_t* es = bv.data();
      for (size_t i = 0; i < bv.size(); i++) f(es[i].first, es[i].second);
    } else {
      f(t->key, t->value);
    }
    foreach_inorder(t->right, f);
  }

  // Parallel in-order projection into out[0, size(t)): out[i] = f(k_i, v_i)
  // for the i-th entry in key order. One pass, no intermediate entry array;
  // leaf blocks stream straight into the output.
  template <typename Out, typename F>
  static void project_to_array(const node* t, Out* out, const F& f) {
    if (t == nullptr) return;
    size_t ls = size(t->left);
    size_t c = cnt(t);
    par_do_if(
        t->size >= par_cutoff(), [&] { project_to_array(t->left, out, f); },
        [&] { project_to_array(t->right, out + ls + c, f); });
    if (is_chunk(t)) {
      auto bv = NM::read_block(t->blk);
      const entry_t* es = bv.data();
      for (size_t i = 0; i < c; i++) out[ls + i] = f(es[i].first, es[i].second);
    } else {
      out[ls] = f(t->key, t->value);
    }
  }

  // Parallel in-order materialization into out[0, size(t)).
  static void to_array(const node* t, entry_t* out) {
    project_to_array(t, out,
                     [](const K& k, const V& v) { return entry_t(k, v); });
  }

 private:
  // Fold t's own entries (1 for a plain node, the whole block for a chunk)
  // into acc with f2(acc, g2(k, v)).
  template <typename M, typename R, typename B>
  static B fold_own(const node* t, const M& g2, const R& f2, B acc) {
    if (is_chunk(t)) {
      auto bv = NM::read_block(t->blk);
      const entry_t* es = bv.data();
      for (size_t i = 0; i < bv.size(); i++) {
        acc = f2(acc, g2(es[i].first, es[i].second));
      }
      return acc;
    }
    return f2(acc, g2(t->key, t->value));
  }
};

}  // namespace pam
