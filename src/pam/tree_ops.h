// Sequential core algorithms on join-based trees: split, join2, insert,
// delete, search, order statistics, and range extraction. Everything here is
// expressed purely in terms of JOIN (paper §4), so it works unchanged for
// all four balancing schemes.
//
// This layer is also the seam where the blocked-leaf layouts (node.h) are
// integrated. A tree is null, a leaf block (a tagged child pointer, 1..C
// sorted entries, no children) or a node (one entry, two subtrees), where
// C = leaf_capacity() is the base block size PAM_LEAF_BLOCK times the
// codec's scale (4 for delta-coded blocks, whose fixed 72-byte node and
// header would otherwise outweigh their small payload). Every path that
// seals a block reads C: JOIN packs results of up to C entries into one
// block, builds cut sorted runs into blocks of C, and split/expose/insert/
// delete open the one block at the boundary they touch. The balance
// schemes see a block as a leaf and only ever rotate nodes.
//
// Every block, whatever its encoding, lives in one store (lstore,
// pam/coded_block.h) under the codec the Entry's key_layout selects. This
// layer never dispatches on the layout: point operations call the store's
// in-block search (zero-copy over a flat entry array, incremental decode over
// a coded stream), and multi-entry paths take a block as one sorted run from
// lstore::read and rebuild through lstore::build.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "pam/block_search.h"
#include "pam/node.h"

namespace pam {

template <typename Entry, typename Balance>
struct tree_ops : node_manager<Entry, Balance> {
  using NM = node_manager<Entry, Balance>;
  using node = typename NM::node;
  using BO = typename Balance::template ops<NM>;
  using K = typename NM::K;
  using V = typename NM::V;
  using A = typename NM::A;
  using traits = typename NM::traits;
  using entry_t = std::pair<K, V>;
  using lblock = typename NM::lblock;
  using lstore = typename NM::lstore;

  using NM::as_leaf;
  using NM::attach;
  using NM::aug_of;
  using NM::block_of;
  using NM::dec;
  using NM::inc;
  using NM::is_block;
  using NM::leaf_capacity;
  using NM::less;
  using NM::make_single;
  using NM::size;

  // First index in es[0, n) whose key is >= k (all keys before it are < k).
  // Dispatches to the branch-free counting kernel for short integral-key
  // runs (pam/block_search.h), classic binary search otherwise.
  template <typename Key>
  static size_t lower_idx(const entry_t* es, size_t n, const Key& k) {
    return block_lower_idx<Entry>(es, n, k);
  }

  // First index in es[0, n) whose key is > k.
  template <typename Key>
  static size_t upper_idx(const entry_t* es, size_t n, const Key& k) {
    return block_upper_idx<Entry>(es, n, k);
  }

  // Do a and b denote byte-identical trees by construction? Path copying
  // shares whole subtrees, and re-packs share sealed blocks, across
  // versions by pointer, so this is pointer equality. O(1); this is the
  // pruning test the structural diff (pam/diff.h) descends by, which is
  // what makes diffing two versions cost O(changes), not O(size).
  static bool shares_storage(const node* a, const node* b) { return a == b; }

  // ------------------------------------------------- leaf construction --

  // A fresh leaf block over es[0, n), 1 <= n <= leaf_capacity(), encoded
  // by the Entry's codec.
  static node* make_leaf(const entry_t* es, size_t n) {
    return as_leaf(lstore::build(es, static_cast<uint32_t>(n)));
  }

  // Sequential balanced build from sorted unique entries. With blocking on,
  // leaves are blocks and the left recursion takes whole blocks so most
  // blocks come out full (the space experiments depend on this density).
  static node* build_sorted_seq(const entry_t* es, size_t n) {
    if (n == 0) return nullptr;
    size_t C = leaf_capacity();
    if (C >= 1 && n <= C) return make_leaf(es, n);
    size_t mid = build_pivot(n, C);
    node* m = make_single(es[mid].first, es[mid].second);
    node* l = build_sorted_seq(es, mid);
    node* r = build_sorted_seq(es + mid + 1, n - mid - 1);
    return join(l, m, r);
  }

  // Pivot index for balanced construction: plain halving unblocked; with
  // blocks of capacity C, the left side gets a whole number of full blocks.
  static size_t build_pivot(size_t n, size_t C) {
    if (C < 1) return n / 2;
    size_t nb = (n + C - 1) / C;
    size_t mid = (nb / 2) * C;
    if (mid == 0 || mid >= n) mid = n / 2;
    return mid;
  }

  // JOIN(l, m, r): the single balancing primitive everything is built from.
  // Consumes all three owned references; max(l) < m->key < min(r); m is a
  // singleton. Results of at most leaf_capacity() entries are packed into
  // one leaf block — this is where blocks are (re)formed.
  static node* join(node* l, node* m, node* r) {
    size_t C = leaf_capacity();
    if (C >= 1) {
      size_t total = size(l) + 1 + size(r);
      if (total <= C) return pack_leaf(l, m, r);
    }
    return BO::node_join(l, m, r);
  }

  // Flatten l ++ m ++ r (all owned, m singleton) into one leaf block.
  static node* pack_leaf(node* l, node* m, node* r) {
    std::vector<entry_t> tmp;
    tmp.reserve(size(l) + 1 + size(r));
    NM::collect_entries(l, tmp);
    tmp.emplace_back(m->key, m->value);
    NM::collect_entries(r, tmp);
    dec(l);
    dec(m);
    dec(r);
    return make_leaf(tmp.data(), tmp.size());
  }

  // Decompose an owned non-empty tree into (left, singleton middle, right).
  // A block is opened around its middle entry into two smaller blocks.
  // Generic algorithms (union, filter, ...) rely on this to stay oblivious
  // of the leaf layout.
  static void expose_own(node* t, node*& l, node*& m, node*& r) {
    if (!is_block(t)) {
      NM::expose_own(t, l, m, r);
      return;
    }
    auto run = lstore::read(block_of(t));
    const entry_t* es = run.data();
    size_t c = run.size();
    size_t j = c / 2;
    m = make_single(es[j].first, es[j].second);
    l = build_sorted_seq(es, j);
    r = build_sorted_seq(es + j + 1, c - j - 1);
    dec(t);  // after the copies: a flat run points into t's block
  }

  // ------------------------------------------------------ split / join2 --

  struct split_t {
    node* left = nullptr;
    node* mid = nullptr;  // singleton node holding k's entry, or null
    node* right = nullptr;
  };

  // SPLIT(t, k): partition into keys < k, the entry at k (if present, as an
  // owned singleton), and keys > k. Consumes t. O(log n + B).
  static split_t split(node* t, const K& k) {
    if (t == nullptr) return {};
    if (is_block(t)) return split_block(t, k);
    node *l, *m, *r;
    NM::expose_own(t, l, m, r);
    if (less(k, m->key)) {
      split_t s = split(l, k);
      s.right = join(s.right, m, r);
      return s;
    }
    if (less(m->key, k)) {
      split_t s = split(r, k);
      s.left = join(l, m, s.left);
      return s;
    }
    return {l, m, r};
  }

  // A block that k does not cut goes to one side whole, shared.
  static split_t split_block(node* t, const K& k) {
    const lblock* b = block_of(t);
    bool hit = false;
    size_t pos = lstore::lower_idx(b, k, &hit);
    if (pos == 0 && !hit) return {nullptr, nullptr, t};
    if (pos == b->count) return {t, nullptr, nullptr};
    auto run = lstore::read(b);
    const entry_t* es = run.data();
    size_t c = run.size();
    split_t s;
    s.left = build_sorted_seq(es, pos);
    if (hit) {
      s.mid = make_single(es[pos].first, es[pos].second);
      pos++;
    }
    s.right = build_sorted_seq(es + pos, c - pos);
    dec(t);
    return s;
  }

  // Remove and return the last (maximum) entry: (rest, last-as-singleton).
  static std::pair<node*, node*> split_last(node* t) {
    if (is_block(t)) {
      auto run = lstore::read(block_of(t));
      const entry_t* es = run.data();
      size_t c = run.size();
      node* last = make_single(es[c - 1].first, es[c - 1].second);
      node* rest = build_sorted_seq(es, c - 1);
      dec(t);
      return {rest, last};
    }
    node *l, *m, *r;
    NM::expose_own(t, l, m, r);
    if (r == nullptr) return {l, m};
    auto [rest, last] = split_last(r);
    return {join(l, m, rest), last};
  }

  // JOIN2(l, r): concatenation without a middle entry; max(l) < min(r).
  static node* join2(node* l, node* r) {
    if (l == nullptr) return r;
    if (r == nullptr) return l;
    auto [rest, last] = split_last(l);
    return join(rest, last, r);
  }

  // --------------------------------------------------- insert / delete --

  // INSERT with a combine function: if k is already present the stored
  // value becomes comb(old, v). Consumes t. O(log n + B).
  template <typename Comb>
  static node* insert(node* t, const K& k, const V& v, const Comb& comb) {
    if (t == nullptr) {
      if (leaf_capacity() >= 1) {
        entry_t e(k, v);
        return make_leaf(&e, 1);
      }
      return make_single(k, v);
    }
    if (is_block(t)) return block_insert(t, k, v, comb);
    node *l, *m, *r;
    NM::expose_own(t, l, m, r);
    if (less(k, m->key)) return join(insert(l, k, v, comb), m, r);
    if (less(m->key, k)) return join(l, m, insert(r, k, v, comb));
    m->value = comb(m->value, v);
    return join(l, m, r);
  }

  // Plain insert: a later value replaces an earlier one.
  static node* insert(node* t, const K& k, const V& v) {
    return insert(t, k, v, [](const V&, const V& nv) { return nv; });
  }

  // Re-form a block's edited run of n entries: one block when it fits,
  // else an even split around the middle entry into two blocks — the shape
  // weight-balanced rebuild gives an overflowing block, built once.
  static node* rebuild_block(const entry_t* es, size_t n) {
    size_t C = leaf_capacity();
    if (C == 0 || n <= C) return build_sorted_seq(es, n);
    size_t mid = n / 2;
    return join(build_sorted_seq(es, mid), make_single(es[mid].first, es[mid].second),
                build_sorted_seq(es + mid + 1, n - mid - 1));
  }

  template <typename Comb>
  static node* block_insert(node* t, const K& k, const V& v, const Comb& comb) {
    auto run = lstore::read(block_of(t));
    const entry_t* es = run.data();
    size_t c = run.size();
    size_t pos = lower_idx(es, c, k);
    bool hit = pos < c && !less(k, es[pos].first);
    std::vector<entry_t> tmp;
    tmp.reserve(hit ? c : c + 1);
    tmp.insert(tmp.end(), es, es + pos);
    tmp.emplace_back(k, hit ? comb(es[pos].second, v) : v);
    tmp.insert(tmp.end(), es + pos + (hit ? 1 : 0), es + c);
    node* nn = rebuild_block(tmp.data(), tmp.size());
    dec(t);
    return nn;
  }

  static node* remove(node* t, const K& k) {
    if (t == nullptr) return nullptr;
    if (is_block(t)) return block_remove(t, k);
    node *l, *m, *r;
    NM::expose_own(t, l, m, r);
    if (less(k, m->key)) return join(remove(l, k), m, r);
    if (less(m->key, k)) return join(l, m, remove(r, k));
    dec(m);
    return join2(l, r);
  }

  static node* block_remove(node* t, const K& k) {
    const lblock* b = block_of(t);
    bool hit = false;
    size_t pos = lstore::lower_idx(b, k, &hit);
    if (!hit) return t;  // absent: unchanged
    auto run = lstore::read(b);
    const entry_t* es = run.data();
    size_t c = run.size();
    std::vector<entry_t> tmp;
    tmp.reserve(c - 1);
    tmp.insert(tmp.end(), es, es + pos);
    tmp.insert(tmp.end(), es + pos + 1, es + c);
    node* nn = rebuild_block(tmp.data(), tmp.size());
    dec(t);
    return nn;
  }

  // ------------------------------------------------------------ search --

  // Point lookup. Key is heterogeneous: string-keyed maps accept anything
  // comparable through Entry::comp (string_view, const char*) without
  // materializing a std::string.
  template <typename Key>
  static std::optional<V> find(const node* t, const Key& k) {
    while (t != nullptr) {
      if (is_block(t)) {
        const lblock* b = block_of(t);
        bool eq = false;
        uint32_t pos = lstore::lower_idx(b, k, &eq);
        if (eq) return lstore::value_at(b, pos);
        return std::nullopt;
      }
      if (less(k, t->key)) {
        t = t->left;
      } else if (less(t->key, k)) {
        t = t->right;
      } else {
        return t->value;
      }
    }
    return std::nullopt;
  }

  template <typename Key>
  static bool contains(const node* t, const Key& k) { return find(t, k).has_value(); }

  static std::optional<entry_t> first_entry(const node* t) {
    if (t == nullptr) return std::nullopt;
    while (!is_block(t) && t->left != nullptr) t = t->left;
    if (is_block(t)) return lstore::entry_at(block_of(t), 0);
    return entry_t(t->key, t->value);
  }

  static std::optional<entry_t> last_entry(const node* t) {
    if (t == nullptr) return std::nullopt;
    while (!is_block(t) && t->right != nullptr) t = t->right;
    if (is_block(t)) return lstore::entry_at(block_of(t), block_of(t)->count - 1u);
    return entry_t(t->key, t->value);
  }

  // Greatest entry with key < k (the paper's `previous`).
  static std::optional<entry_t> previous_entry(const node* t, const K& k) {
    std::optional<entry_t> best;
    while (t != nullptr) {
      if (is_block(t)) {
        const lblock* b = block_of(t);
        uint32_t pos = lstore::lower_idx(b, k, nullptr);  // entries [0, pos) are < k
        if (pos > 0) best = lstore::entry_at(b, pos - 1);
        return best;
      }
      if (less(t->key, k)) {
        best = entry_t(t->key, t->value);
        t = t->right;
      } else {
        t = t->left;
      }
    }
    return best;
  }

  // Least entry with key > k (the paper's `next`).
  static std::optional<entry_t> next_entry(const node* t, const K& k) {
    std::optional<entry_t> best;
    while (t != nullptr) {
      if (is_block(t)) {
        const lblock* b = block_of(t);
        uint32_t pos = lstore::upper_idx(b, k);  // entries [pos, count) are > k
        if (pos < b->count) best = lstore::entry_at(b, pos);
        return best;
      }
      if (less(k, t->key)) {
        best = entry_t(t->key, t->value);
        t = t->left;
      } else {
        t = t->right;
      }
    }
    return best;
  }

  // ---------------------------------------------------- order statistics --

  // Number of entries with key < k.
  static size_t rank(const node* t, const K& k) {
    size_t acc = 0;
    while (t != nullptr) {
      if (is_block(t)) return acc + lstore::lower_idx(block_of(t), k, nullptr);
      if (less(t->key, k)) {
        acc += size(t->left) + 1;
        t = t->right;
      } else {
        t = t->left;
      }
    }
    return acc;
  }

  // Number of entries with key <= k (one descent).
  static size_t rank_leq(const node* t, const K& k) {
    size_t acc = 0;
    while (t != nullptr) {
      if (is_block(t)) return acc + lstore::upper_idx(block_of(t), k);
      if (!less(k, t->key)) {
        acc += size(t->left) + 1;
        t = t->right;
      } else {
        t = t->left;
      }
    }
    return acc;
  }

  // Number of entries with lo <= key <= hi (null = unbounded): two rank
  // descents. Shared by aug_map::count_range and range_view::size.
  static size_t count_in_range(const node* t, const K* lo, const K* hi) {
    if (t == nullptr) return 0;
    size_t upto_hi = hi != nullptr ? rank_leq(t, *hi) : size(t);
    size_t below_lo = lo != nullptr ? rank(t, *lo) : 0;
    return upto_hi > below_lo ? upto_hi - below_lo : 0;
  }

  // The i-th entry in key order (0-based); nullopt if i >= size.
  static std::optional<entry_t> select(const node* t, size_t i) {
    if (i >= size(t)) return std::nullopt;
    while (!is_block(t)) {
      size_t ls = size(t->left);
      if (i == ls) return entry_t(t->key, t->value);
      if (i < ls) {
        t = t->left;
      } else {
        i -= ls + 1;
        t = t->right;
      }
    }
    return lstore::entry_at(block_of(t), static_cast<uint32_t>(i));
  }

  // --------------------------------------------------- range extraction --

  // All entries with key <= k (the paper's upTo). Borrows t, returns an
  // owned tree that shares whole subtrees with t — O(log n) new nodes plus
  // at most one re-packed boundary block.
  static node* take_leq(const node* t, const K& k) {
    if (t == nullptr) return nullptr;
    if (is_block(t)) {
      size_t pos = lstore::upper_idx(block_of(t), k);  // entries [0, pos) are <= k
      return block_slice(t, 0, pos);
    }
    if (less(k, t->key)) return take_leq(t->left, k);
    return join(inc(t->left), make_single(t->key, t->value), take_leq(t->right, k));
  }

  // All entries with key >= k (the paper's downTo).
  static node* take_geq(const node* t, const K& k) {
    if (t == nullptr) return nullptr;
    if (is_block(t)) {
      const lblock* b = block_of(t);
      size_t pos = lstore::lower_idx(b, k, nullptr);  // entries [pos, count) are >= k
      return block_slice(t, pos, b->count);
    }
    if (less(t->key, k)) return take_geq(t->right, k);
    return join(take_geq(t->left, k), make_single(t->key, t->value), inc(t->right));
  }

  // All entries with lo <= key <= hi. Borrows t.
  static node* range_copy(const node* t, const K& lo, const K& hi) {
    if (t == nullptr) return nullptr;
    if (is_block(t)) {
      const lblock* b = block_of(t);
      size_t i = lstore::lower_idx(b, lo, nullptr);
      size_t j = lstore::upper_idx(b, hi);
      return block_slice(t, i, j);  // lo > hi gives j <= i: empty
    }
    if (less(t->key, lo)) return range_copy(t->right, lo, hi);
    if (less(hi, t->key)) return range_copy(t->left, lo, hi);
    return join(take_geq(t->left, lo), make_single(t->key, t->value),
                take_leq(t->right, hi));
  }

  // Entries [i, j) of block t (borrowed) as an owned tree: the block itself,
  // shared, when the slice covers it.
  static node* block_slice(const node* t, size_t i, size_t j) {
    if (j <= i) return nullptr;
    if (i == 0 && j == block_of(t)->count) return inc(const_cast<node*>(t));
    auto run = lstore::read(block_of(t));
    return build_sorted_seq(run.data() + i, j - i);
  }

  // ---------------------------------------------------------- relocation --

  // The relocating compaction's kernel (alloc/arena.h, block_pool::trim_all):
  // a tree with t's keys, values, aug values and shape in which every node
  // and block that moved(slot) names, and that t alone reaches, is a copy
  // in a fresh slot. t is borrowed and the caller vouches that it owns t;
  // below it, a node or block is t's alone while its count is 1 on a path
  // of such. Shared subtrees are never entered, so storage another version
  // holds is never copied; everything not moved is shared with t. Returns
  // an owned reference; O(owned part) work. Sequential on purpose: forked
  // tasks each carve a partly used chunk per pool and byte class, which
  // the trim then cannot release (bench_table4_space's compaction_churn
  // read reserved/used 1.21-1.23 forked against 1.06 sequential, for a
  // trim about 1.6x faster).
  template <typename Moved>
  static node* relocate(node* t, const Moved& moved) {
    node* c = relocated(t, moved);
    return c == t ? inc(t) : c;
  }

  // relocate's recursion: t itself, borrowed, when nothing at or below it
  // moves, else an owned copy of t over the moved children.
  template <typename Moved>
  static node* relocated(node* t, const Moved& moved) {
    if (t == nullptr) return t;
    if (is_block(t)) return moved(block_of(t)) ? as_leaf(lstore::copy(block_of(t))) : t;
    node* l = t->left;
    node* r = t->right;
    auto sole = [](node* c) { return c != nullptr && NM::ref_count(c) == 1; };
    if (sole(l)) l = relocated(l, moved);
    if (sole(r)) r = relocated(r, moved);
    if (!moved(t) && l == t->left && r == t->right) return t;
    node* c = NM::copy_node(t);  // shares both children, for now
    if (l != t->left) {
      dec(c->left);
      c->left = l;
    }
    if (r != t->right) {
      dec(c->right);
      c->right = r;
    }
    return c;
  }

  // ---------------------------------------------------------- validation --

  // Full structural validation: size fields, key ordering, block integrity,
  // cached augmented values (when A is equality-comparable), the balance
  // scheme's invariant (blocks are leaves to every scheme; the
  // weight-balanced test covers its block-free subtrees), and the depth
  // bound. Blocks sit at leaf positions by construction: a tagged child
  // pointer has no children to follow.
  static bool check_valid(const node* t) {
    if (!check_blocks(t)) return false;
    if (!check_sizes(t)) return false;
    std::optional<K> prev;
    if (!check_order(t, prev)) return false;
    if constexpr (traits::has_aug && requires(const A& a, const A& b) {
                    { a == b } -> std::convertible_to<bool>;
                  }) {
      if (!check_aug(t)) return false;
    }
    return BO::check(t) && check_depth(t);
  }

  // Shape of a tree: node and block counts, and its depth counted in nodes
  // (a block adds nothing to the depth of the path that ends at it).
  struct shape_t {
    size_t nodes = 0;
    size_t blocks = 0;
    size_t depth = 0;
  };

  static shape_t shape(const node* t) {
    shape_t s;
    if (t == nullptr) return s;
    if (is_block(t)) {
      s.blocks = 1;
      return s;
    }
    shape_t l = shape(t->left), r = shape(t->right);
    s.nodes = l.nodes + r.nodes + 1;
    s.blocks = l.blocks + r.blocks;
    s.depth = 1 + std::max(l.depth, r.depth);
    return s;
  }

  // The depth a scheme keeps over a tree's leaf positions: its stated
  // factor times log2(nodes + 1), plus two levels of slack. Every block
  // takes one of the nodes + 1 leaf positions, so in a blocked tree this is
  // a bound over the block count (nodes and blocks are about equal there).
  static size_t depth_bound(const shape_t& s) {
    double leaves = static_cast<double>(s.nodes + 1);
    return static_cast<size_t>(Balance::depth_factor * std::log2(leaves)) + 2;
  }

  static bool check_depth(const node* t) {
    shape_t s = shape(t);
    return s.depth <= depth_bound(s);
  }

 private:
  static bool check_blocks(const node* t) {
    if (t == nullptr) return true;
    if (is_block(t)) {
      const lblock* b = block_of(t);
      return b->ref_cnt.load(std::memory_order_relaxed) != 0 && b->count != 0;
    }
    return check_blocks(t->left) && check_blocks(t->right);
  }

  static bool check_sizes(const node* t) {
    if (!NM::is_node(t)) return true;
    if (t->size != 1 + size(t->left) + size(t->right)) return false;
    return check_sizes(t->left) && check_sizes(t->right);
  }

  // prev is an owning copy, not a pointer: for coded blocks the decoded run
  // dies at scope exit, so a pointer into it would dangle.
  static bool check_order(const node* t, std::optional<K>& prev) {
    if (t == nullptr) return true;
    if (is_block(t)) {
      auto run = lstore::read(block_of(t));
      const entry_t* es = run.data();
      for (size_t i = 0; i < run.size(); i++) {
        if (prev.has_value() && !less(*prev, es[i].first)) return false;
        prev = es[i].first;
      }
      return true;
    }
    if (!check_order(t->left, prev)) return false;
    if (prev.has_value() && !less(*prev, t->key)) return false;
    prev = t->key;
    return check_order(t->right, prev);
  }

  static bool check_aug(const node* t) {
    if (t == nullptr) return true;
    if (is_block(t)) {
      auto run = lstore::read(block_of(t));
      // The same grouped fold the store's build uses, so the cached value
      // compares equal bit for bit, floats included.
      return block_of(t)->aug == fold_entries_assoc<traits>(run.data(), 0, run.size());
    }
    A expect = traits::combine(aug_of(t->left),
                               traits::combine(traits::base(t->key, t->value),
                                               aug_of(t->right)));
    if (!(t->aug == expect)) return false;
    return check_aug(t->left) && check_aug(t->right);
  }
};

}  // namespace pam
