// Sequential core algorithms on join-based trees: split, join2, insert,
// delete, search, order statistics, and range extraction. Everything here is
// expressed purely in terms of JOIN (paper §4), so it works unchanged for
// all four balancing schemes.
//
// This layer is also the seam where the blocked-leaf layouts (node.h) are
// integrated: JOIN re-packs results of up to leaf_block_size() entries into
// one chunk, and split/expose/insert/delete materialize chunk contents
// back into trees at the boundary they touch. The balance schemes above
// never see a block: a chunk node is an ordinary node to them. Every
// algorithm below treats a node as "1..B sorted entries plus two subtrees",
// which is exactly the generalized invariant chunk nodes satisfy.
//
// Two block encodings live behind this seam (selected per Entry policy by
// the key_layout trait): flat fixed-width arrays, read zero-copy and point-
// searched by the branch-free kernels of pam/block_search.h, and coded
// blocks (pam/coded_block.h: front-coded strings, delta-coded integers),
// point-searched by incremental decode and materialized through
// NM::read_block on the multi-entry paths. The
// blk_* helpers below are the only places that dispatch on the layout;
// everything else works on materialized entry runs.
#pragma once

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

  using NM::attach;
  using NM::aug_of;
  using NM::cnt;
  using NM::dec;
  using NM::inc;
  using NM::is_chunk;
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

  // ------------------------------------------- layout-dispatched block ops --
  // The only functions below tree_ops that look inside a sealed block. Flat
  // blocks answer zero-copy; coded blocks (front- or delta-coded) search by
  // incremental decode (coded_store) without materializing more than a
  // scratch key, comparing against the codec's key_arg.

  // First slot with key >= k; *eq (optional) reports an exact hit.
  template <typename Key>
  static size_t blk_lower(const lblock* b, const Key& k, bool* eq) {
    if constexpr (NM::flat_layout) {
      size_t pos = block_lower_idx<Entry>(b->entries(), b->count, k);
      if (eq != nullptr) {
        *eq = pos < b->count && !less(k, b->entries()[pos].first);
      }
      return pos;
    } else {
      return lstore::lower_idx(b, k, eq);
    }
  }

  // First slot with key > k.
  template <typename Key>
  static size_t blk_upper(const lblock* b, const Key& k) {
    if constexpr (NM::flat_layout) {
      return block_upper_idx<Entry>(b->entries(), b->count, k);
    } else {
      return lstore::upper_idx(b, k);
    }
  }

  static V blk_value(const lblock* b, size_t i) {
    if constexpr (NM::flat_layout) {
      return b->entries()[i].second;
    } else {
      return lstore::value_at(b, static_cast<uint32_t>(i));
    }
  }

  // Slot i as a materialized entry (coded blocks decode the prefix chain).
  static entry_t blk_entry(const lblock* b, size_t i) {
    if constexpr (NM::flat_layout) {
      return b->entries()[i];
    } else {
      return lstore::entry_at(b, static_cast<uint32_t>(i));
    }
  }

  // Is t a leaf chunk (block with no subtrees) — the fast-path shape?
  static bool is_chunk_leaf(const node* t) {
    return is_chunk(t) && t->left == nullptr && t->right == nullptr;
  }

  // Do a and b denote byte-identical trees by construction? True for the
  // same node (path copying shares whole subtrees across versions by
  // pointer) and for two leaf chunks over one sealed block (re-packs share
  // blocks even when the wrapping nodes differ). O(1); this is the pruning
  // test the structural diff (pam/diff.h) descends by, which is what makes
  // diffing two versions cost O(changes), not O(size).
  static bool shares_storage(const node* a, const node* b) {
    if (a == b) return true;
    if (a == nullptr || b == nullptr) return false;
    return a->blk != nullptr && a->blk == b->blk && is_chunk_leaf(a) &&
           is_chunk_leaf(b);
  }

  // --------------------------------------------------- chunk construction --

  // In-order copy of every entry under t (borrowed) into out via placement
  // new, advancing i. Used to fill freshly allocated flat leaf blocks (the
  // coded layout collects into a vector instead; see collect_entries).
  static void write_entries(const node* t, entry_t* out, size_t& i) {
    if (t == nullptr) return;
    write_entries(t->left, out, i);
    if (is_chunk(t)) {
      const entry_t* es = t->blk->entries();
      for (uint32_t j = 0; j < t->blk->count; j++) new (&out[i++]) entry_t(es[j]);
    } else {
      new (&out[i++]) entry_t(t->key, t->value);
    }
    write_entries(t->right, out, i);
  }

  // In-order append of every entry under t (borrowed) onto out; the
  // layout-generic sibling of write_entries.
  static void collect_entries(const node* t, std::vector<entry_t>& out) {
    if (t == nullptr) return;
    collect_entries(t->left, out);
    if (is_chunk(t)) {
      auto bv = NM::read_block(t->blk);
      const entry_t* es = bv.data();
      for (size_t j = 0; j < bv.size(); j++) out.push_back(es[j]);
    } else {
      out.emplace_back(t->key, t->value);
    }
    collect_entries(t->right, out);
  }

  // A fresh leaf-chunk node over es[0, n), 1 <= n <= kMaxLeafBlock. The
  // store's build() encodes per the Entry's layout (flat copy / front-coded).
  static node* make_chunk_leaf(const entry_t* es, size_t n) {
    return NM::make_chunk(lstore::build(es, static_cast<uint32_t>(n)));
  }

  // Sequential balanced build from sorted unique entries. With blocking on,
  // leaves are chunks and the left recursion takes whole blocks so most
  // blocks come out full (the space experiments depend on this density).
  static node* build_sorted_seq(const entry_t* es, size_t n) {
    if (n == 0) return nullptr;
    size_t B = leaf_block_size();
    if (B >= 1 && n <= B) return make_chunk_leaf(es, n);
    size_t mid = build_pivot(n, B);
    node* m = make_single(es[mid].first, es[mid].second);
    node* l = build_sorted_seq(es, mid);
    node* r = build_sorted_seq(es + mid + 1, n - mid - 1);
    return join(l, m, r);
  }

  // Pivot index for balanced construction: plain halving unblocked; with
  // blocking, the left side gets a whole number of full blocks.
  static size_t build_pivot(size_t n, size_t B) {
    if (B < 1) return n / 2;
    size_t nb = (n + B - 1) / B;
    size_t mid = (nb / 2) * B;
    if (mid == 0 || mid >= n) mid = n / 2;
    return mid;
  }

  // Reassemble l ++ es[a, b) ++ r into one owned tree (consumes l and r,
  // borrows es). The workhorse of every "open up a chunk" path.
  static node* rebuild(node* l, const entry_t* es, size_t a, size_t b, node* r) {
    node* mid = b > a ? build_sorted_seq(es + a, b - a) : nullptr;
    return join2(join2(l, mid), r);
  }

  // An O(1) leaf node sharing t's (sealed, immutable) block — used when a
  // range bound covers the whole block, so extraction shares storage with
  // the source exactly like copy_node does.
  static node* share_block(const node* t) {
    return NM::make_chunk(lstore::retain(t->blk));
  }

  // JOIN(l, m, r): the single balancing primitive everything is built from.
  // Consumes all three owned references; max(l) < m->key < min(r); m is a
  // singleton. Results of at most leaf_block_size() entries are re-packed
  // into one flat chunk — this is where blocks are (re)formed.
  static node* join(node* l, node* m, node* r) {
    size_t B = leaf_block_size();
    if (B >= 1) {
      size_t total = size(l) + 1 + size(r);
      if (total <= B) return pack_chunk(l, m, r);
    }
    return BO::node_join(l, m, r);
  }

  // Flatten l ++ m ++ r (all owned, m singleton) into one leaf chunk. Flat
  // blocks are filled in place; coded blocks encode from a collected run.
  static node* pack_chunk(node* l, node* m, node* r) {
    uint32_t total = static_cast<uint32_t>(size(l) + 1 + size(r));
    node* c;
    if constexpr (NM::flat_layout) {
      lblock* b = lstore::allocate(total);
      entry_t* out = b->entries();
      size_t i = 0;
      write_entries(l, out, i);
      new (&out[i++]) entry_t(m->key, m->value);
      write_entries(r, out, i);
      lstore::seal(b);
      c = NM::make_chunk(b);
    } else {
      std::vector<entry_t> tmp;
      tmp.reserve(total);
      collect_entries(l, tmp);
      tmp.emplace_back(m->key, m->value);
      collect_entries(r, tmp);
      c = NM::make_chunk(lstore::build(tmp.data(), total));
    }
    dec(l);
    dec(m);
    dec(r);
    return c;
  }

  // Decompose an owned tree into (left, singleton middle, right). For chunk
  // nodes the block is opened around its middle entry; the halves re-pack
  // into smaller blocks via join. Generic algorithms (union, filter, ...)
  // rely on this to stay oblivious of the leaf layout.
  static void expose_own(node* t, node*& l, node*& m, node*& r) {
    if (!is_chunk(t)) {
      NM::expose_own(t, l, m, r);
      return;
    }
    auto bv = NM::read_block(t->blk);
    const entry_t* es = bv.data();
    size_t c = bv.size();
    size_t j = c / 2;
    node* cl = inc(t->left);
    node* cr = inc(t->right);
    m = make_single(es[j].first, es[j].second);
    l = rebuild(cl, es, 0, j, nullptr);
    r = rebuild(nullptr, es, j + 1, c, cr);
    dec(t);  // after the copies: a flat view's es points into t's block
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
    if (is_chunk(t)) return split_chunk(t, k);
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

  static split_t split_chunk(node* t, const K& k) {
    auto bv = NM::read_block(t->blk);
    const entry_t* es = bv.data();
    size_t c = bv.size();
    node* cl = inc(t->left);
    node* cr = inc(t->right);
    split_t s;
    if (less(k, es[0].first)) {
      split_t sub = split(cl, k);
      s.left = sub.left;
      s.mid = sub.mid;
      s.right = rebuild(sub.right, es, 0, c, cr);
    } else if (less(es[c - 1].first, k)) {
      split_t sub = split(cr, k);
      s.right = sub.right;
      s.mid = sub.mid;
      s.left = rebuild(cl, es, 0, c, sub.left);
    } else {
      size_t pos = lower_idx(es, c, k);
      bool hit = pos < c && !less(k, es[pos].first);
      s.left = rebuild(cl, es, 0, pos, nullptr);
      if (hit) {
        s.mid = make_single(es[pos].first, es[pos].second);
        s.right = rebuild(nullptr, es, pos + 1, c, cr);
      } else {
        s.right = rebuild(nullptr, es, pos, c, cr);
      }
    }
    dec(t);
    return s;
  }

  // Remove and return the last (maximum) entry: (rest, last-as-singleton).
  static std::pair<node*, node*> split_last(node* t) {
    if (is_chunk(t)) {
      auto bv = NM::read_block(t->blk);
      const entry_t* es = bv.data();
      size_t c = bv.size();
      node* cl = inc(t->left);
      node* cr = inc(t->right);
      if (cr != nullptr) {
        auto [rest, last] = split_last(cr);
        node* whole = rebuild(cl, es, 0, c, rest);
        dec(t);
        return {whole, last};
      }
      node* last = make_single(es[c - 1].first, es[c - 1].second);
      node* rest = rebuild(cl, es, 0, c - 1, nullptr);
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
      if (leaf_block_size() >= 1) {
        entry_t e(k, v);
        return make_chunk_leaf(&e, 1);
      }
      return make_single(k, v);
    }
    if (is_chunk_leaf(t)) return chunk_leaf_insert(t, k, v, comb);
    node *l, *m, *r;
    expose_own(t, l, m, r);
    if (less(k, m->key)) return join(insert(l, k, v, comb), m, r);
    if (less(m->key, k)) return join(l, m, insert(r, k, v, comb));
    m->value = comb(m->value, v);
    return join(l, m, r);
  }

  // Plain insert: a later value replaces an earlier one.
  static node* insert(node* t, const K& k, const V& v) {
    return insert(t, k, v, [](const V&, const V& nv) { return nv; });
  }

  template <typename Comb>
  static node* chunk_leaf_insert(node* t, const K& k, const V& v, const Comb& comb) {
    auto bv = NM::read_block(t->blk);
    const entry_t* es = bv.data();
    size_t c = bv.size();
    size_t pos = lower_idx(es, c, k);
    bool hit = pos < c && !less(k, es[pos].first);
    size_t nc = hit ? c : c + 1;
    size_t B = leaf_block_size();
    if constexpr (NM::flat_layout) {
      if (B >= 1 && nc <= B) {
        // Block-at-a-time rebuild: one new block, no tree surgery.
        lblock* nb = lstore::allocate(static_cast<uint32_t>(nc));
        entry_t* out = nb->entries();
        size_t i = 0;
        for (; i < pos; i++) new (&out[i]) entry_t(es[i]);
        if (hit) {
          new (&out[i++]) entry_t(k, comb(es[pos].second, v));
        } else {
          new (&out[i++]) entry_t(k, v);
        }
        for (size_t j = pos + (hit ? 1 : 0); j < c; j++) new (&out[i++]) entry_t(es[j]);
        lstore::seal(nb);
        node* nn = NM::make_chunk(nb);
        dec(t);
        return nn;
      }
    }
    // Coded blocks, overflow, or blocking now disabled: materialize and
    // rebuild — build_sorted_seq re-encodes one block when nc <= B and
    // splits into correctly sized blocks (or plain nodes) otherwise.
    std::vector<entry_t> tmp;
    tmp.reserve(nc);
    for (size_t i = 0; i < pos; i++) tmp.push_back(es[i]);
    if (hit) {
      tmp.emplace_back(k, comb(es[pos].second, v));
    } else {
      tmp.emplace_back(k, v);
    }
    for (size_t j = pos + (hit ? 1 : 0); j < c; j++) tmp.push_back(es[j]);
    node* nn = build_sorted_seq(tmp.data(), tmp.size());
    dec(t);
    return nn;
  }

  static node* remove(node* t, const K& k) {
    if (t == nullptr) return nullptr;
    if (is_chunk_leaf(t)) {
      auto bv = NM::read_block(t->blk);
      const entry_t* es = bv.data();
      size_t c = bv.size();
      size_t pos = lower_idx(es, c, k);
      if (pos == c || less(k, es[pos].first)) return t;  // absent: unchanged
      if (c == 1) {
        dec(t);
        return nullptr;
      }
      size_t B = leaf_block_size();
      node* nn = nullptr;
      bool direct = false;
      if constexpr (NM::flat_layout) {
        if (B >= 1 && c - 1 <= B) {
          lblock* nb = lstore::allocate(static_cast<uint32_t>(c - 1));
          entry_t* out = nb->entries();
          size_t i = 0;
          for (size_t j = 0; j < c; j++) {
            if (j != pos) new (&out[i++]) entry_t(es[j]);
          }
          lstore::seal(nb);
          nn = NM::make_chunk(nb);
          direct = true;
        }
      }
      if (!direct) {
        std::vector<entry_t> tmp;
        tmp.reserve(c - 1);
        for (size_t j = 0; j < c; j++) {
          if (j != pos) tmp.push_back(es[j]);
        }
        nn = build_sorted_seq(tmp.data(), tmp.size());
      }
      dec(t);
      return nn;
    }
    node *l, *m, *r;
    expose_own(t, l, m, r);
    if (less(k, m->key)) return join(remove(l, k), m, r);
    if (less(m->key, k)) return join(l, m, remove(r, k));
    dec(m);
    return join2(l, r);
  }

  // ------------------------------------------------------------ search --

  // Point lookup. Key is heterogeneous: string-keyed maps accept anything
  // comparable through Entry::comp (string_view, const char*) without
  // materializing a std::string.
  template <typename Key>
  static std::optional<V> find(const node* t, const Key& k) {
    while (t != nullptr) {
      if (is_chunk(t)) {
        const lblock* b = t->blk;
        bool eq = false;
        size_t pos = blk_lower(b, k, &eq);
        if (eq) return blk_value(b, pos);
        if (pos == 0) {
          t = t->left;
          continue;
        }
        if (pos == b->count) {
          t = t->right;
          continue;
        }
        return std::nullopt;  // k falls strictly between two block entries
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
    while (t->left != nullptr) t = t->left;
    if (is_chunk(t)) return blk_entry(t->blk, 0);
    return entry_t(t->key, t->value);
  }

  static std::optional<entry_t> last_entry(const node* t) {
    if (t == nullptr) return std::nullopt;
    while (t->right != nullptr) t = t->right;
    if (is_chunk(t)) return blk_entry(t->blk, t->blk->count - 1);
    return entry_t(t->key, t->value);
  }

  // Greatest entry with key < k (the paper's `previous`).
  static std::optional<entry_t> previous_entry(const node* t, const K& k) {
    std::optional<entry_t> best;
    while (t != nullptr) {
      if (is_chunk(t)) {
        const lblock* b = t->blk;
        size_t c = b->count;
        size_t pos = blk_lower(b, k, nullptr);  // entries [0, pos) are < k
        if (pos == 0) {
          t = t->left;
          continue;
        }
        best = blk_entry(b, pos - 1);
        if (pos < c) return best;  // everything further right is >= k
        t = t->right;
        continue;
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
      if (is_chunk(t)) {
        const lblock* b = t->blk;
        size_t c = b->count;
        size_t pos = blk_upper(b, k);  // entries [pos, c) are > k
        if (pos == c) {
          t = t->right;
          continue;
        }
        best = blk_entry(b, pos);
        if (pos > 0) return best;  // everything further left is <= k
        t = t->left;
        continue;
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
      if (is_chunk(t)) {
        const lblock* b = t->blk;
        size_t c = b->count;
        size_t pos = blk_lower(b, k, nullptr);
        if (pos == 0) {
          t = t->left;
          continue;
        }
        acc += size(t->left) + pos;
        if (pos < c) return acc;
        t = t->right;
        continue;
      }
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
      if (is_chunk(t)) {
        const lblock* b = t->blk;
        size_t c = b->count;
        size_t pos = blk_upper(b, k);
        if (pos == 0) {
          t = t->left;
          continue;
        }
        acc += size(t->left) + pos;
        if (pos < c) return acc;
        t = t->right;
        continue;
      }
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
    while (t != nullptr) {
      size_t ls = size(t->left);
      size_t c = cnt(t);
      if (i < ls) {
        t = t->left;
      } else if (i < ls + c) {
        if (is_chunk(t)) return blk_entry(t->blk, i - ls);
        return entry_t(t->key, t->value);
      } else {
        i -= ls + c;
        t = t->right;
      }
    }
    return std::nullopt;
  }

  // --------------------------------------------------- range extraction --

  // All entries with key <= k (the paper's upTo). Borrows t, returns an
  // owned tree that shares whole subtrees with t — O(log n) new nodes plus
  // at most one re-packed boundary block.
  static node* take_leq(const node* t, const K& k) {
    if (t == nullptr) return nullptr;
    if (is_chunk(t)) {
      auto bv = NM::read_block(t->blk);
      const entry_t* es = bv.data();
      size_t c = bv.size();
      if (less(k, es[0].first)) return take_leq(t->left, k);
      size_t pos = upper_idx(es, c, k);  // entries [0, pos) are <= k
      if (pos == c) {
        return join2(join2(inc(t->left), share_block(t)), take_leq(t->right, k));
      }
      return rebuild(inc(t->left), es, 0, pos, nullptr);
    }
    if (less(k, t->key)) return take_leq(t->left, k);
    return join(inc(t->left), make_single(t->key, t->value),
                take_leq(t->right, k));
  }

  // All entries with key >= k (the paper's downTo).
  static node* take_geq(const node* t, const K& k) {
    if (t == nullptr) return nullptr;
    if (is_chunk(t)) {
      auto bv = NM::read_block(t->blk);
      const entry_t* es = bv.data();
      size_t c = bv.size();
      if (less(es[c - 1].first, k)) return take_geq(t->right, k);
      size_t pos = lower_idx(es, c, k);  // entries [pos, c) are >= k
      if (pos == 0) {
        return join2(join2(take_geq(t->left, k), share_block(t)), inc(t->right));
      }
      return rebuild(nullptr, es, pos, c, inc(t->right));
    }
    if (less(t->key, k)) return take_geq(t->right, k);
    return join(take_geq(t->left, k), make_single(t->key, t->value),
                inc(t->right));
  }

  // All entries with lo <= key <= hi. Borrows t.
  static node* range_copy(const node* t, const K& lo, const K& hi) {
    if (t == nullptr) return nullptr;
    if (is_chunk(t)) {
      auto bv = NM::read_block(t->blk);
      const entry_t* es = bv.data();
      size_t c = bv.size();
      if (less(es[c - 1].first, lo)) return range_copy(t->right, lo, hi);
      if (less(hi, es[0].first)) return range_copy(t->left, lo, hi);
      size_t i = lower_idx(es, c, lo);
      size_t j = upper_idx(es, c, hi);
      if (j < i) return nullptr;  // lo > hi can straddle a block: empty range
      node* l = i == 0 ? take_geq(t->left, lo) : nullptr;
      node* r = j == c ? take_leq(t->right, hi) : nullptr;
      if (i == 0 && j == c) return join2(join2(l, share_block(t)), r);
      return rebuild(l, es, i, j, r);
    }
    if (less(t->key, lo)) return range_copy(t->right, lo, hi);
    if (less(hi, t->key)) return range_copy(t->left, lo, hi);
    return join(take_geq(t->left, lo), make_single(t->key, t->value),
                take_leq(t->right, hi));
  }

  // ---------------------------------------------------------- validation --

  // Full structural validation: size fields, key ordering, chunk-node
  // integrity, cached augmented values (when A is equality-comparable), and
  // — for trees with no chunk nodes — the balance-scheme invariant. The
  // scheme invariants are defined for unit-weight nodes; a chunk node
  // weighs its whole block, so a blocked tree checks the generalized
  // structure instead (joins still keep depth logarithmic in the number of
  // blocks; the differential fuzz sweeps verify semantics at every B).
  static bool check_valid(const node* t) {
    if (!check_chunks(t)) return false;
    if (!check_sizes(t)) return false;
    std::optional<K> prev;
    if (!check_order(t, prev)) return false;
    if constexpr (traits::has_aug && requires(const A& a, const A& b) {
                    { a == b } -> std::convertible_to<bool>;
                  }) {
      if (!check_aug(t)) return false;
    }
    if (!contains_chunk(t) && !BO::check(t)) return false;
    return true;
  }

  static bool contains_chunk(const node* t) {
    if (t == nullptr) return false;
    if (is_chunk(t)) return true;
    return contains_chunk(t->left) || contains_chunk(t->right);
  }

 private:
  static bool check_chunks(const node* t) {
    if (t == nullptr) return true;
    if (is_chunk(t)) {
      const lblock* b = t->blk;
      if (b->ref_cnt.load(std::memory_order_relaxed) == 0) return false;
      if constexpr (NM::flat_layout) {
        if (b->count == 0 || b->count > b->capacity) return false;
        // The node's inline key/value mirror the first block entry.
        if (!NM::keys_equal(t->key, b->entries()[0].first)) return false;
      } else {
        if (b->count == 0) return false;
        if (!NM::keys_equal(t->key, lstore::first_key(b))) return false;
      }
    }
    return check_chunks(t->left) && check_chunks(t->right);
  }

  static bool check_sizes(const node* t) {
    if (t == nullptr) return true;
    if (t->size != cnt(t) + size(t->left) + size(t->right)) return false;
    return check_sizes(t->left) && check_sizes(t->right);
  }

  // prev is an owning copy, not a pointer: for front-coded blocks the
  // decoded view dies at scope exit, so a pointer into it would dangle.
  static bool check_order(const node* t, std::optional<K>& prev) {
    if (t == nullptr) return true;
    if (!check_order(t->left, prev)) return false;
    if (is_chunk(t)) {
      auto bv = NM::read_block(t->blk);
      const entry_t* es = bv.data();
      for (size_t i = 0; i < bv.size(); i++) {
        if (prev.has_value() && !less(*prev, es[i].first)) return false;
        prev = es[i].first;
      }
    } else {
      if (prev.has_value() && !less(*prev, t->key)) return false;
      prev = t->key;
    }
    return check_order(t->right, prev);
  }

  static bool check_aug(const node* t) {
    if (t == nullptr) return true;
    if (is_chunk(t)) {
      auto bv = NM::read_block(t->blk);
      // The same grouped fold the stores' seal/build use, so the cached
      // value compares equal bit for bit, floats included.
      A block_expect = fold_entries_assoc<traits>(bv.data(), 0, bv.size());
      if (!(t->blk->aug == block_expect)) return false;
    }
    A expect = traits::combine(aug_of(t->left),
                               traits::combine(NM::own_aug(t), aug_of(t->right)));
    if (!(t->aug == expect)) return false;
    return check_aug(t->left) && check_aug(t->right);
  }
};

}  // namespace pam
