// Lazy traversal over PAM trees: STL-compatible in-order iterators,
// non-materializing range views, and read-only structural cursors.
//
// Three abstractions, all borrowing the tree instead of copying it:
//
//   map_iterator<Entry, Balance>   an in-order forward iterator with an
//       explicit ancestor stack: O(log n) to construct, amortized O(1) per
//       ++. Dereferencing yields a lightweight {key, value} reference proxy
//       that works with structured bindings:
//
//           for (auto [k, v] : m) ...
//
//       With blocked leaves the stack's top frame may be a leaf block with
//       an in-block index, so stepping through a block is one index bump
//       over a flat array — the fast path the blocked layout exists for.
//       Coded blocks cannot hand out references into their compressed
//       bytes, so a block frame additionally carries a shared decoded copy
//       of its block (filled once when the frame is pushed); stepping is
//       still an index bump, and copying the iterator shares the cache.
//
//   range_view<Entry, Balance>     a lazy sub-range [lo, hi] of a map (or
//       the whole map). Holds its own reference to the tree root, so it
//       stays valid — a consistent snapshot — even if the map handle it
//       came from is reassigned afterwards. Exposes size() and aug_val()
//       as O(log n) queries and iteration / for_each in O(k + log n),
//       without allocating a single tree node (contrast with
//       aug_map::range, which path-copies O(log n) nodes).
//
//   tree_cursor<Entry, Balance>    a read-only cursor over tree structure:
//       the entries stored at the current subtree root (one for a node, a
//       whole run for a leaf block — see entry_count()/key(i)/value(i)),
//       the subtree's cached augmented value, and navigation to left/right
//       children (a block has none). This replaces the old internal_root() raw-node
//       escape hatch: applications that need structural traversal (e.g.
//       best-first search over augmented values, range-tree canonical
//       decomposition) get the shape of the tree without the ability to
//       touch reference counts or mutate nodes.
//
// Lifetime rules: an iterator or cursor borrows from the map (or view) that
// produced it and must not outlive it. A range_view owns a reference to its
// snapshot of the tree and has no lifetime tie to the originating map.
#pragma once

#include <cstddef>
#include <iterator>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "pam/aug_ops.h"

namespace pam {

// ---------------------------------------------------------------- iterator --

template <typename Entry, typename Balance>
class map_iterator {
 public:
  using ops = aug_ops<Entry, Balance>;
  using node = typename ops::node;
  using K = typename Entry::key_t;
  using V = typename Entry::val_t;
  using entry_t = std::pair<K, V>;

  // The reference proxy: two references into the tree (node or leaf block),
  // destructurable as `auto [k, v]` and convertible to a materialized pair.
  struct entry_ref {
    const K& key;
    const V& value;
    operator std::pair<K, V>() const { return {key, value}; }
    friend bool operator==(const entry_ref& a, const std::pair<K, V>& b) {
      return !Entry::comp(a.key, b.first) && !Entry::comp(b.first, a.key) &&
             a.value == b.value;
    }
  };

  struct arrow_proxy {
    entry_ref ref;
    const entry_ref* operator->() const { return &ref; }
  };

  using iterator_category = std::forward_iterator_tag;
  using value_type = std::pair<K, V>;
  using difference_type = std::ptrdiff_t;
  using reference = entry_ref;
  using pointer = arrow_proxy;

  // Tag selecting the seek-to-last constructor.
  struct seek_last_t {};

  // The end (and default) iterator: an empty ancestor stack.
  map_iterator() = default;

  // A copy holds the same frames. It is built through the stack's range
  // constructor: GCC 12 at -O3 misreads the inlined vector copy
  // constructor + destructor pair of a by-value copy (std::distance's
  // arguments) as freeing an interior pointer (-Wfree-nonheap-object).
  map_iterator(const map_iterator& o)
      : path_(o.path_.begin(), o.path_.end()), hi_(o.hi_) {}
  map_iterator(map_iterator&&) = default;
  map_iterator& operator=(const map_iterator&) = default;
  map_iterator& operator=(map_iterator&&) = default;

  // Begin of an in-order walk over the whole tree rooted at t. Internal:
  // obtained via aug_map::begin() / range_view::begin().
  explicit map_iterator(const node* t) {
    path_.reserve(kTypicalHeight);
    push_left(t);
  }

  // Begin at the least key >= *lo (or the least key if lo is null), walking
  // no further than *hi (inclusive; null = unbounded). `hi` is borrowed and
  // must outlive the iterator — range_view stores it for exactly this.
  map_iterator(const node* t, const K* lo, const K* hi) : hi_(hi) {
    path_.reserve(kTypicalHeight);
    if (lo == nullptr) {
      push_left(t);
    } else {
      while (t != nullptr) {
        if (ops::is_block(t)) {
          size_t pos = ops::lstore::lower_idx(ops::block_of(t), *lo, nullptr);  // first >= *lo
          if (pos < ops::block_of(t)->count) {
            path_.push_back(make_frame(t, static_cast<uint32_t>(pos)));
          }
          break;
        }
        if (ops::less(t->key, *lo)) {
          t = t->right;  // everything here is below the range
        } else {
          path_.push_back(make_frame(t, 0));
          t = t->left;
        }
      }
    }
    clamp();
  }

  // Seek to the greatest key <= *hi that is also >= *lo (either bound may be
  // null = unbounded): one O(log n) descent from the high bound. The stack is
  // left in the normal in-order state, so ++ from here walks to the in-order
  // successor and then clamps to end() — this is how range_view::last() gets
  // its entry without touching the O(k) forward walk.
  map_iterator(const node* t, const K* lo, const K* hi, seek_last_t) : hi_(hi) {
    path_.reserve(kTypicalHeight);
    const node* best = nullptr;
    uint32_t best_idx = 0;
    size_t best_depth = 0;
    while (t != nullptr) {
      if (ops::is_block(t)) {
        size_t c = ops::block_of(t)->count;
        size_t pos = hi != nullptr ? ops::lstore::upper_idx(ops::block_of(t), *hi) : c;  // first > *hi
        if (pos > 0) {
          best = t;
          best_idx = static_cast<uint32_t>(pos - 1);
          best_depth = path_.size();
        }
        break;
      }
      if (hi != nullptr && ops::less(*hi, t->key)) {
        path_.push_back(make_frame(t, 0));  // a future in-order successor
        t = t->left;
      } else {
        best = t;
        best_idx = 0;
        best_depth = path_.size();
        t = t->right;
      }
    }
    if (best == nullptr ||
        (lo != nullptr && ops::less(entry_key_copy(best, best_idx), *lo))) {
      path_.clear();  // range is empty
      return;
    }
    // Nodes pushed while exploring best's right side are > *hi and sit above
    // the result in in-order; drop them so best is the current node.
    path_.resize(best_depth);
    path_.push_back(make_frame(best, best_idx));
  }

  entry_ref operator*() const {
    const frame& f = path_.back();
    if (ops::is_block(f.n)) {
      const entry_t& e = frame_entry(f);
      return {e.first, e.second};
    }
    return {f.n->key, f.n->value};
  }
  arrow_proxy operator->() const { return {**this}; }

  map_iterator& operator++() {
    frame& f = path_.back();
    if (ops::is_block(f.n)) {
      if (f.idx + 1 < ops::block_of(f.n)->count) {
        f.idx++;  // step within the flat block: the hot path
      } else {
        path_.pop_back();  // the block's parent node, if any, is next
      }
    } else {
      const node* t = f.n;
      path_.pop_back();
      push_left(t->right);
    }
    clamp();
    return *this;
  }
  map_iterator operator++(int) {
    map_iterator old = *this;
    ++*this;
    return old;
  }

  // Iterators over the same tree are equal iff they sit on the same entry;
  // all exhausted iterators (including the default) are equal.
  friend bool operator==(const map_iterator& a, const map_iterator& b) {
    if (a.path_.empty() || b.path_.empty()) return a.path_.empty() == b.path_.empty();
    return a.path_.back().n == b.path_.back().n &&
           a.path_.back().idx == b.path_.back().idx;
  }
  friend bool operator!=(const map_iterator& a, const map_iterator& b) {
    return !(a == b);
  }

 private:
  static constexpr bool kCoded = !ops::lstore::in_place;

  // Shared decoded copy of a coded block; an empty tag type when the
  // layout is flat (no storage, no decode).
  using block_cache =
      std::conditional_t<kCoded, std::shared_ptr<const std::vector<entry_t>>,
                         unit>;

  // Ancestor stack frame: a node, or a leaf block with the index of the
  // current entry inside it plus (coded layout only) the decoded block.
  struct frame {
    const node* n;
    uint32_t idx;
    block_cache cache;
  };

  // Deep enough for every balanced scheme at the 2^32-entry size cap; the
  // stack grows past it only for degenerate treap draws.
  static constexpr size_t kTypicalHeight = 64;

  static frame make_frame(const node* t, uint32_t idx) {
    if constexpr (kCoded) {
      if (ops::is_block(t)) {
        auto bv = ops::lstore::read(ops::block_of(t));
        return {t, idx,
                std::make_shared<const std::vector<entry_t>>(std::move(bv.buf))};
      }
      return {t, idx, nullptr};
    } else {
      return {t, idx, {}};
    }
  }

  // The frame's current entry; only valid for block frames.
  static const entry_t& frame_entry(const frame& f) {
    if constexpr (kCoded) {
      return (*f.cache)[f.idx];
    } else {
      return ops::lstore::entries(ops::block_of(f.n))[f.idx];
    }
  }

  static const K& frame_key(const frame& f) {
    return ops::is_block(f.n) ? frame_entry(f).first : f.n->key;
  }

  // Key at (t, idx) as an owned copy — for bound checks before a frame (and
  // its decode cache) exists.
  static K entry_key_copy(const node* t, uint32_t idx) {
    return ops::is_block(t) ? ops::lstore::entry_at(ops::block_of(t), idx).first : t->key;
  }

  void push_left(const node* t) {
    while (t != nullptr) {
      path_.push_back(make_frame(t, 0));
      if (ops::is_block(t)) return;
      t = t->left;
    }
  }

  // Enforce the inclusive upper bound: once the next in-order key exceeds
  // *hi_, the iterator becomes end().
  void clamp() {
    if (hi_ != nullptr && !path_.empty()) {
      if (ops::less(*hi_, frame_key(path_.back()))) path_.clear();
    }
  }

  // Ancestor stack: back() is the current frame; the frames below it are the
  // ancestors whose remaining entries (and right subtrees) are still to be
  // visited.
  std::vector<frame> path_;
  const K* hi_ = nullptr;
};

// ------------------------------------------------------------ tree cursor --

// A read-only view of a subtree: the entries and augmented value cached at
// its root, and navigation to the child subtrees. With blocked leaves a
// subtree may be one leaf block: entry_count() gives the run length,
// key(i)/value(i) index into it (keys sorted), and both children are
// empty. key() and value() are the first entry, which keeps single-entry
// callers working.
// Borrows the tree — no refcount traffic, so it is as cheap as a raw
// pointer but cannot violate the persistence invariants. An empty cursor
// tests false.
template <typename Entry, typename Balance>
class tree_cursor {
 public:
  using ops = aug_ops<Entry, Balance>;
  using node = typename ops::node;
  using K = typename Entry::key_t;
  using V = typename Entry::val_t;
  using A = typename ops::A;
  using entry_t = std::pair<K, V>;

  tree_cursor() = default;
  // Internal: obtained via aug_map::root_cursor(). A cursor on a coded
  // block decodes it once, up front; key(i)/value(i) then hand out
  // references into that owned copy.
  explicit tree_cursor(const node* t) : t_(t) {
    if constexpr (kCoded) {
      if (ops::is_block(t_)) {
        auto bv = ops::lstore::read(ops::block_of(t_));
        cache_ = std::make_shared<const std::vector<entry_t>>(std::move(bv.buf));
      }
    }
  }

  bool empty() const { return t_ == nullptr; }
  explicit operator bool() const { return t_ != nullptr; }

  // Number of entries stored at the subtree root itself (1 for a node,
  // the block length for a leaf block).
  size_t entry_count() const { return ops::is_block(t_) ? ops::size(t_) : 1; }

  // The i-th entry stored at the root, in key order. i < entry_count().
  const K& key(size_t i) const {
    if (ops::is_block(t_)) {
      if constexpr (kCoded) return (*cache_)[i].first;
      else return ops::lstore::entries(ops::block_of(t_))[i].first;
    }
    return t_->key;
  }
  const V& value(size_t i) const {
    if (ops::is_block(t_)) {
      if constexpr (kCoded) return (*cache_)[i].second;
      else return ops::lstore::entries(ops::block_of(t_))[i].second;
    }
    return t_->value;
  }

  // First entry stored at the subtree root.
  const K& key() const { return key(0); }
  const V& value() const { return value(0); }
  // Cached augmented value of the whole subtree (identity for plain maps).
  const A& aug() const { return ops::aug_ref(t_); }
  // Number of entries in the subtree. O(1).
  size_t size() const { return ops::size(t_); }

  tree_cursor left() const { return tree_cursor(ops::is_node(t_) ? t_->left : nullptr); }
  tree_cursor right() const { return tree_cursor(ops::is_node(t_) ? t_->right : nullptr); }

  friend bool operator==(const tree_cursor& a, const tree_cursor& b) {
    return a.t_ == b.t_;
  }
  friend bool operator!=(const tree_cursor& a, const tree_cursor& b) {
    return !(a == b);
  }

 private:
  static constexpr bool kCoded = !ops::lstore::in_place;
  using block_cache =
      std::conditional_t<kCoded, std::shared_ptr<const std::vector<entry_t>>,
                         unit>;

  const node* t_ = nullptr;
  [[no_unique_address]] block_cache cache_{};
};

// ------------------------------------------------------------- range view --

// A lazy, non-materializing view of the entries with lo <= key <= hi
// (either bound optional). The view owns one reference to the tree root, so
// it is an O(1) snapshot: reassigning or destroying the originating map
// afterwards does not invalidate it. Nothing is copied or allocated beyond
// that single refcount bump — iteration, for_each, size() and aug_val() all
// run directly against the shared tree.
template <typename Entry, typename Balance>
class range_view {
 public:
  using ops = aug_ops<Entry, Balance>;
  using node = typename ops::node;
  using K = typename Entry::key_t;
  using V = typename Entry::val_t;
  using A = typename ops::A;
  using entry_t = std::pair<K, V>;
  using const_iterator = map_iterator<Entry, Balance>;
  using iterator = const_iterator;

  range_view() = default;

  // Internal: borrows t and takes its own reference; obtained via
  // aug_map::view / view_all / view_up_to / view_down_to.
  range_view(const node* t, std::optional<K> lo, std::optional<K> hi)
      : root_(ops::inc(const_cast<node*>(t))), lo_(std::move(lo)), hi_(std::move(hi)) {}

  range_view(const range_view& o)
      : root_(ops::inc(o.root_)), lo_(o.lo_), hi_(o.hi_) {}
  range_view(range_view&& o) noexcept
      : root_(o.root_), lo_(std::move(o.lo_)), hi_(std::move(o.hi_)) {
    o.root_ = nullptr;
  }
  range_view& operator=(const range_view& o) {
    if (this != &o) {
      node* old = root_;
      root_ = ops::inc(o.root_);
      lo_ = o.lo_;
      hi_ = o.hi_;
      ops::dec(old);
    }
    return *this;
  }
  range_view& operator=(range_view&& o) noexcept {
    std::swap(root_, o.root_);
    std::swap(lo_, o.lo_);
    std::swap(hi_, o.hi_);
    return *this;
  }
  ~range_view() { ops::dec(root_); }

  // ------------------------------------------------------------- queries --

  // Number of entries in the range: two rank descents. O(log n).
  size_t size() const {
    return ops::count_in_range(root_, lo_.has_value() ? &*lo_ : nullptr,
                               hi_.has_value() ? &*hi_ : nullptr);
  }

  bool empty() const { return begin() == end(); }  // O(log n)

  // Least / greatest entry in the range. O(log n).
  std::optional<entry_t> first() const {
    const_iterator it = begin();
    if (it == end()) return std::nullopt;
    return entry_t(*it);
  }

  std::optional<entry_t> last() const {
    const_iterator it(root_, lo_.has_value() ? &*lo_ : nullptr,
                      hi_.has_value() ? &*hi_ : nullptr,
                      typename const_iterator::seek_last_t{});
    if (it == const_iterator()) return std::nullopt;
    return entry_t(*it);
  }

  // Augmented value over the range: exactly aug_range / aug_left /
  // aug_right / aug_val depending on which bounds are set. O(log n),
  // allocation-free.
  A aug_val() const {
    static_assert(ops::traits::has_aug, "aug_val requires an augmented Entry");
    if (lo_.has_value() && hi_.has_value()) return ops::aug_range(root_, *lo_, *hi_);
    if (lo_.has_value()) return ops::aug_right(root_, *lo_);
    if (hi_.has_value()) return ops::aug_left(root_, *hi_);
    return ops::aug_val(root_);
  }

  // ----------------------------------------------------------- traversal --

  const_iterator begin() const {
    return const_iterator(root_, lo_.has_value() ? &*lo_ : nullptr,
                          hi_.has_value() ? &*hi_ : nullptr);
  }
  const_iterator end() const { return const_iterator(); }

  // Sequential in-order visit of the range: f(key, value).
  // O(k + log n) for k entries, no allocation; whole leaf blocks stream as
  // flat array scans.
  template <typename F>
  void for_each(const F& f) const {
    foreach_bounded(root_, lo_.has_value() ? &*lo_ : nullptr,
                    hi_.has_value() ? &*hi_ : nullptr, f);
  }

  // Materialize the range when a vector is genuinely wanted. O(k + log n).
  std::vector<entry_t> to_entries() const {
    std::vector<entry_t> out;
    out.reserve(size());
    for_each([&](const K& k, const V& v) { out.emplace_back(k, v); });
    return out;
  }

 private:
  // In-order traversal with pruning at the bounds. Once the recursion
  // enters a subtree known to be inside a bound, that bound check is
  // dropped, so total work is O(k + log n).
  template <typename F>
  static void foreach_bounded(const node* t, const K* lo, const K* hi, const F& f) {
    if (t == nullptr) return;
    if (ops::is_block(t)) {
      auto bv = ops::lstore::read(ops::block_of(t));
      const auto* es = bv.data();
      size_t c = bv.size();
      size_t i0 = lo != nullptr ? ops::lower_idx(es, c, *lo) : 0;
      size_t i1 = hi != nullptr ? ops::upper_idx(es, c, *hi) : c;
      for (size_t i = i0; i < i1; i++) f(es[i].first, es[i].second);
      return;
    }
    if (lo != nullptr && ops::less(t->key, *lo))
      return foreach_bounded(t->right, lo, hi, f);
    if (hi != nullptr && ops::less(*hi, t->key))
      return foreach_bounded(t->left, lo, hi, f);
    foreach_bounded(t->left, lo, nullptr, f);  // keys < t->key <= *hi
    f(t->key, t->value);
    foreach_bounded(t->right, nullptr, hi, f);  // keys > t->key >= *lo
  }

  node* root_ = nullptr;
  std::optional<K> lo_;
  std::optional<K> hi_;
};

}  // namespace pam
