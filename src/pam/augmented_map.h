// The public PAM map types.
//
//   aug_map<Entry, Balance>   an augmented ordered map (paper Section 3)
//   pam_map<Entry, Balance>   an ordered map without augmentation
//   pam_set<K, Less, Balance> an ordered set
//
// An Entry policy describes the map type exactly as in the paper's Figure 3:
//
//   struct entry {
//     using key_t = ...;                         // K
//     using val_t = ...;                         // V
//     static bool comp(key_t a, key_t b);        // <, total order on keys
//     // augmented maps additionally provide:
//     using aug_t = ...;                         // A
//     static aug_t identity();                   // I
//     static aug_t base(key_t k, val_t v);       // g
//     static aug_t combine(aug_t a, aug_t b);    // f (associative)
//   };
//
// Maps are immutable values backed by shared, refcounted functional trees:
// copying a map is O(1), and every "update" (insert, union, filter, ...)
// returns a new map while all previously-obtained maps remain valid — this
// is the persistence the paper's range-tree and inverted-index applications
// rely on. The static functions take their map arguments *by value*: pass a
// copy to keep the input alive, or std::move it to let the library recycle
// nodes in place (the refcount==1 reuse optimization).
//
// Maps are also C++ forward ranges: begin()/end() iterate in key order
// lazily, view(lo, hi)/view_all() give non-materializing range views, and
// root_cursor() offers read-only structural traversal (see pam/iterator.h).
//
// Thread safety: any number of threads may run read-only queries on (their
// copies of) maps concurrently, and bulk operations internally use all
// workers. Distinct map handles may be updated from distinct threads; a
// single handle must not be mutated concurrently (wrap it in snapshot_box
// for the shared-instance pattern of paper §4 "Concurrency").
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <utility>
#include <vector>

#include "pam/aug_ops.h"
#include "pam/balance/weight_balanced.h"
#include "pam/diff.h"
#include "pam/iterator.h"

namespace pam {

// Byte-stream codec for maps (pam/serialize.h); befriended so it can walk
// roots and rebuild maps without widening the public node surface.
template <typename Map>
struct map_codec;

template <typename Entry, typename Balance = weight_balanced>
class aug_map {
 public:
  using ops = aug_ops<Entry, Balance>;
  using node = typename ops::node;
  using K = typename Entry::key_t;
  using V = typename Entry::val_t;
  using A = typename ops::A;
  using entry_t = std::pair<K, V>;
  using entry_policy = Entry;
  using balance_policy = Balance;
  using const_iterator = map_iterator<Entry, Balance>;
  using iterator = const_iterator;
  using view_type = range_view<Entry, Balance>;
  using cursor = tree_cursor<Entry, Balance>;

  static constexpr bool has_aug = ops::traits::has_aug;

  // ------------------------------------------------- lifecycle (O(1)) ----

  aug_map() = default;

  aug_map(const aug_map& o) : root_(ops::inc(o.root_)) {}

  aug_map(aug_map&& o) noexcept : root_(o.root_) { o.root_ = nullptr; }

  aug_map& operator=(const aug_map& o) {
    if (this != &o) {
      node* old = root_;
      root_ = ops::inc(o.root_);
      ops::dec(old);
    }
    return *this;
  }

  aug_map& operator=(aug_map&& o) noexcept {
    std::swap(root_, o.root_);
    return *this;
  }

  ~aug_map() { ops::dec(root_); }

  // ------------------------------------------------------ construction ----

  // Parallel build from (key, value) pairs; duplicate keys are folded
  // left-to-right with comb (default: the last value wins).
  explicit aug_map(std::vector<entry_t> entries)
      : root_(ops::build(std::move(entries))) {}

  template <typename Comb>
  aug_map(std::vector<entry_t> entries, const Comb& comb)
      : root_(ops::build(std::move(entries), comb)) {}

  aug_map(std::initializer_list<entry_t> entries)
      : aug_map(std::vector<entry_t>(entries)) {}

  static aug_map singleton(const K& k, const V& v) {
    return aug_map(ops::make_single(k, v));
  }

  // Balanced O(n) construction from entries that are already sorted by key
  // and duplicate-free (skips the sort + fold of the vector constructor).
  static aug_map from_sorted(const std::vector<entry_t>& entries) {
    return aug_map(ops::from_sorted_unique(entries.data(), entries.size()));
  }

  // --------------------------------------------------------- observers ----

  size_t size() const { return ops::size(root_); }
  bool empty() const { return root_ == nullptr; }

  // Heterogeneous: any Key the entry policy can compare against works —
  // string-keyed maps look up by std::string_view with zero materialization.
  template <typename Key = K>
  std::optional<V> find(const Key& k) const {
    return ops::find(root_, k);
  }
  template <typename Key = K>
  bool contains(const Key& k) const {
    return ops::contains(root_, k);
  }

  std::optional<entry_t> first() const { return ops::first_entry(root_); }
  std::optional<entry_t> last() const { return ops::last_entry(root_); }

  // Greatest entry with key strictly less than k.
  std::optional<entry_t> previous(const K& k) const {
    return ops::previous_entry(root_, k);
  }
  // Least entry with key strictly greater than k.
  std::optional<entry_t> next(const K& k) const {
    return ops::next_entry(root_, k);
  }

  // Number of entries with key < k.
  size_t rank(const K& k) const { return ops::rank(root_, k); }
  // The i-th entry in key order (0-based).
  std::optional<entry_t> select(size_t i) const { return ops::select(root_, i); }

  // -------------------------------------- persistent functional updates ----

  // All of these return a new map; inputs passed by value (copy to keep,
  // move to allow in-place node reuse).

  template <typename Comb>
  static aug_map insert(aug_map m, const K& k, const V& v, const Comb& comb) {
    return aug_map(ops::insert(m.release(), k, v, comb));
  }
  static aug_map insert(aug_map m, const K& k, const V& v) {
    return aug_map(ops::insert(m.release(), k, v));
  }

  static aug_map remove(aug_map m, const K& k) {
    return aug_map(ops::remove(m.release(), k));
  }

  template <typename Comb>
  static aug_map map_union(aug_map a, aug_map b, const Comb& comb) {
    return aug_map(ops::union_(a.release(), b.release(), comb));
  }
  static aug_map map_union(aug_map a, aug_map b) {
    return aug_map(ops::union_(a.release(), b.release()));
  }

  template <typename Comb>
  static aug_map map_intersect(aug_map a, aug_map b, const Comb& comb) {
    return aug_map(ops::intersect(a.release(), b.release(), comb));
  }

  static aug_map map_difference(aug_map a, aug_map b) {
    return aug_map(ops::difference(a.release(), b.release()));
  }

  template <typename Pred>  // pred(key, value) -> bool
  static aug_map filter(aug_map m, const Pred& pred) {
    return aug_map(ops::filter(m.release(), pred));
  }

  template <typename Comb>
  static aug_map multi_insert(aug_map m, std::vector<entry_t> updates,
                              const Comb& comb) {
    return aug_map(ops::multi_insert(m.release(), std::move(updates), comb));
  }
  static aug_map multi_insert(aug_map m, std::vector<entry_t> updates) {
    return aug_map(ops::multi_insert(m.release(), std::move(updates)));
  }

  static aug_map multi_delete(aug_map m, std::vector<K> keys) {
    return aug_map(ops::multi_delete(m.release(), std::move(keys)));
  }

  // Parallel batch lookup: result[i] is the value at keys[i], if present.
  std::vector<std::optional<V>> multi_find(const std::vector<K>& keys) const {
    std::vector<std::optional<V>> out(keys.size());
    ops::multi_find(root_, keys.data(), keys.size(), out.data());
    return out;
  }

  // A new map with the same keys and value' = f(key, value) (the paper's
  // map function). Non-consuming; parallel; augmentation recomputed.
  template <typename F>
  static aug_map map_values(const aug_map& m, const F& f) {
    return aug_map(ops::map_values(m.root_, f));
  }

  // m with its storage moved out of the slots moved(p) names: the same
  // keys, values, aug values and shape, with every node and block there
  // that only m's holders reach copied to a fresh slot (the relocating
  // compaction, see tree_ops::relocate). The root counts as theirs while
  // at most `holders` references hold it (m's own, and e.g. a published
  // cut's); past that m comes back as it is, so storage another version
  // shares is never copied.
  template <typename Moved>
  static aug_map relocate(const aug_map& m, uint32_t holders, const Moved& moved) {
    if (m.root_ == nullptr || ops::ref_count(m.root_) > holders) return m;
    return aug_map(ops::relocate(m.root_, moved));
  }

  struct split_result {
    aug_map left;
    std::optional<V> value;  // value at the split key, if present
    aug_map right;
  };

  static split_result split(aug_map m, const K& k) {
    auto s = ops::split(m.release(), k);
    split_result out;
    out.left = aug_map(s.left);
    out.right = aug_map(s.right);
    if (s.mid != nullptr) {
      out.value = s.mid->value;
      ops::dec(s.mid);
    }
    return out;
  }

  // Concatenate two maps with max(a) < min(b) (the paper's join2).
  static aug_map concat(aug_map a, aug_map b) {
    return aug_map(ops::join2(a.release(), b.release()));
  }

  // ------------------------------------------------------ version diffing --
  // Structural diff between two versions (pam/diff.h): pointer-shared
  // subtrees and shared leaf blocks prune in O(1), so the cost is
  // O(d log(n/d + 1)) for d changed entries when `from` and `to` descend
  // from one another by path-copying updates.

  using diff_ops_t = diff_ops<Entry, Balance>;
  using diff_type = map_diff<aug_map>;
  using change_t = map_change<aug_map>;

  // Partition the difference: `before` = entries of `from` removed or
  // overwritten in `to` (old values); `after` = entries of `to` added or
  // changed (new values). Non-consuming; results share subtrees with the
  // inputs wherever a whole region is one-sided.
  static diff_type diff(const aug_map& from, const aug_map& to) {
    auto r = diff_ops_t::diff(ops::inc(from.root_), ops::inc(to.root_));
    diff_type d;
    d.before = aug_map(r.before);
    d.after = aug_map(r.after);
    return d;
  }

  // Fold an arbitrary monoid (g2(k, v) per entry, associative f2, identity
  // id) over exactly the changed regions, without materializing the diff:
  // returns {fold of the before-side, fold of the after-side}. For a
  // group-like aggregate this is the whole incremental-maintenance story:
  // new_total = old_total - fold(before) + fold(after), in O(d log(n/d+1)).
  template <typename B, typename G2, typename F2>
  static std::pair<B, B> diff_fold(const aug_map& from, const aug_map& to,
                                   const G2& g2, const F2& f2, const B& id) {
    return diff_ops_t::diff_fold(ops::inc(from.root_), ops::inc(to.root_), g2,
                                 f2, id);
  }

  // The merged, key-ordered change stream between two versions.
  static std::vector<change_t> diff_changes(const aug_map& from,
                                            const aug_map& to) {
    return diff(from, to).changes();
  }

  // Do two handles denote the same tree? O(1). Two versions with equal
  // roots are identical; map-valued Entry policies use this as `val_equal`
  // so outer-map diffs prune unchanged inner maps without descending.
  bool same_root(const aug_map& o) const { return root_ == o.root_; }

  // ----------------------------------------------------- range extraction --

  // Entries with key <= k (paper upTo). Non-consuming; O(log n) new nodes.
  static aug_map up_to(const aug_map& m, const K& k) {
    return aug_map(ops::take_leq(m.root_, k));
  }
  // Entries with key >= k (paper downTo).
  static aug_map down_to(const aug_map& m, const K& k) {
    return aug_map(ops::take_geq(m.root_, k));
  }
  // Entries with lo <= key <= hi.
  static aug_map range(const aug_map& m, const K& lo, const K& hi) {
    return aug_map(ops::range_copy(m.root_, lo, hi));
  }

  // ----------------------------------------------------------- lazy views --
  // Non-materializing alternatives to up_to/down_to/range for read paths: a
  // view is an O(1) snapshot of the tree (one refcount bump, zero node
  // allocation) restricted to a key range. It offers size() and aug_val()
  // in O(log n) and iteration / for_each in O(k + log n), and remains valid
  // even if this map handle is reassigned afterwards.

  // Entries with lo <= key <= hi.
  view_type view(const K& lo, const K& hi) const {
    return view_type(root_, lo, hi);
  }
  // The whole map as a view.
  view_type view_all() const {
    return view_type(root_, std::nullopt, std::nullopt);
  }
  // Entries with key <= k (lazy upTo).
  view_type view_up_to(const K& k) const {
    return view_type(root_, std::nullopt, k);
  }
  // Entries with key >= k (lazy downTo).
  view_type view_down_to(const K& k) const {
    return view_type(root_, k, std::nullopt);
  }

  // ------------------------------------------------- augmented queries ----
  // (Only for augmented entries; see paper Figure 1, below the dashed line.)

  // A(m): the augmented value of the whole map. O(1).
  A aug_val() const {
    static_assert(has_aug, "aug_val requires an augmented Entry");
    return ops::aug_val(root_);
  }

  // Augmented value over keys <= k. O(log n).
  A aug_left(const K& k) const {
    static_assert(has_aug, "aug_left requires an augmented Entry");
    return ops::aug_left(root_, k);
  }

  // Augmented value over lo <= key <= hi. O(log n).
  A aug_range(const K& lo, const K& hi) const {
    static_assert(has_aug, "aug_range requires an augmented Entry");
    return ops::aug_range(root_, lo, hi);
  }

  // Pruned filter by a predicate on augmented values; requires
  // h(a) || h(b) == h(f(a, b)). O(k log(n/k + 1)) work for k survivors.
  template <typename Pred>  // pred(aug) -> bool
  static aug_map aug_filter(aug_map m, const Pred& pred) {
    static_assert(has_aug, "aug_filter requires an augmented Entry");
    return aug_map(ops::aug_filter(m.release(), pred));
  }

  // g2-projected f2-sum over [lo, hi]; requires f2(g2(a), g2(b)) == g2(f(a,b)).
  template <typename B, typename G2, typename F2>
  B aug_project(const G2& g2, const F2& f2, const B& id, const K& lo,
                const K& hi) const {
    static_assert(has_aug, "aug_project requires an augmented Entry");
    return ops::template aug_project<G2, F2, B>(root_, g2, f2, id, lo, hi);
  }

  // ------------------------------------------------- bulk read / iterate --

  // In-order forward iteration: O(log n) begin(), amortized O(1) ++, and a
  // {key, value} reference proxy supporting structured bindings, so a map
  // is a range:  for (auto [k, v] : m) ...   Iterators borrow the map and
  // must not outlive this handle (take a view_all() for a self-owning
  // snapshot to iterate).
  const_iterator begin() const { return const_iterator(root_); }
  const_iterator end() const { return const_iterator(); }
  // Iterator to the least entry with key >= k (end() if none). O(log n).
  const_iterator lower_bound(const K& k) const {
    return const_iterator(root_, &k, nullptr);
  }

  // Read-only structural cursor at the root: key/value/aug of each subtree
  // plus left()/right() navigation. The safe replacement for raw node
  // access — used for best-first searches and canonical decompositions.
  cursor root_cursor() const { return cursor(root_); }

  // Parallel g2/f2 fold over all entries (paper mapReduce).
  template <typename B, typename M, typename R>
  B map_reduce(const M& g2, const R& f2, const B& id) const {
    return ops::map_reduce(root_, g2, f2, id);
  }

  // All entries in key order (parallel materialization).
  std::vector<entry_t> entries() const {
    std::vector<entry_t> out(size());
    ops::to_array(root_, out.data());
    return out;
  }

  // Sequential in-order traversal: f(key, value).
  template <typename F>
  void for_each(const F& f) const {
    ops::foreach_inorder(root_, f);
  }

  // All keys / all values, in key order: one parallel projection pass
  // straight out of the tree (no intermediate entry materialization).
  std::vector<K> keys() const {
    std::vector<K> out(size());
    ops::project_to_array(root_, out.data(),
                          [](const K& k, const V&) { return k; });
    return out;
  }
  std::vector<V> values() const {
    std::vector<V> out(size());
    ops::project_to_array(root_, out.data(),
                          [](const K&, const V& v) { return v; });
    return out;
  }

  // Number of entries with lo <= key <= hi, via two rank queries (O(log n)).
  size_t count_range(const K& lo, const K& hi) const {
    return ops::count_in_range(root_, &lo, &hi);
  }

  // ------------------------------------------- in-place conveniences ----
  // Sugar for m = op(std::move(m), ...): updates only this handle; other
  // copies of the old version remain untouched.

  void insert_inplace(const K& k, const V& v) {
    root_ = ops::insert(release(), k, v);
  }
  template <typename Comb>
  void insert_inplace(const K& k, const V& v, const Comb& comb) {
    root_ = ops::insert(release(), k, v, comb);
  }
  void remove_inplace(const K& k) { root_ = ops::remove(release(), k); }

  // ------------------------------------------------------ serialization --
  // Byte-exact snapshot codec (pam/serialize.h): append this map's entries
  // to `out` as a self-framing record stream — sealed leaf blocks travel as
  // raw payloads (flat: one memcpy; front-coded: the encoded region) — and
  // rebuild a map from such bytes. Integrity of the bytes is the caller's
  // contract: the durability layer (src/store/) wraps streams in
  // CRC32C-checked pages, and deserialize throws pam::wire::error on any
  // framing it cannot prove consistent. Rebuilt blocks recompute their
  // augmented values; they are never trusted from the payload.
  void serialize(std::vector<char>& out) const {
    map_codec<aug_map>::serialize(*this, out);
  }
  static aug_map deserialize(const char* data, size_t n) {
    return map_codec<aug_map>::deserialize(data, n);
  }

  // ------------------------------------------------------ introspection --

  // Full structural validation (balance invariant, sizes, order, cached
  // augmented values). Intended for tests.
  bool check_valid() const { return ops::check_valid(root_); }

  // Live node count across all maps of this type (paper Table 4).
  static int64_t used_nodes() { return ops::used_nodes(); }
  // Live leaf-block count / bytes for this Entry type (shared by every
  // balance scheme instantiated over it; zero in the unblocked layout).
  static int64_t used_leaf_blocks() { return ops::used_leaf_blocks(); }
  static int64_t used_leaf_bytes() { return ops::used_leaf_bytes(); }
  // Total live heap bytes across all maps of this type: tree nodes plus
  // leaf-block storage. The space experiments report this per entry.
  static int64_t used_bytes() {
    return used_nodes() * static_cast<int64_t>(sizeof(node)) + used_leaf_bytes();
  }
  static constexpr size_t node_bytes() { return sizeof(node); }
  static const char* balance_name() { return Balance::name; }

 private:
  template <typename M>
  friend struct map_codec;

  explicit aug_map(node* owned_root) : root_(owned_root) {}

  node* release() {
    node* t = root_;
    root_ = nullptr;
    return t;
  }

  node* root_ = nullptr;
};

// An ordered map without augmentation: same Entry policy minus the aug_*
// members. All functions above the dashed line of Figure 1 are available;
// the aug_* family is compiled out.
template <typename Entry, typename Balance = weight_balanced>
using pam_map = aug_map<Entry, Balance>;

// Entry policy for sets.
template <typename K, typename Less = std::less<K>>
struct set_entry {
  using key_t = K;
  using val_t = unit;
  static bool comp(const K& a, const K& b) { return Less()(a, b); }
};

// An ordered set, represented as a map to unit values.
template <typename K, typename Less = std::less<K>, typename Balance = weight_balanced>
class pam_set : public aug_map<set_entry<K, Less>, Balance> {
 public:
  using base = aug_map<set_entry<K, Less>, Balance>;
  using base::base;

  pam_set() = default;
  pam_set(const base& b) : base(b) {}
  pam_set(base&& b) : base(std::move(b)) {}

  explicit pam_set(const std::vector<K>& keys) : base(to_entries(keys)) {}

  static pam_set insert(pam_set s, const K& k) {
    return pam_set(base::insert(std::move(s), k, unit{}));
  }
  void insert_inplace(const K& k) { base::insert_inplace(k, unit{}); }

 private:
  static std::vector<typename base::entry_t> to_entries(const std::vector<K>& keys) {
    std::vector<typename base::entry_t> es;
    es.reserve(keys.size());
    for (const K& k : keys) es.emplace_back(k, unit{});
    return es;
  }
};

}  // namespace pam
