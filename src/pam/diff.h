// Parallel structural diff between two versions of a map.
//
// Path-copying persistence means two versions of one map share every
// unchanged subtree, and every unchanged leaf block, by pointer. The diff walks both roots with the same
// split/expose recursion as union, but prunes the moment the two sides
// share storage (`tree_ops::shares_storage`, O(1)), so the work is
// proportional to the *difference* between the versions — O(d log(n/d + 1))
// for d changed entries — not to the map size. This is the observation
// PaC-trees' versioned collections are built on (Dhulipala & Blelloch,
// PLDI 2022) and the substrate for version stores, change feeds, and
// incrementally maintained views (src/server/).
//
// Two products, both parallelized with the fork-join cutoff family:
//
//   * diff(a, b)       -> two trees: `before` holds every entry of a that
//                         is absent from b or overwritten in b (with a's
//                         values); `after` holds every entry of b that is
//                         absent from a or differs from a (with b's
//                         values). A key in neither is unchanged; a key in
//                         both was updated. The trees share subtrees with
//                         their inputs (one-sided regions transfer whole).
//   * diff_fold(a,b,…) -> the same partition folded through an arbitrary
//                         aug-style monoid (g2 per entry, associative f2)
//                         without materializing any tree — the right shape
//                         for group-like aggregates (new = old - fold(before)
//                         + fold(after)).
//
// Value equality: an entry present under the same key in both versions is
// a change only if its values differ. `val_equal` uses, in order: the
// Entry's own `static bool val_equal(V, V)` (e.g. O(1) root identity for
// map-valued entries), then `operator==`, else it conservatively reports
// every same-key pair as updated.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "pam/aug_ops.h"
#include "parallel/parallel.h"

namespace pam {

template <typename Entry, typename Balance>
struct diff_ops : aug_ops<Entry, Balance> {
  using AO = aug_ops<Entry, Balance>;
  using MO = typename AO::MO;
  using TO = typename MO::TO;
  using NM = typename TO::NM;
  using node = typename AO::node;
  using K = typename AO::K;
  using V = typename MO::V;
  using entry_t = typename AO::entry_t;

  using MO::dec;
  using MO::expose_own;
  using MO::block_of;
  using MO::inc;
  using MO::is_block;
  using MO::join;
  using MO::join2;
  using MO::less;
  using MO::size;
  using MO::split;

  static bool val_equal(const V& x, const V& y) {
    if constexpr (requires {
                    { Entry::val_equal(x, y) } -> std::convertible_to<bool>;
                  }) {
      return Entry::val_equal(x, y);
    } else if constexpr (requires {
                           { x == y } -> std::convertible_to<bool>;
                         }) {
      return x == y;
    } else {
      return false;
    }
  }

  struct diff_trees {
    node* before = nullptr;  // entries of a removed or overwritten in b
    node* after = nullptr;   // entries of b added or changed relative to a
  };

  // Structural diff of two owned trees (consumes both references). The
  // recursion mirrors union_: expose b, split a at b's root key, recurse on
  // the halves in parallel — except that shared storage prunes in O(1) and
  // a one-sided region transfers whole (one refcount move, no rebuild).
  static diff_trees diff(node* a, node* b) {
    if (TO::shares_storage(a, b)) {
      dec(a);
      dec(b);
      return {};
    }
    if (a == nullptr) return {nullptr, b};
    if (b == nullptr) return {a, nullptr};
    if (is_block(a) && is_block(b)) return diff_blocks(a, b);
    size_t total = size(a) + size(b);
    node *l2, *m2, *r2;
    expose_own(b, l2, m2, r2);
    auto sp = split(a, m2->key);
    diff_trees lo, hi;
    par_do_if(
        total >= par_cutoff(), [&] { lo = diff(sp.left, l2); },
        [&] { hi = diff(sp.right, r2); });
    node* bmid = nullptr;
    node* amid = nullptr;
    if (sp.mid != nullptr && val_equal(sp.mid->value, m2->value)) {
      dec(sp.mid);
      dec(m2);
    } else {
      bmid = sp.mid;  // may be null: key only in b
      amid = m2;
    }
    diff_trees out;
    out.before = bmid != nullptr ? join(lo.before, bmid, hi.before)
                                 : join2(lo.before, hi.before);
    out.after = amid != nullptr ? join(lo.after, amid, hi.after)
                                : join2(lo.after, hi.after);
    return out;
  }

  // Base case: two distinct leaf blocks, one two-pointer merge.
  static diff_trees diff_blocks(node* a, node* b) {
    auto av = NM::lstore::read(block_of(a));
    auto bv = NM::lstore::read(block_of(b));
    std::vector<entry_t> before, after;
    MO::merge_runs(
        av.data(), av.size(), bv.data(), bv.size(),
        MO::entry_key, [&](const entry_t& e) { before.push_back(e); },
        [&](const entry_t& e) { after.push_back(e); },
        [&](const entry_t& ea, const entry_t& eb) {
          if (val_equal(ea.second, eb.second)) return;
          before.push_back(ea);
          after.push_back(eb);
        });
    diff_trees out;
    out.before = TO::build_sorted_seq(before.data(), before.size());
    out.after = TO::build_sorted_seq(after.data(), after.size());
    dec(a);
    dec(b);
    return out;
  }

  // Fold an aug-style monoid (g2 per entry, associative f2 with identity
  // id) over exactly the changed regions, without building any tree:
  // returns {fold over the before-side, fold over the after-side} of the
  // same partition diff() produces. One-sided regions fold with map_reduce
  // (O(region) — every such entry *is* a change). Consumes both references.
  template <typename G2, typename F2, typename B>
  static std::pair<B, B> diff_fold(node* a, node* b, const G2& g2,
                                   const F2& f2, const B& id) {
    if (TO::shares_storage(a, b)) {
      dec(a);
      dec(b);
      return {id, id};
    }
    if (a == nullptr) {
      B bf = MO::map_reduce(b, g2, f2, id);
      dec(b);
      return {id, bf};
    }
    if (b == nullptr) {
      B af = MO::map_reduce(a, g2, f2, id);
      dec(a);
      return {af, id};
    }
    if (is_block(a) && is_block(b)) {
      auto av = NM::lstore::read(block_of(a));
      auto bv = NM::lstore::read(block_of(b));
      std::pair<B, B> out{id, id};
      MO::merge_runs(
          av.data(), av.size(), bv.data(), bv.size(), MO::entry_key,
          [&](const entry_t& e) { out.first = f2(out.first, g2(e.first, e.second)); },
          [&](const entry_t& e) { out.second = f2(out.second, g2(e.first, e.second)); },
          [&](const entry_t& ea, const entry_t& eb) {
            if (val_equal(ea.second, eb.second)) return;
            out.first = f2(out.first, g2(ea.first, ea.second));
            out.second = f2(out.second, g2(eb.first, eb.second));
          });
      dec(a);
      dec(b);
      return out;
    }
    size_t total = size(a) + size(b);
    node *l2, *m2, *r2;
    expose_own(b, l2, m2, r2);
    auto sp = split(a, m2->key);
    std::pair<B, B> lo{id, id}, hi{id, id};
    par_do_if(
        total >= par_cutoff(),
        [&] { lo = diff_fold(sp.left, l2, g2, f2, id); },
        [&] { hi = diff_fold(sp.right, r2, g2, f2, id); });
    std::pair<B, B> out{f2(lo.first, hi.first), f2(lo.second, hi.second)};
    if (sp.mid != nullptr && val_equal(sp.mid->value, m2->value)) {
      // unchanged entry: contributes to neither side
    } else {
      if (sp.mid != nullptr)
        out.first = f2(out.first, g2(sp.mid->key, sp.mid->value));
      out.second = f2(out.second, g2(m2->key, m2->value));
    }
    if (sp.mid != nullptr) dec(sp.mid);
    dec(m2);
    return out;
  }
};

// ------------------------------------------------- map-level diff records --

// How one key changed between two versions.
enum class change_kind : uint8_t { added, removed, updated };

inline const char* change_kind_name(change_kind k) {
  switch (k) {
    case change_kind::added: return "added";
    case change_kind::removed: return "removed";
    default: return "updated";
  }
}

// One entry of an ordered change stream between two versions of Map.
template <typename Map>
struct map_change {
  using K = typename Map::K;
  using V = typename Map::V;

  K key;
  change_kind kind;
  std::optional<V> before;  // value in the from-version (removed / updated)
  std::optional<V> after;   // value in the to-version (added / updated)

  friend bool operator==(const map_change& a, const map_change& b) {
    return a.key == b.key && a.kind == b.kind && a.before == b.before &&
           a.after == b.after;
  }
};

// The result of Map::diff(from, to): two maps partitioning the difference.
// A key present in `before` only was removed; in `after` only, added; in
// both, updated (before holds the old value, after the new). Both are
// ordinary maps — every query (aug_val, views, set algebra) applies.
template <typename Map>
struct map_diff {
  Map before;
  Map after;

  bool empty() const { return before.empty() && after.empty(); }

  // Number of distinct changed keys: a two-pointer merge over the two
  // sorted key sequences (no tree allocation, unlike an intersection).
  size_t size() const {
    auto bs = before.entries();
    auto as = after.entries();
    size_t count = 0, i = 0, j = 0;
    while (i < bs.size() && j < as.size()) {
      if (Map::entry_policy::comp(bs[i].first, as[j].first)) {
        i++;
      } else if (Map::entry_policy::comp(as[j].first, bs[i].first)) {
        j++;
      } else {
        i++;
        j++;
      }
      count++;
    }
    return count + (bs.size() - i) + (as.size() - j);
  }

  // The merged, key-ordered change stream: one record per changed key.
  std::vector<map_change<Map>> changes() const {
    using change_t = map_change<Map>;
    auto bs = before.entries();
    auto as = after.entries();
    std::vector<change_t> out;
    out.reserve(bs.size() + as.size());
    size_t i = 0, j = 0;
    auto less = [](const typename Map::K& x, const typename Map::K& y) {
      return Map::entry_policy::comp(x, y);
    };
    while (i < bs.size() && j < as.size()) {
      if (less(bs[i].first, as[j].first)) {
        out.push_back({bs[i].first, change_kind::removed, bs[i].second, {}});
        i++;
      } else if (less(as[j].first, bs[i].first)) {
        out.push_back({as[j].first, change_kind::added, {}, as[j].second});
        j++;
      } else {
        out.push_back(
            {bs[i].first, change_kind::updated, bs[i].second, as[j].second});
        i++;
        j++;
      }
    }
    for (; i < bs.size(); i++)
      out.push_back({bs[i].first, change_kind::removed, bs[i].second, {}});
    for (; j < as.size(); j++)
      out.push_back({as[j].first, change_kind::added, {}, as[j].second});
    return out;
  }
};

}  // namespace pam
