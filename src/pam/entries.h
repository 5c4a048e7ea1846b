// Ready-made Entry policies for the common augmentations, used by the
// applications, tests and benchmarks. Defining a new augmented map type is
// a matter of writing one of these little structs (paper Figure 3).
#pragma once

#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>

#include "pam/entry_traits.h"

namespace pam {

// Identity elements for the max/min augmentations. Numeric value types get
// the true extremes from std::numeric_limits; any other type falls back to
// a value-initialized V{} — or to a user specialization of this trait when
// V{} is not a valid identity. For max over std::string, V{} ("") *is* the
// identity under lexicographic order (every string compares >= ""); for min
// over a type with no greatest element there is no true identity, so either
// treat V{} as a +infinity sentinel in `combine` or specialize
// `extreme_values<V>::highest()`.
template <typename V, typename = void>
struct extreme_values {
  static V lowest() {
    if constexpr (std::numeric_limits<V>::is_specialized) {
      return std::numeric_limits<V>::lowest();
    } else {
      return V{};
    }
  }
  static V highest() {
    if constexpr (std::numeric_limits<V>::is_specialized) {
      return std::numeric_limits<V>::max();
    } else {
      return V{};
    }
  }
};

// Plain ordered-map entry: no augmentation.
template <typename K, typename V, typename Less = std::less<K>>
struct map_entry {
  using key_t = K;
  using val_t = V;
  // True iff keys order by the default operator< — the licence for the
  // bulk radix sort to order raw key bits (pam/map_ops.h).
  static constexpr bool default_compare = std::is_same_v<Less, std::less<K>>;
  static bool comp(const K& a, const K& b) { return Less()(a, b); }
};

// Augmentation by the sum of values (the paper's Equation 1: the running
// example "augmented sum" map). Block folds use the one grouped
// fold_entries_assoc (entry_traits.h) for every value type, so float sums
// regroup the same way at every site that folds a block and agree bit for bit.
template <typename K, typename V, typename Less = std::less<K>>
struct sum_entry {
  using key_t = K;
  using val_t = V;
  using aug_t = V;
  static constexpr bool default_compare = std::is_same_v<Less, std::less<K>>;
  static bool comp(const K& a, const K& b) { return Less()(a, b); }
  static aug_t identity() { return V{}; }
  static aug_t base(const K&, const V& v) { return v; }
  static aug_t combine(const aug_t& a, const aug_t& b) { return a + b; }
};

// Augmentation by the maximum of values (interval trees, inverted index).
// Works for non-numeric value types too: the identity dispatches through
// extreme_values<V> (std::string maps get "" — the true identity for max).
template <typename K, typename V, typename Less = std::less<K>>
struct max_entry {
  using key_t = K;
  using val_t = V;
  using aug_t = V;
  static constexpr bool default_compare = std::is_same_v<Less, std::less<K>>;
  static bool comp(const K& a, const K& b) { return Less()(a, b); }
  static aug_t identity() { return extreme_values<V>::lowest(); }
  static aug_t base(const K&, const V& v) { return v; }
  static aug_t combine(const aug_t& a, const aug_t& b) { return a > b ? a : b; }
};

// Augmentation by the minimum of values. For value types with no greatest
// element (see extreme_values) the fallback identity is V{}; only use such a
// min map if V{} can serve as a top sentinel, or specialize the trait.
template <typename K, typename V, typename Less = std::less<K>>
struct min_entry {
  using key_t = K;
  using val_t = V;
  using aug_t = V;
  static constexpr bool default_compare = std::is_same_v<Less, std::less<K>>;
  static bool comp(const K& a, const K& b) { return Less()(a, b); }
  static aug_t identity() { return extreme_values<V>::highest(); }
  static aug_t base(const K&, const V& v) { return v; }
  static aug_t combine(const aug_t& a, const aug_t& b) { return a < b ? a : b; }
};

// ------------------------------------------------- string-keyed policies --
// Entry policies whose keys are std::string, stored front-coded (shared
// prefix + suffix) inside sealed leaf blocks (key_layout::front_coded; see
// pam/coded_block.h). comp takes string_views so lookups, splitters and the
// in-block decoder can compare without materializing std::string keys.

// Plain string-keyed map entry.
template <typename V>
struct str_map_entry {
  using key_t = std::string;
  using val_t = V;
  static constexpr key_layout layout = key_layout::front_coded;
  static bool comp(std::string_view a, std::string_view b) { return a < b; }
};

// String keys, value-sum augmentation.
template <typename V>
struct str_sum_entry {
  using key_t = std::string;
  using val_t = V;
  using aug_t = V;
  static constexpr key_layout layout = key_layout::front_coded;
  static bool comp(std::string_view a, std::string_view b) { return a < b; }
  static aug_t identity() { return V{}; }
  static aug_t base(const key_t&, const V& v) { return v; }
  static aug_t combine(const aug_t& a, const aug_t& b) { return a + b; }
};

// String keys, value-max augmentation.
template <typename V>
struct str_max_entry {
  using key_t = std::string;
  using val_t = V;
  using aug_t = V;
  static constexpr key_layout layout = key_layout::front_coded;
  static bool comp(std::string_view a, std::string_view b) { return a < b; }
  static aug_t identity() { return extreme_values<V>::lowest(); }
  static aug_t base(const key_t&, const V& v) { return v; }
  static aug_t combine(const aug_t& a, const aug_t& b) { return a > b ? a : b; }
};

// ------------------------------------------------- delta-coded policies --
// The same policies with integral keys stored delta-coded (base key +
// zigzag-varint differences, integral values varint-packed) inside sealed
// leaf blocks (key_layout::delta; see pam/coded_block.h). Inherit the flat
// policy and override only the layout: the entry_layout trait detects the
// member through the base-class lookup.

template <typename K, typename V, typename Less = std::less<K>>
struct delta_map_entry : map_entry<K, V, Less> {
  static constexpr key_layout layout = key_layout::delta;
};

template <typename K, typename V, typename Less = std::less<K>>
struct delta_sum_entry : sum_entry<K, V, Less> {
  static constexpr key_layout layout = key_layout::delta;
};

template <typename K, typename V, typename Less = std::less<K>>
struct delta_max_entry : max_entry<K, V, Less> {
  static constexpr key_layout layout = key_layout::delta;
};

template <typename K, typename V, typename Less = std::less<K>>
struct delta_min_entry : min_entry<K, V, Less> {
  static constexpr key_layout layout = key_layout::delta;
};

}  // namespace pam
