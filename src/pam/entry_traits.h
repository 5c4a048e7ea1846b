// Entry-policy introspection shared by every layer below the public maps:
// the normalized view of an Entry (entry_traits), the key-layout trait that
// selects a leaf-block encoding per policy, the default-order trait, and the
// associativity-only block fold. This header sits below both node.h and the
// block encoders (coded_block.h), which is why it exists as its own file.
#pragma once

#include <cstddef>
#include <string>
#include <type_traits>

namespace pam {

// Empty placeholder for "no value" (sets) and "no augmentation" (plain maps).
struct unit {
  friend constexpr bool operator==(unit, unit) { return true; }
};

// Normalized view of an Entry policy. An Entry always provides:
//   key_t, val_t, static bool comp(key_t, key_t)
// and, for augmented maps, additionally (paper Section 3):
//   aug_t                                  the augmented value type A
//   static aug_t identity()                I, the identity of f
//   static aug_t base(key_t, val_t)        g, entry -> augmented value
//   static aug_t combine(aug_t, aug_t)     f, associative combine
template <typename Entry, typename = void>
struct entry_traits {
  static constexpr bool has_aug = false;
  using aug_t = unit;
  static unit identity() { return {}; }
  template <typename K, typename V>
  static unit base(const K&, const V&) {
    return {};
  }
  static unit combine(unit, unit) { return {}; }
};

template <typename Entry>
struct entry_traits<Entry, std::void_t<typename Entry::aug_t>> {
  static constexpr bool has_aug = true;
  using aug_t = typename Entry::aug_t;
  static aug_t identity() { return Entry::identity(); }
  template <typename K, typename V>
  static aug_t base(const K& k, const V& v) {
    return Entry::base(k, v);
  }
  static aug_t combine(const aug_t& a, const aug_t& b) { return Entry::combine(a, b); }
};

// ------------------------------------------------------------ key layout --

// How an Entry's keys are stored inside sealed leaf blocks:
//   flat         a sorted array of entry_t — fixed-width keys, zero-copy
//                reads, branch-free in-block search;
//   front_coded  variable-length string keys, each stored as a varint
//                shared-prefix length, a varint suffix length and the suffix
//                bytes, then a raw value array (PaC-tree-style difference
//                encoding);
//   delta        integral keys stored as a full base key plus zigzag-varint
//                successor differences, with integral values varint-packed in
//                a trailing stream (PaC-tree difference encoding for the
//                fixed-width case).
// Every layout is a codec over one block store (pam/coded_block.h).
enum class key_layout { flat, front_coded, delta };

// Entry policies opt in by declaring `static constexpr key_layout layout`;
// everything written before this trait existed defaults to flat and compiles
// unchanged.
template <typename Entry, typename = void>
struct entry_layout {
  static constexpr key_layout value = key_layout::flat;
};

template <typename Entry>
struct entry_layout<Entry, std::void_t<decltype(Entry::layout)>> {
  static constexpr key_layout value = Entry::layout;
};

template <typename Entry>
inline constexpr key_layout entry_layout_v = entry_layout<Entry>::value;

// --------------------------------------------------------- default order --

namespace detail {

// Entry policies built on std::less declare `default_compare = true`
// (entries.h); only then may a kernel order keys by their raw bits instead
// of calling Entry::comp (the radix sort in map_ops.h).
template <typename Entry, typename = void>
struct uses_default_less : std::false_type {};
template <typename Entry>
struct uses_default_less<Entry, std::void_t<decltype(Entry::default_compare)>>
    : std::bool_constant<Entry::default_compare> {};

}  // namespace detail

// ------------------------------------------------------------ block fold --

// Monoid fold over es[a, b) in left-to-right order, combining adjacent pairs
// and then pairs-of-pairs per group of four. The grouping relies only on
// associativity of `combine` (the Figure 3 contract — no commutativity), but
// breaks the single serial dependency chain of a naive loop into independent
// sub-folds, which lets simple numeric monoids (sum/min/max) vectorize and
// gives the rest instruction-level parallelism.
template <typename Traits, typename ET>
typename Traits::aug_t fold_entries_assoc(const ET* es, size_t a, size_t b) {
  using A = typename Traits::aug_t;
  if (a >= b) return Traits::identity();
  const size_t n = b - a;
  const ET* e = es + a;
  size_t i = 0;
  A acc = Traits::identity();
  for (; i + 4 <= n; i += 4) {
    A g01 = Traits::combine(Traits::base(e[i].first, e[i].second),
                            Traits::base(e[i + 1].first, e[i + 1].second));
    A g23 = Traits::combine(Traits::base(e[i + 2].first, e[i + 2].second),
                            Traits::base(e[i + 3].first, e[i + 3].second));
    acc = Traits::combine(acc, Traits::combine(std::move(g01), std::move(g23)));
  }
  for (; i < n; i++) {
    acc = Traits::combine(acc, Traits::base(e[i].first, e[i].second));
  }
  return acc;
}

}  // namespace pam
