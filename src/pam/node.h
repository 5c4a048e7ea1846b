// Tree nodes, blocked leaves, reference-counting garbage collection, and the
// node-level helpers (copy-on-share, rotations) that every balancing scheme
// and every algorithm is built from.
//
// PAM's trees are purely functional: operations never mutate a node that any
// other tree can reach. Concretely, a node may be mutated if and only if its
// reference count is 1 and the caller owns that reference. `ensure_owned`
// and `expose_own` enforce this: they either hand back the node (refcount 1,
// the paper's "reuse optimization") or make a fresh copy that shares the
// children. Old versions of a map therefore remain valid forever — this is
// what gives PAM persistence and snapshot-style concurrency for free.
//
// Blocked leaves (the PaC-tree layout of Dhulipala & Blelloch 2022): a child
// pointer whose low bit is set points at a refcounted *leaf block* — a
// sealed sorted run of 1..leaf_capacity() entries with its augmented value
// cached in the block header — instead of at a tree node. Blocks sit only at
// leaf positions (they have no children), and every tree node is internal:
// exactly one inline entry, two children, the subtree's size and aug. The
// balance schemes see a block as a leaf and rotate internal nodes only.
// Blocks are immutable once sealed and shared whole (their own refcount), so
// versions that share a block share it by pointer. Every layout's blocks
// live in one store, coded_store (pam/coded_block.h), under the codec the
// Entry's key_layout selects: flat entry arrays, front-coded strings or
// delta-coded integers.
//
// Ownership protocol (used consistently across tree_ops/map_ops/aug_ops):
//   * a `node*` argument passed to a *consuming* function transfers one
//     reference; the function returns an owned reference;
//   * read-only queries take `const node*` and never touch counts;
//   * the public map wrappers translate C++ value semantics (copy = refcount
//     bump) into this protocol.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "alloc/type_allocator.h"
#include "pam/coded_block.h"
#include "pam/entry_traits.h"
#include "parallel/parallel.h"
#include "util/env.h"

namespace pam {

// Runtime toggle for the refcount==1 in-place reuse optimization (paper §4,
// "Persistence"). Disabling it forces full path copying; the ablation tests
// verify both modes produce identical maps. Toggle only while quiescent.
inline std::atomic<bool>& reuse_flag() {
  static std::atomic<bool> f{true};
  return f;
}
inline bool reuse_enabled() { return reuse_flag().load(std::memory_order_relaxed); }
inline void set_reuse_enabled(bool on) { reuse_flag().store(on); }

// ------------------------------------------------------- leaf block knob --

// Base entries per leaf block, B. 0 selects the classic one-entry-per-node
// layout; >= 1 packs subtrees into blocks of up to leaf_capacity() entries:
// B times the codec's kLeafScale (1 for flat and front-coded blocks, 4 for
// delta-coded ones), clamped to kMaxLeafBlock, which keeps the u16 block
// count and serialize.h's frame checks valid. A block costs a fixed 72
// bytes (a 48-byte tree node and a 24-byte header for u64 entries) besides
// its payload; the scale keeps that cost small next to the payload of a
// compressed block, as PaC-trees size their blocks.
// Both layouts coexist in one process (existing blocks stay valid when the
// knob changes), so benchmarks can ablate blocked vs. unblocked at runtime.
//
// Interplay with the key_layout trait (entry_traits.h): the knob selects
// *whether* runs are blocked; the Entry's layout selects *how* a block is
// encoded (flat entry array, front-coded strings, or delta-coded integers).
// B = 0 is valid for every layout — the tree degrades to classic nodes
// holding one inline key each, blocks are simply never built, and
// used_leaf_blocks() stays 0. Invalid layout/type combinations (front_coded
// with a non-string key, delta with a non-integral key, or either with a
// non-trivially-copyable value) are rejected at compile time by the
// contracted static_asserts in the codecs (coded_block.h).
inline constexpr size_t kMaxLeafBlock = 2048;

inline std::atomic<uint32_t>& leaf_block_knob() {
  static std::atomic<uint32_t> knob{[] {
    long v = env_long("PAM_LEAF_BLOCK", 32);
    if (v < 0) v = 0;
    if (v > static_cast<long>(kMaxLeafBlock)) v = static_cast<long>(kMaxLeafBlock);
    return static_cast<uint32_t>(v);
  }()};
  return knob;
}
inline size_t leaf_block_size() {
  return leaf_block_knob().load(std::memory_order_relaxed);
}
inline void set_leaf_block_size(size_t b) {
  if (b > kMaxLeafBlock) b = kMaxLeafBlock;
  leaf_block_knob().store(static_cast<uint32_t>(b));
}

// ------------------------------------------------------------- tree node --

// An internal tree node: one inline entry, two children, the subtree's
// entry count and augmented value, and the balance scheme's data. A child
// is null, another node, or (low bit set) a leaf block. With 64-bit keys,
// values and aug the weight-balanced node is 48 bytes, the paper's Table 4
// node.
template <typename Entry, typename BalData>
struct tree_node {
  using K = typename Entry::key_t;
  using V = typename Entry::val_t;
  using A = typename entry_traits<Entry>::aug_t;

  std::atomic<uint32_t> ref_cnt;
  uint32_t size;  // subtree entry count (bounds maps to 2^32-1 entries)
  tree_node* left;
  tree_node* right;
  K key;
  [[no_unique_address]] V value;
  [[no_unique_address]] A aug;
  [[no_unique_address]] BalData bal;
};

template <typename Entry, typename Balance>
struct node_manager {
  using entry = Entry;
  using traits = entry_traits<Entry>;
  using K = typename Entry::key_t;
  using V = typename Entry::val_t;
  using A = typename traits::aug_t;
  using node = tree_node<Entry, typename Balance::data>;
  using allocator = type_allocator<node>;
  using entry_t = std::pair<K, V>;

  // The Entry's key_layout trait selects the block codec; everything above
  // this seam (tree_ops and up) is layout-generic.
  static constexpr key_layout layout = entry_layout_v<Entry>;
  using lstore = coded_store<Entry, codec_of<Entry>>;
  using lblock = typename lstore::block;
  static_assert(kMaxLeafBlock <= UINT16_MAX, "a block's count is a u16");

  // Entries per leaf block for this Entry's codec; 0 when unblocked. Every
  // path that seals or packs blocks reads this, so they all agree.
  static size_t leaf_capacity() {
    return std::min(kMaxLeafBlock, leaf_block_size() * codec_of<Entry>::kLeafScale);
  }

  // Comparisons are heterogeneous: string-keyed policies take string_views,
  // so lookups and in-block decoding compare without materializing keys.
  template <typename KA, typename KB>
  static bool less(const KA& a, const KB& b) { return Entry::comp(a, b); }

  // ------------------------------------------------------ leaf tagging --
  // The only code that sets, tests or strips the leaf tag (pam_lint's
  // leaf-tag rule). Block slots are at least 4-byte aligned, so bit 0 of a
  // block address is free to mark a child pointer as a leaf block.
  static constexpr uintptr_t kLeafTag = 1;
  static_assert(alignof(lblock) > kLeafTag && alignof(node) > kLeafTag);

  static bool is_block(const node* t) {
    return (reinterpret_cast<uintptr_t>(t) & kLeafTag) != 0;
  }
  // A tree node proper: neither null nor a block.
  static bool is_node(const node* t) { return t != nullptr && !is_block(t); }
  static lblock* block_of(const node* t) {
    return reinterpret_cast<lblock*>(reinterpret_cast<uintptr_t>(t) & ~kLeafTag);
  }
  // The tagged child pointer for a sealed block (ownership transfers).
  static node* as_leaf(lblock* b) {
    return reinterpret_cast<node*>(reinterpret_cast<uintptr_t>(b) | kLeafTag);
  }

  // In-order append of every entry under t (borrowed) onto out.
  static void collect_entries(const node* t, std::vector<entry_t>& out) {
    if (t == nullptr) return;
    if (is_block(t)) {
      auto run = lstore::read(block_of(t));
      out.insert(out.end(), run.data(), run.data() + run.size());
      return;
    }
    collect_entries(t->left, out);
    out.emplace_back(t->key, t->value);
    collect_entries(t->right, out);
  }

  static size_t size(const node* t) {
    if (t == nullptr) return 0;
    return is_block(t) ? block_of(t)->count : t->size;
  }
  // Cached augmented value of a non-empty tree.
  static const A& aug_ref(const node* t) {
    return is_block(t) ? block_of(t)->aug : t->aug;
  }
  static A aug_of(const node* t) { return t == nullptr ? traits::identity() : aug_ref(t); }

  // ------------------------------------------------- reference counting --

  static node* inc(node* t) {
    if (is_block(t)) {
      lstore::retain(block_of(t));
    } else if (t != nullptr) {
      t->ref_cnt.fetch_add(1, std::memory_order_relaxed);
    }
    return t;
  }

  static uint32_t ref_count(const node* t) {
    const std::atomic<uint32_t>& c = is_block(t) ? block_of(t)->ref_cnt : t->ref_cnt;
    return c.load(std::memory_order_relaxed);
  }

  // Release one reference; frees the node (and recursively its subtrees, in
  // parallel when large — the cutoff follows the runtime gc_par_cutoff()
  // knob) when the count reaches zero. This is also the teardown that epoch
  // limbo drains run (alloc/arena.h): a displaced snapshot_box version is a
  // retained root, and destroying it lands here with the same parallelism.
  static void dec(node* t) {
    while (t != nullptr) {
      if (is_block(t)) {
        lstore::release(block_of(t));
        return;
      }
      if (t->ref_cnt.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
      node* l = t->left;
      node* r = t->right;
      destroy_node(t);
      // Fork only when both children die here: a shared child stops at its
      // first decrement, and a user thread's fork waits for a worker.
      if (is_node(l) && is_node(r) && l->size + r->size >= gc_par_cutoff() &&
          l->ref_cnt.load(std::memory_order_relaxed) == 1 &&
          r->ref_cnt.load(std::memory_order_relaxed) == 1) {
        par_do([l] { dec(l); }, [r] { dec(r); });
        return;
      }
      dec(l);  // bounded by tree height
      t = r;
    }
  }

  // -------------------------------------------- construction / copying --

  // Recompute the cached subtree metadata of t from its children: size, the
  // augmented value (A(t) = f(A(l), f(g(k,v), A(r))), paper §4), and the
  // balance scheme's own bookkeeping. Called whenever children change, which
  // keeps every algorithm except the aug_* family oblivious of augmentation.
  static void update(node* t) {
    t->size = static_cast<uint32_t>(1 + size(t->left) + size(t->right));
    if constexpr (traits::has_aug) {
      t->aug = traits::combine(aug_of(t->left),
                               traits::combine(traits::base(t->key, t->value),
                                               aug_of(t->right)));
    }
    Balance::template update_data<node_manager>(t);
  }

  static node* make_single(const K& k, const V& v) {
    node* t = allocator::allocate();
    new (&t->ref_cnt) std::atomic<uint32_t>(1);
    t->left = nullptr;
    t->right = nullptr;
    new (&t->key) K(k);
    new (&t->value) V(v);
    if constexpr (traits::has_aug) {
      new (&t->aug) A(traits::base(k, v));
    } else {
      new (&t->aug) A();
    }
    new (&t->bal) typename Balance::data();
    update(t);
    return t;
  }

  static void destroy_node(node* t) {
    t->key.~K();
    t->value.~V();
    t->aug.~A();
    using BD = typename Balance::data;
    t->bal.~BD();
    allocator::deallocate(t);
  }

  // A fresh refcount-1 copy of node t sharing t's children (whose counts
  // are bumped). Borrow-style: t's own count is untouched.
  static node* copy_node(const node* t) {
    node* c = allocator::allocate();
    new (&c->ref_cnt) std::atomic<uint32_t>(1);
    c->size = t->size;
    c->left = inc(t->left);
    c->right = inc(t->right);
    new (&c->key) K(t->key);
    new (&c->value) V(t->value);
    new (&c->aug) A(t->aug);
    new (&c->bal) typename Balance::data(t->bal);
    return c;
  }

  // Make node t safe to mutate: hand it back if we hold the only reference
  // (the reuse optimization), otherwise replace our reference with a copy.
  // Blocks are never mutated, so t is a node.
  static node* ensure_owned(node* t) {
    if (reuse_enabled() && ref_count(t) == 1) return t;
    node* c = copy_node(t);
    dec(t);
    return c;
  }

  // Decompose an owned node into (left child, singleton middle, right
  // child), transferring ownership of all three to the caller. Blocks are
  // opened by tree_ops::expose_own, which shadows this.
  static void expose_own(node* t, node*& l, node*& m, node*& r) {
    if (reuse_enabled() && ref_count(t) == 1) {
      l = t->left;
      r = t->right;
      t->left = nullptr;
      t->right = nullptr;
      t->size = 1;
      m = t;
    } else {
      l = inc(t->left);
      r = inc(t->right);
      m = make_single(t->key, t->value);
      dec(t);
    }
  }

  // ------------------------------------------------------- rebalancing --

  // Wire l and r under m and refresh metadata. m must be owned.
  static node* attach(node* l, node* m, node* r) {
    m->left = l;
    m->right = r;
    update(m);
    return m;
  }

  // Standard rotations on owned nodes. The child being promoted is made
  // unique first, so rotations are persistence-safe. Colors/priorities move
  // with their nodes; per-scheme metadata is refreshed by update(). The
  // promoted child is always a node: no scheme lifts a block off a leaf.
  static node* rotate_left(node* x) {
    node* y = ensure_owned(x->right);
    x->right = y->left;
    y->left = x;
    update(x);
    update(y);
    return y;
  }

  static node* rotate_right(node* x) {
    node* y = ensure_owned(x->left);
    x->left = y->right;
    y->right = x;
    update(x);
    update(y);
    return y;
  }

  // Live node count across all maps of this instantiated type (Table 4).
  static int64_t used_nodes() { return allocator::used(); }
  // Live leaf-block storage for this Entry type (shared across schemes).
  static int64_t used_leaf_blocks() { return lstore::used_blocks(); }
  static int64_t used_leaf_bytes() { return lstore::used_bytes(); }
};

}  // namespace pam
