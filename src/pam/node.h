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
// sealed sorted run of 1..leaf_block_size() entries with its augmented value
// cached in the block header — instead of at a tree node. Blocks sit only at
// leaf positions (they have no children), and every tree node is internal:
// exactly one inline entry, two children, the subtree's size and aug. The
// balance schemes see a block as a leaf and rotate internal nodes only.
// Blocks are immutable once sealed and shared whole (their own refcount), so
// versions that share a block share it by pointer.
//
// Ownership protocol (used consistently across tree_ops/map_ops/aug_ops):
//   * a `node*` argument passed to a *consuming* function transfers one
//     reference; the function returns an owned reference;
//   * read-only queries take `const node*` and never touch counts;
//   * the public map wrappers translate C++ value semantics (copy = refcount
//     bump) into this protocol.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "alloc/leaf_pool.h"
#include "alloc/scratch_buffer.h"
#include "alloc/type_allocator.h"
#include "pam/coded_block.h"
#include "pam/entry_traits.h"
#include "parallel/parallel.h"
#include "util/env.h"
#include "util/thread_annotations.h"

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

// Maximum entries per leaf block. 0 selects the classic one-entry-per-node
// layout; >= 1 packs subtrees of up to this many entries into blocks.
// Both layouts coexist in one process (existing blocks stay valid when the
// knob changes), so benchmarks can ablate blocked vs. unblocked at runtime.
//
// Interplay with the key_layout trait (entry_traits.h): the knob selects
// *whether* runs are blocked; the Entry's layout selects *how* a block is
// encoded (flat fixed-width array, front-coded strings, or delta-coded
// integers). B = 0 is valid for every layout — the tree degrades to classic
// nodes holding one inline key each, blocks are simply never built, and
// used_leaf_blocks() stays 0. Invalid layout/type combinations (front_coded
// with a non-string key, delta with a non-integral key, or either with a
// non-trivially-copyable value) are rejected at compile time by the
// contracted static_asserts in the codecs and coded_store (coded_block.h).
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

// ------------------------------------------------------------ leaf blocks --

// A refcounted flat run of sorted entries with its augmented value cached.
// Immutable once sealed: re-packs build new blocks, so any number of tree
// versions may share one block. The entry array lives in the same pool slot
// right after the header; `capacity` (a power of two) names the slot class.
template <typename Entry>
struct leaf_block {
  using K = typename Entry::key_t;
  using V = typename Entry::val_t;
  using A = typename entry_traits<Entry>::aug_t;
  using entry_t = std::pair<K, V>;

  std::atomic<uint32_t> ref_cnt;
  uint32_t count;
  uint32_t capacity;
  [[no_unique_address]] A aug;

  static constexpr size_t entries_offset() {
    size_t a = alignof(entry_t);
    return (sizeof(leaf_block) + a - 1) / a * a;
  }
  static constexpr size_t slot_bytes(size_t cap) {
    return entries_offset() + cap * sizeof(entry_t);
  }
  static constexpr size_t slot_align() {
    return alignof(leaf_block) > alignof(entry_t) ? alignof(leaf_block)
                                                  : alignof(entry_t);
  }

  entry_t* entries() {
    return reinterpret_cast<entry_t*>(reinterpret_cast<char*>(this) +
                                      entries_offset());
  }
  const entry_t* entries() const {
    return reinterpret_cast<const entry_t*>(reinterpret_cast<const char*>(this) +
                                            entries_offset());
  }
};

// True when every byte of a T belongs to the value of some member, so a raw
// copy of a T carries no padding. Floating-point members count as padding
// free (they have no unique representation only because of -0.0 and NaNs).
template <typename T>
inline constexpr bool padding_free = std::has_unique_object_representations_v<T> ||
                                     std::is_same_v<T, float> || std::is_same_v<T, double>;
template <typename A, typename B>
inline constexpr bool padding_free<std::pair<A, B>> =
    padding_free<A> && padding_free<B> && sizeof(A) + sizeof(B) == sizeof(std::pair<A, B>);

// Leaf-block storage for one Entry type: a raw_pool per power-of-two
// capacity class, plus live accounting for the space experiments. Shared by
// every balancing scheme instantiated over the Entry.
template <typename Entry>
struct leaf_store {
  using block = leaf_block<Entry>;
  using entry_t = typename block::entry_t;
  using A = typename block::A;
  using traits = entry_traits<Entry>;

  static constexpr int kClasses = 12;  // capacities 1, 2, 4, ..., 2048

  static int class_of(size_t cap) {
    int c = 0;
    while ((size_t{1} << c) < cap) c++;
    return c;
  }

  // Storage for `count` entries (1 <= count <= kMaxLeafBlock). The header is
  // initialized; entries are raw and the augmented value is unconstructed —
  // placement-new the entries in key order, then call seal().
  static block* allocate(uint32_t count) {
    int cls = class_of(count);
    block* b = static_cast<block*>(pool(cls).allocate());
    new (&b->ref_cnt) std::atomic<uint32_t>(1);
    b->count = count;
    b->capacity = static_cast<uint32_t>(size_t{1} << cls);
    return b;
  }

  // Compute and cache the block's augmented value from its entries with the
  // grouped associativity-only fold (entry_traits.h), the one fold every
  // block site uses.
  static void seal(block* b) {
    if constexpr (traits::has_aug) {
      new (&b->aug) A(fold_entries_assoc<traits>(b->entries(), 0, b->count));
    } else {
      new (&b->aug) A();
    }
  }

  // One-shot construction seam shared with coded_store: encode n sorted
  // entries (here: copy them flat) into a fresh sealed block.
  static block* build(const entry_t* es, uint32_t n) {
    block* b = allocate(n);
    entry_t* out = b->entries();
    for (uint32_t i = 0; i < n; i++) new (&out[i]) entry_t(es[i]);
    seal(b);
    return b;
  }

  // ------------------------------------------------- serialization hooks --
  // Sealed flat blocks whose entries are plain bytes can leave as one
  // memcpy of the entry array (pam/serialize.h's kFlatRaw records, used
  // for entries that are not integer pairs; those travel delta-coded).
  // "Plain bytes" is scratch_storable (std::pair is never trivially
  // copyable, so that trait would reject every entry) and padding_free (a
  // pad byte would carry recycled pool contents to disk). The reader
  // rebuilds blocks through build(), so the augmented value is always
  // recomputed, never trusted from the payload.
  static constexpr bool raw_payload = scratch_storable<entry_t> && padding_free<entry_t>;

  static size_t payload_bytes(const block* b) {
    return size_t{b->count} * sizeof(entry_t);
  }

  static const char* payload(const block* b) {
    static_assert(raw_payload);
    return reinterpret_cast<const char*>(b->entries());
  }

  static block* retain(block* b) {
    b->ref_cnt.fetch_add(1, std::memory_order_relaxed);
    return b;
  }

  static void release(block* b) {
    if (b->ref_cnt.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    entry_t* e = b->entries();
    for (uint32_t i = 0; i < b->count; i++) e[i].~entry_t();
    b->aug.~A();
    pool(class_of(b->capacity)).deallocate(b);
  }

  // Live blocks / bytes across all maps of this Entry type (Table 4).
  static int64_t used_blocks() {
    int64_t total = 0;
    for (int c = 0; c < kClasses; c++) {
      raw_pool* p = table().pools[c].load(std::memory_order_acquire);
      if (p != nullptr) total += p->used();
    }
    return total;
  }

  static int64_t used_bytes() {
    int64_t total = 0;
    for (int c = 0; c < kClasses; c++) {
      raw_pool* p = table().pools[c].load(std::memory_order_acquire);
      if (p != nullptr) total += p->used() * static_cast<int64_t>(p->slot_bytes());
    }
    return total;
  }

 private:
  struct pool_table {
    // pam-lint: allow(unguarded-mutex) — mu serializes pool *creation*
    // only; the pools themselves are published through the atomics and
    // read lock-free (double-checked init in pool() below), so there is
    // no member for GUARDED_BY to name.
    mutex mu;
    std::array<std::atomic<raw_pool*>, kClasses> pools{};
  };

  static pool_table& table() {
    // pam-lint: allow(naked-new) — immortal process-wide singleton.
    static pool_table* t = new pool_table();  // immortal
    return *t;
  }

  static raw_pool& pool(int cls) {
    pool_table& t = table();
    raw_pool* p = t.pools[cls].load(std::memory_order_acquire);
    if (p == nullptr) {
      mutex_guard lock(t.mu);
      p = t.pools[cls].load(std::memory_order_relaxed);
      if (p == nullptr) {
        // pam-lint: allow(naked-new) — immortal pool singleton per class.
        p = new raw_pool(block::slot_bytes(size_t{1} << cls), block::slot_align());
        t.pools[cls].store(p, std::memory_order_release);
      }
    }
    return *p;
  }
};

// ------------------------------------------------------------- tree node --

// An internal tree node: one inline entry, two children, the subtree's
// entry count and augmented value, and the balance scheme's data. A child
// is null, another node, or (low bit set) a leaf block. With 64-bit keys,
// values and aug the weight-balanced node is 48 bytes, the paper's Table 4
// node. Which block type an Entry's leaves use follows its key_layout trait.
template <typename Entry>
using leaf_block_of = std::conditional_t<entry_layout_v<Entry> == key_layout::flat,
                                         leaf_block<Entry>, coded_block<Entry>>;

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

// Uniform read access to one block's sorted entries, switched by layout:
// the flat view is a zero-copy pointer into the sealed array; the coded
// view owns a materialized decode (used by the cold multi-entry paths —
// point searches go through the coded store's native in-block search).
template <typename Entry>
struct flat_block_view {
  using entry_t = std::pair<typename Entry::key_t, typename Entry::val_t>;
  const entry_t* es;
  size_t n;
  const entry_t* data() const { return es; }
  size_t size() const { return n; }
};

template <typename Entry>
struct coded_block_view {
  using entry_t = std::pair<typename Entry::key_t, typename Entry::val_t>;
  std::vector<entry_t> buf;
  const entry_t* data() const { return buf.data(); }
  size_t size() const { return buf.size(); }
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

  // The Entry's key_layout trait selects the block encoding; everything
  // above this seam (tree_ops and up) is layout-generic.
  static constexpr key_layout layout = entry_layout_v<Entry>;
  static constexpr bool flat_layout = layout == key_layout::flat;
  using lblock = leaf_block_of<Entry>;
  using lstore = std::conditional_t<flat_layout, leaf_store<Entry>,
                                    coded_store<Entry, codec_of<Entry>>>;
  using block_view =
      std::conditional_t<flat_layout, flat_block_view<Entry>, coded_block_view<Entry>>;

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

  // Materialize (flat: point at) the entries of a sealed block.
  static block_view read_block(const lblock* b) {
    if constexpr (flat_layout) {
      return {b->entries(), b->count};
    } else {
      block_view v;
      v.buf.reserve(b->count);
      lstore::decode_all(b, v.buf);
      return v;
    }
  }

  // In-order append of every entry under t (borrowed) onto out.
  static void collect_entries(const node* t, std::vector<entry_t>& out) {
    if (t == nullptr) return;
    if (is_block(t)) {
      auto bv = read_block(block_of(t));
      out.insert(out.end(), bv.data(), bv.data() + bv.size());
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
      if (is_node(l) && is_node(r) && l->size + r->size >= gc_par_cutoff()) {
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
