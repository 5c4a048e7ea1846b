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
// Blocked leaves (the PaC-tree layout of Dhulipala & Blelloch 2022): a node
// may carry, instead of one inline entry, a pointer to a refcounted *leaf
// block* — a flat sorted array of up to `leaf_block_size()` entries with a
// precomputed augmented value. Such a "chunk" node still has ordinary
// left/right child pointers (its block's keys sit between the two subtrees
// in key order), `size` still counts every entry below it, and its balance
// metadata describes it as a single node — so the four balancing schemes
// operate on chunk nodes without knowing they exist. Rotations inside a
// scheme's join may hand a chunk node interior children; that is fine: every
// algorithm in tree_ops/map_ops/aug_ops treats "node" as "1..B sorted
// entries plus two subtrees". Blocks are immutable once sealed and shared
// whole (their own refcount), so copy_node on a chunk is O(1) and snapshots
// keep sharing storage across re-packs.
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

// A tree node: either one inline entry (blk == nullptr) or a leaf block of
// blk->count entries (key/value then mirror the block's first entry so
// key-based heuristics like treap priorities stay well-defined). With 64-bit
// keys/values/augmentation this is 56 bytes — 8 more than the paper's Table 4
// node for the block pointer; the blocked layout wins it back ~20x over.
// Which block type an Entry's chunks carry follows its key_layout trait.
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
  leaf_block_of<Entry>* blk;  // non-null => this node carries a leaf block
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
  template <typename KA, typename KB>
  static bool keys_equal(const KA& a, const KB& b) {
    return !less(a, b) && !less(b, a);
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
  static size_t size(const node* t) { return t == nullptr ? 0 : t->size; }
  static A aug_of(const node* t) { return t == nullptr ? traits::identity() : t->aug; }

  // Is t a chunk node (carries a leaf block instead of one inline entry)?
  static bool is_chunk(const node* t) { return t != nullptr && t->blk != nullptr; }

  // Entries stored at t itself (not counting subtrees).
  static uint32_t cnt(const node* t) { return t->blk != nullptr ? t->blk->count : 1; }

  // Augmented value of t's own entries (cached in the block for chunks).
  static A own_aug(const node* t) {
    if constexpr (traits::has_aug) {
      return t->blk != nullptr ? t->blk->aug : traits::base(t->key, t->value);
    } else {
      return A{};
    }
  }

  // ------------------------------------------------- reference counting --

  static node* inc(node* t) {
    if (t != nullptr) t->ref_cnt.fetch_add(1, std::memory_order_relaxed);
    return t;
  }

  static uint32_t ref_count(const node* t) {
    return t->ref_cnt.load(std::memory_order_relaxed);
  }

  // Release one reference; frees the node (and recursively its subtrees, in
  // parallel when large — the cutoff follows the runtime gc_par_cutoff()
  // knob) when the count reaches zero. This is also the teardown that epoch
  // limbo drains run (alloc/arena.h): a displaced snapshot_box version is a
  // retained root, and destroying it lands here with the same parallelism.
  static void dec(node* t) {
    while (t != nullptr) {
      if (t->ref_cnt.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
      node* l = t->left;
      node* r = t->right;
      destroy_node(t);
      if (l != nullptr && r != nullptr &&
          l->size + r->size >= gc_par_cutoff()) {
        par_do([l] { dec(l); }, [r] { dec(r); });
        return;
      }
      if (l != nullptr) dec(l);  // bounded by tree height
      t = r;
    }
  }

  // -------------------------------------------- construction / copying --

  // Recompute the cached subtree metadata of t from its children: size, the
  // augmented value (A(t) = f(A(l), f(g(k,v), A(r))), paper §4), and the
  // balance scheme's own bookkeeping. Called whenever children change, which
  // keeps every algorithm except the aug_* family oblivious of augmentation.
  static void update(node* t) {
    t->size = static_cast<uint32_t>(cnt(t) + size(t->left) + size(t->right));
    if constexpr (traits::has_aug) {
      t->aug = traits::combine(aug_of(t->left),
                               traits::combine(own_aug(t), aug_of(t->right)));
    }
    Balance::template update_data<node_manager>(t);
  }

  static node* make_single(const K& k, const V& v) {
    node* t = allocator::allocate();
    new (&t->ref_cnt) std::atomic<uint32_t>(1);
    t->left = nullptr;
    t->right = nullptr;
    t->blk = nullptr;
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

  // Wrap a sealed leaf block (ownership transfers) into a fresh leaf-chunk
  // node. key/value mirror the first entry.
  static node* make_chunk(lblock* b) {
    node* t = allocator::allocate();
    new (&t->ref_cnt) std::atomic<uint32_t>(1);
    t->left = nullptr;
    t->right = nullptr;
    t->blk = b;
    if constexpr (flat_layout) {
      const entry_t* e = b->entries();
      new (&t->key) K(e[0].first);
      new (&t->value) V(e[0].second);
    } else {
      new (&t->key) K(lstore::first_key(b));
      new (&t->value) V(lstore::value_at(b, 0));
    }
    new (&t->aug) A(b->aug);
    new (&t->bal) typename Balance::data();
    update(t);
    return t;
  }

  static void destroy_node(node* t) {
    if (t->blk != nullptr) lstore::release(t->blk);
    t->key.~K();
    t->value.~V();
    t->aug.~A();
    using BD = typename Balance::data;
    t->bal.~BD();
    allocator::deallocate(t);
  }

  // A fresh refcount-1 copy of t sharing t's children and leaf block (whose
  // counts are bumped). Borrow-style: t's own count is untouched.
  static node* copy_node(const node* t) {
    node* c = allocator::allocate();
    new (&c->ref_cnt) std::atomic<uint32_t>(1);
    c->size = t->size;
    c->left = inc(t->left);
    c->right = inc(t->right);
    c->blk = t->blk != nullptr ? lstore::retain(t->blk) : nullptr;
    new (&c->key) K(t->key);
    new (&c->value) V(t->value);
    new (&c->aug) A(t->aug);
    new (&c->bal) typename Balance::data(t->bal);
    return c;
  }

  // Make t safe to mutate: hand it back if we hold the only reference (the
  // reuse optimization), otherwise replace our reference with a copy.
  static node* ensure_owned(node* t) {
    if (t == nullptr) return t;
    if (reuse_enabled() && ref_count(t) == 1) return t;
    node* c = copy_node(t);
    dec(t);
    return c;
  }

  // Decompose an owned single-entry tree into (left child, singleton middle,
  // right child), transferring ownership of all three to the caller. Chunk
  // nodes are decomposed by tree_ops::expose_own, which shadows this.
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
  // with their nodes; per-scheme metadata is refreshed by update(). A chunk
  // node may be promoted to an interior position here — its block's keys
  // stay between its (new) subtrees, so in-order semantics are unchanged.
  //
  // A weight-driven scheme can ask for a rotation whose promoted child does
  // not exist: a chunk node weighs its whole block, so a "heavy" subtree may
  // be a single shapeless leaf. Such a rotation is an order-preserving no-op
  // (the weight is irreducible); the local weight-balance slack this leaves
  // behind is bounded by the block size.
  static node* rotate_left(node* x) {
    if (x->right == nullptr) {
      update(x);
      return x;
    }
    node* y = ensure_owned(x->right);
    x->right = y->left;
    y->left = x;
    update(x);
    update(y);
    return y;
  }

  static node* rotate_right(node* x) {
    if (x->left == nullptr) {
      update(x);
      return x;
    }
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
