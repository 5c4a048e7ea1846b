// Low-level tests at the tree_ops/node_manager layer: split/join/join2
// semantics, refcount behavior of the ownership protocol, height/weight
// bounds of each balancing scheme, and augmented-value maintenance through
// raw joins. These pin down the internal contracts the higher-level API is
// built on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "pam/pam.h"
#include "util/random.h"

namespace {

using entry = pam::sum_entry<uint64_t, uint64_t>;

using BalanceTypes = ::testing::Types<pam::weight_balanced, pam::avl_tree,
                                      pam::red_black, pam::treap>;

template <typename Balance>
class TreeLowLevel : public ::testing::Test {
 public:
  using ops_type = pam::aug_ops<entry, Balance>;
  using node_type = typename ops_type::node;

  static node_type* build_n(size_t n, uint64_t seed) {
    std::vector<std::pair<uint64_t, uint64_t>> es(n);
    pam::random_gen g(seed);
    for (size_t i = 0; i < n; i++) es[i] = {g.next(), g.next() % 100};
    return ops_type::build(std::move(es), [](uint64_t, uint64_t b) { return b; });
  }

  // Height in levels, a leaf block counting as one.
  static size_t height(const node_type* t) {
    if (!ops_type::is_node(t)) return ops_type::is_block(t) ? 1 : 0;
    return 1 + std::max(height(t->left), height(t->right));
  }
};

TYPED_TEST_SUITE(TreeLowLevel, BalanceTypes);

TYPED_TEST(TreeLowLevel, JoinOfManuallyBuiltSides) {
  using ops = typename TestFixture::ops_type;
  // join(l, m, r) with wildly unbalanced side sizes must rebalance.
  for (auto [nl, nr] : {std::pair<size_t, size_t>{1000, 1}, {1, 1000}, {500, 500},
                        {0, 100}, {100, 0}, {0, 0}}) {
    // keys: left < mid < right
    std::vector<std::pair<uint64_t, uint64_t>> le, re;
    for (size_t i = 0; i < nl; i++) le.push_back({i, 1});
    for (size_t i = 0; i < nr; i++) re.push_back({1000000 + i, 1});
    auto* l = ops::from_sorted_unique(le.data(), le.size());
    auto* r = ops::from_sorted_unique(re.data(), re.size());
    auto* m = ops::make_single(500000, 7);
    auto* t = ops::join(l, m, r);
    EXPECT_TRUE(ops::check_valid(t)) << nl << "/" << nr;
    EXPECT_EQ(ops::size(t), nl + nr + 1);
    EXPECT_EQ(ops::aug_val(t), nl + nr + 7);
    ops::dec(t);
  }
}

TYPED_TEST(TreeLowLevel, RepeatedJoin2Concatenation) {
  using ops = typename TestFixture::ops_type;
  // concatenate many runs with join2; result stays valid and ordered.
  typename TestFixture::ops_type::node* acc = nullptr;
  for (int run = 0; run < 50; run++) {
    std::vector<std::pair<uint64_t, uint64_t>> es;
    for (int i = 0; i < 40; i++)
      es.push_back({static_cast<uint64_t>(run * 1000 + i), 1});
    acc = ops::join2(acc, ops::from_sorted_unique(es.data(), es.size()));
  }
  EXPECT_EQ(ops::size(acc), 50u * 40u);
  EXPECT_TRUE(ops::check_valid(acc));
  ops::dec(acc);
}

TYPED_TEST(TreeLowLevel, SplitConsumesAndPreservesEntries) {
  using ops = typename TestFixture::ops_type;
  int64_t base = ops::used_nodes();
  auto* t = TestFixture::build_n(5000, 3);
  ASSERT_TRUE(ops::is_node(t));
  uint64_t pivot = t->key;
  auto s = ops::split(t, pivot);
  ASSERT_NE(s.mid, nullptr);  // the root key is in the tree
  EXPECT_TRUE(ops::check_valid(s.left));
  EXPECT_TRUE(ops::check_valid(s.right));
  EXPECT_EQ(ops::size(s.left) + ops::size(s.right) + 1, 5000u);
  ops::dec(s.left);
  ops::dec(s.mid);
  ops::dec(s.right);
  EXPECT_EQ(ops::used_nodes(), base);  // split+frees leak nothing
}

TYPED_TEST(TreeLowLevel, HeightStaysLogarithmic) {
  // Build by sequential insertion (worst case for naive BSTs); every scheme
  // must keep height within its theoretical factor of log2(n).
  using ops = typename TestFixture::ops_type;
  typename TestFixture::ops_type::node* t = nullptr;
  const size_t n = 1 << 14;
  for (size_t i = 0; i < n; i++) {
    t = ops::insert(t, i, i, [](uint64_t, uint64_t b) { return b; });
  }
  double h = static_cast<double>(TestFixture::height(t));
  double logn = std::log2(static_cast<double>(n));
  // AVL <= 1.44 log n; RB <= 2 log n; WB(2/7) <= ~2.06 log n;
  // treap is expected O(log n) w.h.p. — allow 3x for all.
  EXPECT_LE(h, 3.0 * logn) << "height " << h << " for n=" << n;
  EXPECT_TRUE(ops::check_valid(t));
  ops::dec(t);
}

TYPED_TEST(TreeLowLevel, SharedSubtreeRefcounts) {
  using ops = typename TestFixture::ops_type;
  auto* t = TestFixture::build_n(1000, 4);
  // Taking a logical copy bumps the root count only.
  auto* c = ops::inc(t);
  EXPECT_EQ(ops::ref_count(t), 2u);
  // An insert into the copy path-copies; the original is untouched.
  auto* t2 = ops::insert(c, 42, 42, [](uint64_t, uint64_t b) { return b; });
  EXPECT_TRUE(ops::check_valid(t));
  EXPECT_TRUE(ops::check_valid(t2));
  EXPECT_EQ(ops::ref_count(t), 1u);  // t2 holds child refs, not the root
  ops::dec(t2);
  EXPECT_TRUE(ops::check_valid(t));
  ops::dec(t);
}

TYPED_TEST(TreeLowLevel, AugMaintainedThroughRawJoins) {
  using ops = typename TestFixture::ops_type;
  // Alternate splits and joins; cached sums must stay exact throughout
  // (check_valid recomputes them bottom-up).
  auto* t = TestFixture::build_n(4096, 5);
  pam::random_gen g(6);
  for (int round = 0; round < 30; round++) {
    uint64_t k = g.next();
    auto s = ops::split(t, k);
    if (s.mid == nullptr) s.mid = ops::make_single(k, 1);
    t = ops::join(s.left, s.mid, s.right);
    ASSERT_TRUE(ops::check_valid(t)) << "round " << round;
  }
  ops::dec(t);
}

TYPED_TEST(TreeLowLevel, TakeLeqGeqShareNodes) {
  using ops = typename TestFixture::ops_type;
  auto* t = TestFixture::build_n(100000, 7);
  ASSERT_TRUE(ops::is_node(t));
  int64_t before = ops::used_nodes();
  auto* lo = ops::take_leq(t, t->key);
  int64_t fresh = ops::used_nodes() - before;
  // take_leq allocates O(log n) nodes, not O(size of result).
  EXPECT_LT(fresh, 200);
  EXPECT_TRUE(ops::check_valid(lo));
  ops::dec(lo);
  ops::dec(t);
}

// Blocked trees keep blocks at the leaves and a logarithmic depth through
// every bulk operation and through point churn. check_valid holds each
// scheme to its stated depth factor over log2(nodes + 1); the explicit
// checks restate that bound over the block count.
TYPED_TEST(TreeLowLevel, BlockedDepthStaysBounded) {
  using ops = typename TestFixture::ops_type;
  using node = typename TestFixture::node_type;
  size_t saved_b = pam::leaf_block_size();
  for (size_t b : {1, 2, 32}) {
    pam::set_leaf_block_size(b);
    auto expect_shape = [&](const node* t, const char* phase) {
      ASSERT_TRUE(ops::check_valid(t)) << "B=" << b << " " << phase;
      auto s = ops::shape(t);
      // Every block takes one of the nodes + 1 leaf positions.
      EXPECT_LE(s.blocks, s.nodes + 1) << "B=" << b << " " << phase;
      EXPECT_GT(s.blocks, 0u) << "B=" << b << " " << phase;
      double bound = TypeParam::depth_factor *
                         std::log2(static_cast<double>(s.blocks + 1)) + 2;
      EXPECT_LE(static_cast<double>(s.depth), bound)
          << "B=" << b << " " << phase << " depth " << s.depth << " blocks " << s.blocks;
    };
    auto id = [](uint64_t, uint64_t v) { return v; };
    node* t = TestFixture::build_n(20000, 11);
    expect_shape(t, "build");
    node* other = TestFixture::build_n(5000, 12);
    node* u = ops::union_(ops::inc(t), other, id);
    expect_shape(u, "union");
    std::vector<std::pair<uint64_t, uint64_t>> up;
    pam::random_gen g(13);
    for (int i = 0; i < 3000; i++) up.push_back({g.next(), 1});
    node* mi = ops::multi_insert(ops::inc(t), up, id);
    expect_shape(mi, "multi_insert");
    node* f = ops::filter(ops::inc(t), [](uint64_t k, uint64_t) { return k % 3 != 0; });
    expect_shape(f, "filter");
    node* r = ops::range_copy(t, uint64_t{1} << 61, uint64_t{3} << 61);
    expect_shape(r, "range");
    std::vector<uint64_t> keys;
    for (int i = 0; i < 2000; i++) keys.push_back(g.next());
    for (int i = 0; i < 10000; i++) {
      uint64_t k = keys[g.next() % keys.size()];
      t = g.next() % 2 == 0 ? ops::insert(t, k, 1, id) : ops::remove(t, k);
    }
    expect_shape(t, "churn");
    for (node* x : {t, u, mi, f, r}) ops::dec(x);
  }
  pam::set_leaf_block_size(saved_b);
}

// Weight-balanced specifics: the alpha = 2/7 invariant is what check()
// verifies; make sure adversarial shapes (sorted, organ-pipe) pass.
TEST(WeightBalancedShape, AdversarialInsertOrders) {
  using ops = pam::aug_ops<entry, pam::weight_balanced>;
  for (int shape = 0; shape < 3; shape++) {
    ops::node* t = nullptr;
    for (int i = 0; i < 20000; i++) {
      uint64_t k;
      if (shape == 0) k = static_cast<uint64_t>(i);              // ascending
      else if (shape == 1) k = static_cast<uint64_t>(20000 - i); // descending
      else k = static_cast<uint64_t>((i % 2) ? i : 100000 - i);  // organ pipe
      t = ops::insert(t, k, 1, [](uint64_t a, uint64_t) { return a; });
    }
    EXPECT_TRUE(ops::check_valid(t)) << "shape " << shape;
    ops::dec(t);
  }
}

// Red-black specifics: blackened roots may add a level per join, but the
// black-height bound keeps total height <= 2 log2(n+1).
TEST(RedBlackShape, HeightBoundAfterUnions) {
  using ops = pam::aug_ops<entry, pam::red_black>;
  ops::node* acc = nullptr;
  for (int r = 0; r < 64; r++) {
    std::vector<std::pair<uint64_t, uint64_t>> es;
    pam::random_gen g(r);
    for (int i = 0; i < 1000; i++) es.push_back({g.next(), 1});
    auto* b = ops::build(std::move(es), [](uint64_t, uint64_t v) { return v; });
    acc = ops::union_(acc, b, [](uint64_t a, uint64_t) { return a; });
    ASSERT_TRUE(ops::check_valid(acc));
  }
  size_t n = ops::size(acc);
  std::function<size_t(const ops::node*)> ht = [&](const ops::node* t) -> size_t {
    if (!ops::is_node(t)) return ops::is_block(t) ? 1 : 0;
    return 1 + std::max(ht(t->left), ht(t->right));
  };
  EXPECT_LE(static_cast<double>(ht(acc)),
            2.2 * std::log2(static_cast<double>(n) + 1));
  ops::dec(acc);
}

// Treap specifics: structure is a pure function of the key set. This is a
// property of the one-entry-per-node layout: leaf-block boundaries depend on
// insertion history, so the check pins the unblocked layout for its duration.
TEST(TreapShape, DeterministicShapeForKeySet) {
  using ops = pam::aug_ops<entry, pam::treap>;
  size_t saved_b = pam::leaf_block_size();
  pam::set_leaf_block_size(0);
  auto build_in_order = [](const std::vector<uint64_t>& keys) {
    ops::node* t = nullptr;
    for (auto k : keys) t = ops::insert(t, k, k, [](uint64_t, uint64_t b) { return b; });
    return t;
  };
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < 2000; i++) keys.push_back(pam::hash64(i));
  auto* a = build_in_order(keys);
  std::reverse(keys.begin(), keys.end());
  auto* b = build_in_order(keys);
  // Same key set => identical shape (compare preorder key sequences).
  std::function<void(const ops::node*, std::vector<uint64_t>&)> pre =
      [&](const ops::node* t, std::vector<uint64_t>& out) {
        if (!t) return;
        out.push_back(t->key);
        pre(t->left, out);
        pre(t->right, out);
      };
  std::vector<uint64_t> pa, pb;
  pre(a, pa);
  pre(b, pb);
  EXPECT_EQ(pa, pb);
  ops::dec(a);
  ops::dec(b);
  pam::set_leaf_block_size(saved_b);
}

}  // namespace
