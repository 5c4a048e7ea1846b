// Tests for the augmented-map-specific operations (paper Figure 1, below
// the dashed line): aug_val, aug_left, aug_range, aug_filter, aug_project.
// Each is differentially tested against a brute-force scan, across all
// four balancing schemes and both sum and max augmentations, plus the
// unsigned sum/max/min block folds at B = 32.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "pam/pam.h"
#include "util/random.h"

namespace {

using K = uint64_t;
using V = uint64_t;

using BalanceTypes = ::testing::Types<pam::weight_balanced, pam::avl_tree,
                                      pam::red_black, pam::treap>;

template <typename Balance>
class AugOps : public ::testing::Test {
 public:
  using sum_map_type = pam::aug_map<pam::sum_entry<K, V>, Balance>;
  using max_map_type = pam::aug_map<pam::max_entry<K, int64_t>, Balance>;

  static std::vector<std::pair<K, V>> random_entries(size_t n, uint64_t seed,
                                                     uint64_t range) {
    std::vector<std::pair<K, V>> es(n);
    pam::random_gen g(seed);
    for (auto& e : es) e = {g.next() % range, g.next() % 1000};
    return es;
  }
};

TYPED_TEST_SUITE(AugOps, BalanceTypes);

TYPED_TEST(AugOps, AugValIsTotalSum) {
  using sum_map = typename TestFixture::sum_map_type;
  auto es = TestFixture::random_entries(30000, 1, 1u << 30);
  sum_map m(es);
  uint64_t expect = 0;
  std::map<K, V> dedup;
  for (auto& e : es) dedup[e.first] = e.second;
  for (auto& [k, v] : dedup) expect += v;
  EXPECT_EQ(m.aug_val(), expect);
  EXPECT_EQ(sum_map().aug_val(), 0u);  // identity on the empty map
}

TYPED_TEST(AugOps, AugValMaintainedThroughUpdates) {
  using sum_map = typename TestFixture::sum_map_type;
  sum_map m;
  uint64_t expect = 0;
  pam::random_gen g(2);
  std::map<K, V> oracle;
  for (int i = 0; i < 2000; i++) {
    K k = g.next() % 500;
    V v = g.next() % 100;
    if (g.next() % 3 == 0) {
      if (oracle.count(k)) expect -= oracle[k];
      oracle.erase(k);
      m = sum_map::remove(std::move(m), k);
    } else {
      if (oracle.count(k)) expect -= oracle[k];
      oracle[k] = v;
      expect += v;
      m = sum_map::insert(std::move(m), k, v);
    }
    ASSERT_EQ(m.aug_val(), expect) << "step " << i;
  }
}

TYPED_TEST(AugOps, AugLeftMatchesPrefixScan) {
  using sum_map = typename TestFixture::sum_map_type;
  auto es = TestFixture::random_entries(20000, 3, 1u << 16);
  sum_map m(es);
  std::map<K, V> oracle;
  for (auto& e : es) oracle[e.first] = e.second;
  pam::random_gen g(4);
  for (int q = 0; q < 500; q++) {
    K k = g.next() % (1u << 16);
    uint64_t expect = 0;
    for (auto& [key, v] : oracle) {
      if (key > k) break;
      expect += v;  // aug_left is inclusive: keys <= k
    }
    ASSERT_EQ(m.aug_left(k), expect) << "k=" << k;
  }
  EXPECT_EQ(m.aug_left(~0ull), m.aug_val());
}

TYPED_TEST(AugOps, AugRangeMatchesBruteForce) {
  using sum_map = typename TestFixture::sum_map_type;
  auto es = TestFixture::random_entries(20000, 5, 1u << 16);
  sum_map m(es);
  std::map<K, V> oracle;
  for (auto& e : es) oracle[e.first] = e.second;
  pam::random_gen g(6);
  for (int q = 0; q < 500; q++) {
    K a = g.next() % (1u << 16), b = g.next() % (1u << 16);
    K lo = std::min(a, b), hi = std::max(a, b);
    uint64_t expect = 0;
    for (auto it = oracle.lower_bound(lo); it != oracle.end() && it->first <= hi; ++it)
      expect += it->second;
    ASSERT_EQ(m.aug_range(lo, hi), expect) << lo << ".." << hi;
  }
  // inverted and empty ranges return the identity
  EXPECT_EQ(m.aug_range(100, 50), 0u);
}

TYPED_TEST(AugOps, AugRangeEqualsAugValOfRange) {
  // The defining equivalence: aug_range(m, lo, hi) == aug_val(range(m, lo, hi)).
  using sum_map = typename TestFixture::sum_map_type;
  auto es = TestFixture::random_entries(5000, 7, 1u << 14);
  sum_map m(es);
  pam::random_gen g(8);
  for (int q = 0; q < 100; q++) {
    K a = g.next() % (1u << 14), b = g.next() % (1u << 14);
    K lo = std::min(a, b), hi = std::max(a, b);
    ASSERT_EQ(m.aug_range(lo, hi), sum_map::range(m, lo, hi).aug_val());
  }
}

TYPED_TEST(AugOps, MaxAugmentation) {
  using max_map = typename TestFixture::max_map_type;
  std::vector<std::pair<K, int64_t>> es;
  pam::random_gen g(9);
  for (int i = 0; i < 10000; i++)
    es.push_back({g.next() % 5000, static_cast<int64_t>(g.next() % 100000) - 50000});
  max_map m(es);
  std::map<K, int64_t> oracle;
  for (auto& e : es) oracle[e.first] = e.second;
  int64_t expect = std::numeric_limits<int64_t>::lowest();
  for (auto& [k, v] : oracle) expect = std::max(expect, v);
  EXPECT_EQ(m.aug_val(), expect);
  // range max queries
  for (int q = 0; q < 200; q++) {
    K a = g.next() % 5000, b = g.next() % 5000;
    K lo = std::min(a, b), hi = std::max(a, b);
    int64_t want = std::numeric_limits<int64_t>::lowest();
    for (auto it = oracle.lower_bound(lo); it != oracle.end() && it->first <= hi; ++it)
      want = std::max(want, it->second);
    ASSERT_EQ(m.aug_range(lo, hi), want);
  }
}

TYPED_TEST(AugOps, AugFilterEquivalentToPlainFilter) {
  // With max augmentation and h(a) = (a > theta), h(a)||h(b) == h(max(a,b)),
  // so aug_filter must select exactly the entries with value > theta.
  using max_map = typename TestFixture::max_map_type;
  std::vector<std::pair<K, int64_t>> es;
  pam::random_gen g(10);
  for (int i = 0; i < 30000; i++)
    es.push_back({g.next(), static_cast<int64_t>(g.next() % 100000)});
  max_map m(es);
  for (int64_t theta : {-1, 50000, 99000, 200000}) {
    auto pruned = max_map::aug_filter(m, [=](int64_t a) { return a > theta; });
    auto plain = max_map::filter(m, [=](K, int64_t v) { return v > theta; });
    ASSERT_TRUE(pruned.check_valid());
    ASSERT_EQ(pruned.entries(), plain.entries()) << "theta=" << theta;
  }
}

TYPED_TEST(AugOps, AugFilterOnEmptyAndAllPruned) {
  using max_map = typename TestFixture::max_map_type;
  max_map empty;
  auto r = max_map::aug_filter(empty, [](int64_t a) { return a > 0; });
  EXPECT_TRUE(r.empty());
  max_map m = {{1, 10}, {2, 20}};
  auto none = max_map::aug_filter(m, [](int64_t a) { return a > 100; });
  EXPECT_TRUE(none.empty());
  auto all = max_map::aug_filter(m, [](int64_t a) { return a > -100; });
  EXPECT_EQ(all.size(), 2u);
}

TYPED_TEST(AugOps, AugProjectEqualsProjectedAugRange) {
  // g2 = "is the range-sum odd", f2 = xor; f2(g2(a),g2(b)) == g2(a+b) holds
  // for parity, so aug_project must equal g2(aug_range).
  using sum_map = typename TestFixture::sum_map_type;
  auto es = TestFixture::random_entries(10000, 11, 1u << 14);
  sum_map m(es);
  pam::random_gen g(12);
  auto g2 = [](uint64_t a) { return static_cast<int>(a & 1); };
  auto f2 = [](int a, int b) { return a ^ b; };
  for (int q = 0; q < 300; q++) {
    K a = g.next() % (1u << 14), b = g.next() % (1u << 14);
    K lo = std::min(a, b), hi = std::max(a, b);
    int got = m.template aug_project<int>(g2, f2, 0, lo, hi);
    int want = g2(m.aug_range(lo, hi));
    ASSERT_EQ(got, want);
  }
}

TYPED_TEST(AugOps, AugProjectIdentityProjection) {
  // g2 = identity, f2 = + : aug_project degenerates to aug_range.
  using sum_map = typename TestFixture::sum_map_type;
  auto es = TestFixture::random_entries(8000, 13, 1u << 13);
  sum_map m(es);
  pam::random_gen g(14);
  for (int q = 0; q < 200; q++) {
    K a = g.next() % (1u << 13), b = g.next() % (1u << 13);
    K lo = std::min(a, b), hi = std::max(a, b);
    uint64_t got = m.template aug_project<uint64_t>(
        [](uint64_t x) { return x; },
        [](uint64_t x, uint64_t y) { return x + y; }, 0, lo, hi);
    ASSERT_EQ(got, m.aug_range(lo, hi));
  }
}

// Augmentation must survive every bulk operation (union/filter/...): the
// validator recomputes cached sums bottom-up and compares.
TYPED_TEST(AugOps, BulkOpsPreserveAugmentation) {
  using sum_map = typename TestFixture::sum_map_type;
  auto ea = TestFixture::random_entries(10000, 15, 1u << 14);
  auto eb = TestFixture::random_entries(10000, 16, 1u << 14);
  sum_map a(ea), b(eb);
  auto u = sum_map::map_union(a, b, [](V x, V y) { return x + y; });
  ASSERT_TRUE(u.check_valid());
  auto i = sum_map::map_intersect(a, b, [](V x, V y) { return x * y % 997; });
  ASSERT_TRUE(i.check_valid());
  auto d = sum_map::map_difference(a, b);
  ASSERT_TRUE(d.check_valid());
  auto f = sum_map::filter(a, [](K k, V) { return k % 2 == 0; });
  ASSERT_TRUE(f.check_valid());
  auto mi = sum_map::multi_insert(a, eb, [](V x, V y) { return x + y; });
  ASSERT_TRUE(mi.check_valid());
}

// Non-augmented maps must compile and work with the same machinery
// ("algorithms oblivious of augmentation", paper §4).
TYPED_TEST(AugOps, PlainMapWorksWithoutAugmentation) {
  using plain = pam::pam_map<pam::map_entry<K, V>, TypeParam>;
  auto es = TestFixture::random_entries(10000, 17, 1u << 14);
  plain m(es);
  ASSERT_TRUE(m.check_valid());
  auto u = plain::map_union(m, plain(TestFixture::random_entries(100, 18, 1u << 14)));
  ASSERT_TRUE(u.check_valid());
  EXPECT_FALSE(plain::has_aug);
}

// Sets share the same core.
TYPED_TEST(AugOps, SetBasics) {
  pam::pam_set<uint64_t, std::less<uint64_t>, TypeParam> s(
      std::vector<uint64_t>{5, 3, 9, 3, 1});
  EXPECT_EQ(s.size(), 4u);
  EXPECT_TRUE(s.contains(9));
  EXPECT_FALSE(s.contains(4));
  s.insert_inplace(4);
  EXPECT_TRUE(s.contains(4));
  auto keys = s.keys();
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(keys.size(), 5u);
}

}  // namespace

// --- additions: key/value extraction and range counting -------------------
namespace {

TEST(MapConvenience, KeysValuesAndCountRange) {
  using map_t = pam::aug_map<pam::sum_entry<uint64_t, uint64_t>>;
  map_t m = {{5, 50}, {1, 10}, {9, 90}, {3, 30}};
  EXPECT_EQ(m.keys(), (std::vector<uint64_t>{1, 3, 5, 9}));
  EXPECT_EQ(m.values(), (std::vector<uint64_t>{10, 30, 50, 90}));
  EXPECT_EQ(m.count_range(1, 9), 4u);
  EXPECT_EQ(m.count_range(2, 5), 2u);
  EXPECT_EQ(m.count_range(4, 4), 0u);
  EXPECT_EQ(m.count_range(5, 5), 1u);
  EXPECT_EQ(m.count_range(9, 1), 0u);  // inverted
  EXPECT_EQ(m.count_range(10, 20), 0u);
}

TEST(MapConvenience, CountRangeMatchesRangeSizeRandomized) {
  using map_t = pam::aug_map<pam::sum_entry<uint64_t, uint64_t>>;
  std::vector<map_t::entry_t> es;
  pam::random_gen g(31);
  for (int i = 0; i < 20000; i++) es.push_back({g.next() % 100000, 1});
  map_t m(es);
  for (int q = 0; q < 300; q++) {
    uint64_t a = g.next() % 100000, b = g.next() % 100000;
    uint64_t lo = std::min(a, b), hi = std::max(a, b);
    ASSERT_EQ(m.count_range(lo, hi), map_t::range(m, lo, hi).size());
  }
}

TEST(MapConvenience, MinEntryAugmentation) {
  using min_map = pam::aug_map<pam::min_entry<uint64_t, int64_t>>;
  min_map m = {{1, 5}, {2, -3}, {3, 7}};
  EXPECT_EQ(m.aug_val(), -3);
  EXPECT_EQ(m.aug_range(3, 3), 7);
  EXPECT_EQ(min_map().aug_val(), std::numeric_limits<int64_t>::max());
}

TEST(MapConvenience, MaxEntryOverStringValues) {
  // max_entry with a non-numeric value type: std::numeric_limits<V> is not
  // specialized, so the identity dispatches through extreme_values<V> to
  // V{} — which for max over std::string ("" sorts below everything) is the
  // true identity. This must compile and fold correctly.
  using smax_map = pam::aug_map<pam::max_entry<uint64_t, std::string>>;
  smax_map m = {{1, "ant"}, {2, "zebra"}, {3, "mole"}};
  EXPECT_EQ(m.aug_val(), "zebra");
  EXPECT_EQ(m.aug_range(1, 1), "ant");
  EXPECT_EQ(m.aug_range(2, 3), "zebra");
  EXPECT_EQ(m.aug_left(1), "ant");
  EXPECT_EQ(smax_map().aug_val(), "");  // identity = V{}
  m = smax_map::insert(std::move(m), 4, "aardvark");
  EXPECT_EQ(m.aug_range(3, 4), "mole");
  EXPECT_TRUE(m.check_valid());
}

// Unsigned sum/max/min folds at B = 32 over u64 values straddling 2^63,
// where a signed-order max/min would pick the wrong side. Every aug query
// that cuts a block (aug_left, aug_right through a view, aug_range) folds a
// partial run; each must equal a naive left fold, and every block's cached
// value (sealed at build and after updates) must pass check_valid.
template <typename Entry>
void expect_u64_folds_match_naive() {
  using map = pam::aug_map<Entry>;
  using A = typename Entry::aug_t;
  struct block_size_guard {
    size_t saved = pam::leaf_block_size();
    ~block_size_guard() { pam::set_leaf_block_size(saved); }
  } guard;
  pam::set_leaf_block_size(32);

  constexpr uint64_t kMid = uint64_t{1} << 63;
  constexpr size_t kN = 300;
  std::map<K, V> oracle;
  pam::random_gen g(21);
  for (size_t i = 0; i < kN; i++) {
    uint64_t off = g.next() % 1000;
    oracle[2 * i] = i % 2 == 0 ? kMid + off : kMid - 1 - off;
  }
  oracle[14] = 0;
  oracle[80] = UINT64_MAX;
  map m(std::vector<std::pair<K, V>>(oracle.begin(), oracle.end()));

  auto naive = [&](K lo, K hi) {
    A acc = Entry::identity();
    for (const auto& [k, v] : oracle) {
      if (lo <= k && k <= hi) acc = Entry::combine(acc, Entry::base(k, v));
    }
    return acc;
  };
  auto check = [&](const map& t, const char* phase) {
    ASSERT_TRUE(t.check_valid()) << phase;
    ASSERT_EQ(t.aug_val(), naive(0, UINT64_MAX)) << phase;
    for (K k = 0; k <= 2 * kN + 1; k++) {
      ASSERT_EQ(t.aug_left(k), naive(0, k)) << phase << " k=" << k;
      ASSERT_EQ(t.view_down_to(k).aug_val(), naive(k, UINT64_MAX))
          << phase << " k=" << k;
    }
    for (K lo = 0; lo <= 2 * kN; lo += 3) {
      for (K w : {0, 1, 2, 31, 32, 33, 63, 64, 65, 130}) {
        ASSERT_EQ(t.aug_range(lo, lo + w), naive(lo, lo + w))
            << phase << " [" << lo << ", " << lo + w << "]";
      }
    }
  };
  check(m, "built");
  if (::testing::Test::HasFatalFailure()) return;
  // Re-sealed blocks: odd keys land inside existing blocks and split them.
  for (K k = 1; k < 2 * kN; k += 38) {
    V v = k % 4 == 1 ? kMid : kMid - 1;
    oracle[k] = v;
    m = map::insert(std::move(m), k, v);
  }
  check(m, "after inserts");
}

TEST(BlockFold, UnsignedSumMaxMinStraddling2To63AtB32) {
  expect_u64_folds_match_naive<pam::sum_entry<K, V>>();
  expect_u64_folds_match_naive<pam::max_entry<K, V>>();
  expect_u64_folds_match_naive<pam::min_entry<K, V>>();
}

TEST(MapConvenience, StringKeyedMaxAugmentation) {
  // Both ends string: front-coded keys with a string-valued max fold.
  using str_max_map = pam::aug_map<pam::str_max_entry<uint64_t>>;
  str_max_map m = {{"a/1", 3}, {"a/2", 9}, {"b/1", 5}};
  EXPECT_EQ(m.aug_val(), 9u);
  EXPECT_EQ(m.aug_range(std::string("a/"), std::string("a/z")), 9u);
  EXPECT_EQ(m.aug_range(std::string("b/"), std::string("b/z")), 5u);
  EXPECT_TRUE(m.check_valid());
}

}  // namespace
