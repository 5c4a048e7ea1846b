// Core map-operation tests, run as typed tests over all four balancing
// schemes (weight-balanced, AVL, red-black, treap). Every operation is
// differentially tested against a std::map oracle, and the full structural
// validator (balance invariant + sizes + ordering + cached augmented
// values) runs after each mutation mix. The build-path sweep at the end also
// covers every leaf layout and block size.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "pam/pam.h"
#include "util/random.h"

namespace {

using K = uint64_t;
using V = uint64_t;

template <typename Balance>
struct schemes {
  using map_t = pam::aug_map<pam::sum_entry<K, V>, Balance>;
};

using BalanceTypes = ::testing::Types<pam::weight_balanced, pam::avl_tree,
                                      pam::red_black, pam::treap>;

template <typename Balance>
class MapCore : public ::testing::Test {
 public:
  using map_type = typename schemes<Balance>::map_t;
  using entry_type = typename map_type::entry_t;

  static std::vector<entry_type> random_entries(size_t n, uint64_t seed,
                                             uint64_t key_range) {
    std::vector<entry_type> es(n);
    pam::random_gen g(seed);
    for (auto& e : es) e = {g.next() % key_range, g.next() % 1000};
    return es;
  }

  static std::map<K, V> oracle_of(const std::vector<entry_type>& es) {
    std::map<K, V> m;
    for (auto& e : es) m[e.first] = e.second;  // last write wins
    return m;
  }

  static void expect_equal(const map_type& m, const std::map<K, V>& oracle) {
    ASSERT_EQ(m.size(), oracle.size());
    auto es = m.entries();
    size_t i = 0;
    for (auto& [k, v] : oracle) {
      ASSERT_EQ(es[i].first, k);
      ASSERT_EQ(es[i].second, v);
      i++;
    }
  }
};

TYPED_TEST_SUITE(MapCore, BalanceTypes);

// ------------------------------------------------------------- building --

TYPED_TEST(MapCore, EmptyMap) {
  typename TestFixture::map_type m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_FALSE(m.find(42).has_value());
  EXPECT_FALSE(m.first().has_value());
  EXPECT_FALSE(m.last().has_value());
  EXPECT_TRUE(m.check_valid());
}

TYPED_TEST(MapCore, SingletonAndSmall) {
  using map_t = typename TestFixture::map_type;
  auto m = map_t::singleton(5, 50);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.find(5).value(), 50u);
  EXPECT_FALSE(m.find(6).has_value());
  map_t m2 = {{1, 10}, {2, 20}, {3, 30}};
  EXPECT_EQ(m2.size(), 3u);
  EXPECT_EQ(m2.find(2).value(), 20u);
  EXPECT_TRUE(m2.check_valid());
}

TYPED_TEST(MapCore, BuildMatchesOracleAcrossSizes) {
  using map_t = typename TestFixture::map_type;
  for (size_t n : {0, 1, 2, 3, 10, 100, 1000, 50000}) {
    auto es = TestFixture::random_entries(n, n * 31 + 1, n == 0 ? 1 : 4 * n);
    map_t m(es);
    ASSERT_TRUE(m.check_valid()) << "n=" << n;
    TestFixture::expect_equal(m, TestFixture::oracle_of(es));
  }
}

TYPED_TEST(MapCore, BuildWithManyDuplicatesCombines) {
  using map_t = typename TestFixture::map_type;
  // keys all in [0, 16): heavy duplication; combine = sum.
  auto es = TestFixture::random_entries(10000, 7, 16);
  map_t m(es, [](V a, V b) { return a + b; });
  std::map<K, V> oracle;
  for (auto& e : es) oracle[e.first] += e.second;
  ASSERT_TRUE(m.check_valid());
  TestFixture::expect_equal(m, oracle);
}

TYPED_TEST(MapCore, BuildAllSameKey) {
  using map_t = typename TestFixture::map_type;
  std::vector<typename map_t::entry_t> es(5000, {7, 1});
  map_t m(es, [](V a, V b) { return a + b; });
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.find(7).value(), 5000u);
}

// --------------------------------------------------------------- insert --

TYPED_TEST(MapCore, InsertSequentialKeysStaysBalancedAndCorrect) {
  using map_t = typename TestFixture::map_type;
  map_t m;
  std::map<K, V> oracle;
  for (K k = 0; k < 4096; k++) {
    m = map_t::insert(std::move(m), k, k * 2);
    oracle[k] = k * 2;
  }
  ASSERT_TRUE(m.check_valid());
  TestFixture::expect_equal(m, oracle);
}

TYPED_TEST(MapCore, InsertReverseAndRandomOrders) {
  using map_t = typename TestFixture::map_type;
  map_t m;
  std::map<K, V> oracle;
  for (K k = 3000; k-- > 0;) {
    m = map_t::insert(std::move(m), k, k);
    oracle[k] = k;
  }
  auto perm = pam::random_permutation(3000, 99);
  for (auto k : perm) {
    m = map_t::insert(std::move(m), k + 10000, k);
    oracle[k + 10000] = k;
  }
  ASSERT_TRUE(m.check_valid());
  TestFixture::expect_equal(m, oracle);
}

TYPED_TEST(MapCore, InsertWithCombineOnExistingKey) {
  using map_t = typename TestFixture::map_type;
  map_t m = {{1, 10}};
  m = map_t::insert(std::move(m), 1, 5,
                    [](V oldv, V newv) { return oldv + newv; });
  EXPECT_EQ(m.find(1).value(), 15u);
  m = map_t::insert(std::move(m), 1, 99);  // default: replace
  EXPECT_EQ(m.find(1).value(), 99u);
  EXPECT_EQ(m.size(), 1u);
}

// --------------------------------------------------------------- remove --

TYPED_TEST(MapCore, RemoveRandomizedAgainstOracle) {
  using map_t = typename TestFixture::map_type;
  auto es = TestFixture::random_entries(8000, 3, 4000);  // with duplicates
  map_t m(es);
  auto oracle = TestFixture::oracle_of(es);
  pam::random_gen g(17);
  for (int i = 0; i < 3000; i++) {
    K k = g.next() % 4000;
    m = map_t::remove(std::move(m), k);
    oracle.erase(k);
  }
  ASSERT_TRUE(m.check_valid());
  TestFixture::expect_equal(m, oracle);
}

TYPED_TEST(MapCore, RemoveMissingKeyIsNoop) {
  using map_t = typename TestFixture::map_type;
  map_t m = {{1, 1}, {3, 3}};
  m = map_t::remove(std::move(m), 2);
  EXPECT_EQ(m.size(), 2u);
  m = map_t::remove(std::move(m), 1);
  m = map_t::remove(std::move(m), 3);
  EXPECT_TRUE(m.empty());
  m = map_t::remove(std::move(m), 5);  // remove from empty
  EXPECT_TRUE(m.empty());
}

// ------------------------------------------------------ search / order --

TYPED_TEST(MapCore, FindEveryKeyAndMisses) {
  using map_t = typename TestFixture::map_type;
  auto es = TestFixture::random_entries(20000, 13, 1u << 30);
  map_t m(es);
  auto oracle = TestFixture::oracle_of(es);
  for (auto& [k, v] : oracle) {
    auto got = m.find(k);
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(*got, v);
  }
  pam::random_gen g(77);
  for (int i = 0; i < 1000; i++) {
    K k = g.next();
    ASSERT_EQ(m.find(k).has_value(), oracle.count(k) == 1);
  }
}

TYPED_TEST(MapCore, FirstLastPreviousNext) {
  using map_t = typename TestFixture::map_type;
  map_t m = {{10, 1}, {20, 2}, {30, 3}, {40, 4}};
  EXPECT_EQ(m.first()->first, 10u);
  EXPECT_EQ(m.last()->first, 40u);
  EXPECT_EQ(m.previous(25)->first, 20u);
  EXPECT_EQ(m.previous(20)->first, 10u);  // strictly less
  EXPECT_FALSE(m.previous(10).has_value());
  EXPECT_EQ(m.next(25)->first, 30u);
  EXPECT_EQ(m.next(30)->first, 40u);  // strictly greater
  EXPECT_FALSE(m.next(40).has_value());
}

TYPED_TEST(MapCore, RankSelectRoundTrip) {
  using map_t = typename TestFixture::map_type;
  auto es = TestFixture::random_entries(5000, 23, 1u << 20);
  map_t m(es);
  auto sorted = m.entries();
  for (size_t i = 0; i < sorted.size(); i += 37) {
    auto e = m.select(i);
    ASSERT_TRUE(e.has_value());
    ASSERT_EQ(e->first, sorted[i].first);
    ASSERT_EQ(m.rank(e->first), i);
  }
  EXPECT_FALSE(m.select(m.size()).has_value());
  EXPECT_EQ(m.rank(0), 0u);
  EXPECT_EQ(m.rank(~0ull), m.size());
}

// ----------------------------------------------------------- set algebra --

TYPED_TEST(MapCore, UnionDisjointAndOverlapping) {
  using map_t = typename TestFixture::map_type;
  auto ea = TestFixture::random_entries(6000, 1, 10000);
  auto eb = TestFixture::random_entries(6000, 2, 10000);
  map_t a(ea), b(eb);
  auto oa = TestFixture::oracle_of(ea), ob = TestFixture::oracle_of(eb);

  // values combined with +; keys only in one side keep their value
  auto u = map_t::map_union(a, b, [](V x, V y) { return x + y; });
  std::map<K, V> ou = ob;
  for (auto& [k, v] : oa) {
    auto it = ou.find(k);
    if (it == ou.end())
      ou[k] = v;
    else
      it->second = v + it->second;
  }
  ASSERT_TRUE(u.check_valid());
  TestFixture::expect_equal(u, ou);
  // inputs untouched (we passed copies)
  TestFixture::expect_equal(a, oa);
  TestFixture::expect_equal(b, ob);
}

TYPED_TEST(MapCore, UnionDefaultSecondWins) {
  using map_t = typename TestFixture::map_type;
  map_t a = {{1, 10}, {2, 20}};
  map_t b = {{2, 99}, {3, 30}};
  auto u = map_t::map_union(a, b);
  EXPECT_EQ(u.size(), 3u);
  EXPECT_EQ(u.find(2).value(), 99u);
}

TYPED_TEST(MapCore, UnionWithEmptyEitherSide) {
  using map_t = typename TestFixture::map_type;
  map_t a = {{1, 1}, {2, 2}};
  map_t empty;
  auto u1 = map_t::map_union(a, empty);
  auto u2 = map_t::map_union(empty, a);
  TestFixture::expect_equal(u1, {{1, 1}, {2, 2}});
  TestFixture::expect_equal(u2, {{1, 1}, {2, 2}});
}

TYPED_TEST(MapCore, UnionAsymmetricSizes) {
  using map_t = typename TestFixture::map_type;
  // n >> m: the regime where the O(m log(n/m+1)) bound matters.
  auto ea = TestFixture::random_entries(100000, 5, 1u << 28);
  auto eb = TestFixture::random_entries(100, 6, 1u << 28);
  map_t a(ea), b(eb);
  auto ou = TestFixture::oracle_of(ea);
  for (auto& [k, v] : TestFixture::oracle_of(eb)) ou[k] = v;
  auto u = map_t::map_union(a, b);
  ASSERT_TRUE(u.check_valid());
  TestFixture::expect_equal(u, ou);
}

TYPED_TEST(MapCore, IntersectAgainstOracle) {
  using map_t = typename TestFixture::map_type;
  auto ea = TestFixture::random_entries(5000, 8, 3000);
  auto eb = TestFixture::random_entries(5000, 9, 3000);
  map_t a(ea), b(eb);
  auto oa = TestFixture::oracle_of(ea), ob = TestFixture::oracle_of(eb);
  auto i = map_t::map_intersect(a, b, [](V x, V y) { return x * 1000 + y; });
  std::map<K, V> oi;
  for (auto& [k, v] : oa) {
    auto it = ob.find(k);
    if (it != ob.end()) oi[k] = v * 1000 + it->second;
  }
  ASSERT_TRUE(i.check_valid());
  TestFixture::expect_equal(i, oi);
}

TYPED_TEST(MapCore, IntersectDisjointIsEmpty) {
  using map_t = typename TestFixture::map_type;
  map_t a = {{1, 1}, {2, 2}};
  map_t b = {{3, 3}, {4, 4}};
  auto i = map_t::map_intersect(a, b, [](V x, V) { return x; });
  EXPECT_TRUE(i.empty());
}

TYPED_TEST(MapCore, DifferenceAgainstOracle) {
  using map_t = typename TestFixture::map_type;
  auto ea = TestFixture::random_entries(5000, 10, 3000);
  auto eb = TestFixture::random_entries(2500, 11, 3000);
  map_t a(ea), b(eb);
  auto oa = TestFixture::oracle_of(ea);
  auto ob = TestFixture::oracle_of(eb);
  auto d = map_t::map_difference(a, b);
  std::map<K, V> od;
  for (auto& [k, v] : oa)
    if (ob.count(k) == 0) od[k] = v;
  ASSERT_TRUE(d.check_valid());
  TestFixture::expect_equal(d, od);
}

TYPED_TEST(MapCore, SetAlgebraIdentities) {
  using map_t = typename TestFixture::map_type;
  // difference(a, a) = empty; intersect(a, a) = a; union(a, a) = a.
  auto es = TestFixture::random_entries(3000, 12, 2000);
  map_t a(es);
  EXPECT_TRUE(map_t::map_difference(a, a).empty());
  auto i = map_t::map_intersect(a, a, [](V x, V) { return x; });
  TestFixture::expect_equal(i, TestFixture::oracle_of(es));
  auto u = map_t::map_union(a, a);
  TestFixture::expect_equal(u, TestFixture::oracle_of(es));
}

// ----------------------------------------------------- split / concat ---

TYPED_TEST(MapCore, SplitAtPresentAndAbsentKeys) {
  using map_t = typename TestFixture::map_type;
  auto es = TestFixture::random_entries(10000, 14, 1u << 20);
  map_t m(es);
  auto oracle = TestFixture::oracle_of(es);
  // split at an existing key
  K mid = m.select(m.size() / 2)->first;
  auto s = map_t::split(m, mid);
  ASSERT_TRUE(s.value.has_value());
  EXPECT_EQ(*s.value, oracle[mid]);
  ASSERT_TRUE(s.left.check_valid());
  ASSERT_TRUE(s.right.check_valid());
  EXPECT_EQ(s.left.size() + s.right.size() + 1, oracle.size());
  for (auto& e : s.left.entries()) ASSERT_LT(e.first, mid);
  for (auto& e : s.right.entries()) ASSERT_GT(e.first, mid);
  // concat puts them back together (minus the split key)
  auto joined = map_t::concat(s.left, s.right);
  ASSERT_TRUE(joined.check_valid());
  EXPECT_EQ(joined.size(), oracle.size() - 1);
  // split at an absent key
  auto s2 = map_t::split(m, mid + (oracle.count(mid + 1) ? 0 : 1));
  (void)s2;
  auto s3 = map_t::split(m, ~0ull);
  EXPECT_EQ(s3.left.size(), m.size() - (oracle.count(~0ull) ? 1 : 0));
  EXPECT_TRUE(s3.right.empty());
}

// --------------------------------------------------------------- filter --

TYPED_TEST(MapCore, FilterAgainstOracle) {
  using map_t = typename TestFixture::map_type;
  auto es = TestFixture::random_entries(20000, 15, 1u << 20);
  map_t m(es);
  auto oracle = TestFixture::oracle_of(es);
  auto f = map_t::filter(m, [](K k, V v) { return (k + v) % 3 == 0; });
  std::map<K, V> of;
  for (auto& [k, v] : oracle)
    if ((k + v) % 3 == 0) of[k] = v;
  ASSERT_TRUE(f.check_valid());
  TestFixture::expect_equal(f, of);
  TestFixture::expect_equal(m, oracle);  // input copy untouched
}

TYPED_TEST(MapCore, FilterAllAndNone) {
  using map_t = typename TestFixture::map_type;
  auto es = TestFixture::random_entries(2000, 16, 10000);
  map_t m(es);
  auto all = map_t::filter(m, [](K, V) { return true; });
  auto none = map_t::filter(m, [](K, V) { return false; });
  TestFixture::expect_equal(all, TestFixture::oracle_of(es));
  EXPECT_TRUE(none.empty());
}

// ------------------------------------------------- multi-insert/delete --

TYPED_TEST(MapCore, MultiInsertAgainstOracle) {
  using map_t = typename TestFixture::map_type;
  auto base = TestFixture::random_entries(20000, 18, 1u << 16);
  auto ups = TestFixture::random_entries(7000, 19, 1u << 16);
  map_t m(base);
  auto oracle = TestFixture::oracle_of(base);
  auto m2 = map_t::multi_insert(m, ups, [](V oldv, V newv) { return oldv + newv; });
  for (auto& [k, v] : ups) {
    auto it = oracle.find(k);
    if (it == oracle.end())
      oracle[k] = v;
    else
      it->second += v;
  }
  ASSERT_TRUE(m2.check_valid());
  TestFixture::expect_equal(m2, oracle);
}

TYPED_TEST(MapCore, MultiInsertIntoEmptyEqualsBuild) {
  using map_t = typename TestFixture::map_type;
  auto es = TestFixture::random_entries(5000, 20, 4000);
  map_t from_build(es, [](V a, V b) { return a + b; });
  map_t from_mi = map_t::multi_insert(map_t(), es, [](V a, V b) { return a + b; });
  ASSERT_TRUE(from_mi.check_valid());
  EXPECT_EQ(from_build.entries(), from_mi.entries());
}

TYPED_TEST(MapCore, MultiDeleteAgainstOracle) {
  using map_t = typename TestFixture::map_type;
  auto base = TestFixture::random_entries(20000, 21, 1u << 16);
  map_t m(base);
  auto oracle = TestFixture::oracle_of(base);
  std::vector<K> kill;
  pam::random_gen g(5);
  for (int i = 0; i < 8000; i++) kill.push_back(g.next() % (1u << 16));
  auto m2 = map_t::multi_delete(m, kill);
  for (auto k : kill) oracle.erase(k);
  ASSERT_TRUE(m2.check_valid());
  TestFixture::expect_equal(m2, oracle);
}

// ----------------------------------------------------- ranges / mapRed --

TYPED_TEST(MapCore, UpToDownToRange) {
  using map_t = typename TestFixture::map_type;
  auto es = TestFixture::random_entries(10000, 22, 1u << 20);
  map_t m(es);
  auto oracle = TestFixture::oracle_of(es);
  K lo = 1u << 18, hi = 3u << 18;
  auto up = map_t::up_to(m, hi);
  auto down = map_t::down_to(m, lo);
  auto mid = map_t::range(m, lo, hi);
  std::map<K, V> oup, odown, omid;
  for (auto& [k, v] : oracle) {
    if (k <= hi) oup[k] = v;
    if (k >= lo) odown[k] = v;
    if (k >= lo && k <= hi) omid[k] = v;
  }
  ASSERT_TRUE(up.check_valid());
  ASSERT_TRUE(down.check_valid());
  ASSERT_TRUE(mid.check_valid());
  TestFixture::expect_equal(up, oup);
  TestFixture::expect_equal(down, odown);
  TestFixture::expect_equal(mid, omid);
  TestFixture::expect_equal(m, oracle);  // borrow semantics: m unchanged
}

TYPED_TEST(MapCore, RangeBoundariesInclusive) {
  using map_t = typename TestFixture::map_type;
  map_t m = {{10, 1}, {20, 2}, {30, 3}};
  auto r = map_t::range(m, 10, 30);
  EXPECT_EQ(r.size(), 3u);
  auto r2 = map_t::range(m, 11, 29);
  EXPECT_EQ(r2.size(), 1u);
  auto r3 = map_t::range(m, 31, 40);
  EXPECT_TRUE(r3.empty());
  auto r4 = map_t::range(m, 25, 15);  // inverted range is empty
  EXPECT_TRUE(r4.empty());
}

TYPED_TEST(MapCore, MapReduceSumAndCount) {
  using map_t = typename TestFixture::map_type;
  auto es = TestFixture::random_entries(30000, 24, 1u << 28);
  map_t m(es);
  auto oracle = TestFixture::oracle_of(es);
  uint64_t expect_sum = 0;
  for (auto& [k, v] : oracle) expect_sum += v;
  auto got_sum = m.template map_reduce<uint64_t>(
      [](K, V v) { return v; }, [](uint64_t a, uint64_t b) { return a + b; }, 0);
  EXPECT_EQ(got_sum, expect_sum);
  auto got_count = m.template map_reduce<uint64_t>(
      [](K, V) { return uint64_t{1}; },
      [](uint64_t a, uint64_t b) { return a + b; }, 0);
  EXPECT_EQ(got_count, oracle.size());
}

TYPED_TEST(MapCore, EntriesAndForEachAgree) {
  using map_t = typename TestFixture::map_type;
  auto es = TestFixture::random_entries(10000, 25, 1u << 20);
  map_t m(es);
  auto from_entries = m.entries();
  std::vector<typename map_t::entry_t> from_foreach;
  m.for_each([&](K k, V v) { from_foreach.emplace_back(k, v); });
  EXPECT_EQ(from_entries, from_foreach);
  EXPECT_TRUE(std::is_sorted(from_entries.begin(), from_entries.end(),
                             [](auto& a, auto& b) { return a.first < b.first; }));
}

// ------------------------------------------------------ property sweeps --

// Randomized operation mixes with the validator run after every phase;
// parameterized over seeds to get diverse shapes.
TYPED_TEST(MapCore, RandomOpMixKeepsInvariants) {
  using map_t = typename TestFixture::map_type;
  for (uint64_t seed : {1ull, 42ull, 12345ull}) {
    pam::random_gen g(seed);
    map_t m;
    std::map<K, V> oracle;
    for (int phase = 0; phase < 6; phase++) {
      for (int i = 0; i < 600; i++) {
        K k = g.next() % 2048;
        switch (g.next() % 4) {
          case 0:
          case 1: {
            V v = g.next() % 100;
            m = map_t::insert(std::move(m), k, v);
            oracle[k] = v;
            break;
          }
          case 2: {
            m = map_t::remove(std::move(m), k);
            oracle.erase(k);
            break;
          }
          case 3: {
            ASSERT_EQ(m.find(k).has_value(), oracle.count(k) == 1);
            break;
          }
        }
      }
      ASSERT_TRUE(m.check_valid()) << "seed " << seed << " phase " << phase;
      TestFixture::expect_equal(m, oracle);
    }
  }
}

}  // namespace

// --- addition: map_values (the paper's `map`) ------------------------------
namespace {

TYPED_TEST(MapCore, MapValuesTransformsInPlaceShape) {
  using map_t = typename TestFixture::map_type;
  auto es = TestFixture::random_entries(20000, 77, 1u << 20);
  map_t m(es);
  auto oracle = TestFixture::oracle_of(es);
  auto doubled = map_t::map_values(m, [](K, V v) { return v * 2; });
  ASSERT_TRUE(doubled.check_valid());  // balance metadata + aug recomputed
  ASSERT_EQ(doubled.size(), m.size());
  std::map<K, V> want;
  for (auto& [k, v] : oracle) want[k] = v * 2;
  TestFixture::expect_equal(doubled, want);
  TestFixture::expect_equal(m, oracle);  // source untouched
  // augmented sum doubles along with the values
  EXPECT_EQ(doubled.aug_val(), 2 * m.aug_val());
}

TYPED_TEST(MapCore, MapValuesOnEmptyAndSingleton) {
  using map_t = typename TestFixture::map_type;
  map_t empty;
  EXPECT_TRUE(map_t::map_values(empty, [](K, V v) { return v; }).empty());
  auto s = map_t::singleton(3, 30);
  auto t = map_t::map_values(s, [](K k, V v) { return v + k; });
  EXPECT_EQ(t.find(3).value(), 33u);
}

}  // namespace

// --- additions: multi_find and the granularity knob ------------------------
namespace {

TYPED_TEST(MapCore, MultiFindBatchLookup) {
  using map_t = typename TestFixture::map_type;
  auto es = TestFixture::random_entries(30000, 91, 1u << 18);
  map_t m(es);
  auto oracle = TestFixture::oracle_of(es);
  std::vector<K> queries;
  pam::random_gen g(92);
  for (int i = 0; i < 5000; i++) queries.push_back(g.next() % (1u << 18));
  auto got = m.multi_find(queries);
  ASSERT_EQ(got.size(), queries.size());
  for (size_t i = 0; i < queries.size(); i++) {
    auto it = oracle.find(queries[i]);
    ASSERT_EQ(got[i].has_value(), it != oracle.end()) << i;
    if (got[i].has_value()) {
      ASSERT_EQ(*got[i], it->second);
    }
  }
}

TYPED_TEST(MapCore, GranularityKnobDoesNotChangeResults) {
  using map_t = typename TestFixture::map_type;
  auto ea = TestFixture::random_entries(40000, 93, 1u << 18);
  auto eb = TestFixture::random_entries(40000, 94, 1u << 18);
  size_t saved = pam::par_cutoff();
  std::vector<typename map_t::entry_t> results[3];
  size_t cutoffs[3] = {1, 512, 1u << 20};
  for (int c = 0; c < 3; c++) {
    pam::set_par_cutoff(cutoffs[c]);
    map_t a(ea), b(eb);
    auto u = map_t::map_union(a, b, [](V x, V y) { return x + y; });
    EXPECT_TRUE(u.check_valid()) << "cutoff " << cutoffs[c];
    results[c] = u.entries();
  }
  pam::set_par_cutoff(saved);
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[1], results[2]);
}

}  // namespace

// --- build-path equivalence --------------------------------------------------
// build, multi_insert and multi_delete sort their input along one of three
// paths, picked by key type: the radix sort (integer keys under the default
// order), the merge sort, and the merge sort's already-sorted shortcut. Each
// must give the map a sorted-vector oracle predicts, duplicates folded left
// to right, at every balance scheme, leaf block size and leaf layout.
namespace {

// Not commutative and not associative, so any other fold order shows.
V fold31(V a, V b) { return (31 * a + b) % 1000003; }

template <typename Entry, typename Balance>
void expect_build_paths(const std::vector<std::pair<typename Entry::key_t, V>>& in,
                        const std::vector<typename Entry::key_t>& dels) {
  using map_t = pam::aug_map<Entry, Balance>;
  using key_t = typename Entry::key_t;
  struct key_less {
    bool operator()(const key_t& a, const key_t& b) const { return Entry::comp(a, b); }
  };
  using oracle_t = std::map<key_t, V, key_less>;
  auto fold_into = [](oracle_t& o, const auto& es) {
    for (const auto& [k, v] : es) {
      auto [it, fresh] = o.emplace(k, v);
      if (!fresh) it->second = fold31(it->second, v);
    }
  };
  auto expect_map = [](const map_t& m, const oracle_t& o, const char* what) {
    ASSERT_TRUE(m.check_valid()) << what;
    auto es = m.entries();
    ASSERT_EQ(es.size(), o.size()) << what;
    size_t i = 0;
    for (const auto& [k, v] : o) {
      ASSERT_TRUE(es[i].first == k && es[i].second == v) << what << " at " << i;
      i++;
    }
  };

  oracle_t built;
  fold_into(built, in);
  expect_map(map_t(in, fold31), built, "build");

  // multi_insert folds the updates first, then combines each with the value
  // already in the map: comb(old, folded update).
  std::vector<std::pair<key_t, V>> base_in;
  for (size_t i = 0; i < in.size(); i += 2) base_in.push_back(in[i]);
  map_t base(base_in, fold31);
  oracle_t inserted, updates;
  fold_into(inserted, base_in);
  fold_into(updates, in);
  for (const auto& [k, u] : updates) {
    auto [it, fresh] = inserted.emplace(k, u);
    if (!fresh) it->second = fold31(it->second, u);
  }
  expect_map(map_t::multi_insert(base, in, fold31), inserted, "multi_insert");

  oracle_t deleted = built;
  for (const auto& k : dels) deleted.erase(k);
  expect_map(map_t::multi_delete(map_t(in, fold31), dels), deleted, "multi_delete");
}

// Deletes every third input key.
template <typename Entry, typename Balance>
void expect_build_paths(const std::vector<std::pair<typename Entry::key_t, V>>& in) {
  std::vector<typename Entry::key_t> dels;
  for (size_t i = 0; i < in.size(); i += 3) dels.push_back(in[i].first);
  expect_build_paths<Entry, Balance>(in, dels);
}

// Sorts v, keys or (key, value) pairs, stably by the policy's order.
template <typename Entry, typename T>
void sort_by_policy(std::vector<T>& v) {
  auto key = [](const T& x) -> const auto& {
    if constexpr (std::is_same_v<T, typename Entry::key_t>) {
      return x;
    } else {
      return x.first;
    }
  };
  std::stable_sort(v.begin(), v.end(),
                   [&](const T& a, const T& b) { return Entry::comp(key(a), key(b)); });
}

// Random input with duplicates, then the same input stably sorted by the
// policy's order (the already-sorted path, duplicates still in input order).
template <typename Entry, typename Balance, typename KeyGen>
void expect_build_paths_random_and_sorted(size_t n, uint64_t seed, const KeyGen& key_gen) {
  using key_t = typename Entry::key_t;
  pam::random_gen g(seed);
  std::vector<std::pair<key_t, V>> in(n);
  for (auto& e : in) e = {key_gen(g.next() % (n / 2 + 1)), g.next() % 1000};
  expect_build_paths<Entry, Balance>(in);
  sort_by_policy<Entry>(in);
  expect_build_paths<Entry, Balance>(in);
}

// Inputs where the duplicate fold's output is not a sort's scratch, or where
// the fold gets one run:
//  * sorted input with duplicates: the sort is skipped, so the fold
//    allocates its output;
//  * kSortBase + 1 entries under one key: the sort's sorted-input shortcut,
//    then a single run;
//  * more than kSortBase delete keys with duplicates, half of them absent
//    from the map, unsorted and then sorted.
template <typename Entry, typename Balance, typename KeyGen>
void expect_build_paths_edge_inputs(uint64_t seed, const KeyGen& key_gen) {
  using key_t = typename Entry::key_t;
  const size_t n = 3 * pam::internal::kSortBase;
  pam::random_gen g(seed);
  std::vector<std::pair<key_t, V>> in(n);
  for (auto& e : in) e = {key_gen(g.next() % (n / 4 + 1)), g.next() % 1000};
  auto sorted = in;
  sort_by_policy<Entry>(sorted);
  expect_build_paths<Entry, Balance>(sorted);

  std::vector<std::pair<key_t, V>> same(pam::internal::kSortBase + 1);
  for (auto& e : same) e = {key_gen(5), g.next() % 1000};
  expect_build_paths<Entry, Balance>(same);

  std::vector<key_t> dels(2 * pam::internal::kSortBase);
  for (auto& k : dels) k = key_gen(g.next() % (n / 2 + 1));
  expect_build_paths<Entry, Balance>(in, dels);
  sort_by_policy<Entry>(dels);
  expect_build_paths<Entry, Balance>(in, dels);
}

TYPED_TEST(MapCore, BuildPathsMatchSortedOracle) {
  using B = TypeParam;
  auto wide = [](uint64_t r) { return r % 7 == 0 ? r | (uint64_t{1} << 63) : r * 1000003; };
  auto signed_key = [](uint64_t r) {
    if (r == 1) return std::numeric_limits<int64_t>::min();
    if (r == 2) return std::numeric_limits<int64_t>::max();
    return static_cast<int64_t>(r * 2654435761u % 200003) - 100001;
  };
  auto str_key = [](uint64_t r) { return std::to_string(r * 7919); };
  size_t saved_b = pam::leaf_block_size();
  for (size_t b : {size_t{0}, size_t{1}, size_t{32}, size_t{256}}) {
    pam::set_leaf_block_size(b);
    SCOPED_TRACE("B = " + std::to_string(b));
    for (size_t n : {size_t{1000}, size_t{20000}}) {
      // Radix path: flat and delta-coded leaves, unsigned and signed keys.
      expect_build_paths_random_and_sorted<pam::sum_entry<K, V>, B>(n, n + b, wide);
      expect_build_paths_random_and_sorted<pam::delta_sum_entry<K, V>, B>(n, n + b + 1,
                                                                          wide);
      expect_build_paths_random_and_sorted<pam::sum_entry<int64_t, V>, B>(n, n + b + 2,
                                                                          signed_key);
      // Merge path for integer keys: a policy that is not std::less.
      using desc = std::greater<K>;
      expect_build_paths_random_and_sorted<pam::map_entry<K, V, desc>, B>(n, n + b + 3,
                                                                          wide);
      expect_build_paths_random_and_sorted<pam::delta_map_entry<K, V, desc>, B>(
          n, n + b + 4, wide);
      // Merge path for front-coded string keys.
      expect_build_paths_random_and_sorted<pam::str_sum_entry<V>, B>(n, n + b + 5, str_key);
    }
  }
  pam::set_leaf_block_size(saved_b);
  expect_build_paths_edge_inputs<pam::sum_entry<K, V>, B>(31, wide);
  expect_build_paths_edge_inputs<pam::delta_sum_entry<K, V>, B>(32, wide);
  expect_build_paths_edge_inputs<pam::sum_entry<int64_t, V>, B>(33, signed_key);
  expect_build_paths_edge_inputs<pam::map_entry<K, V, std::greater<K>>, B>(34, wide);
  expect_build_paths_edge_inputs<pam::str_sum_entry<V>, B>(35, str_key);
  // Large enough for the radix sort's bucket phase, with duplicates and a
  // skewed top digit: most wide() keys share its lowest bucket.
  expect_build_paths_random_and_sorted<pam::sum_entry<K, V>, B>(size_t{1} << 20, 17, wide);
}

// The bulk front end allocates one n-entry buffer for unsorted input with
// duplicates, the sort's scratch, which the duplicate fold then reuses as
// its output, and none for sorted, duplicate-free input.
template <typename Entry, typename KeyGen>
void expect_one_scratch_buffer(size_t n, const KeyGen& key_gen) {
  using map_t = pam::aug_map<Entry>;
  using entry_t = typename map_t::entry_t;
  using key_t = typename Entry::key_t;
  auto& scratch_bytes = pam::internal::sort_scratch_bytes();
  pam::random_gen g(7);
  std::vector<entry_t> in(n);
  for (auto& e : in) e = {key_gen(g.next() % (n / 2)), g.next() % 1000};
  std::vector<key_t> dels(n);
  for (auto& k : dels) k = key_gen(g.next() % (n / 2));

  uint64_t before = scratch_bytes.value();
  map_t m(in);
  EXPECT_EQ(scratch_bytes.value() - before, n * sizeof(entry_t)) << "build";
  std::vector<entry_t> unique = m.entries();
  before = scratch_bytes.value();
  m = map_t::multi_insert(std::move(m), in);
  EXPECT_EQ(scratch_bytes.value() - before, n * sizeof(entry_t)) << "multi_insert";
  before = scratch_bytes.value();
  m = map_t::multi_delete(std::move(m), dels);
  EXPECT_EQ(scratch_bytes.value() - before, n * sizeof(key_t)) << "multi_delete";

  ASSERT_GT(unique.size(), pam::internal::kSortBase);
  before = scratch_bytes.value();
  map_t s(unique);
  s = map_t::multi_insert(std::move(s), unique);
  EXPECT_EQ(scratch_bytes.value() - before, 0u) << "sorted, duplicate-free";
  EXPECT_EQ(s.size(), unique.size());
}

TEST(BuildScratch, OneBufferPerCallAndNoneForSortedUniqueInput) {
  if (!pam::obs::kEnabled) GTEST_SKIP() << "built with PAM_METRICS=0";
  // The radix path, then the merge path.
  expect_one_scratch_buffer<pam::sum_entry<K, V>>(size_t{1} << 20, [](uint64_t r) { return r; });
  expect_one_scratch_buffer<pam::str_sum_entry<V>>(
      size_t{1} << 16, [](uint64_t r) { return std::to_string(r * 7919); });
}

}  // namespace
