// Tests for the parallel sequence primitives (reduce/scan/pack/sort/...).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "parallel/merge_sort.h"
#include "parallel/primitives.h"
#include "parallel/radix_sort.h"
#include "parallel/sequence_ops.h"
#include "util/random.h"

namespace {

std::vector<uint64_t> test_data(size_t n, uint64_t seed, uint64_t range) {
  std::vector<uint64_t> v(n);
  pam::random_gen g(seed);
  for (auto& x : v) x = g.next() % range;
  return v;
}

// ---------------------------------------------------------------- reduce --

class ReduceSizes : public ::testing::TestWithParam<size_t> {};

TEST_P(ReduceSizes, MatchesSequentialSum) {
  size_t n = GetParam();
  auto v = test_data(n, n * 7 + 1, 1000);
  uint64_t expect = std::accumulate(v.begin(), v.end(), uint64_t{0});
  uint64_t got = pam::reduce(v.data(), n, [](uint64_t a, uint64_t b) { return a + b; },
                             uint64_t{0});
  EXPECT_EQ(got, expect);
}

TEST_P(ReduceSizes, MatchesSequentialMax) {
  size_t n = GetParam();
  auto v = test_data(n, n * 13 + 5, 1u << 30);
  uint64_t expect = n == 0 ? 0 : *std::max_element(v.begin(), v.end());
  uint64_t got = pam::reduce(v.data(), n,
                             [](uint64_t a, uint64_t b) { return std::max(a, b); },
                             uint64_t{0});
  EXPECT_EQ(got, expect);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ReduceSizes,
                         ::testing::Values(0, 1, 2, 7, 100, 4096, 4097, 100000,
                                           1 << 20));

// Non-commutative (but associative) combine: string concat on small input,
// checking blocks fold in left-to-right order.
TEST(Reduce, NonCommutativeAssociative) {
  size_t n = 10000;
  std::vector<std::string> v(n);
  for (size_t i = 0; i < n; i++) v[i] = std::string(1, static_cast<char>('a' + i % 26));
  std::string expect;
  for (auto& s : v) expect += s;
  std::string got = pam::reduce(v.data(), n,
                                [](std::string a, const std::string& b) { return a + b; },
                                std::string());
  EXPECT_EQ(got, expect);
}

// ------------------------------------------------------------------ scan --

class ScanSizes : public ::testing::TestWithParam<size_t> {};

TEST_P(ScanSizes, ExclusivePrefixSums) {
  size_t n = GetParam();
  auto v = test_data(n, n + 3, 50);
  auto expect = v;
  uint64_t acc = 0;
  for (size_t i = 0; i < n; i++) {
    uint64_t nxt = acc + expect[i];
    expect[i] = acc;
    acc = nxt;
  }
  auto got = v;
  uint64_t total = pam::scan_exclusive(got.data(), n,
                                       [](uint64_t a, uint64_t b) { return a + b; },
                                       uint64_t{0});
  EXPECT_EQ(total, acc);
  EXPECT_EQ(got, expect);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ScanSizes,
                         ::testing::Values(0, 1, 2, 100, 4096, 4097, 12289, 1 << 20));

// ------------------------------------------------------------- pack etc. --

TEST(Pack, KeepsFlaggedInOrder) {
  size_t n = 100001;
  auto v = test_data(n, 99, 1000000);
  std::vector<unsigned char> flags(n);
  for (size_t i = 0; i < n; i++) flags[i] = (v[i] % 3 == 0);
  auto got = pam::pack(v.data(), flags.data(), n);
  std::vector<uint64_t> expect;
  for (size_t i = 0; i < n; i++)
    if (flags[i]) expect.push_back(v[i]);
  EXPECT_EQ(got, expect);
}

TEST(Filter, MatchesStdCopyIf) {
  size_t n = 54321;
  auto v = test_data(n, 7, 1000);
  auto got = pam::filter_seq(v.data(), n, [](uint64_t x) { return x < 100; });
  std::vector<uint64_t> expect;
  std::copy_if(v.begin(), v.end(), std::back_inserter(expect),
               [](uint64_t x) { return x < 100; });
  EXPECT_EQ(got, expect);
}

TEST(PackIndices, FindsAllFlagPositions) {
  size_t n = 70000;
  std::vector<unsigned char> flags(n);
  for (size_t i = 0; i < n; i++) flags[i] = (pam::hash64(i) % 7 == 0);
  auto got = pam::pack_indices(flags.data(), n);
  std::vector<size_t> expect;
  for (size_t i = 0; i < n; i++)
    if (flags[i]) expect.push_back(i);
  EXPECT_EQ(got, expect);
}

TEST(Tabulate, ProducesFunctionValues) {
  auto got = pam::tabulate<uint64_t>(100000, [](size_t i) { return i * i; });
  ASSERT_EQ(got.size(), 100000u);
  EXPECT_EQ(got[333], 333u * 333u);
  EXPECT_EQ(got[99999], 99999ull * 99999ull);
}

// ------------------------------------------------------------------ sort --

class SortSizes : public ::testing::TestWithParam<size_t> {};

TEST_P(SortSizes, MatchesStdStableSort) {
  size_t n = GetParam();
  auto v = test_data(n, n * 31 + 7, std::max<size_t>(n, 16));
  auto expect = v;
  std::stable_sort(expect.begin(), expect.end());
  pam::parallel_sort(v, std::less<uint64_t>());
  EXPECT_EQ(v, expect);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SortSizes,
                         ::testing::Values(0, 1, 2, 3, 100, 8192, 8193, 100000,
                                           1 << 21));

TEST(Sort, StableOnEqualKeys) {
  // Sort (key, original_index) pairs by key only; equal keys must preserve
  // index order.
  size_t n = 200000;
  std::vector<std::pair<uint32_t, uint32_t>> v(n);
  pam::random_gen g(5);
  for (size_t i = 0; i < n; i++)
    v[i] = {static_cast<uint32_t>(g.next() % 64), static_cast<uint32_t>(i)};
  pam::parallel_sort(v.data(), n,
                     [](const auto& a, const auto& b) { return a.first < b.first; });
  for (size_t i = 1; i < n; i++) {
    ASSERT_LE(v[i - 1].first, v[i].first);
    if (v[i - 1].first == v[i].first) {
      ASSERT_LT(v[i - 1].second, v[i].second);
    }
  }
}

TEST(Sort, AlreadySortedAndReversed) {
  size_t n = 300000;
  std::vector<uint64_t> v(n);
  std::iota(v.begin(), v.end(), 0);
  pam::parallel_sort(v, std::less<uint64_t>());
  for (size_t i = 0; i < n; i++) ASSERT_EQ(v[i], i);
  std::reverse(v.begin(), v.end());
  pam::parallel_sort(v, std::less<uint64_t>());
  for (size_t i = 0; i < n; i++) ASSERT_EQ(v[i], i);
}

TEST(Sort, AllEqualKeys) {
  std::vector<uint64_t> v(100000, 7);
  pam::parallel_sort(v, std::less<uint64_t>());
  for (auto x : v) ASSERT_EQ(x, 7u);
}

TEST(Sort, IsSortedParallelFindsADescentAtABlockSeam) {
  size_t n = 5 * pam::internal::kSortBase;
  std::vector<uint64_t> v(n);
  std::iota(v.begin(), v.end(), 0);
  EXPECT_TRUE(pam::is_sorted_parallel(v.data(), n, std::less<uint64_t>()));
  // The only descent straddles the seam between blocks 2 and 3.
  std::swap(v[3 * pam::internal::kSortBase - 1], v[3 * pam::internal::kSortBase]);
  EXPECT_FALSE(pam::is_sorted_parallel(v.data(), n, std::less<uint64_t>()));
}

// ------------------------------------------------------------ radix sort --

// Sorts (key, input position) pairs by key with the radix sort and with
// std::stable_sort: equal vectors means the same order and, through the
// position tags, the same order among equal keys.
template <typename K>
void expect_radix_matches_stable_sort(const std::vector<K>& keys) {
  std::vector<std::pair<K, uint32_t>> v(keys.size());
  for (size_t i = 0; i < keys.size(); i++) v[i] = {keys[i], static_cast<uint32_t>(i)};
  auto expect = v;
  std::stable_sort(expect.begin(), expect.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  pam::radix_sort(v, [](const std::pair<K, uint32_t>& e) { return e.first; });
  ASSERT_EQ(v, expect);
}

// Every input pattern at size n: random over the whole key range (negatives,
// bit 63, the type's extremes), a narrow range far from zero, a few distinct
// keys, all keys equal, sorted and reverse-sorted.
template <typename K>
void radix_patterns(size_t n) {
  using lim = std::numeric_limits<K>;
  pam::random_gen g(n * 977 + sizeof(K));
  std::vector<K> random(n), narrow(n), few(n), equal(n, K{42});
  for (size_t i = 0; i < n; i++) {
    random[i] = static_cast<K>(g.next());
    narrow[i] = static_cast<K>(lim::max() / 2 + static_cast<K>(g.next() % 5000));
    few[i] = static_cast<K>(g.next() % 3 == 0 ? lim::min() : g.next() % 4);
  }
  const K extremes[] = {lim::min(), lim::max(), K{0}, static_cast<K>(-1), lim::min()};
  for (size_t i = 0; i < n && i < 5; i++) random[(i * 7919) % n] = extremes[i];
  std::vector<K> sorted = random, reversed;
  std::sort(sorted.begin(), sorted.end());
  reversed.assign(sorted.rbegin(), sorted.rend());
  const std::pair<const char*, const std::vector<K>*> patterns[] = {
      {"random", &random}, {"narrow", &narrow}, {"few", &few},
      {"equal", &equal},   {"sorted", &sorted}, {"reversed", &reversed}};
  for (const auto& [name, keys] : patterns) {
    SCOPED_TRACE(name);
    expect_radix_matches_stable_sort(*keys);
  }
}

class RadixSortSizes : public ::testing::TestWithParam<size_t> {};

TEST_P(RadixSortSizes, Uint32Keys) { radix_patterns<uint32_t>(GetParam()); }
TEST_P(RadixSortSizes, Uint64Keys) { radix_patterns<uint64_t>(GetParam()); }
TEST_P(RadixSortSizes, Int64Keys) { radix_patterns<int64_t>(GetParam()); }

INSTANTIATE_TEST_SUITE_P(Sizes, RadixSortSizes,
                         ::testing::Values(0, 1, 2, pam::internal::kSortBase - 1,
                                           pam::internal::kSortBase,
                                           pam::internal::kSortBase + 1, 1 << 20));

// The shapes the two phases handle differently. At n = 2^20 the 16-byte
// tagged entries take a top digit of `top` bits, so a key span of top + 11p
// bits leaves p stable LSD passes inside each bucket.
constexpr size_t kPhaseN = size_t{1} << 20;
const int kTopBits = static_cast<int>(std::bit_width(
    (kPhaseN * sizeof(std::pair<uint64_t, uint32_t>) - 1) / pam::internal::kBucketBytes));

std::vector<uint64_t> keys_of_span(size_t n, int bits, uint64_t seed) {
  pam::random_gen g(seed);
  std::vector<uint64_t> keys(n);
  uint64_t mask = bits == 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;
  for (auto& k : keys) k = g.next() & mask;
  keys[n / 3] = mask;  // pin the span
  return keys;
}

TEST(RadixSortPhases, SpanWithinTheTopDigitNeedsNoLsdPass) {
  ASSERT_GE(kTopBits, 2);
  expect_radix_matches_stable_sort(keys_of_span(kPhaseN, kTopBits, 1));
}

TEST(RadixSortPhases, OddAndEvenInBucketPassCounts) {
  // One and three passes end in v; zero, two and four end in scratch and
  // take the final in-cache copy.
  for (int passes = 0; passes <= 4; passes++) {
    SCOPED_TRACE("passes = " + std::to_string(passes));
    expect_radix_matches_stable_sort(
        keys_of_span(kPhaseN, std::min(64, kTopBits + passes * pam::internal::kRadixBits),
                     10 + static_cast<uint64_t>(passes)));
  }
}

TEST(RadixSortPhases, OneBucketHoldsMostOfTheInput) {
  // 60% of the keys fall in the lowest top-digit bucket, far more than one
  // cache budget; the rest spread over 40 bits.
  pam::random_gen g(3);
  std::vector<uint64_t> keys(kPhaseN);
  for (auto& k : keys) k = g.next() % 5 < 3 ? g.next() % 100000 : g.next() >> 24;
  expect_radix_matches_stable_sort(keys);
}

TEST(RadixSortPhases, SignedKeysStraddlingZero) {
  pam::random_gen g(4);
  std::vector<int64_t> wide(kPhaseN);
  std::vector<int32_t> narrow(kPhaseN);
  for (size_t i = 0; i < kPhaseN; i++) {
    wide[i] = static_cast<int64_t>(g.next() % (uint64_t{1} << 31)) - (int64_t{1} << 30);
    narrow[i] = static_cast<int32_t>(g.next() % 20001) - 10000;
  }
  expect_radix_matches_stable_sort(wide);
  expect_radix_matches_stable_sort(narrow);
}

// Dense keys at a power-of-two n put every bucket start the same distance
// apart, which crowds them into a few cache sets and takes the staged
// scatter: 16-byte entries stage four to a line, entries wider than a line
// one at a time.
TEST(RadixSortPhases, StagedScatterForCrowdedBucketStarts) {
  std::vector<uint64_t> dense(kPhaseN);
  for (size_t i = 0; i < kPhaseN; i++) dense[i] = (i * 0x9E3779B97F4A7C15ull) & (kPhaseN - 1);
  expect_radix_matches_stable_sort(dense);

  struct wide_entry {
    uint64_t key, tag, pad[8];
  };
  const size_t n = kPhaseN / 4;
  std::vector<wide_entry> v(n);
  for (size_t i = 0; i < n; i++) v[i] = {(i * 0x9E3779B97F4A7C15ull) & (n - 1), i, {}};
  auto expect = v;
  auto key_of = [](const wide_entry& e) { return e.key; };
  std::stable_sort(expect.begin(), expect.end(),
                   [&](const auto& a, const auto& b) { return key_of(a) < key_of(b); });
  pam::radix_sort(v, key_of);
  for (size_t i = 0; i < n; i++) {
    ASSERT_TRUE(v[i].key == expect[i].key && v[i].tag == expect[i].tag) << i;
  }
}

TEST(RadixSortPhases, FourMillionRandomKeys) {
  expect_radix_matches_stable_sort(keys_of_span(size_t{1} << 22, 64, 5));
}

// --------------------------------------------------- combine_sorted_runs --

// combine_sorted_runs with its output in a fresh vector, or the input itself
// when it has no duplicates (the fold then asks for no output).
template <typename KV, typename Less, typename Comb>
std::vector<KV> combined(const std::vector<KV>& a, const Less& less, const Comb& comb) {
  std::vector<KV> out;
  size_t m = pam::combine_sorted_runs(a.data(), a.size(), less, comb, [&](size_t k) {
    out.resize(k);
    return out.data();
  });
  if (m == a.size()) {
    EXPECT_TRUE(out.empty());
    return a;
  }
  EXPECT_EQ(out.size(), m);
  return out;
}

TEST(CombineSortedRuns, SumsDuplicateKeys) {
  std::vector<std::pair<int, int>> a = {{1, 1}, {1, 2}, {2, 5}, {3, 1}, {3, 1},
                                        {3, 1}, {9, 4}};
  auto out = combined(
      a, [](int x, int y) { return x < y; }, [](int x, int y) { return x + y; });
  std::vector<std::pair<int, int>> expect = {{1, 3}, {2, 5}, {3, 3}, {9, 4}};
  EXPECT_EQ(out, expect);
}

TEST(CombineSortedRuns, LeftToRightOrderWithNonCommutativeCombine) {
  // combine = "take left" must keep the first value of each run,
  // combine = "take right" must keep the last.
  std::vector<std::pair<int, int>> a = {{1, 10}, {1, 20}, {1, 30}, {2, 7}};
  auto first = combined(
      a, [](int x, int y) { return x < y; }, [](int x, int) { return x; });
  auto last = combined(
      a, [](int x, int y) { return x < y; }, [](int, int y) { return y; });
  EXPECT_EQ(first[0].second, 10);
  EXPECT_EQ(last[0].second, 30);
  EXPECT_EQ(first[1].second, 7);
}

TEST(CombineSortedRuns, LargeRandom) {
  size_t n = 500000;
  std::vector<std::pair<uint64_t, uint64_t>> a(n);
  pam::random_gen g(11);
  for (auto& kv : a) kv = {g.next() % 5000, g.next() % 100};
  pam::parallel_sort(a.data(), n,
                     [](const auto& x, const auto& y) { return x.first < y.first; });
  auto got = combined(
      a, [](uint64_t x, uint64_t y) { return x < y; },
      [](uint64_t x, uint64_t y) { return x + y; });
  // sequential oracle
  std::vector<std::pair<uint64_t, uint64_t>> expect;
  for (auto& kv : a) {
    if (!expect.empty() && expect.back().first == kv.first)
      expect.back().second += kv.second;
    else
      expect.push_back(kv);
  }
  EXPECT_EQ(got, expect);
}

// Without duplicates the input is the result: the fold asks for no output
// and writes nothing.
TEST(CombineSortedRuns, NoDuplicatesAsksForNoOutput) {
  for (size_t n : {size_t{1}, size_t{100}, 3 * pam::internal::kSeqBase + 17}) {
    std::vector<std::pair<uint64_t, uint64_t>> a(n);
    for (size_t i = 0; i < n; i++) a[i] = {2 * i, i};
    auto expect = a;
    bool asked = false;
    size_t m = pam::combine_sorted_runs(
        a.data(), n, [](uint64_t x, uint64_t y) { return x < y; },
        [](uint64_t x, uint64_t y) { return x + y; },
        [&](size_t) -> std::pair<uint64_t, uint64_t>* {
          asked = true;
          return nullptr;
        });
    EXPECT_EQ(m, n);
    EXPECT_FALSE(asked);
    EXPECT_EQ(a, expect);
  }
}

// The output may be larger than the run count, as when the fold reuses a
// sort's n-slot scratch: it fills the first m slots and leaves the rest.
TEST(CombineSortedRuns, WritesOnlyTheFirstRunCountSlots) {
  size_t n = 4 * pam::internal::kSeqBase + 5;
  std::vector<std::pair<uint64_t, uint64_t>> a(n);
  for (size_t i = 0; i < n; i++) a[i] = {i / 3, i};
  const std::pair<uint64_t, uint64_t> sentinel{~uint64_t{0}, ~uint64_t{0}};
  std::vector<std::pair<uint64_t, uint64_t>> out(n, sentinel);
  size_t m = pam::combine_sorted_runs(
      a.data(), n, [](uint64_t x, uint64_t y) { return x < y; },
      [](uint64_t x, uint64_t y) { return x + y; }, [&](size_t) { return out.data(); });
  ASSERT_EQ(m, (n + 2) / 3);
  for (size_t r = 0; r < m; r++) {
    uint64_t sum = 0;
    for (size_t i = 3 * r; i < std::min(n, 3 * r + 3); i++) sum += i;
    ASSERT_EQ(out[r], std::make_pair(uint64_t{r}, sum)) << r;
  }
  for (size_t i = m; i < n; i++) ASSERT_EQ(out[i], sentinel) << i;
}

// Runs that start just before a block seam, span whole blocks, or start
// exactly on a seam are each folded once, left to right, by the block that
// holds their first element. The fold is not commutative, so any other
// order shows.
TEST(CombineSortedRuns, RunsCrossingBlockSeams) {
  const size_t blk = pam::internal::kSeqBase;
  const size_t lens[] = {blk - 3, 5, 2 * blk + 9, 1, blk, 1, 7, blk - 1, 2, 3};
  std::vector<std::pair<uint64_t, uint64_t>> a;
  uint64_t key = 0;
  for (int rep = 0; rep < 3; rep++) {
    for (size_t len : lens) {
      for (size_t i = 0; i < len; i++) a.push_back({key, a.size() % 1000});
      key += 3;
    }
  }
  auto comb = [](uint64_t x, uint64_t y) { return (31 * x + y) % 1000003; };
  std::vector<std::pair<uint64_t, uint64_t>> expect;
  for (const auto& kv : a) {
    if (!expect.empty() && expect.back().first == kv.first) {
      expect.back().second = comb(expect.back().second, kv.second);
    } else {
      expect.push_back(kv);
    }
  }
  auto got = combined(
      a, [](uint64_t x, uint64_t y) { return x < y; }, comb);
  EXPECT_EQ(got, expect);
}

TEST(CombineSortedRuns, EmptyInput) {
  std::vector<std::pair<int, int>> a;
  auto out = combined(
      a, [](int x, int y) { return x < y; }, [](int x, int y) { return x + y; });
  EXPECT_TRUE(out.empty());
}

TEST(RunBoundaries, GroupsByKey) {
  std::vector<int> a = {5, 5, 5, 7, 9, 9, 12};
  auto idx = pam::run_boundaries(a, [](int x) { return x; },
                                 [](int x, int y) { return x < y; });
  std::vector<size_t> expect = {0, 3, 4, 6};
  EXPECT_EQ(idx, expect);
}

}  // namespace
