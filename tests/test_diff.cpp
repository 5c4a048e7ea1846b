// Tests for the parallel structural diff (pam/diff.h): correctness against
// brute-force symmetric difference over std::map oracles, the shared-storage
// pruning contract (diffing a version against itself or a lightly-edited
// descendant does O(changes) work, not O(n)), diff_fold equivalence, change
// stream classification, and the map-valued val_equal hook the inverted
// index uses. Randomized sweeps run across all four balance schemes and
// leaf block sizes {1, 2, 32, 256}.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "apps/inverted_index.h"
#include "apps/range_sum.h"
#include "pam/pam.h"
#include "util/random.h"

namespace {

using K = uint64_t;
using V = uint64_t;

// Brute-force oracle: classify every key of either map.
template <typename Map>
std::vector<pam::map_change<Map>> oracle_diff(const std::map<K, V>& from,
                                              const std::map<K, V>& to) {
  std::vector<pam::map_change<Map>> out;
  auto i = from.begin();
  auto j = to.begin();
  while (i != from.end() || j != to.end()) {
    if (j == to.end() || (i != from.end() && i->first < j->first)) {
      out.push_back({i->first, pam::change_kind::removed, i->second, {}});
      ++i;
    } else if (i == from.end() || j->first < i->first) {
      out.push_back({j->first, pam::change_kind::added, {}, j->second});
      ++j;
    } else {
      if (i->second != j->second)
        out.push_back({i->first, pam::change_kind::updated, i->second, j->second});
      ++i;
      ++j;
    }
  }
  return out;
}

template <typename Map>
void expect_diff_matches(const Map& a, const Map& b,
                         const std::map<K, V>& oa, const std::map<K, V>& ob,
                         const char* ctx) {
  auto d = Map::diff(a, b);
  ASSERT_TRUE(d.before.check_valid()) << ctx;
  ASSERT_TRUE(d.after.check_valid()) << ctx;
  auto want = oracle_diff<Map>(oa, ob);
  auto got = d.changes();
  ASSERT_EQ(got.size(), want.size()) << ctx;
  for (size_t i = 0; i < want.size(); i++) {
    EXPECT_EQ(got[i].key, want[i].key) << ctx << " #" << i;
    EXPECT_EQ(got[i].kind, want[i].kind) << ctx << " #" << i;
    EXPECT_EQ(got[i].before, want[i].before) << ctx << " #" << i;
    EXPECT_EQ(got[i].after, want[i].after) << ctx << " #" << i;
  }
  // diff_fold agrees with folding the materialized partition.
  auto g = [](K, V v) { return v; };
  auto f = [](V x, V y) { return x + y; };
  auto [bf, af] = Map::diff_fold(a, b, g, f, V{0});
  EXPECT_EQ(bf, d.before.map_reduce(g, f, V{0})) << ctx;
  EXPECT_EQ(af, d.after.map_reduce(g, f, V{0})) << ctx;
  // size() counts distinct changed keys.
  EXPECT_EQ(d.size(), want.size()) << ctx;
}

TEST(Diff, BasicPartition) {
  using map_t = pam::range_sum_map;
  map_t a({{1, 10}, {2, 20}, {3, 30}, {5, 50}});
  map_t b = a;
  b = map_t::remove(std::move(b), 1);      // removed
  b = map_t::insert(std::move(b), 2, 21);  // updated
  b = map_t::insert(std::move(b), 4, 40);  // added
  b = map_t::insert(std::move(b), 5, 50);  // same value: not a change

  auto d = map_t::diff(a, b);
  EXPECT_EQ(d.before.entries(),
            (std::vector<map_t::entry_t>{{1, 10}, {2, 20}}));
  EXPECT_EQ(d.after.entries(),
            (std::vector<map_t::entry_t>{{2, 21}, {4, 40}}));
  EXPECT_EQ(d.size(), 3u);
  EXPECT_FALSE(d.empty());

  auto cs = d.changes();
  ASSERT_EQ(cs.size(), 3u);
  EXPECT_EQ(cs[0].kind, pam::change_kind::removed);
  EXPECT_EQ(cs[1].kind, pam::change_kind::updated);
  EXPECT_EQ(cs[2].kind, pam::change_kind::added);
  EXPECT_EQ(cs[1].before, std::optional<V>(20));
  EXPECT_EQ(cs[1].after, std::optional<V>(21));
}

TEST(Diff, IdenticalAndEmptyVersions) {
  using map_t = pam::range_sum_map;
  map_t empty;
  EXPECT_TRUE(map_t::diff(empty, empty).empty());

  std::vector<map_t::entry_t> init;
  for (K k = 0; k < 50000; k++) init.push_back({k, k * 3});
  map_t a(init);
  // Same handle: shares_storage prunes at the root.
  EXPECT_TRUE(map_t::diff(a, a).empty());
  // A copy is the same root.
  map_t a2 = a;
  EXPECT_TRUE(map_t::diff(a, a2).empty());

  // Against empty: everything is one-sided; the result shares the input's
  // subtrees (no rebuild), so node usage must not grow by O(n).
  int64_t nodes_before = map_t::used_nodes();
  auto d = map_t::diff(empty, a);
  int64_t grown = map_t::used_nodes() - nodes_before;
  EXPECT_EQ(d.after.size(), a.size());
  EXPECT_TRUE(d.before.empty());
  EXPECT_LE(grown, 1);  // whole-tree transfer is a refcount bump
}

TEST(Diff, SmallEditOnLargeMapIsCheap) {
  using map_t = pam::range_sum_map;
  std::vector<map_t::entry_t> init;
  for (K k = 0; k < 200000; k++) init.push_back({k * 2, k});
  map_t a(init);
  map_t b = a;
  std::map<K, V> oa, ob;
  for (auto& [k, v] : init) oa[k] = ob[k] = v;
  for (K k : {K{10}, K{77776}, K{399998}}) {
    b = map_t::insert(std::move(b), k + 1, 1);
    ob[k + 1] = 1;
  }
  b = map_t::remove(std::move(b), 40);
  ob.erase(40);
  expect_diff_matches(a, b, oa, ob, "small edit");

  // The diff's node footprint is O(changes), not O(n): building it must
  // not allocate more than a few paths' worth of nodes.
  int64_t nodes_before = map_t::used_nodes();
  auto d = map_t::diff(a, b);
  int64_t grown = map_t::used_nodes() - nodes_before;
  EXPECT_EQ(d.size(), 4u);
  EXPECT_LT(grown, 200);
}

// Two versions that share a leaf block hold the same tagged pointer to it:
// shares_storage is pointer equality, and the diff prunes there without
// reading the block. A block rebuilt from equal entries is not shared.
TEST(Diff, SharedBlockPrunesByPointer) {
  using ops = pam::diff_ops<pam::sum_entry<K, V>, pam::weight_balanced>;
  size_t saved = pam::leaf_block_size();
  pam::set_leaf_block_size(32);
  std::vector<std::pair<K, V>> es;
  for (K k = 0; k < 64; k++) es.push_back({k, k});
  ops::node* a = ops::from_sorted_unique(es.data(), es.size());
  ops::node* b = ops::insert(ops::inc(a), 63, 999);
  ASSERT_TRUE(ops::is_node(a));
  ASSERT_TRUE(ops::is_node(b));
  ASSERT_NE(a, b);
  ASSERT_TRUE(ops::is_block(a->left));
  EXPECT_EQ(a->left, b->left);  // one block, two versions
  EXPECT_TRUE(ops::shares_storage(a->left, b->left));
  EXPECT_FALSE(ops::shares_storage(a->right, b->right));

  ops::node* copy = ops::from_sorted_unique(es.data(), 32);
  ASSERT_TRUE(ops::is_block(copy));
  EXPECT_FALSE(ops::shares_storage(a->left, copy));

  auto same = ops::diff(ops::inc(a->left), ops::inc(b->left));
  EXPECT_EQ(same.before, nullptr);
  EXPECT_EQ(same.after, nullptr);
  auto d = ops::diff(ops::inc(a), ops::inc(b));
  EXPECT_EQ(ops::size(d.before), 1u);
  EXPECT_EQ(ops::size(d.after), 1u);
  for (ops::node* t : {a, b, copy, d.before, d.after}) ops::dec(t);
  pam::set_leaf_block_size(saved);
}

TEST(Diff, ReverseDirectionSwapsSides) {
  using map_t = pam::range_sum_map;
  map_t a({{1, 1}, {2, 2}});
  map_t b({{2, 3}, {4, 4}});
  auto fwd = map_t::diff(a, b);
  auto rev = map_t::diff(b, a);
  EXPECT_EQ(fwd.before.entries(), rev.after.entries());
  EXPECT_EQ(fwd.after.entries(), rev.before.entries());
}

// Unrelated maps (no shared storage at all) still diff correctly — the
// walk degenerates to a full merge.
TEST(Diff, UnrelatedMaps) {
  using map_t = pam::range_sum_map;
  pam::random_gen g(42);
  std::map<K, V> oa, ob;
  std::vector<map_t::entry_t> ea, eb;
  for (int i = 0; i < 30000; i++) {
    K k = g.next() % 60000;
    V v = g.next() % 1000;
    if (oa.emplace(k, v).second) ea.push_back({k, v});
    k = g.next() % 60000;
    v = g.next() % 1000;
    if (ob.emplace(k, v).second) eb.push_back({k, v});
  }
  std::sort(ea.begin(), ea.end());
  std::sort(eb.begin(), eb.end());
  map_t a = map_t::from_sorted(ea);
  map_t b = map_t::from_sorted(eb);
  expect_diff_matches(a, b, oa, ob, "unrelated");
}

// Randomized churn between two versions, swept across every balance scheme
// and leaf block size: diff must match the brute-force oracle exactly.
template <typename Balance>
void churn_sweep(uint64_t seed) {
  using map_t = pam::aug_map<pam::sum_entry<K, V>, Balance>;
  using entry_t = typename map_t::entry_t;
  pam::random_gen g(seed);
  constexpr K kKeyRange = 1 << 15;

  std::vector<entry_t> init;
  std::map<K, V> oa;
  for (int i = 0; i < 20000; i++) {
    K k = g.next() % kKeyRange;
    V v = g.next() % 1000;
    oa[k] = v;
  }
  for (auto& [k, v] : oa) init.push_back({k, v});
  map_t a = map_t::from_sorted(init);

  map_t b = a;
  std::map<K, V> ob = oa;
  int edits = 1 + static_cast<int>(g.next() % 2000);
  std::vector<entry_t> batch;
  for (int i = 0; i < edits; i++) {
    switch (g.next() % 3) {
      case 0: {
        K k = g.next() % kKeyRange;
        V v = g.next() % 1000;
        b = map_t::insert(std::move(b), k, v);
        ob[k] = v;
        break;
      }
      case 1: {
        K k = g.next() % kKeyRange;
        b = map_t::remove(std::move(b), k);
        ob.erase(k);
        break;
      }
      case 2: {
        batch.push_back({g.next() % kKeyRange, g.next() % 1000});
        break;
      }
    }
  }
  for (auto& e : batch) ob[e.first] = e.second;
  b = map_t::multi_insert(std::move(b), std::move(batch));

  expect_diff_matches(a, b, oa, ob, "churn");
}

class DiffSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DiffSweep, AllSchemesAllBlockSizes) {
  size_t saved_b = pam::leaf_block_size();
  for (size_t blk : {size_t{1}, size_t{2}, size_t{32}, size_t{256}}) {
    pam::set_leaf_block_size(blk);
    churn_sweep<pam::weight_balanced>(GetParam() * 31 + blk);
    churn_sweep<pam::avl_tree>(GetParam() * 37 + blk);
    churn_sweep<pam::red_black>(GetParam() * 41 + blk);
    churn_sweep<pam::treap>(GetParam() * 43 + blk);
  }
  pam::set_leaf_block_size(saved_b);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffSweep, ::testing::Values(3, 17, 0xbeef));

// A diff across a leaf-block layout switch: versions built at different
// block sizes share nothing structurally, but equality must still be
// detected entry-wise (no false changes).
TEST(Diff, AcrossLayoutSwitch) {
  using map_t = pam::range_sum_map;
  size_t saved = pam::leaf_block_size();
  std::vector<map_t::entry_t> init;
  for (K k = 0; k < 5000; k++) init.push_back({k, k});

  pam::set_leaf_block_size(0);  // classic nodes
  map_t a(init);
  pam::set_leaf_block_size(64);  // blocked
  map_t b(init);
  b = map_t::insert(std::move(b), 9999999, 1);

  auto d = map_t::diff(a, b);
  EXPECT_EQ(d.size(), 1u);
  auto cs = d.changes();
  ASSERT_EQ(cs.size(), 1u);
  EXPECT_EQ(cs[0].key, 9999999u);
  EXPECT_EQ(cs[0].kind, pam::change_kind::added);
  pam::set_leaf_block_size(saved);
}

// Map-valued entries: the inverted index's root-identity val_equal prunes
// unchanged terms, and changed_terms reports exactly the touched ones.
TEST(Diff, InvertedIndexChangedTerms) {
  std::vector<pam::posting> triples;
  pam::random_gen g(7);
  for (uint32_t w = 0; w < 200; w++) {
    for (int d = 0; d < 30; d++)
      triples.push_back({w, static_cast<uint32_t>(g.next() % 1000),
                         static_cast<float>(g.next() % 100) / 10.0f});
  }
  pam::inverted_index idx(triples);
  size_t terms0 = idx.num_terms();

  // Touch exactly three terms (one of them new).
  std::vector<pam::posting> adds = {
      {5, 123456u, 9.5f}, {17, 123457u, 1.5f}, {5000, 1u, 2.0f}};
  pam::inverted_index idx2 = idx.updated(adds);
  EXPECT_EQ(idx2.num_terms(), terms0 + 1);

  auto changed = pam::inverted_index::changed_terms(idx, idx2);
  ASSERT_EQ(changed.size(), 3u);
  std::vector<std::string> got_terms, want_terms = {pam::corpus_word(5),
                                                    pam::corpus_word(17),
                                                    pam::corpus_word(5000)};
  for (auto& c : changed) got_terms.push_back(c.key);
  std::sort(want_terms.begin(), want_terms.end());
  EXPECT_EQ(got_terms, want_terms);  // stream arrives in term order
  for (auto& c : changed) {
    if (c.key == pam::corpus_word(5000)) {
      EXPECT_EQ(c.kind, pam::change_kind::added);
    } else {
      EXPECT_EQ(c.kind, pam::change_kind::updated);
    }
    if (c.key == pam::corpus_word(5)) {
      // The new version's posting map gained the doc; the old lacks it.
      EXPECT_TRUE(c.after->contains(123456u));
      EXPECT_FALSE(c.before->contains(123456u));
    }
  }
  // Unchanged terms kept their identical posting maps (shared roots).
  auto p1 = idx.postings(pam::corpus_word(33));
  auto p2 = idx2.postings(pam::corpus_word(33));
  EXPECT_TRUE(p1.same_root(p2));
}

// Diffs are leak-free across all schemes (node accounting returns to base).
TEST(Diff, NoLeaks) {
  using map_t = pam::range_sum_map;
  int64_t nodes0 = map_t::used_nodes();
  int64_t blocks0 = map_t::used_leaf_blocks();
  {
    pam::random_gen g(5);
    std::vector<map_t::entry_t> init;
    for (int i = 0; i < 30000; i++) init.push_back({g.next() % 100000, 1});
    map_t a(init);
    map_t b = a;
    for (int i = 0; i < 500; i++)
      b = map_t::insert(std::move(b), g.next() % 100000, 2);
    auto d = map_t::diff(a, b);
    auto [x, y] = map_t::diff_fold(
        a, b, [](K, V v) { return v; }, [](V p, V q) { return p + q; }, V{0});
    (void)x;
    (void)y;
    auto cs = d.changes();
    EXPECT_GE(cs.size(), 1u);
  }
  EXPECT_EQ(map_t::used_nodes(), nodes0);
  EXPECT_EQ(map_t::used_leaf_blocks(), blocks0);
}

}  // namespace
