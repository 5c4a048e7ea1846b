// Differential fuzzing: long randomized mixed-operation runs (point ops,
// bulk ops, aug queries, range extraction) against a std::map oracle, with
// full structural validation, serialization round-trips, the checkpoint
// writer's byte oracle, and leak accounting at every phase boundary.
// Parameterized over seeds; run for both the default weight-balanced scheme
// and red-black (the scheme with the most intricate join).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "page_oracle.h"
#include "pam/pam.h"
#include "util/random.h"

namespace {

// The byte oracle for the checkpoint writer: the one-buffer full-checkpoint
// image of `m` as a one-shard cut equals the reference framing of its
// Map::serialize stream, at a page size that puts page boundaries inside
// record headers and at the default page size.
template <typename Map>
void expect_checkpoint_image_matches_reference(const Map& m) {
  pam::sharded_snapshot<Map> cut({m}, nullptr);
  for (size_t page : {size_t{61}, size_t{1} << 20}) {
    ASSERT_TRUE(pam_test::image_full_file(cut, page) ==
                pam_test::reference_full_file(cut, page))
        << "page " << page;
  }
}

using K = uint64_t;
using V = uint64_t;

// The integer-key harness, parameterized over the entry policy (flat
// sum_entry or the delta-coded mirror) and a strictly-monotone rank-to-key
// mapping, so the delta sweep can shape the gap distribution the encoder
// sees without touching the op mix or the oracle lockstep.
template <typename Balance, typename Entry, typename KeyFn>
void fuzz_run_impl(uint64_t seed, int phases, int ops_per_phase,
                   const KeyFn& key_of) {
  using map_t = pam::aug_map<Entry, Balance>;
  using entry_t = typename map_t::entry_t;
  constexpr uint64_t kKeyRange = 1 << 14;

  int64_t node_base = map_t::used_nodes();
  int64_t leaf_base = map_t::used_leaf_blocks();
  {
    pam::random_gen g(seed);
    map_t m;
    std::map<K, V> oracle;
    std::vector<map_t> retained;  // old versions that must never change
    std::vector<std::map<K, V>> retained_oracle;

    for (int phase = 0; phase < phases; phase++) {
      for (int op = 0; op < ops_per_phase; op++) {
        switch (g.next() % 10) {
          case 0:
          case 1: {  // point insert
            K k = key_of(g.next() % kKeyRange);
            V v = g.next() % 1000;
            m = map_t::insert(std::move(m), k, v);
            oracle[k] = v;
            break;
          }
          case 2: {  // point remove
            K k = key_of(g.next() % kKeyRange);
            m = map_t::remove(std::move(m), k);
            oracle.erase(k);
            break;
          }
          case 3: {  // multi-insert a batch
            size_t bn = g.next() % 200;
            std::vector<entry_t> batch(bn);
            for (auto& e : batch)
              e = {key_of(g.next() % kKeyRange), g.next() % 1000};
            for (auto& e : batch) oracle[e.first] = e.second;
            m = map_t::multi_insert(std::move(m), std::move(batch));
            break;
          }
          case 4: {  // multi-delete a batch
            size_t bn = g.next() % 100;
            std::vector<K> batch(bn);
            for (auto& k : batch) k = key_of(g.next() % kKeyRange);
            for (auto& k : batch) oracle.erase(k);
            m = map_t::multi_delete(std::move(m), std::move(batch));
            break;
          }
          case 5: {  // union with a random small map
            size_t bn = g.next() % 150;
            std::vector<entry_t> other(bn);
            for (auto& e : other)
              e = {key_of(g.next() % kKeyRange), g.next() % 1000};
            map_t om(other);
            for (auto& [k, v] : om.entries()) oracle[k] = v;
            m = map_t::map_union(std::move(m), std::move(om));
            break;
          }
          case 6: {  // difference with a random small map
            size_t bn = g.next() % 100;
            std::vector<entry_t> other(bn);
            for (auto& e : other) e = {key_of(g.next() % kKeyRange), 0};
            map_t om(other);
            for (auto& [k, v] : om.entries()) oracle.erase(k);
            m = map_t::map_difference(std::move(m), std::move(om));
            break;
          }
          case 7: {  // aug_range spot check
            K a = key_of(g.next() % kKeyRange), b = key_of(g.next() % kKeyRange);
            K lo = std::min(a, b), hi = std::max(a, b);
            uint64_t expect = 0;
            for (auto it = oracle.lower_bound(lo);
                 it != oracle.end() && it->first <= hi; ++it)
              expect += it->second;
            ASSERT_EQ(m.aug_range(lo, hi), expect);
            break;
          }
          case 8: {  // find spot check
            K k = key_of(g.next() % kKeyRange);
            auto it = oracle.find(k);
            auto got = m.find(k);
            ASSERT_EQ(got.has_value(), it != oracle.end());
            if (got.has_value()) {
              ASSERT_EQ(*got, it->second);
            }
            break;
          }
          case 9: {  // retain a version (tests persistence under churn)
            if (retained.size() < 8) {
              retained.push_back(m);
              retained_oracle.push_back(oracle);
            }
            break;
          }
        }
      }
      // Phase boundary: full validation of the live map and all retained
      // versions against their oracles.
      ASSERT_TRUE(m.check_valid()) << "seed " << seed << " phase " << phase;
      ASSERT_EQ(m.size(), oracle.size());
      {
        auto es = m.entries();
        size_t i = 0;
        for (auto& [k, v] : oracle) {
          ASSERT_EQ(es[i].first, k);
          ASSERT_EQ(es[i].second, v);
          i++;
        }
      }
      {
        // Lockstep lazy iteration against the oracle: the iterator walk
        // must visit exactly the oracle's entries, in order.
        auto it = m.begin();
        for (auto& [k, v] : oracle) {
          ASSERT_TRUE(it != m.end());
          ASSERT_EQ(it->key, k);
          ASSERT_EQ(it->value, v);
          ++it;
        }
        ASSERT_TRUE(it == m.end());
      }
      {
        // Serialization round-trip of the live map: the wire stream must
        // rebuild an equal, valid map — with its augmentation recomputed,
        // never trusted from the stream — at whatever balance scheme and
        // leaf block size this harness is sweeping.
        expect_checkpoint_image_matches_reference(m);
        std::vector<char> wire;
        m.serialize(wire);
        map_t rt = map_t::deserialize(wire.data(), wire.size());
        ASSERT_TRUE(rt.check_valid()) << "seed " << seed << " phase " << phase;
        ASSERT_EQ(rt.size(), oracle.size());
        ASSERT_EQ(rt.aug_val(), m.aug_val());
        auto it = rt.begin();
        for (auto& [k, v] : oracle) {
          ASSERT_TRUE(it != rt.end());
          ASSERT_EQ(it->key, k);
          ASSERT_EQ(it->value, v);
          ++it;
        }
        ASSERT_TRUE(it == rt.end());
      }
      {
        // A random bounded view walked in lockstep with the oracle's
        // equivalent range, plus its O(log n) size/aug_val summaries.
        K a = key_of(g.next() % kKeyRange), b = key_of(g.next() % kKeyRange);
        K lo = std::min(a, b), hi = std::max(a, b);
        auto view = m.view(lo, hi);
        auto oit = oracle.lower_bound(lo);
        size_t count = 0;
        uint64_t sum = 0;
        for (auto [k, v] : view) {
          ASSERT_TRUE(oit != oracle.end() && oit->first <= hi);
          ASSERT_EQ(k, oit->first);
          ASSERT_EQ(v, oit->second);
          ++oit;
          count++;
          sum += v;
        }
        ASSERT_TRUE(oit == oracle.end() || oit->first > hi);
        ASSERT_EQ(view.size(), count);
        ASSERT_EQ(view.aug_val(), sum);
      }
      for (size_t r = 0; r < retained.size(); r++) {
        ASSERT_EQ(retained[r].size(), retained_oracle[r].size()) << "version " << r;
        uint64_t expect = 0;
        for (auto& [k, v] : retained_oracle[r]) expect += v;
        ASSERT_EQ(retained[r].aug_val(), expect) << "version " << r;
      }
      if (!retained.empty()) {
        // Structural diff of the live map against a random retained version
        // vs the brute-force symmetric difference of their oracles: exact
        // key/kind/value agreement, plus diff_fold consistency. Shared
        // subtrees between the versions exercise the pruning paths at every
        // balance scheme and leaf block size this harness sweeps.
        size_t r = g.next() % retained.size();
        auto d = map_t::diff(retained[r], m);
        ASSERT_TRUE(d.before.check_valid());
        ASSERT_TRUE(d.after.check_valid());
        auto changes = d.changes();
        size_t ci = 0;
        uint64_t before_sum = 0, after_sum = 0;
        auto oit = retained_oracle[r].begin();
        auto nit = oracle.begin();
        auto expect_change = [&](K key, const V* oldv, const V* newv) {
          ASSERT_LT(ci, changes.size()) << "missing change for key " << key;
          const auto& c = changes[ci++];
          ASSERT_EQ(c.key, key);
          ASSERT_EQ(c.before.has_value(), oldv != nullptr);
          ASSERT_EQ(c.after.has_value(), newv != nullptr);
          if (oldv != nullptr) {
            ASSERT_EQ(*c.before, *oldv);
            before_sum += *oldv;
          }
          if (newv != nullptr) {
            ASSERT_EQ(*c.after, *newv);
            after_sum += *newv;
          }
          ASSERT_EQ(c.kind, oldv == nullptr   ? pam::change_kind::added
                            : newv == nullptr ? pam::change_kind::removed
                                              : pam::change_kind::updated);
        };
        while (oit != retained_oracle[r].end() || nit != oracle.end()) {
          if (nit == oracle.end() ||
              (oit != retained_oracle[r].end() && oit->first < nit->first)) {
            expect_change(oit->first, &oit->second, nullptr);
            ++oit;
          } else if (oit == retained_oracle[r].end() || nit->first < oit->first) {
            expect_change(nit->first, nullptr, &nit->second);
            ++nit;
          } else {
            if (oit->second != nit->second)
              expect_change(oit->first, &oit->second, &nit->second);
            ++oit;
            ++nit;
          }
        }
        ASSERT_EQ(ci, changes.size()) << "spurious changes emitted";
        auto [bf, af] = map_t::diff_fold(
            retained[r], m, [](K, V v) { return v; },
            [](uint64_t a, uint64_t b) { return a + b; }, uint64_t{0});
        ASSERT_EQ(bf, before_sum);
        ASSERT_EQ(af, after_sum);
      }
    }
  }
  // Everything destroyed: both allocators must be back to baseline.
  ASSERT_EQ(map_t::used_nodes(), node_base) << "leak with seed " << seed;
  ASSERT_EQ(map_t::used_leaf_blocks(), leaf_base)
      << "leaf-block leak with seed " << seed;
}

// The flat-layout run the scheme/seed matrix drives: identity key mapping.
template <typename Balance>
void fuzz_run(uint64_t seed, int phases, int ops_per_phase) {
  fuzz_run_impl<Balance, pam::sum_entry<K, V>>(seed, phases, ops_per_phase,
                                               [](K k) { return k; });
}

// ------------------------------------------------------------ string keys --

// Adversarial shared-prefix key set: four prefix families, one of them 48
// chars long, so front-coded blocks build long in-block prefix chains and
// block boundaries land inside runs of near-identical keys.
std::string str_key(uint64_t x) {
  static const std::string kPrefixes[] = {
      std::string(), std::string("k/"),
      std::string("user/profile/settings/"), std::string(48, 'z') + "/"};
  std::string s = kPrefixes[x % 4];
  s += std::to_string(x);
  return s;
}

// The string-keyed mirror of fuzz_run: the same mixed-operation churn and
// phase-boundary lockstep validation, over front-coded leaf blocks. Lookups
// go through the heterogeneous std::string_view path.
template <typename Balance>
void fuzz_run_str(uint64_t seed, int phases, int ops_per_phase) {
  using map_t = pam::aug_map<pam::str_sum_entry<V>, Balance>;
  using entry_t = typename map_t::entry_t;
  constexpr uint64_t kKeyRange = 1 << 12;

  int64_t node_base = map_t::used_nodes();
  int64_t leaf_base = map_t::used_leaf_blocks();
  {
    pam::random_gen g(seed);
    map_t m;
    std::map<std::string, V> oracle;
    std::vector<map_t> retained;
    std::vector<std::map<std::string, V>> retained_oracle;

    for (int phase = 0; phase < phases; phase++) {
      for (int op = 0; op < ops_per_phase; op++) {
        switch (g.next() % 8) {
          case 0:
          case 1: {  // point insert
            std::string k = str_key(g.next() % kKeyRange);
            V v = g.next() % 1000;
            m = map_t::insert(std::move(m), k, v);
            oracle[k] = v;
            break;
          }
          case 2: {  // point remove
            std::string k = str_key(g.next() % kKeyRange);
            m = map_t::remove(std::move(m), k);
            oracle.erase(k);
            break;
          }
          case 3: {  // multi-insert a batch
            size_t bn = g.next() % 120;
            std::vector<entry_t> batch(bn);
            for (auto& e : batch)
              e = {str_key(g.next() % kKeyRange), g.next() % 1000};
            for (auto& e : batch) oracle[e.first] = e.second;
            m = map_t::multi_insert(std::move(m), std::move(batch));
            break;
          }
          case 4: {  // multi-delete a batch
            size_t bn = g.next() % 80;
            std::vector<std::string> batch(bn);
            for (auto& k : batch) k = str_key(g.next() % kKeyRange);
            for (auto& k : batch) oracle.erase(k);
            m = map_t::multi_delete(std::move(m), std::move(batch));
            break;
          }
          case 5: {  // union with a random small map
            size_t bn = g.next() % 100;
            std::vector<entry_t> other(bn);
            for (auto& e : other)
              e = {str_key(g.next() % kKeyRange), g.next() % 1000};
            map_t om(other);
            for (auto [k, v] : om.entries()) oracle[k] = v;
            m = map_t::map_union(std::move(m), std::move(om));
            break;
          }
          case 6: {  // aug_range spot check
            std::string a = str_key(g.next() % kKeyRange);
            std::string b = str_key(g.next() % kKeyRange);
            std::string lo = std::min(a, b), hi = std::max(a, b);
            uint64_t expect = 0;
            for (auto it = oracle.lower_bound(lo);
                 it != oracle.end() && it->first <= hi; ++it)
              expect += it->second;
            ASSERT_EQ(m.aug_range(lo, hi), expect);
            break;
          }
          case 7: {  // find spot check, via the string_view path
            std::string k = str_key(g.next() % kKeyRange);
            auto it = oracle.find(k);
            auto got = m.find(std::string_view(k));
            ASSERT_EQ(got.has_value(), it != oracle.end());
            if (got.has_value()) {
              ASSERT_EQ(*got, it->second);
            }
            ASSERT_EQ(m.contains(std::string_view(k)), it != oracle.end());
            if (retained.size() < 6 && (g.next() % 16) == 0) {
              retained.push_back(m);
              retained_oracle.push_back(oracle);
            }
            break;
          }
        }
      }
      ASSERT_TRUE(m.check_valid()) << "seed " << seed << " phase " << phase;
      ASSERT_EQ(m.size(), oracle.size());
      {
        // Lockstep lazy iteration against the oracle.
        auto it = m.begin();
        for (auto& [k, v] : oracle) {
          ASSERT_TRUE(it != m.end());
          ASSERT_EQ(it->key, k);
          ASSERT_EQ(it->value, v);
          ++it;
        }
        ASSERT_TRUE(it == m.end());
      }
      {
        // Serialization round-trip: front-coded blocks travel as raw
        // prefix-compressed regions and must decode back to the same keys.
        expect_checkpoint_image_matches_reference(m);
        std::vector<char> wire;
        m.serialize(wire);
        map_t rt = map_t::deserialize(wire.data(), wire.size());
        ASSERT_TRUE(rt.check_valid()) << "seed " << seed << " phase " << phase;
        ASSERT_EQ(rt.size(), oracle.size());
        ASSERT_EQ(rt.aug_val(), m.aug_val());
        auto it = rt.begin();
        for (auto& [k, v] : oracle) {
          ASSERT_TRUE(it != rt.end());
          ASSERT_EQ(it->key, k);
          ASSERT_EQ(it->value, v);
          ++it;
        }
        ASSERT_TRUE(it == rt.end());
      }
      {
        // A random bounded view in lockstep with the oracle's range.
        std::string a = str_key(g.next() % kKeyRange);
        std::string b = str_key(g.next() % kKeyRange);
        std::string lo = std::min(a, b), hi = std::max(a, b);
        auto view = m.view(lo, hi);
        auto oit = oracle.lower_bound(lo);
        size_t count = 0;
        uint64_t sum = 0;
        for (auto [k, v] : view) {
          ASSERT_TRUE(oit != oracle.end() && oit->first <= hi);
          ASSERT_EQ(k, oit->first);
          ASSERT_EQ(v, oit->second);
          ++oit;
          count++;
          sum += v;
        }
        ASSERT_TRUE(oit == oracle.end() || oit->first > hi);
        ASSERT_EQ(view.size(), count);
        ASSERT_EQ(view.aug_val(), sum);
        auto lst = view.last();
        ASSERT_EQ(lst.has_value(), count > 0);
      }
      for (size_t r = 0; r < retained.size(); r++) {
        ASSERT_EQ(retained[r].size(), retained_oracle[r].size()) << "version " << r;
        uint64_t expect = 0;
        for (auto& [k, v] : retained_oracle[r]) expect += v;
        ASSERT_EQ(retained[r].aug_val(), expect) << "version " << r;
      }
      if (!retained.empty()) {
        // Structural diff vs a retained version: encoded blocks shared
        // across versions must prune, and the change stream must match the
        // brute-force oracle diff exactly.
        size_t r = g.next() % retained.size();
        auto d = map_t::diff(retained[r], m);
        ASSERT_TRUE(d.before.check_valid());
        ASSERT_TRUE(d.after.check_valid());
        auto changes = d.changes();
        size_t ci = 0;
        auto oit = retained_oracle[r].begin();
        auto nit = oracle.begin();
        auto expect_change = [&](const std::string& key, const V* oldv,
                                 const V* newv) {
          ASSERT_LT(ci, changes.size()) << "missing change for key " << key;
          const auto& c = changes[ci++];
          ASSERT_EQ(c.key, key);
          ASSERT_EQ(c.before.has_value(), oldv != nullptr);
          ASSERT_EQ(c.after.has_value(), newv != nullptr);
          if (oldv != nullptr) {
            ASSERT_EQ(*c.before, *oldv);
          }
          if (newv != nullptr) {
            ASSERT_EQ(*c.after, *newv);
          }
        };
        while (oit != retained_oracle[r].end() || nit != oracle.end()) {
          if (nit == oracle.end() ||
              (oit != retained_oracle[r].end() && oit->first < nit->first)) {
            expect_change(oit->first, &oit->second, nullptr);
            ++oit;
          } else if (oit == retained_oracle[r].end() || nit->first < oit->first) {
            expect_change(nit->first, nullptr, &nit->second);
            ++nit;
          } else {
            if (oit->second != nit->second)
              expect_change(oit->first, &oit->second, &nit->second);
            ++oit;
            ++nit;
          }
        }
        ASSERT_EQ(ci, changes.size()) << "spurious changes emitted";
      }
    }
  }
  ASSERT_EQ(map_t::used_nodes(), node_base) << "leak with seed " << seed;
  ASSERT_EQ(map_t::used_leaf_blocks(), leaf_base)
      << "coded-block leak with seed " << seed;
}

class FuzzSeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzSeeds, WeightBalanced) {
  fuzz_run<pam::weight_balanced>(GetParam(), 5, 400);
}

TEST_P(FuzzSeeds, RedBlack) { fuzz_run<pam::red_black>(GetParam(), 5, 400); }

TEST_P(FuzzSeeds, Avl) { fuzz_run<pam::avl_tree>(GetParam(), 3, 300); }

TEST_P(FuzzSeeds, Treap) { fuzz_run<pam::treap>(GetParam(), 3, 300); }

// The blocked-leaf sweep: the same randomized mixed-operation run against
// the oracle at every leaf block size (0 disables blocks entirely — classic
// one-entry-per-node trees — 1 and 2 exercise the block-edge cases, 32 the
// default, 256 multi-class pooling), across all four balance schemes. check_valid() at every phase boundary covers block integrity
// (sorted entries, counts, cached block augs) and the leak accounting
// covers the leaf pools.
TEST_P(FuzzSeeds, BlockSizeSweepAllSchemes) {
  size_t saved_b = pam::leaf_block_size();
  for (size_t b : {size_t{0}, size_t{1}, size_t{2}, size_t{32}, size_t{256}}) {
    pam::set_leaf_block_size(b);
    fuzz_run<pam::weight_balanced>(GetParam() * 31 + b, 2, 150);
    fuzz_run<pam::avl_tree>(GetParam() * 37 + b, 2, 150);
    fuzz_run<pam::red_black>(GetParam() * 41 + b, 2, 150);
    fuzz_run<pam::treap>(GetParam() * 43 + b, 2, 150);
  }
  pam::set_leaf_block_size(saved_b);
}

// The delta-layout sweep: the same randomized lockstep run over delta-coded
// integer leaf blocks (zigzag-varint successor gaps), across all four
// balance schemes and base block sizes 1 and 2 (block-edge cases), 8
// (delta capacity 32, so the 120-entry maps span several blocks), the
// default 32 (capacity 128: one block) and 256 — B=0 is covered by the
// flat sweep since both layouts fall back to classic nodes — under three
// gap shapes: dense ranks (single-byte deltas), a large prime stride
// (multi-byte varints), and alternating 1 / >2^33 gaps (varint length
// boundaries on both sides of every pair). Phase boundaries run the full
// battery: check_valid (which re-derives every block's decoded keys and
// cached aug), serialize round-trips, diffs, and leak accounting.
TEST_P(FuzzSeeds, DeltaKeysBlockSweepAllSchemes) {
  using delta_entry = pam::delta_sum_entry<K, V>;
  auto dense = [](K k) { return k; };
  auto sparse = [](K k) { return k * 1000003; };
  auto adversarial = [](K k) {
    return (k / 2) * ((uint64_t{1} << 33) + 3) + (k % 2);
  };
  size_t saved_b = pam::leaf_block_size();
  for (size_t b : {size_t{1}, size_t{2}, size_t{8}, size_t{32}, size_t{256}}) {
    pam::set_leaf_block_size(b);
    fuzz_run_impl<pam::weight_balanced, delta_entry>(GetParam() * 73 + b, 2,
                                                     120, dense);
    fuzz_run_impl<pam::avl_tree, delta_entry>(GetParam() * 79 + b, 2, 120,
                                              sparse);
    fuzz_run_impl<pam::red_black, delta_entry>(GetParam() * 83 + b, 2, 120,
                                               adversarial);
    fuzz_run_impl<pam::treap, delta_entry>(GetParam() * 89 + b, 2, 120,
                                           sparse);
    fuzz_run_impl<pam::weight_balanced, delta_entry>(GetParam() * 97 + b, 2,
                                                     120, adversarial);
  }
  pam::set_leaf_block_size(saved_b);
}

// The string-key sweep: the same mixed-operation lockstep run over
// front-coded leaf blocks, across all four balance schemes and the block
// sizes that disable blocks entirely (0), stress block-edge cases (1, 2),
// the default (32), and multi-byte-class encoding (256).
TEST_P(FuzzSeeds, StringKeysBlockSweepAllSchemes) {
  size_t saved_b = pam::leaf_block_size();
  for (size_t b : {size_t{0}, size_t{1}, size_t{2}, size_t{32}, size_t{256}}) {
    pam::set_leaf_block_size(b);
    fuzz_run_str<pam::weight_balanced>(GetParam() * 51 + b, 2, 120);
    fuzz_run_str<pam::avl_tree>(GetParam() * 53 + b, 2, 120);
    fuzz_run_str<pam::red_black>(GetParam() * 59 + b, 2, 120);
    fuzz_run_str<pam::treap>(GetParam() * 61 + b, 2, 120);
  }
  pam::set_leaf_block_size(saved_b);
}

// B=0 is valid for every layout (satellite of the leaf-encoding contract):
// string-keyed maps fall back to classic one-entry-per-node trees with
// inline std::string keys and allocate no coded blocks at all.
TEST_P(FuzzSeeds, StringKeysClassicNodesAtBZero) {
  size_t saved_b = pam::leaf_block_size();
  pam::set_leaf_block_size(0);
  using map_t = pam::aug_map<pam::str_sum_entry<uint64_t>>;
  int64_t leaf_base = map_t::used_leaf_blocks();
  fuzz_run_str<pam::weight_balanced>(GetParam() * 67, 2, 120);
  fuzz_run_str<pam::red_black>(GetParam() * 71, 2, 120);
  EXPECT_EQ(map_t::used_leaf_blocks(), leaf_base);
  EXPECT_EQ(leaf_base, 0);
  pam::set_leaf_block_size(saved_b);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds,
                         ::testing::Values(1, 7, 13, 99, 123456, 0xdeadbeef));

}  // namespace
