// A bulk-parallel sorted-array map: the stand-in for MCSTL's parallel bulk
// dictionary insertion (Table 3, MCSTL rows). MCSTL implements multi-insert
// as sort-updates + parallel merge into the dictionary; this class has the
// same algorithmic structure (parallel sort, parallel merge, rebuild), so
// its scaling profile matches the role MCSTL plays in the paper's
// comparison: good bulk throughput, O(n + m) work per batch (vs PAM's
// O(m log(n/m + 1))), no persistence.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "parallel/merge_sort.h"
#include "parallel/parallel.h"
#include "parallel/sequence_ops.h"

namespace pam::baselines {

template <typename K, typename V>
class sorted_array_map {
 public:
  using entry_t = std::pair<K, V>;

  sorted_array_map() = default;

  explicit sorted_array_map(std::vector<entry_t> entries) {
    normalize(entries);
    data_ = std::move(entries);
  }

  size_t size() const { return data_.size(); }

  bool find(const K& k, V& out) const {
    size_t lo = 0, hi = data_.size();
    while (lo < hi) {
      size_t mid = lo + (hi - lo) / 2;
      if (data_[mid].first < k) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo < data_.size() && data_[lo].first == k) {
      out = data_[lo].second;
      return true;
    }
    return false;
  }

  // Bulk insert: sort the batch in parallel, then parallel-merge with the
  // existing array into a fresh array (later values win on duplicates).
  void multi_insert(std::vector<entry_t> batch) {
    normalize(batch);
    if (data_.empty()) {
      data_ = std::move(batch);
      return;
    }
    if (batch.empty()) return;
    std::vector<entry_t> merged(data_.size() + batch.size());
    internal::parallel_merge(
        data_.data(), data_.size(), batch.data(), batch.size(), merged.data(),
        [](const entry_t& a, const entry_t& b) { return a.first < b.first; });
    // Collapse duplicates: stability put the old value first, so keep-last.
    data_ = combine_sorted_runs(
        std::move(merged), [](const K& a, const K& b) { return a < b; },
        [](const V&, const V& nv) { return nv; });
  }

  const std::vector<entry_t>& entries() const { return data_; }

 private:
  static void normalize(std::vector<entry_t>& v) {
    parallel_sort(v.data(), v.size(),
                  [](const entry_t& a, const entry_t& b) { return a.first < b.first; });
    v = combine_sorted_runs(
        std::move(v), [](const K& a, const K& b) { return a < b; },
        [](const V&, const V& nv) { return nv; });
  }

  std::vector<entry_t> data_;
};

}  // namespace pam::baselines
