// Leaf-encoding contract compile-fail fixture: key_layout::delta is defined
// only for integral keys — the encoding stores zigzag-varint successor
// differences, which is meaningless for std::string (and front coding
// already owns that shape). An entry policy that declares the delta layout
// over a string key must be rejected by the delta_codec static_assert
// (pam/coded_block.h) with the contracted diagnostic, on every toolchain (this is front-end
// enforcement, not clang thread-safety analysis).
//
// compile-fail: any-compiler
// expect-error: delta requires an integral key_t
#include <string>

#include "pam/pam.h"

struct bad_entry {
  using key_t = std::string;
  using val_t = unsigned long long;
  static constexpr pam::key_layout layout = pam::key_layout::delta;
  static bool comp(const key_t& a, const key_t& b) { return a < b; }
};

int main() {
  pam::aug_map<bad_entry> m;
  m = pam::aug_map<bad_entry>::insert(std::move(m), "k", 2);
  return static_cast<int>(m.size());
}
