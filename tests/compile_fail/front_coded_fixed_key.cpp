// Leaf-encoding contract compile-fail fixture: key_layout::front_coded is
// defined only for std::string keys — prefix compression of a fixed-width
// integer makes no sense, and the block encoder stores keys as byte
// suffixes. An entry policy that declares the coded layout over a
// fixed-width key must be rejected by the front_codec static_assert
// (pam/coded_block.h) with the contracted diagnostic, on every toolchain (this is front-end
// enforcement, not clang thread-safety analysis).
//
// compile-fail: any-compiler
// expect-error: front_coded requires key_t = std::string
#include "pam/pam.h"

struct bad_entry {
  using key_t = unsigned long long;
  using val_t = unsigned long long;
  static constexpr pam::key_layout layout = pam::key_layout::front_coded;
  static bool comp(key_t a, key_t b) { return a < b; }
};

int main() {
  pam::aug_map<bad_entry> m;
  m = pam::aug_map<bad_entry>::insert(std::move(m), 1, 2);
  return static_cast<int>(m.size());
}
