// pam-lint-fixture-path: src/pam/coded_block.h
// The coded-block skeleton is part of the sanctioned allocation surface
// (alongside src/alloc/**): it owns the byte-class pool table and the
// counted overflow path, so raw new/delete here need no waivers.
#pragma once

struct byte_pool {
  int cls;
};

inline byte_pool* make_pool(int cls) {
  return new byte_pool{cls};  // pool-table singleton: sanctioned here
}

inline void* overflow_allocate(unsigned long n) {
  return ::operator new(n);  // oversized block, atomically counted
}

inline void overflow_free(void* p) {
  ::operator delete(p);
}
