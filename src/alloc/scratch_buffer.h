// Uninitialized bulk scratch: the one n-element buffer the bulk front end
// of build, multi_insert and multi_delete allocates (the sort's scratch,
// reused as the duplicate fold's output; see pam/map_ops.h).
//
// Fresh anonymous memory costs one page fault per page on first touch, and
// the kernel zeroes every faulted page; with 4 KiB pages that costs more
// than the sort itself and does not get cheaper with more threads. So on
// Linux a buffer of at least kHugePageBytes is its own 2 MiB-aligned
// anonymous mapping, advised MADV_HUGEPAGE: with transparent huge pages in
// `always` or `madvise` mode the kernel backs it with 2 MiB pages, one fault
// where 4 KiB pages take 512. Smaller buffers, other platforms and
// AddressSanitizer builds use std::allocator, the last so ASan keeps its
// bounds and leak checks on the buffer.
//
// Elements are never constructed or destroyed: T must be scratch_storable,
// so raw storage holds it implicitly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#define PAM_ASAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PAM_ASAN_BUILD 1
#endif
#endif

namespace pam {

// Types raw storage may hold without construction: with a trivial copy
// constructor and destructor, allocated storage holds them implicitly.
// std::pair of such members qualifies; its user-provided assignment keeps
// it from being trivially copyable, so that trait would reject every map
// entry.
template <typename T>
inline constexpr bool scratch_storable =
    std::is_trivially_copy_constructible_v<T> && std::is_trivially_destructible_v<T>;

inline constexpr size_t kHugePageBytes = size_t{2} << 20;

namespace alloc_internal {

#if defined(__linux__) && !defined(PAM_ASAN_BUILD)
inline constexpr bool kHugeMappings = true;

// A kHugePageBytes-aligned anonymous mapping of `bytes`, a multiple of
// kHugePageBytes: over-map by one huge page, then unmap the unaligned head
// and the tail.
inline void* map_huge(size_t bytes) {
  size_t span = bytes + kHugePageBytes;
  void* raw = mmap(nullptr, span, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  auto* base = static_cast<char*>(raw);
  size_t head = (kHugePageBytes - reinterpret_cast<uintptr_t>(base) % kHugePageBytes) %
                kHugePageBytes;
  if (head > 0) munmap(base, head);
  munmap(base + head + bytes, kHugePageBytes - head);
  madvise(base + head, bytes, MADV_HUGEPAGE);  // advisory: 4 KiB pages if refused
  return base + head;
}

inline void unmap_huge(void* p, size_t bytes) { munmap(p, bytes); }
#else
inline constexpr bool kHugeMappings = false;
inline void* map_huge(size_t) { return nullptr; }
inline void unmap_huge(void*, size_t) {}
#endif

}  // namespace alloc_internal

// n uninitialized slots of T. Movable, not copyable; default-constructed
// empty.
template <typename T>
class scratch_buffer {
  static_assert(scratch_storable<T>, "scratch_buffer holds T in raw storage");

 public:
  scratch_buffer() = default;
  explicit scratch_buffer(size_t n) : n_(n) {
    p_ = mapped() ? static_cast<T*>(alloc_internal::map_huge(mapped_bytes()))
                  : std::allocator<T>().allocate(n);
  }
  ~scratch_buffer() { release(); }

  scratch_buffer(scratch_buffer&& o) noexcept
      : p_(std::exchange(o.p_, nullptr)), n_(std::exchange(o.n_, 0)) {}
  scratch_buffer& operator=(scratch_buffer&& o) noexcept {
    if (this != &o) {
      release();
      p_ = std::exchange(o.p_, nullptr);
      n_ = std::exchange(o.n_, 0);
    }
    return *this;
  }
  scratch_buffer(const scratch_buffer&) = delete;
  scratch_buffer& operator=(const scratch_buffer&) = delete;

  T* data() const { return p_; }
  size_t size() const { return n_; }

 private:
  bool mapped() const { return alloc_internal::kHugeMappings && n_ * sizeof(T) >= kHugePageBytes; }

  // The mapping spans whole huge pages, so the tail is huge-page backed too.
  size_t mapped_bytes() const {
    return (n_ * sizeof(T) + kHugePageBytes - 1) / kHugePageBytes * kHugePageBytes;
  }

  void release() {
    if (p_ == nullptr) return;
    if (mapped()) {
      alloc_internal::unmap_huge(p_, mapped_bytes());
    } else {
      std::allocator<T>().deallocate(p_, n_);
    }
    p_ = nullptr;
    n_ = 0;
  }

  T* p_ = nullptr;
  size_t n_ = 0;
};

}  // namespace pam
