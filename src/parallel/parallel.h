// Public fork-join interface: par_do / par_do_if / parallel_for.
//
// These are the only parallel control primitives the rest of the library
// uses, mirroring how PAM uses only cilk_spawn/cilk_sync and cilk_for.
#pragma once

#include <atomic>
#include <cstddef>
#include <utility>

#include "parallel/scheduler.h"

namespace pam {

// ------------------------------------------------- granularity knob family --
// Runtime-tunable sequential cutoffs, grouped here so every layer (the bulk
// tree recursions in map_ops, the reference-counting GC in node.h) draws
// from one knob family and the granularity ablation can sweep them all.

// Bulk tree recursions (union, build, filter, multi_*): trees smaller than
// this run sequentially (the paper: "parallelism is not used on very small
// trees"); multi_insert/multi_delete compare their batch instead. The read
// is one relaxed load, negligible against the subtree work it gates.
inline std::atomic<size_t>& par_cutoff_knob() {
  static std::atomic<size_t> cutoff{512};
  return cutoff;
}
inline size_t par_cutoff() { return par_cutoff_knob().load(std::memory_order_relaxed); }
inline void set_par_cutoff(size_t c) { par_cutoff_knob().store(c); }

// Reference-counting GC (node.h::dec): subtrees smaller than this are
// collected sequentially instead of forking.
inline std::atomic<size_t>& gc_par_cutoff_knob() {
  static std::atomic<size_t> cutoff{size_t{1} << 12};
  return cutoff;
}
inline size_t gc_par_cutoff() {
  return gc_par_cutoff_knob().load(std::memory_order_relaxed);
}
inline void set_gc_par_cutoff(size_t c) { gc_par_cutoff_knob().store(c); }

// Number of scheduler workers (= the paper's "threads").
inline int num_workers() { return internal::scheduler::get().num_workers(); }

// Resize the worker pool; only valid at quiescent points (see scheduler.h).
inline void set_num_workers(int p) { internal::scheduler::get().set_num_workers(p); }

// Worker id of the calling thread in [0, num_workers()), or -1.
inline int worker_id() { return internal::scheduler::worker_id(); }

// Run `left` and `right` as a parallel pair; returns when both are done.
template <typename L, typename R>
void par_do(L&& left, R&& right) {
  internal::scheduler::get().par_do(std::forward<L>(left), std::forward<R>(right));
}

// Run f() with its joins isolated and return its result: while f, or any
// task it forks, waits for a stolen branch, that worker runs no other task.
// Code that forks while holding a lock that pool tasks also take must run
// its forks this way (scheduler.h, "Lock rule").
template <typename F>
decltype(auto) isolate(F&& f) {
  internal::isolation_scope scope;
  return f();
}

// par_do when `parallel` is true, otherwise run sequentially (left; right).
// Callers use this to impose a granularity cutoff on tree recursions.
template <typename L, typename R>
void par_do_if(bool parallel, L&& left, R&& right) {
  if (parallel) {
    par_do(std::forward<L>(left), std::forward<R>(right));
  } else {
    left();
    right();
  }
}

namespace internal {
template <typename F>
void parallel_for_rec(size_t lo, size_t hi, const F& f, size_t granularity) {
  if (hi - lo <= granularity) {
    for (size_t i = lo; i < hi; i++) f(i);
    return;
  }
  size_t mid = lo + (hi - lo) / 2;
  scheduler::get().par_do([&] { parallel_for_rec(lo, mid, f, granularity); },
                          [&] { parallel_for_rec(mid, hi, f, granularity); });
}
}  // namespace internal

// Apply f(i) for i in [lo, hi), in parallel. `granularity` is the largest
// block that runs sequentially; 0 picks a heuristic based on the range and
// worker count (fine for cheap loop bodies; pass 1 for expensive bodies).
template <typename F>
void parallel_for(size_t lo, size_t hi, const F& f, size_t granularity = 0) {
  if (hi <= lo) return;
  size_t n = hi - lo;
  if (granularity == 0) {
    size_t chunks = static_cast<size_t>(num_workers()) * 8;
    granularity = n / chunks + 1;
    if (granularity > 4096) granularity = 4096;
  }
  if (n <= granularity) {
    for (size_t i = lo; i < hi; i++) f(i);
    return;
  }
  internal::parallel_for_rec(lo, hi, f, granularity);
}

}  // namespace pam
