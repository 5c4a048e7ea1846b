// A from-scratch fork-join work-stealing scheduler.
//
// The paper runs PAM on the Cilk Plus runtime (cilk_spawn / cilk_sync).
// This module provides the same programming model — binary fork-join with
// nested parallelism — on plain std::thread:
//
//   * one worker per hardware thread, each owning a Chase-Lev work-stealing
//     deque (the memory-model-correct formulation of Le, Pop, Cohen &
//     Zappa Nardelli, PPoPP 2013);
//   * `par_do(left, right)` pushes the right task onto the local deque, runs
//     the left task inline, then either pops the right task back (the common,
//     synchronization-cheap case) or, if it was stolen, helps by running
//     other stolen tasks until the thief finishes ("helping" join, as in
//     Cilk's work-first principle);
//   * idle workers steal from uniformly random victims, backing off to
//     short sleeps so an idle pool costs ~nothing.
//
// Scheduling bounds: this is a greedy work-stealing scheduler, so a
// computation with work W and span S runs in O(W/P + S) expected time
// (Blumofe & Leiserson), which is the model under which all asymptotic
// claims in the paper (and in DESIGN.md) are stated.
//
// The pool can be resized at a quiescent point with `set_num_workers`, which
// is how the thread-sweep benchmarks (Figure 6) vary P within one process.
//
// Threads that are not scheduler workers (e.g. user threads in the snapshot
// tests) may call par_do; they simply run both branches inline. Tasks must
// not throw: an exception escaping a stolen task terminates the program,
// matching the Cilk runtime's behavior.
//
// Concurrency contract: the scheduler is deliberately mutex-free — every
// shared word (deque top/bottom, fork_item::done, shutdown_) is a
// std::atomic with orderings given inline, so there are no capabilities to
// annotate (DESIGN.md, "lock-free" rows). set_num_workers is the one
// quiescence-required member; that requirement is temporal, not lock-based,
// and is covered by the TSan job rather than the static analysis.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace pam {
namespace internal {

// Fork/steal instrumentation (PR 9). Global and immortal like the scheduler
// itself; obs/metrics.h deliberately has no scheduler dependency, so this
// include direction is acyclic.
struct sched_metrics_t {
  obs::counter forks{"pam_sched_forks_total"};
  obs::counter steals{"pam_sched_steals_total"};
};

inline sched_metrics_t& sched_metrics() {
  // pam-lint: allow(naked-new) — immortal process-wide metric block, same
  // lifetime rule as scheduler::get.
  static sched_metrics_t* m = new sched_metrics_t();
  return *m;
}

// A type-erased task. The concrete fork_item lives on the forking thread's
// stack; it stays alive until par_do returns, so raw pointers are safe.
struct work_item {
  void (*execute)(work_item*);
};

template <typename F>
struct fork_item final : work_item {
  F& func;
  std::atomic<bool> done{false};

  explicit fork_item(F& f) : work_item{&fork_item::run}, func(f) {}

  static void run(work_item* base) {
    auto* self = static_cast<fork_item*>(base);
    self->func();
    self->done.store(true, std::memory_order_release);
  }
};

// Chase-Lev work-stealing deque, fixed capacity. The owner pushes and pops
// at the bottom without synchronization in the common case; thieves CAS the
// top. Memory orderings follow Le et al. (PPoPP 2013) exactly.
//
// On overflow push_bottom returns false and the caller runs the task inline,
// which is always a correct (if unparallel) fallback.
class ws_deque {
 public:
  // pam-lint: allow(naked-new) — the deque buffer, owned by unique_ptr;
  // deques live exactly as long as the (immortal) scheduler.
  ws_deque() : buffer_(new std::atomic<work_item*>[kCapacity]) {}

  bool push_bottom(work_item* w) {
    int64_t b = bottom_.load(std::memory_order_relaxed);
    int64_t t = top_.load(std::memory_order_acquire);
    if (b - t >= kCapacity - 1) return false;  // full
    buffer_[b & kMask].store(w, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    bottom_.store(b + 1, std::memory_order_relaxed);
    return true;
  }

  // Owner-side pop. Returns nullptr if the deque was empty or the single
  // remaining task was won by a thief.
  work_item* pop_bottom() {
    int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    bottom_.store(b, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    int64_t t = top_.load(std::memory_order_relaxed);
    work_item* w = nullptr;
    if (t <= b) {
      w = buffer_[b & kMask].load(std::memory_order_relaxed);
      if (t == b) {
        // Last element: race against thieves for it.
        if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                          std::memory_order_relaxed)) {
          w = nullptr;
        }
        bottom_.store(b + 1, std::memory_order_relaxed);
      }
    } else {
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return w;
  }

  // Thief-side steal from the top. Returns nullptr on empty or lost race.
  work_item* steal() {
    int64_t t = top_.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    int64_t b = bottom_.load(std::memory_order_acquire);
    if (t < b) {
      work_item* w = buffer_[t & kMask].load(std::memory_order_relaxed);
      if (top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                       std::memory_order_relaxed)) {
        return w;
      }
    }
    return nullptr;
  }

 private:
  static constexpr int64_t kCapacity = int64_t{1} << 13;
  static constexpr int64_t kMask = kCapacity - 1;

  alignas(64) std::atomic<int64_t> top_{1};
  alignas(64) std::atomic<int64_t> bottom_{1};
  std::unique_ptr<std::atomic<work_item*>[]> buffer_;
};

class scheduler {
 public:
  // The process-wide scheduler, created on first use and intentionally never
  // destroyed (worker threads outlive static destruction; at exit they are
  // parked in the idle loop touching only this immortal object).
  static scheduler& get();

  int num_workers() const noexcept { return num_workers_; }

  // Worker id of the calling thread, or -1 for foreign (non-pool) threads.
  // The thread that first touched the scheduler is worker 0. Stored as a
  // function-local thread_local: some toolchains mis-resolve class-static
  // TLS across static-library boundaries.
  static int& tl_worker_id() noexcept {
    static thread_local int id = -1;
    return id;
  }
  static int worker_id() noexcept { return tl_worker_id(); }

  // Resize the pool. Must be called at a quiescent point (no parallel work
  // in flight, no on_each_worker call pending) from the thread that owns
  // worker id 0.
  void set_num_workers(int p);

  // Run hook(arg) once on every spawned worker (ids 1..P-1), each from its
  // own scheduling loop, and once inline on the calling thread; return when
  // all have run it. This is how per-thread state that only its owner may
  // touch (block_pool's free-list caches) is reached from one thread.
  //
  //   * Workers answer both when idle (worker_loop) and while helping a
  //     join (wait_until_done), so a call made from inside a parallel task
  //     cannot deadlock on a worker that is waiting for that very task.
  //   * A worker busy in user code answers when that code returns to the
  //     scheduler; the hook must not wait on anything the caller holds.
  //   * Worker 0 is never asked: outside par_do it is the user's own
  //     thread, in no scheduler loop, so a foreign caller cannot reach it.
  //   * Calls are served one at a time; a worker queued behind another
  //     call keeps answering it meanwhile.
  //
  // Before the scheduler exists there are no spawned workers and the hook
  // just runs inline; this never creates the scheduler. Maintenance only:
  // the caller spins until the last (possibly sleeping) worker answers.
  static void on_each_worker(void (*hook)(void*), void* arg);

  template <typename L, typename R>
  void par_do(L&& left, R&& right) {
    int id = tl_worker_id();
    if (id < 0 || num_workers_ == 1) {  // foreign thread or sequential mode
      left();
      right();
      return;
    }
    using Rf = std::remove_reference_t<R>;
    fork_item<Rf> item(right);
    if (!deques_[id]->push_bottom(&item)) {  // deque full: degrade gracefully
      left();
      right();
      return;
    }
    sched_metrics().forks.inc();
    left();
    work_item* popped = deques_[id]->pop_bottom();
    if (popped != nullptr) {
      assert(popped == &item);  // strict fork-join: bottom is ours
      right();
      return;
    }
    // Our task was stolen; help run other work until the thief finishes it.
    wait_until_done(item.done, id);
  }

 private:
  scheduler();
  ~scheduler() = delete;  // immortal by design

  void spawn_workers(int p);
  void stop_workers();
  void worker_loop(int id);
  work_item* try_steal(int self, uint64_t& rng_state);
  void wait_until_done(std::atomic<bool>& flag, int self);
  void broadcast(void (*hook)(void*), void* arg);
  void answer_hook(int self);

  // One flag per worker, on its own line: set by an on_each_worker caller,
  // polled and cleared by the owning worker.
  struct alignas(64) hook_flag {
    std::atomic<bool> asked{false};
  };

  std::vector<std::unique_ptr<ws_deque>> deques_;
  std::vector<std::thread> threads_;
  std::atomic<bool> shutdown_{false};
  int num_workers_ = 1;

  // on_each_worker's single request. hook_busy_ owns it; hook_fn_/hook_arg_
  // are written by the owner before any flag is raised (release) and read
  // by a worker after it sees its flag (acquire).
  std::unique_ptr<hook_flag[]> hook_asked_;
  std::atomic<bool> hook_busy_{false};
  std::atomic<int> hook_pending_{0};
  void (*hook_fn_)(void*) = nullptr;
  void* hook_arg_ = nullptr;
};

}  // namespace internal
}  // namespace pam
