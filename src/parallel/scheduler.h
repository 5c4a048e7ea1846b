// A from-scratch fork-join work-stealing scheduler.
//
// The paper runs PAM on the Cilk Plus runtime (cilk_spawn / cilk_sync).
// This module provides the same programming model — binary fork-join with
// nested parallelism — on plain std::thread:
//
//   * a pool of P worker threads with ids 0..P-1, each owning a Chase-Lev
//     work-stealing deque (the memory-model-correct formulation of Le, Pop,
//     Cohen & Zappa Nardelli, PPoPP 2013);
//   * `par_do(left, right)` on a worker pushes the right task onto the local
//     deque, runs the left task inline, then either pops the right task back
//     (the common, synchronization-cheap case) or, if it was stolen, helps by
//     running other stolen tasks until the thief finishes ("helping" join, as
//     in Cilk's work-first principle);
//   * idle workers take root tasks from the injection slots first, then
//     steal from uniformly random victims, backing off to short sleeps so an
//     idle pool costs ~nothing.
//
// Scheduling bounds: this is a greedy work-stealing scheduler, so a
// computation with work W and span S runs in O(W/P + S) expected time
// (Blumofe & Leiserson), which is the model under which all asymptotic
// claims in the paper (and in DESIGN.md) are stated.
//
// User threads. Every thread the pool did not spawn — main, the write
// combiner's flusher, server clients, a checkpointer — is a user thread:
// worker_id() is -1 there, also on the first thread to touch the scheduler.
// A user thread's par_do wraps itself as one root task, posts it to an
// injection slot and waits: it spins briefly, then blocks on the root's
// completion word (std::atomic::wait). A worker runs the root, and every
// nested fork runs on workers as usual. So every par_do branch and every
// forking parallel_for body runs on a worker, with worker_id() in
// [0, num_workers()) — also at P = 1, where worker 0 runs the whole root.
//
// Lock rule. A user thread that forks while holding a lock which pool tasks
// also take can stall: once every worker is blocked on that lock, no worker
// is left to run the root that would let the holder release it. kv_store
// never does this. Its clients, flusher and checkpointer hold the combiner's
// flush locks and the touched shards' commit mutexes, and save_checkpoint
// also holds ckpt_mu_, across forks (bulk applies, the parallel checkpoint
// encode), but no pool task takes any of these locks: kv_store takes them
// only on user threads, outside any parallel body.
//
// Pool tasks may hold a lock across a fork only inside pam::isolate
// (snapshot_box::update and sharded_map's commit do, for their writer
// locks). A join there waits
// without helping: a helping worker could otherwise run, on top of the
// held lock, another task that takes the same lock (a self-deadlock) or
// another one (a lock-order cycle across workers).
//
// Tasks must not throw, from any thread: an exception escaping a task
// terminates the program, matching the Cilk runtime's behavior. Callers
// that can fail catch inside the body (checkpoint_io::per_shard).
//
// The pool can be resized at a quiescent point with `set_num_workers`, which
// is how the thread-sweep benchmarks (Figure 6) vary P within one process.
//
// Concurrency contract: the scheduler is deliberately mutex-free — every
// shared word (deque top/bottom, injection slots, task completion flags,
// shutdown_) is a std::atomic with orderings given inline, so there
// are no capabilities to annotate (DESIGN.md, "lock-free" rows). The
// orderings are acquire/release and seq_cst operations, never standalone
// fences, so ThreadSanitizer models every hand-off. set_num_workers is the
// one quiescence-required member; that requirement is temporal, not
// lock-based, and is covered by the TSan job rather than the static
// analysis.
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <thread>
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

// Isolation depth of the calling thread: > 0 inside pam::isolate and while
// running a task forked there. A join in an isolated region waits for its
// stolen branch without running any other task.
inline int& tl_isolation() noexcept {
  static thread_local int depth = 0;
  return depth;
}

struct isolation_scope {
  isolation_scope() noexcept { tl_isolation()++; }
  ~isolation_scope() { tl_isolation()--; }
  isolation_scope(const isolation_scope&) = delete;
  isolation_scope& operator=(const isolation_scope&) = delete;
};

// A type-erased task. The concrete fork_item / root_item lives on the
// forking thread's stack; it stays alive until par_do returns, so raw
// pointers are safe. A task forked in an isolated region is isolated
// wherever it runs.
struct work_item {
  void (*execute)(work_item*);
  bool isolated = tl_isolation() > 0;

  void run() {
    if (!isolated) return execute(this);
    isolation_scope scope;
    execute(this);
  }
};

template <typename F>
struct fork_item final : work_item {
  F& func;
  std::atomic<bool> done{false};

  explicit fork_item(F& f) : work_item{&fork_item::invoke}, func(f) {}

  static void invoke(work_item* base) {
    auto* self = static_cast<fork_item*>(base);
    self->func();
    self->done.store(true, std::memory_order_release);
  }
};

// A user thread's par_do, run on a worker. The waiter may block, so the
// worker notifies after marking the root done, and only then releases the
// item: the waiter returns (and its stack frame dies) on kReleased, never
// while the notify can still touch the item.
template <typename F>
struct root_item final : work_item {
  static constexpr uint32_t kRunning = 0, kDone = 1, kReleased = 2;
  F& func;
  std::atomic<uint32_t> stage{kRunning};

  explicit root_item(F& f) : work_item{&root_item::invoke}, func(f) {}

  static void invoke(work_item* base) {
    auto* self = static_cast<root_item*>(base);
    self->func();
    self->stage.store(kDone, std::memory_order_release);
    self->stage.notify_one();
    self->stage.store(kReleased, std::memory_order_release);
  }

  void wait() {
    // Spin briefly: a small root finishes within a few yields. Then block.
    for (int i = 0; i < 64; i++) {
      if (stage.load(std::memory_order_acquire) == kReleased) return;
      std::this_thread::yield();
    }
    stage.wait(kRunning, std::memory_order_acquire);
    while (stage.load(std::memory_order_acquire) != kReleased) {
      std::this_thread::yield();
    }
  }
};

// Chase-Lev work-stealing deque, fixed capacity. The owner pushes and pops
// at the bottom without synchronization in the common case; thieves CAS the
// top. The orderings are Le et al.'s (PPoPP 2013), with each fence folded
// into the access it orders: every store of bottom_ is a release, so a
// thief's acquire load of it sees the task it publishes; the owner's
// pop-side store of bottom_ and load of top_, and the thief's loads of top_
// then bottom_, are seq_cst, which orders the store before the load as the
// paper's seq_cst fences do.
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
    bottom_.store(b + 1, std::memory_order_release);
    return true;
  }

  // Owner-side pop. Returns nullptr if the deque was empty or the single
  // remaining task was won by a thief.
  work_item* pop_bottom() {
    int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    bottom_.store(b, std::memory_order_seq_cst);
    int64_t t = top_.load(std::memory_order_seq_cst);
    work_item* w = nullptr;
    if (t <= b) {
      w = buffer_[b & kMask].load(std::memory_order_relaxed);
      if (t == b) {
        // Last element: race against thieves for it.
        if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                          std::memory_order_relaxed)) {
          w = nullptr;
        }
        bottom_.store(b + 1, std::memory_order_release);
      }
    } else {
      bottom_.store(b + 1, std::memory_order_release);
    }
    return w;
  }

  // Thief-side steal from the top. Returns nullptr on empty or lost race.
  work_item* steal() {
    int64_t t = top_.load(std::memory_order_seq_cst);
    int64_t b = bottom_.load(std::memory_order_seq_cst);
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

// The injection slots: root tasks posted by user threads, taken by idle
// workers. A slot is empty (nullptr) or holds one root. A user thread fills
// an empty slot with a release CAS; a worker empties it with an acquire CAS,
// which sees the root it publishes. A worker's CAS can only take the root
// it read (or a new root reposted at the same address: just as valid), so
// there is no ABA hazard.
class inject_slots {
 public:
  bool post(work_item* w) {
    for (auto& slot : slots_) {
      work_item* empty = nullptr;
      if (slot.compare_exchange_strong(empty, w, std::memory_order_release,
                                       std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;  // all full
  }

  // Scans from `start`, so workers polling at once spread over the slots.
  work_item* take(uint64_t start) {
    for (size_t i = 0; i < kSlots; i++) {
      auto& slot = slots_[(start + i) % kSlots];
      work_item* w = slot.load(std::memory_order_relaxed);
      if (w != nullptr &&
          slot.compare_exchange_strong(w, nullptr, std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
        return w;
      }
    }
    return nullptr;
  }

 private:
  static constexpr size_t kSlots = 64;
  std::array<std::atomic<work_item*>, kSlots> slots_{};
};

class scheduler {
 public:
  // The process-wide scheduler, created on first use and intentionally never
  // destroyed (worker threads outlive static destruction; at exit they are
  // parked in the idle loop touching only this immortal object).
  static scheduler& get();

  int num_workers() const noexcept { return num_workers_; }

  // Worker id of the calling thread in [0, num_workers()), or -1 on a user
  // thread. Stored as a function-local thread_local: some toolchains
  // mis-resolve class-static TLS across static-library boundaries.
  static int& tl_worker_id() noexcept {
    static thread_local int id = -1;
    return id;
  }
  static int worker_id() noexcept { return tl_worker_id(); }

  // Resize the pool: join all P workers, spawn p new ones. Call it from a
  // user thread, never from inside a parallel task (a worker cannot join
  // itself), at a quiescent point: no parallel work in flight and no
  // on_each_worker call pending.
  void set_num_workers(int p);

  // Run hook(arg) once on every worker (ids 0..P-1), each from its own
  // scheduling loop, and once inline on the calling thread; return when all
  // have run it. A worker that calls it runs the hook inline for itself, so
  // every pool thread and the caller each run it exactly once. This is how
  // per-thread state that only its owner may touch (block_pool's free-list
  // caches) is reached from one thread.
  //
  //   * Workers answer both when idle (worker_loop) and while helping a
  //     join (wait_until_done), so a call made from inside a parallel task
  //     cannot deadlock on a worker that is waiting for that very task.
  //   * A worker busy in user code (including a user thread's root task)
  //     answers when that code returns to the scheduler; the hook must not
  //     wait on anything the caller holds.
  //   * Other user threads are never asked: they run no scheduler loop.
  //   * Calls are served one at a time; a worker queued behind another
  //     call keeps answering it meanwhile.
  //
  // Before the scheduler exists there are no workers and the hook just runs
  // inline; this never creates the scheduler. Maintenance only: the caller
  // spins until the last (possibly sleeping) worker answers.
  static void on_each_worker(void (*hook)(void*), void* arg);

  template <typename L, typename R>
  void par_do(L&& left, R&& right) {
    if (tl_worker_id() < 0) {  // a user thread: the whole fork-join runs on the pool
      auto root = [&] { fork_join(left, right); };
      root_item<decltype(root)> item(root);
      inject(&item);
      item.wait();
      return;
    }
    fork_join(left, right);
  }

 private:
  // par_do on a worker.
  template <typename L, typename R>
  void fork_join(L& left, R& right) {
    int id = tl_worker_id();
    if (num_workers_ == 1) {  // sequential mode
      left();
      right();
      return;
    }
    fork_item<R> item(right);
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

  scheduler();
  ~scheduler() = delete;  // immortal by design

  void spawn_workers(int p);
  void stop_workers();
  void worker_loop(int id);
  void inject(work_item* w);
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
  inject_slots injected_;
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
