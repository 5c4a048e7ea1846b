#include "parallel/scheduler.h"

#include <chrono>

#include "util/env.h"
#include "util/random.h"

namespace pam {
namespace internal {

namespace {
// The scheduler once it exists, for callers that must not create it.
std::atomic<scheduler*> g_live{nullptr};
}  // namespace

scheduler& scheduler::get() {
  // Leaked on purpose: workers may still be parked in their idle loop while
  // static destructors run, so the scheduler must outlive all of them.
  static scheduler* instance = [] {
    // pam-lint: allow(naked-new) — immortal process-wide singleton.
    auto* s = new scheduler();
    g_live.store(s, std::memory_order_release);
    return s;
  }();
  return *instance;
}

scheduler::scheduler() {
  long p = env_long("PAM_NUM_WORKERS", 0);
  if (p <= 0) p = static_cast<long>(std::thread::hardware_concurrency());
  if (p <= 0) p = 1;
  spawn_workers(static_cast<int>(p));
}

void scheduler::spawn_workers(int p) {
  num_workers_ = p;
  deques_.clear();
  deques_.reserve(p);
  for (int i = 0; i < p; i++) deques_.push_back(std::make_unique<ws_deque>());
  hook_asked_ = std::make_unique<hook_flag[]>(static_cast<size_t>(p));
  shutdown_.store(false, std::memory_order_relaxed);
  threads_.reserve(p);
  for (int i = 0; i < p; i++) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

void scheduler::stop_workers() {
  shutdown_.store(true, std::memory_order_release);
  for (auto& t : threads_) t.join();
  threads_.clear();
}

void scheduler::set_num_workers(int p) {
  assert(tl_worker_id() < 0);  // a worker cannot join itself
  if (p < 1) p = 1;
  if (p == num_workers_) return;
  stop_workers();
  spawn_workers(p);
}

void scheduler::worker_loop(int id) {
  tl_worker_id() = id;
  uint64_t rng_state = hash64(0x9e1ull * (id + 1));
  int failures = 0;
  while (!shutdown_.load(std::memory_order_acquire)) {
    answer_hook(id);
    work_item* w = injected_.take(rng_state);
    if (w == nullptr) w = try_steal(id, rng_state);
    if (w != nullptr) {
      w->run();
      failures = 0;
    } else if (++failures >= 64) {
      if (failures >= 2048) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        failures = 2048;  // keep sleeping until work shows up
      } else {
        std::this_thread::yield();
      }
    }
  }
}

void scheduler::inject(work_item* w) {
  // One slot per waiting user thread; past 64 of them a post waits for a
  // worker to free one.
  while (!injected_.post(w)) std::this_thread::yield();
}

work_item* scheduler::try_steal(int self, uint64_t& rng_state) {
  int p = num_workers_;
  if (p <= 1) return nullptr;
  rng_state = hash64(rng_state);
  int victim = static_cast<int>(rng_state % static_cast<uint64_t>(p));
  if (victim == self) victim = (victim + 1) % p;
  work_item* w = deques_[victim]->steal();
  if (w != nullptr) sched_metrics().steals.inc();
  return w;
}

void scheduler::wait_until_done(std::atomic<bool>& flag, int self) {
  uint64_t rng_state = hash64(0xabcdULL + self);
  const bool help = tl_isolation() == 0;
  int failures = 0;
  while (!flag.load(std::memory_order_acquire)) {
    answer_hook(self);
    work_item* w = help ? try_steal(self, rng_state) : nullptr;
    if (w != nullptr) {
      w->run();
      failures = 0;
    } else if (++failures >= 128) {
      std::this_thread::yield();
      failures = 0;
    }
  }
}

void scheduler::on_each_worker(void (*hook)(void*), void* arg) {
  scheduler* s = g_live.load(std::memory_order_acquire);
  if (s == nullptr) {
    hook(arg);
    return;
  }
  s->broadcast(hook, arg);
}

void scheduler::broadcast(void (*hook)(void*), void* arg) {
  int self = tl_worker_id();
  // Claim the request slot. A worker that has to wait for it answers the
  // request holding it, so two workers calling at once cannot wait on each
  // other.
  bool busy = false;
  while (!hook_busy_.compare_exchange_weak(busy, true, std::memory_order_acquire,
                                           std::memory_order_relaxed)) {
    busy = false;
    if (self >= 0) answer_hook(self);
    std::this_thread::yield();
  }
  hook_fn_ = hook;
  hook_arg_ = arg;
  hook_pending_.store(num_workers_ - (self >= 0 ? 1 : 0),
                      std::memory_order_relaxed);
  for (int i = 0; i < num_workers_; i++) {
    if (i != self) hook_asked_[i].asked.store(true, std::memory_order_release);
  }
  hook(arg);
  while (hook_pending_.load(std::memory_order_acquire) > 0) {
    std::this_thread::yield();
  }
  hook_busy_.store(false, std::memory_order_release);
}

void scheduler::answer_hook(int self) {
  hook_flag& f = hook_asked_[self];
  if (!f.asked.load(std::memory_order_acquire)) return;
  hook_fn_(hook_arg_);
  f.asked.store(false, std::memory_order_relaxed);
  hook_pending_.fetch_sub(1, std::memory_order_release);
}

}  // namespace internal
}  // namespace pam
