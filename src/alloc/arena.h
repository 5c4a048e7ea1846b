// The unified memory layer: one concurrent pool design shared by every
// allocator in the system, plus the epoch-based deferred-reclamation
// machinery that the lock-free read path (pam/snapshot.h) is built on.
//
// Before this layer existed, type_allocator (fixed compile-time slot size)
// and raw_pool (runtime slot size) each carried their own copy of the same
// two-level pool: thread-local free lists refilled in batches from a
// mutex-protected global list, cache-line-striped live counters, chunks
// carved from the heap and never released. Both are now thin shims over one
// class, block_pool, which additionally
//
//   * records the provenance of every carved chunk, so reserved/used
//     accounting is exact and reserved_bytes() reports the true footprint;
//   * can release fully-free chunks (trim(), trim_all()), instead of
//     "memory is returned only at process exit". Released chunks go back
//     through ::operator delete to the C++ heap, not to the OS: glibc keeps
//     most of them mapped for reuse, so the process RSS barely drops;
//   * stripes its live counters by a hashed thread id for *all* threads —
//     scheduler workers and foreign server threads alike — instead of
//     funneling every non-worker thread onto one shared stripe.
//
// --------------------------------------------------------------------------
// Epoch-based reclamation (EBR), the classic three-epoch scheme:
//
//   * a reader wraps any access to epoch-published state in an epoch::guard:
//     it announces the current global epoch in its thread slot, and the
//     announcement pins reclamation — nothing retired while the reader could
//     still hold a reference is freed until the guard drops;
//   * a writer that unlinks an object (e.g. snapshot_box swapping out the
//     displaced root payload) calls epoch::retire(p, deleter) instead of
//     deleting inline. The object lands on the limbo list of the current
//     epoch;
//   * the global epoch advances from E to E+1 only when every active reader
//     has announced E; at that moment everything retired in epoch E-2 is
//     unreachable by construction and its limbo list is drained.
//
// Draining runs the retired objects' deleters outside the limbo mutex; for
// tree payloads the deleter is a root refcount drop, which tears the tree
// down with the existing parallel GC (node_manager::dec forks once subtree
// sizes pass gc_par_cutoff()) — limbo drains therefore parallelize exactly
// like every other bulk free in the system.
//
// Every retirement tries to turn the epoch over while the current limbo
// bucket holds fewer than kDrainThreshold objects, so with no reader pinned
// limbo holds only the last two epochs' retirements: each retired object is
// freed by the second retirement after its own. Past that fill a
// pinned reader must be holding the epoch back, and retire falls back to
// one try per kDrainThreshold retirements.
//
// Guarantees: guard entry/exit are wait-free (two seq_cst accesses plus a
// validation loop that only retries while a concurrent advance is in
// flight); retire is O(1) amortized plus one reader-slot scan per try
// (every call while limbo is shallow; under a pinned reader, at most
// kDrainThreshold + n / kDrainThreshold scans over n retirements);
// try_advance is lock-free for readers (it never blocks them) and
// mutual-exclusive among reclaimers.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <new>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "parallel/scheduler.h"
#include "util/thread_annotations.h"

namespace pam {

namespace alloc_internal {

// Reclamation + footprint instrumentation, shared by the process-wide epoch
// and every block_pool. Global: the epoch is process-global anyway, and
// pools are immortal-by-convention, so per-instance registration would only
// multiply identical series.
struct alloc_metrics_t {
  obs::counter epoch_advances{"pam_epoch_advances_total"};
  obs::counter epoch_advance_blocked{"pam_epoch_advance_blocked_total"};
  obs::counter epoch_retired{"pam_epoch_retired_total"};
  obs::gauge limbo_depth{"pam_epoch_limbo_depth"};
  obs::gauge reserved_bytes{"pam_arena_reserved_bytes"};
  obs::gauge used_bytes{"pam_arena_used_bytes"};
  obs::counter trimmed_bytes{"pam_arena_trimmed_bytes_total"};
};

inline alloc_metrics_t& alloc_metrics() {
  // pam-lint: allow(naked-new) — immortal process-wide metric block, same
  // lifetime rule as the epoch/limbo singletons below.
  static alloc_metrics_t* m = new alloc_metrics_t();
  return *m;
}

}  // namespace alloc_internal

// ------------------------------------------------------------------ epoch --

// The EBR protocol expressed as a capability (see util/thread_annotations.h
// for the contract overview). `epoch_domain` is a process-global phantom
// capability with no runtime state: epoch::guard acquires it *shared* and
// functions that dereference epoch-published pointers declare
// PAM_REQUIRES_SHARED(epoch_domain), so "read a published payload without a
// guard" fails to compile under clang -Wthread-safety. Reclamation entry
// points (retire / try_advance / drain) declare PAM_EXCLUDES(epoch_domain):
// calling them from inside a guard would try to advance past the caller's
// own pin — a reclamation-progress self-deadlock — and is likewise rejected
// at compile time. The capability is shared, never exclusive: guards only
// pin reclamation, they do not exclude each other.
class PAM_CAPABILITY("epoch_domain") epoch_domain_t {};
inline epoch_domain_t epoch_domain;

class epoch {
 public:
  // RAII reader protection. Re-entrant at runtime: nested guards on one
  // thread are free (only the outermost announces). While any guard is
  // alive on any thread, no object retired after that guard's entry can be
  // freed. To the static analysis a guard is a scoped *shared* hold of
  // `epoch_domain`; nest across function boundaries (the analysis is
  // intra-procedural), not lexically in one function, or clang reports a
  // double acquire.
  class PAM_SCOPED_CAPABILITY guard {
   public:
    guard() PAM_ACQUIRE_SHARED(epoch_domain) { enter(); }
    ~guard() PAM_RELEASE() { exit(); }
    guard(const guard&) = delete;
    guard& operator=(const guard&) = delete;
  };

  // Hand an unlinked object to the reclamation layer. `deleter(p)` runs once
  // no reader that could have seen p remains; it may run on any thread that
  // happens to advance the epoch. The caller must have already unlinked p
  // from all shared state.
  //
  // Retirement is per *commit* (one displaced payload per snapshot_box
  // publication), not per node, so one process-wide limbo list suffices at
  // current commit rates; if profiles ever show this mutex on a write path,
  // the standard evolution is per-thread retire lists folded in at advance
  // time. The epoch turn is tried in the same critical section that queues
  // p, on every call while the bucket is shallow and on every
  // kDrainThreshold-th call once a pinned reader has let it grow (see the
  // header). The freed bucket's deleters run on the retiring thread after
  // the lock drops, and outside any snapshot_box writer lock (see
  // snapshot_box::retire).
  //
  // EXCLUDES(epoch_domain): must not run inside an epoch::guard — the
  // turn attempted here could never move past the caller's own pin.
  static void retire(void* p, void (*deleter)(void*))
      PAM_EXCLUDES(epoch_domain) {
    limbo_state& L = limbo();
    std::vector<retired> to_free;
    {
      mutex_guard lock(L.mu);
      uint64_t e = global_epoch().load(std::memory_order_relaxed);
      auto& bucket = L.buckets[e % 3];
      bucket.push_back({p, deleter});
      L.pending.fetch_add(1, std::memory_order_relaxed);
      size_t fill = bucket.size();
      if (fill < kDrainThreshold || fill % kDrainThreshold == 0) {
        advance_locked(L, to_free);
      }
    }
    alloc_internal::alloc_metrics().epoch_retired.inc();
    alloc_internal::alloc_metrics().limbo_depth.add(1);
    free_retired(L, to_free);
  }

  // Attempt one epoch turn. Returns true if the epoch advanced (draining the
  // bucket that became safe); false if a pinned reader prevented it. Takes
  // the limbo mutex blocking: retire/advance critical sections are O(1)-ish
  // (deleters run outside the lock), and drain()'s contract — advance until
  // limbo is empty or a pinned reader blocks progress — must not be
  // defeated by transient lock contention from concurrent commits.
  //
  // EXCLUDES(epoch_domain): a caller inside a guard is pinned at the
  // current epoch and the advance it requests can never succeed.
  static bool try_advance() PAM_EXCLUDES(epoch_domain) {
    limbo_state& L = limbo();
    std::vector<retired> to_free;
    bool advanced;
    {
      mutex_guard lock(L.mu);
      advanced = advance_locked(L, to_free);
    }
    free_retired(L, to_free);
    return advanced;
  }

  // Drive the epoch forward until limbo is empty or a pinned reader blocks
  // progress. With no guards active, three turns clear every bucket. Returns
  // the number of objects still pending. Tests and long-lived servers call
  // this at quiescent points before checking pool baselines or trimming.
  static size_t drain() PAM_EXCLUDES(epoch_domain) {
    for (int i = 0; i < 3 && pending() > 0; i++) {
      if (!try_advance()) break;
    }
    return pending();
  }

  // Objects retired but not yet freed.
  static size_t pending() {
    return limbo().pending.load(std::memory_order_relaxed);
  }

  // Threads currently inside a guard (diagnostic; racy by nature).
  static size_t active_readers() {
    size_t n = 0;
    for (thread_slot* s = slot_head().load(std::memory_order_acquire);
         s != nullptr; s = s->next) {
      if (s->announced.load(std::memory_order_relaxed) != kIdle) n++;
    }
    return n;
  }

  static uint64_t current() {
    return global_epoch().load(std::memory_order_relaxed);
  }

  // Limbo bucket fill past which retire stops trying the epoch turn on every
  // call and tries once per this many retirements (see retire).
  static constexpr size_t kDrainThreshold = 64;

 private:
  static constexpr uint64_t kIdle = ~uint64_t{0};

  struct retired {
    void* p;
    void (*deleter)(void*);
  };

  // One slot per thread that has ever taken a guard. Slots are recycled
  // across thread lifetimes (owned flag) and the list only grows to the peak
  // concurrent thread count; it is intentionally immortal.
  struct thread_slot {
    std::atomic<uint64_t> announced{kIdle};
    std::atomic<bool> owned{true};
    uint32_t depth = 0;  // guard nesting; touched only by the owning thread
    thread_slot* next = nullptr;
  };

  struct limbo_state {
    mutex mu;
    std::array<std::vector<retired>, 3> buckets PAM_GUARDED_BY(mu);
    std::atomic<size_t> pending{0};
  };

  static std::atomic<uint64_t>& global_epoch() {
    static std::atomic<uint64_t>* e = new std::atomic<uint64_t>(0);  // immortal
    return *e;
  }

  static std::atomic<thread_slot*>& slot_head() {
    static std::atomic<thread_slot*>* h =
        new std::atomic<thread_slot*>(nullptr);  // immortal
    return *h;
  }

  static limbo_state& limbo() {
    static limbo_state* L = new limbo_state();  // immortal
    return *L;
  }

  // The epoch turn, run under the limbo mutex by retire and try_advance.
  // Refused while any reader is still announced at e-1; otherwise advances
  // to e+1 and moves the bucket that became safe into `to_free`.
  static bool advance_locked(limbo_state& L, std::vector<retired>& to_free)
      PAM_REQUIRES(L.mu) {
    uint64_t e = global_epoch().load(std::memory_order_seq_cst);
    for (thread_slot* s = slot_head().load(std::memory_order_acquire);
         s != nullptr; s = s->next) {
      uint64_t se = s->announced.load(std::memory_order_seq_cst);
      if (se != kIdle && se != e) {  // reader pinned at e-1
        alloc_internal::alloc_metrics().epoch_advance_blocked.inc();
        return false;
      }
    }
    // Every active reader has announced e: advance, and free the bucket
    // now two epochs stale (retired at e-2; any guard that could hold one
    // of those objects was pinned at <= e-1 and has provably exited).
    global_epoch().store(e + 1, std::memory_order_seq_cst);
    to_free.swap(L.buckets[(e + 1) % 3]);
    alloc_internal::alloc_metrics().epoch_advances.inc();
    return true;
  }

  // Deleters run outside the mutex: a tree teardown may fork into the
  // scheduler, and other threads must be able to keep retiring.
  static void free_retired(limbo_state& L, const std::vector<retired>& to_free) {
    if (to_free.empty()) return;
    for (const retired& r : to_free) r.deleter(r.p);
    L.pending.fetch_sub(to_free.size(), std::memory_order_relaxed);
    alloc_internal::alloc_metrics().limbo_depth.add(
        -static_cast<int64_t>(to_free.size()));
  }

  static thread_slot* acquire_slot() {
    for (thread_slot* s = slot_head().load(std::memory_order_acquire);
         s != nullptr; s = s->next) {
      bool free = false;
      if (s->owned.compare_exchange_strong(free, true,
                                           std::memory_order_acq_rel)) {
        return s;
      }
    }
    thread_slot* s = new thread_slot();
    thread_slot* head = slot_head().load(std::memory_order_relaxed);
    do {
      s->next = head;
    } while (!slot_head().compare_exchange_weak(head, s,
                                                std::memory_order_acq_rel,
                                                std::memory_order_relaxed));
    return s;
  }

  // The slot is bound to the thread for its lifetime and released (marked
  // quiescent, ownership dropped) when the thread exits.
  struct slot_binding {
    thread_slot* slot;
    slot_binding() : slot(acquire_slot()) {}
    ~slot_binding() {
      slot->announced.store(kIdle, std::memory_order_release);
      slot->owned.store(false, std::memory_order_release);
    }
  };

  static thread_slot* my_slot() {
    static thread_local slot_binding binding;
    return binding.slot;
  }

  static void enter() {
    thread_slot* s = my_slot();
    if (s->depth++ > 0) return;
    // Announce-and-validate: publish the epoch we observed, then confirm it
    // is still current. If an advance slipped between load and store our
    // announcement might be one behind the objects we are about to read, so
    // re-announce; the loop only iterates while advances are in flight.
    uint64_t e = global_epoch().load(std::memory_order_seq_cst);
    for (;;) {
      s->announced.store(e, std::memory_order_seq_cst);
      uint64_t now = global_epoch().load(std::memory_order_seq_cst);
      if (now == e) break;
      e = now;
    }
  }

  static void exit() {
    thread_slot* s = my_slot();
    if (--s->depth > 0) return;
    s->announced.store(kIdle, std::memory_order_release);
  }
};

// ------------------------------------------------------------- block_pool --

// The one two-level pool. Slot size and alignment are chosen at
// construction; instances are expected to be immortal (type_allocator and
// coded_store both leak theirs on purpose, matching the scheduler's
// static-destruction discipline).
//
//   * allocate/deallocate hit a thread-local free list — no shared state;
//   * the local list refills from / overflows to a mutex-protected global
//     list in batches sized to ~64KB of slots, so the mutex is amortized
//     to invisibility;
//   * when the global list is dry a chunk of `batch` slots is carved from
//     the heap and recorded in the chunk table (provenance: base, slot
//     count), which is what makes reserved_bytes() exact and trim() possible;
//   * live counts are striped across cache lines, indexed by scheduler
//     worker id or, for foreign threads, a hashed thread-local id.
class block_pool {
 public:
  // The slot stride is rounded up to the alignment so every slot in a
  // carved chunk stays aligned, not just the first — and no further: a
  // typed pool over a 56-byte node must stride 56 bytes, not a
  // max_align_t-rounded 64 (that padding would silently inflate every node
  // pool's footprint ~14%).
  block_pool(size_t slot_bytes, size_t alignment)
      : align_(alignment),
        slot_bytes_((slot_bytes + align_ - 1) / align_ * align_),
        batch_(batch_for(slot_bytes_)),
        id_(directory_register(this)) {}

  // The process-wide pools (type_allocator, coded_store) are immortal and
  // never reach this; it exists so scoped pools (tests, short-lived tools)
  // are leak-clean. Destruction requires quiescence: no thread may touch
  // the pool afterwards. Slots still parked in other threads' caches become
  // dangling-but-unused; the directory entry is cleared so thread-exit
  // hand-back skips them.
  ~block_pool() {
    directory_unregister(id_);
    for (const chunk& c : chunks_) {
      alloc_internal::alloc_metrics().reserved_bytes.add(
          -static_cast<int64_t>(c.slots * slot_bytes_));
      ::operator delete(c.base, std::align_val_t{align_});
    }
  }

  block_pool(const block_pool&) = delete;
  block_pool& operator=(const block_pool&) = delete;

  void* allocate() {
    std::vector<void*>& cache = local_cache(id_);
    if (cache.empty()) refill(cache);
    void* p = cache.back();
    cache.pop_back();
    count_delta(+1);
    return p;
  }

  void deallocate(void* p) {
    std::vector<void*>& cache = local_cache(id_);
    cache.push_back(p);
    count_delta(-1);
    if (cache.size() >= 4 * batch_) overflow(cache);
  }

  // Live slots (allocated minus freed). Exact when quiescent.
  int64_t used() const {
    int64_t total = 0;
    for (const auto& s : counters_) total += s.net.load(std::memory_order_relaxed);
    return total;
  }

  // Slots ever carved and not yet trimmed (capacity, not usage).
  int64_t reserved() const { return reserved_.load(std::memory_order_relaxed); }

  // Exact footprint of this pool: every live chunk's slots times the slot
  // stride. reserved_bytes() == reserved() * slot_bytes() by construction —
  // the chunk table is the ground truth both derive from. This is heap the
  // pool holds, not process RSS (see trim()).
  size_t reserved_bytes() const {
    return static_cast<size_t>(reserved_.load(std::memory_order_relaxed)) *
           slot_bytes_;
  }

  size_t slot_bytes() const { return slot_bytes_; }

  // Release fully-free chunks; reports the bytes released.
  //
  // The calling thread's local cache is handed back first, so a quiescent
  // single-threaded "free everything then trim" releases every chunk. Slots
  // parked in *other* threads' caches conservatively pin their chunks (they
  // are in use from the pool's point of view); trim_all() first has every
  // scheduler worker hand its caches back. Released chunks go to the C++
  // heap through ::operator delete. glibc keeps most of them mapped, so RSS
  // barely drops; what it trims off the top of its heaps the next carve
  // faults back in. This is
  // an explicit maintenance operation: it sorts the global free list under
  // the pool mutex (O(F log F)), so allocation misses in other threads
  // stall for its duration — schedule trims off the serving path.
  size_t trim() {
    // Pointers from distinct chunks are compared throughout with std::less,
    // the standard's total order over raw pointers (built-in < between
    // unrelated allocations is unspecified).
    const std::less<const void*> before{};
    std::vector<void*>& cache = local_cache(id_);
    std::vector<std::pair<char*, char*>> released;  // [base, end) per chunk
    size_t released_bytes = 0;
    {
      mutex_guard lock(mu_);
      for (void* p : cache) free_slots_.push_back(p);
      cache.clear();
      if (chunks_.empty() || free_slots_.empty()) return 0;

      std::sort(free_slots_.begin(), free_slots_.end(), before);
      // Chunks are kept sorted by base; count each chunk's slots present in
      // the free list with one sweep of lower_bound pairs.
      for (size_t c = 0; c < chunks_.size();) {
        const chunk& ch = chunks_[c];
        char* lo = ch.base;
        char* hi = ch.base + ch.slots * slot_bytes_;
        auto first = std::lower_bound(free_slots_.begin(), free_slots_.end(),
                                      static_cast<void*>(lo), before);
        auto last = std::lower_bound(free_slots_.begin(), free_slots_.end(),
                                     static_cast<void*>(hi), before);
        if (static_cast<size_t>(last - first) == ch.slots) {
          released.emplace_back(lo, hi);
          released_bytes += ch.slots * slot_bytes_;
          reserved_.fetch_sub(static_cast<int64_t>(ch.slots),
                              std::memory_order_relaxed);
          chunks_.erase(chunks_.begin() + static_cast<ptrdiff_t>(c));
        } else {
          c++;
        }
      }
      if (released.empty()) return 0;
      // Drop the released slots from the free list in one merge pass: both
      // sides are sorted and the ranges are disjoint, so this is O(F + R)
      // rather than a per-slot range scan — it runs under the pool mutex.
      std::vector<void*> kept;
      kept.reserve(free_slots_.size() -
                   released_bytes / slot_bytes_);
      size_t r = 0;
      for (void* p : free_slots_) {
        while (r < released.size() && !before(p, released[r].second)) r++;
        if (r < released.size() && !before(p, released[r].first)) continue;
        kept.push_back(p);
      }
      free_slots_.swap(kept);
    }
    alloc_internal::alloc_metrics().reserved_bytes.add(
        -static_cast<int64_t>(released_bytes));
    alloc_internal::alloc_metrics().trimmed_bytes.inc(released_bytes);
    // The heap handback happens after the mutex drops: concurrent refills
    // and overflows need not wait on the allocator.
    for (const auto& range : released) {
      ::operator delete(range.first, std::align_val_t{align_});
    }
    return released_bytes;
  }

  // ---------------------------------------------- directory-wide rollups --

  // Total footprint across every pool in the process (typed node pools and
  // leaf-block pools alike — they all register here): heap held by the
  // pools, not process RSS. The directory mutex is held across the walk: a
  // pool cannot be destroyed mid-visit (its destructor serializes on the
  // same mutex to unregister).
  static size_t reserved_bytes_all() {
    directory_t& d = directory();
    mutex_guard lock(d.mu);
    size_t total = 0;
    for (block_pool* p : d.pools) {
      if (p != nullptr) total += p->reserved_bytes();
    }
    return total;
  }

  // Live bytes across every pool: used() slots times the stride. Exact when
  // quiescent. The pam_arena_used_bytes gauge is refreshed here rather than
  // on every allocate/deallocate, which would put a shared atomic on the
  // hot path.
  static size_t used_bytes_all() {
    directory_t& d = directory();
    mutex_guard lock(d.mu);
    size_t total = 0;
    for (block_pool* p : d.pools) {
      if (p != nullptr) {
        total += static_cast<size_t>(std::max<int64_t>(p->used(), 0)) *
                 p->slot_bytes();
      }
    }
    alloc_internal::alloc_metrics().used_bytes.set(static_cast<int64_t>(total));
    return total;
  }

  // Trim every pool; returns the total bytes released. Best preceded by
  // epoch::drain() so limbo-held trees have actually been freed.
  //
  // Every scheduler worker first hands its caches back from its own thread
  // (scheduler::on_each_worker), and the caller hands back its own, so
  // slots freed by parallel teardown no longer pin their chunks. Only other
  // user threads' caches stay out of reach — combiner flushers, server
  // clients, which keep fewer than 4 batches per pool each until they call
  // trim themselves or exit.
  //
  // The hand-back runs before the directory mutex is taken (each worker
  // takes it briefly itself); the walk then holds it (see
  // reserved_bytes_all), and the lock order directory.mu -> pool.mu_ is the
  // same everywhere.
  static size_t trim_all() {
    internal::scheduler::on_each_worker(
        [](void*) { thread_caches().hand_back(); }, nullptr);
    directory_t& d = directory();
    mutex_guard lock(d.mu);
    size_t total = 0;
    for (block_pool* p : d.pools) {
      if (p != nullptr) total += p->trim();
    }
    return total;
  }

 private:
  static constexpr size_t kStripes = 64;

  struct alignas(64) stripe {
    std::atomic<int64_t> net{0};
  };

  struct chunk {
    char* base;
    size_t slots;
  };

  // Amortize the global mutex over ~64KB of slots, but never fewer than 8.
  static size_t batch_for(size_t slot_bytes) {
    size_t b = (size_t{1} << 16) / slot_bytes;
    if (b < 8) b = 8;
    if (b > 2048) b = 2048;
    return b;
  }

  // Counter stripe for the calling thread. Scheduler workers map by id;
  // foreign threads (server clients, test drivers) get a sequentially
  // assigned thread-local id spread over the stripes by a Fibonacci hash —
  // previously they all shared one stripe, which turned the counters into a
  // contention hotspot exactly on the serving read path.
  static size_t stripe_of() {
    int wid = internal::scheduler::worker_id();
    if (wid >= 0) return static_cast<size_t>(wid) % kStripes;
    static std::atomic<uint32_t> next_foreign{0};
    static thread_local uint32_t fid =
        next_foreign.fetch_add(1, std::memory_order_relaxed);
    return (static_cast<size_t>(fid) * 2654435761u >> 16) % kStripes;
  }

  void count_delta(int64_t d) {
    counters_[stripe_of()].net.fetch_add(d, std::memory_order_relaxed);
  }

  void refill(std::vector<void*>& cache) {
    mutex_guard lock(mu_);
    if (free_slots_.size() >= batch_) {
      cache.assign(free_slots_.end() - static_cast<ptrdiff_t>(batch_),
                   free_slots_.end());
      free_slots_.resize(free_slots_.size() - batch_);
      return;
    }
    // Carve a fresh chunk and record its provenance.
    char* base = static_cast<char*>(
        ::operator new(batch_ * slot_bytes_, std::align_val_t{align_}));
    auto pos = std::lower_bound(
        chunks_.begin(), chunks_.end(), base,
        [](const chunk& c, const char* b) {
          return std::less<const char*>{}(c.base, b);
        });
    chunks_.insert(pos, {base, batch_});
    cache.reserve(batch_);
    for (size_t i = 0; i < batch_; i++) cache.push_back(base + i * slot_bytes_);
    reserved_.fetch_add(static_cast<int64_t>(batch_), std::memory_order_relaxed);
    alloc_internal::alloc_metrics().reserved_bytes.add(
        static_cast<int64_t>(batch_ * slot_bytes_));
  }

  void overflow(std::vector<void*>& cache) {
    size_t keep = 2 * batch_;
    mutex_guard lock(mu_);
    for (size_t i = keep; i < cache.size(); i++) free_slots_.push_back(cache[i]);
    cache.resize(keep);
  }

  void take_back(std::vector<void*>& blocks) {
    mutex_guard lock(mu_);
    for (void* p : blocks) free_slots_.push_back(p);
    blocks.clear();
  }

  // ------------------------------------------------- pool id directory --

  struct directory_t {
    mutex mu;
    std::vector<block_pool*> pools PAM_GUARDED_BY(mu);
  };

  static directory_t& directory() {
    static directory_t* d = new directory_t();  // immortal
    return *d;
  }

  static int directory_register(block_pool* p) {
    directory_t& d = directory();
    mutex_guard lock(d.mu);
    d.pools.push_back(p);
    return static_cast<int>(d.pools.size()) - 1;
  }

  // Ids are never reused: a dead pool's slot goes null and stays null, so
  // stale thread caches indexed by it are skipped rather than misdirected.
  static void directory_unregister(int id) {
    directory_t& d = directory();
    mutex_guard lock(d.mu);
    d.pools[static_cast<size_t>(id)] = nullptr;
  }

  // Per-thread free lists for every pool, indexed by pool id. Only the
  // owning thread touches them: on thread exit, and when trim_all() asks a
  // scheduler worker, everything is handed back to the pools.
  struct tl_caches {
    std::vector<std::vector<void*>> by_pool;
    ~tl_caches() { hand_back(); }

    void hand_back() {
      directory_t& d = directory();
      // The directory mutex is held across the hand-back itself, not just
      // the lookup: a pool destructor unregisters under the same mutex, so
      // an owner observed non-null here cannot be destroyed before its
      // take_back completes. A null owner is a pool already destroyed (its
      // chunks are released); just drop the stale slot pointers.
      mutex_guard lock(d.mu);
      for (size_t i = 0; i < by_pool.size(); i++) {
        if (by_pool[i].empty()) continue;
        block_pool* owner = d.pools[i];
        if (owner != nullptr) {
          owner->take_back(by_pool[i]);
        } else {
          by_pool[i].clear();
        }
      }
    }
  };

  static tl_caches& thread_caches() {
    static thread_local tl_caches tl;
    return tl;
  }

  static std::vector<void*>& local_cache(int id) {
    tl_caches& tl = thread_caches();
    if (tl.by_pool.size() <= static_cast<size_t>(id)) {
      tl.by_pool.resize(static_cast<size_t>(id) + 1);
    }
    return tl.by_pool[static_cast<size_t>(id)];
  }

  const size_t align_;
  const size_t slot_bytes_;
  const size_t batch_;
  const int id_;
  mutex mu_;
  std::vector<void*> free_slots_ PAM_GUARDED_BY(mu_);
  std::vector<chunk> chunks_ PAM_GUARDED_BY(mu_);  // sorted by base
  std::atomic<int64_t> reserved_{0};
  std::array<stripe, kStripes> counters_{};
};

}  // namespace pam
