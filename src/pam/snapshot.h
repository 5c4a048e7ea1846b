// published<T> and snapshot_box: the shared-instance concurrency pattern of
// paper §4, with a lock-free read path.
//
// Any number of reader threads atomically take O(1) snapshots of a shared
// map and work on them without locks; writers update the shared instance by
// swapping in a new version. The paper swaps the root pointer with a CAS;
// here a writer publishes an immutable heap object through one atomic
// pointer, and a reader acquires it with an epoch-protected load:
//
//   reader   epoch::guard g;                    // pins reclamation
//            const T& cur = p.get();            // one acquire load
//            Map snap = cur.map;                // O(1): inc(root)
//
//   writer   T* old = p.publish(next);          // swap under the publish
//                                               // mutex: no fork there
//            (drop the caller's own locks)
//            p.retire(old);                     // onto the epoch limbo
//
// published<T> is that protocol, written once: the atomic pointer, the
// checked reader door, the swap under a publish mutex, and the retire that
// runs after that mutex drops. snapshot_box publishes one {map, size,
// version} payload through it; the serving layer (server/sharded_map.h)
// publishes all of its shard roots through it as one immutable cut, so a
// cut across shards is one guarded load too.
//
// No reader-side mutex anywhere: snapshot(), version(), size() and the
// zero-copy with_current() are wait-free. Writers of a box remain
// serialized on the publish mutex (the paper's CAS loop serializes them
// just the same), and a displaced object is never freed inline — it is
// retired onto the epoch limbo lists (alloc/arena.h) and destroyed only
// once every reader that could have seen it has moved on. A payload's
// destructor drops its root references, so big displaced versions are torn
// down by the existing parallel GC when the limbo list drains.
//
// The protocol is machine-checked (clang -Wthread-safety, see
// util/thread_annotations.h): get() requires the epoch_domain capability
// (shared — an epoch::guard); publish() takes the publish mutex itself;
// retire() is EXCLUDES(publish mutex), so moving a retire back inside the
// swap fails to compile.
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>

#include "alloc/arena.h"
#include "parallel/parallel.h"
#include "util/thread_annotations.h"

namespace pam {

template <typename T>
class published {
 public:
  // pam-lint: allow(naked-new) — the initial object, before any sharing.
  explicit published(T initial) : ptr_(new T(std::move(initial))) {}

  // No reader or publisher may be in flight at destruction (standard object
  // lifetime); objects already retired are self-contained and drain later.
  // pam-lint: allow(naked-delete) — the final object, after all sharing.
  ~published() { delete ptr_.load(std::memory_order_relaxed); }

  published(const published&) = delete;
  published& operator=(const published&) = delete;

  // The reader door: the current object, valid while the caller's
  // epoch::guard pins reclamation.
  const T& get() const PAM_REQUIRES_SHARED(epoch_domain) {
    return *ptr_.load(std::memory_order_acquire);
  }

  // Swap in next(current) and hand the displaced object back for retire().
  // next runs under the publish mutex, so it sees the latest object and no
  // other publisher can displace (and hence retire) it; publishers serialize
  // while it runs. snapshot_box runs its whole update there (the paper's
  // writer lock); sharded_map merges first and only copies the cut here.
  template <typename Next>
  [[nodiscard]] T* publish(const Next& next) PAM_EXCLUDES(mu_) {
    mutex_guard swap(mu_);
    T* old = ptr_.load(std::memory_order_relaxed);
    // pam-lint: allow(naked-new) — published objects are commit-rate,
    // freed exclusively through the epoch limbo (retire below).
    ptr_.store(new T(next(*old)), std::memory_order_release);
    return old;
  }

  // Retire a displaced object onto the epoch limbo list — never freed
  // inline, as a reader may be mid-acquisition on it. Called after the
  // publish mutex (EXCLUDES) and the caller's own locks drop: retire may
  // free a limbo bucket, and that teardown must not stall the next commit.
  void retire(T* displaced) const PAM_EXCLUDES(mu_) {
    // pam-lint: allow(naked-delete) — the limbo deleter is the single
    // reclamation point for objects published here.
    epoch::retire(displaced, [](void* q) { delete static_cast<T*>(q); });
  }

 private:
  // On cache lines of their own: every publish writes them, while the
  // owner's neighbouring fields are read by every routed operation.
  alignas(64) mutex mu_;
  alignas(64) std::atomic<T*> ptr_;
};

template <typename Map>
class snapshot_box {
 public:
  snapshot_box() : snapshot_box(Map{}) {}
  explicit snapshot_box(Map initial)
      : current_(payload{initial.size(), 0, std::move(initial)}) {}

  snapshot_box(const snapshot_box&) = delete;
  snapshot_box& operator=(const snapshot_box&) = delete;

  // An O(1) atomic snapshot; the caller owns an immutable version that no
  // concurrent update can perturb. Wait-free: an epoch guard, one pointer
  // load, one refcount bump.
  Map snapshot() const {
    epoch::guard g;
    return current_.get().map;
  }

  // Snapshot plus the version it corresponds to, from one payload read (the
  // pair is atomic by construction — both fields live in the same published
  // object).
  std::pair<Map, uint64_t> snapshot_versioned() const {
    epoch::guard g;
    const payload& p = current_.get();
    return {p.map, p.version};
  }

  // Run f against the current version without taking a snapshot: no
  // refcount traffic at all. f must not retain references into the map
  // beyond its own return — the version is only pinned while f runs.
  // Keep f short (point lookups, O(log n) queries): the epoch guard it
  // runs under pins reclamation *process-wide*, so a long scan inside f
  // parks every concurrently displaced version on the limbo lists for its
  // whole duration. Long reads should take snapshot() — one refcount bump
  // buys a private version that pins nothing.
  template <typename F>
  auto with_current(const F& f) const {
    epoch::guard g;
    return f(current_.get().map);
  }

  // Zero-cost access to the published instance for a caller already inside
  // an epoch::guard — the multi-box form of with_current (one guard, many
  // boxes). The returned reference is valid only while that guard is held;
  // retaining it past the guard is a use-after-free the version counter
  // cannot save you from. Enforced: calling this without holding
  // epoch_domain (shared) is a compile error under clang -Wthread-safety.
  const Map& current_map() const PAM_REQUIRES_SHARED(epoch_domain) {
    return current_.get().map;
  }

  // Number of commits (store / update) ever applied. Monotonic; a reader
  // can compare versions from two reads to detect intervening writes.
  uint64_t version() const { return version_size().first; }

  // Entry count of the current instance, computed at commit time so a size
  // query is one payload read — no snapshot copy, no refcount traffic.
  size_t size() const { return version_size().second; }

  // (version, size) of one committed instance, read atomically.
  std::pair<uint64_t, size_t> version_size() const {
    epoch::guard g;
    const payload& p = current_.get();
    return {p.version, p.size};
  }

  // Replace the shared instance.
  void store(Map m) {
    update([&](const Map&) { return std::move(m); });
  }

  // Atomically apply f : Map -> Map to the shared instance. Writers are
  // fully serialized on the publish mutex, held while f runs (no update can
  // be lost); readers never wait — they keep acquiring whichever version is
  // published while f runs on the writer's private copy.
  template <typename F>
  void update(const F& f) {
    current_.retire(current_.publish([&](const payload& old) {
      // f may fork while the mutex is held: isolated, a worker waiting in
      // one of its joins never runs another task that takes this mutex.
      Map next = isolate([&] { return f(Map(old.map)); });
      return payload{next.size(), old.version + 1, std::move(next)};
    }));
  }

 private:
  // One committed version: everything a reader observes about it lives in
  // one immutable heap object.
  struct payload {
    size_t size;
    uint64_t version;
    Map map;
  };

  published<payload> current_;
};

}  // namespace pam
