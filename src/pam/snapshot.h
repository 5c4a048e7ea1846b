// snapshot_box: the shared-instance concurrency pattern of paper §4, with a
// lock-free read path.
//
// Any number of reader threads atomically take O(1) snapshots of a shared
// map and work on them without locks; writers update the shared instance by
// swapping in a new version. The paper swaps the root pointer with a CAS;
// here a writer publishes an immutable heap payload {map, size, version}
// through one atomic pointer, and a reader acquires a snapshot with an
// epoch-protected load plus a root refcount bump:
//
//   reader   epoch::guard g;                    // pins reclamation
//            payload* p = current_.load(acq);   // the published version
//            Map snap = p->map;                 // O(1): inc(root)
//
// No reader-side mutex anywhere: snapshot(), version(), size() and the
// zero-copy with_current() are wait-free. Writers remain serialized on a
// writer mutex (the paper's CAS loop serializes them just the same), and a
// displaced payload is never freed inline — it is retired onto the epoch
// limbo lists (alloc/arena.h) and destroyed only once every reader that
// could have seen it has moved on. The payload destructor drops the root
// reference, so big displaced versions are torn down by the existing
// parallel GC when the limbo list drains.
//
// The serving layer (server/sharded_map.h) publishes all of its shard roots
// the same way, as one immutable cut behind one atomic pointer, so a cut
// across shards is one guarded load too; it does not build on this class.
// The protocol is machine-checked (clang -Wthread-safety, see
// util/thread_annotations.h): payload dereferences require the epoch_domain
// capability (shared — an epoch::guard) or the writer lock; publication
// requires writer_mu_; retirement is EXCLUDES(writer_mu_), so moving a
// retire back inside the writer critical section fails to compile.
#pragma once

#include <cstdint>
#include <utility>

#include "alloc/arena.h"
#include "parallel/parallel.h"
#include "util/thread_annotations.h"

namespace pam {

template <typename Map>
class snapshot_box {
 public:
  // pam-lint: allow(naked-new) — the initial payload, before any sharing.
  snapshot_box() : current_(new payload{Map{}, 0, 0}) {}
  explicit snapshot_box(Map initial) {
    size_t sz = initial.size();
    // pam-lint: allow(naked-new) — the initial payload, before any sharing.
    current_.store(new payload{std::move(initial), sz, 0},
                   std::memory_order_relaxed);
  }

  // No readers or writers may be in flight at destruction (standard object
  // lifetime); payloads already retired are self-contained and drain later.
  // pam-lint: allow(naked-delete) — the final payload, after all sharing.
  ~snapshot_box() { delete current_.load(std::memory_order_relaxed); }

  snapshot_box(const snapshot_box&) = delete;
  snapshot_box& operator=(const snapshot_box&) = delete;

  // An O(1) atomic snapshot; the caller owns an immutable version that no
  // concurrent update can perturb. Wait-free: an epoch guard, one pointer
  // load, one refcount bump.
  Map snapshot() const {
    epoch::guard g;
    return payload_ref()->map;
  }

  // Snapshot plus the version it corresponds to, from one payload read (the
  // pair is atomic by construction — both fields live in the same published
  // object).
  std::pair<Map, uint64_t> snapshot_versioned() const {
    epoch::guard g;
    const payload* p = payload_ref();
    return {p->map, p->version};
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
    return f(payload_ref()->map);
  }

  // Zero-cost access to the published instance for a caller already inside
  // an epoch::guard — the multi-box form of with_current (one guard, many
  // boxes). The returned reference is valid only while that guard is held;
  // retaining it past the guard is a use-after-free the version counter
  // cannot save you from. Enforced: calling this without holding
  // epoch_domain (shared) is a compile error under clang -Wthread-safety.
  const Map& current_map() const PAM_REQUIRES_SHARED(epoch_domain) {
    return payload_ref()->map;
  }

  // Number of commits (store / update) ever applied. Monotonic; a reader
  // can compare versions from two reads to detect intervening writes.
  uint64_t version() const {
    epoch::guard g;
    return payload_ref()->version;
  }

  // Entry count of the current instance, computed at commit time so a size
  // query is one payload read — no snapshot copy, no refcount traffic.
  size_t size() const {
    epoch::guard g;
    return payload_ref()->size;
  }

  // (version, size) of one committed instance, read atomically.
  std::pair<uint64_t, size_t> version_size() const {
    epoch::guard g;
    const payload* p = payload_ref();
    return {p->version, p->size};
  }

  // Replace the shared instance.
  void store(Map m) {
    payload* displaced;
    {
      mutex_guard serialize(writer_mu_);
      displaced = publish(std::move(m));
    }
    retire(displaced);
  }

  // Atomically apply f : Map -> Map to the shared instance. Writers are
  // fully serialized by the writer lock (no update can be lost); readers
  // never wait — they keep acquiring whichever version is published while f
  // runs on the writer's private copy.
  template <typename F>
  void update(const F& f) {
    payload* displaced;
    {
      mutex_guard serialize(writer_mu_);
      // Holding the writer lock, current_ cannot change and the payload it
      // points at cannot be retired: copying the map here needs no guard.
      Map working = payload_locked()->map;
      // f may fork while the lock is held: isolated, a worker waiting in one
      // of its joins never runs another task that takes this lock.
      displaced = publish(isolate([&] { return f(std::move(working)); }));
    }
    retire(displaced);
  }

 private:
  // One committed version: everything a reader observes about it lives in
  // one immutable heap object behind one atomic pointer.
  struct payload {
    Map map;
    size_t size;
    uint64_t version;
  };

  // The two checked dereference paths to the published payload. A reader
  // must hold epoch_domain (shared): the guard pins reclamation, so the
  // pointer stays alive across the dereference. A writer must hold
  // writer_mu_: with writers excluded, nothing can displace (and hence
  // retire) the payload. Every dereference of a published payload goes
  // through one of these (publish's swap and the lifecycle edges in
  // ctor/dtor touch only the pointer), so the protocol has exactly two
  // doors and both are capability-checked.
  const payload* payload_ref() const PAM_REQUIRES_SHARED(epoch_domain) {
    return current_.load(std::memory_order_acquire);
  }
  const payload* payload_locked() const PAM_REQUIRES(writer_mu_) {
    return current_.load(std::memory_order_acquire);
  }

  // Swap the new version in and hand the displaced payload back for
  // retirement.
  payload* publish(Map next) PAM_REQUIRES(writer_mu_) {
    size_t sz = next.size();
    payload* old = current_.load(std::memory_order_relaxed);
    // pam-lint: allow(naked-new) — payloads are commit-rate objects owned
    // by the box, freed exclusively through the epoch limbo (retire below).
    payload* fresh = new payload{std::move(next), sz, old->version + 1};
    current_.store(fresh, std::memory_order_release);
    return old;
  }

  // Retire a displaced payload onto the epoch limbo list — never freed
  // inline, because a concurrent reader may be mid-acquisition on it.
  // Called *after* the writer lock drops, and annotated so (EXCLUDES):
  // retire tries an epoch turn and frees the bucket it makes safe — on
  // every retirement while limbo is shallow, so with no reader pinned each
  // commit frees the version displaced two epochs back; under a pinned
  // reader, once per kDrainThreshold retirements — and a large
  // displaced-version teardown must not stall the next commit. Moving this
  // call back inside the writer critical section is a compile error under
  // clang -Wthread-safety.
  void retire(payload* displaced) const PAM_EXCLUDES(writer_mu_) {
    // pam-lint: allow(naked-delete) — the limbo deleter is the single
    // reclamation point for payloads published by this box.
    epoch::retire(displaced, [](void* q) { delete static_cast<payload*>(q); });
  }

  mutable mutex writer_mu_;  // serializes whole read-modify-write updates
  std::atomic<payload*> current_{nullptr};
};

}  // namespace pam
