// Clang Thread Safety Analysis support: the concurrency contract as code.
//
// Every lock protocol in this repository (DESIGN.md "The concurrency
// contract") is expressed with the macros below so that a clang build with
// -Wthread-safety (promoted to -Werror=thread-safety in CI) rejects code
// that breaks it: touching a guarded member without its mutex, calling a
// REQUIRES function without the capability, retiring a payload while the
// writer lock is still held. On GCC — which has no capability analysis —
// every macro compiles away to nothing, so the annotations cost zero and
// the portable build is unchanged.
//
// Three kinds of capability appear in the codebase:
//
//   * plain mutexes (pam::mutex / pam::shared_mutex below): annotated
//     wrappers over the std types, lockable directly, through
//     std::unique_lock, or (pam::mutex) through the scoped guards;
//   * the EBR domain (alloc/arena.h `epoch_domain`): a process-global
//     capability held *shared* by every epoch::guard. Dereferencing
//     epoch-published state is REQUIRES_SHARED(epoch_domain); reclamation
//     entry points are EXCLUDES(epoch_domain) so driving the epoch forward
//     from inside a guard — a self-deadlock on reclamation progress — is a
//     compile error;
//   * the publish mutex of published<T> (pam/snapshot.h), the one
//     publication primitive: the swap takes it, retirement is EXCLUDES(it),
//     which is the "retire only after the writer lock drops" rule.
//
// The analysis is lexical and intra-procedural. Protocols it cannot
// express — hand-over-hand latch crabbing (baselines/concurrent_bptree.h) —
// carry PAM_NO_THREAD_SAFETY_ANALYSIS with a one-line justification and
// remain covered by the TSan CI job instead. Static checking and dynamic
// checking are complements here, not substitutes.
//
// Macro set and semantics follow the clang documentation
// (clang.llvm.org/docs/ThreadSafetyAnalysis.html) and the Abseil naming.
#pragma once

#include <mutex>
#include <shared_mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define PAM_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef PAM_THREAD_ANNOTATION
#define PAM_THREAD_ANNOTATION(x)  // not clang: annotations compile away
#endif

// A type that acts as a capability (a lock). The string names the kind in
// diagnostics ("mutex", "shared_mutex", "epoch_domain").
#define PAM_CAPABILITY(x) PAM_THREAD_ANNOTATION(capability(x))

// An RAII type that acquires a capability in its constructor and releases
// it in its destructor.
#define PAM_SCOPED_CAPABILITY PAM_THREAD_ANNOTATION(scoped_lockable)

// Data members: reads/writes require the capability (shared suffices for
// reads). PT_ variant protects the data a pointer member points to.
#define PAM_GUARDED_BY(x) PAM_THREAD_ANNOTATION(guarded_by(x))
#define PAM_PT_GUARDED_BY(x) PAM_THREAD_ANNOTATION(pt_guarded_by(x))

// Functions: caller must hold the capability (exclusively / at least
// shared) when calling.
#define PAM_REQUIRES(...) \
  PAM_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define PAM_REQUIRES_SHARED(...) \
  PAM_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

// Functions that acquire / release a capability themselves.
#define PAM_ACQUIRE(...) PAM_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define PAM_ACQUIRE_SHARED(...) \
  PAM_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define PAM_RELEASE(...) PAM_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define PAM_RELEASE_SHARED(...) \
  PAM_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define PAM_RELEASE_GENERIC(...) \
  PAM_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))
#define PAM_TRY_ACQUIRE(...) \
  PAM_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define PAM_TRY_ACQUIRE_SHARED(...) \
  PAM_THREAD_ANNOTATION(try_acquire_shared_capability(__VA_ARGS__))

// Caller must NOT hold the capability: the function acquires it itself, or
// — the EBR rules — must run outside the critical section entirely.
#define PAM_EXCLUDES(...) PAM_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// The function returns a reference to the named capability.
#define PAM_RETURN_CAPABILITY(x) PAM_THREAD_ANNOTATION(lock_returned(x))

// Escape hatch. Every use must say why the protocol is beyond the
// analysis's lexical model and what covers it instead (usually TSan).
#define PAM_NO_THREAD_SAFETY_ANALYSIS \
  PAM_THREAD_ANNOTATION(no_thread_safety_analysis)

// Runtime assertion that a capability is held (for code reachable from
// both locked and lock-free contexts).
#define PAM_ASSERT_CAPABILITY(x) PAM_THREAD_ANNOTATION(assert_capability(x))

// ---------------------------------------------------------------------------
// Intentional-wraparound marker for the UBSan CI job: clang's
// -fsanitize=integer flags unsigned wraparound, which is well-defined and
// deliberate in hash mixers and striping functions. GCC has no such
// sanitizer group, so the attribute is clang-only like the ones above.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(no_sanitize)
#define PAM_NO_SANITIZE_UNSIGNED_WRAP \
  __attribute__((no_sanitize("unsigned-integer-overflow")))
#endif
#endif
#ifndef PAM_NO_SANITIZE_UNSIGNED_WRAP
#define PAM_NO_SANITIZE_UNSIGNED_WRAP
#endif

namespace pam {

// Annotated std::mutex. BasicLockable + Lockable, so std::unique_lock and
// std::condition_variable_any work with it; prefer the scoped guards below,
// which participate in the analysis.
class PAM_CAPABILITY("mutex") mutex {
 public:
  mutex() = default;
  mutex(const mutex&) = delete;
  mutex& operator=(const mutex&) = delete;

  void lock() PAM_ACQUIRE() { mu_.lock(); }
  void unlock() PAM_RELEASE() { mu_.unlock(); }
  bool try_lock() PAM_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

// Annotated std::shared_mutex.
class PAM_CAPABILITY("shared_mutex") shared_mutex {
 public:
  shared_mutex() = default;
  shared_mutex(const shared_mutex&) = delete;
  shared_mutex& operator=(const shared_mutex&) = delete;

  void lock() PAM_ACQUIRE() { mu_.lock(); }
  void unlock() PAM_RELEASE() { mu_.unlock(); }
  bool try_lock() PAM_TRY_ACQUIRE(true) { return mu_.try_lock(); }
  void lock_shared() PAM_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void unlock_shared() PAM_RELEASE_SHARED() { mu_.unlock_shared(); }
  bool try_lock_shared() PAM_TRY_ACQUIRE_SHARED(true) {
    return mu_.try_lock_shared();
  }

 private:
  std::shared_mutex mu_;
};

// std::lock_guard, annotated: acquires at construction, releases at scope
// exit, and the analysis credits the critical section in between.
class PAM_SCOPED_CAPABILITY mutex_guard {
 public:
  explicit mutex_guard(mutex& mu) PAM_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~mutex_guard() PAM_RELEASE() { mu_.unlock(); }
  mutex_guard(const mutex_guard&) = delete;
  mutex_guard& operator=(const mutex_guard&) = delete;

 private:
  mutex& mu_;
};

// std::unique_lock over pam::mutex, annotated and re-lockable: the shape
// condition-variable wait loops need (see write_combiner::flusher_loop).
// Pair with std::condition_variable_any, which accepts any lockable.
class PAM_SCOPED_CAPABILITY unique_guard {
 public:
  explicit unique_guard(mutex& mu) PAM_ACQUIRE(mu) : mu_(mu), owned_(true) {
    mu_.lock();
  }
  ~unique_guard() PAM_RELEASE() {
    if (owned_) mu_.unlock();
  }
  unique_guard(const unique_guard&) = delete;
  unique_guard& operator=(const unique_guard&) = delete;

  void lock() PAM_ACQUIRE() {
    mu_.lock();
    owned_ = true;
  }
  void unlock() PAM_RELEASE() {
    mu_.unlock();
    owned_ = false;
  }

 private:
  mutex& mu_;
  bool owned_;
};

}  // namespace pam
