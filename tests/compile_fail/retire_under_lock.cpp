// Concurrency-contract compile-fail fixture: retirement must happen OUTSIDE
// the critical section that displaced the object. Two layers of the same
// rule:
//
//  * epoch::retire is PAM_EXCLUDES(epoch_domain) — retire tries an epoch
//    turn on every call while limbo is shallow (once per kDrainThreshold
//    retirements after that), and a turn tried while the caller's own
//    guard is pinned can never succeed, so limbo would only grow;
//  * published<T> (pam/snapshot.h), the one publication primitive under
//    snapshot_box and sharded_map, retires a displaced object only after
//    its publish mutex drops (its retire is PAM_EXCLUDES of that mutex);
//    mini_box replicates that shape, since the real mutex is private.
//
// clang -Werror=thread-safety must reject both calls below.
//
// expect-error: epoch_domain
// expect-error: 'mu'
#include "alloc/arena.h"
#include "util/thread_annotations.h"

namespace {

void noop_deleter(void*) {}

struct mini_box {
  pam::mutex mu;

  // The displaced-version hand-off: must run after mu drops.
  void retire_displaced() PAM_EXCLUDES(mu) {}

  void commit_wrong() {
    pam::mutex_guard lock(mu);
    retire_displaced();  // BAD: still inside the writer critical section
  }
};

}  // namespace

int main() {
  static int dummy = 0;
  {
    pam::epoch::guard g;
    pam::epoch::retire(&dummy, &noop_deleter);  // BAD: retiring while pinned
  }
  mini_box b;
  b.commit_wrong();
  return 0;
}
