// change_feed: pull-based change subscriptions over a version_store.
//
// A subscriber holds a cursor (the last version it consumed) and drains
// ordered entry deltas with poll(): everything committed between its cursor
// and the store's latest captured version, as one key-ordered stream
// stitched across shards (version_store::diff). Draining is pull-based and
// per-subscriber — any number of subscribers at different positions share
// the same retained versions, and a subscriber that stops polling costs
// nothing but the retention its cursor's version already has.
//
// Lag: the ring trims old versions, so a subscriber that falls behind may
// find its cursor no longer retained. poll() then reports `lagged` with an
// empty delta (the cursor does not advance); the subscriber recovers with
// rebase(), which hands it the latest full snapshot and moves the cursor
// there — the standard "resync then stream" protocol of replication feeds.
//
// Thread safety: the feed itself is stateless over the store and may be
// shared freely. A single subscription is a cursor owned by its subscriber:
// poll/rebase on one subscription must be externally serialized (each
// subscriber polls its own), while distinct subscriptions never contend.
// This is the "externally serialized" row of the concurrency contract
// (DESIGN.md): no mutex to annotate — the store underneath carries the
// checked capabilities, and a subscription is deliberately lock-free state
// owned by exactly one driver.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "server/version_store.h"

namespace pam {

template <typename Map>
class change_feed {
 public:
  using store_type = version_store<Map>;
  using snapshot_type = typename store_type::snapshot_type;
  using change_t = typename store_type::change_t;

  class subscription {
   public:
    subscription() = default;
    // The last version this subscriber has consumed. A default-constructed
    // subscription holds 0, which no store retains, so its first poll
    // reports lag and it must rebase().
    uint64_t version() const { return cursor_; }

   private:
    friend class change_feed;
    explicit subscription(uint64_t cursor) : cursor_(cursor) {}
    uint64_t cursor_ = 0;
  };

  struct batch {
    uint64_t from = 0;  // cursor before the poll
    uint64_t to = 0;    // cursor after the poll (== from when empty/lagged)
    bool lagged = false;  // cursor trimmed: rebase() required
    std::vector<change_t> changes;

    bool empty() const { return changes.empty(); }
  };

  explicit change_feed(store_type& store) : store_(store) {}

  // Start consuming at the latest captured version: the subscriber sees
  // only changes committed (and captured) after this point. Pair with
  // store().snapshot_latest() when the subscriber also needs the base
  // state — or just call rebase() on a fresh subscription.
  subscription subscribe() const {
    return subscription(store_.latest_version());
  }

  // Drain everything captured since sub's cursor. Advances the cursor on
  // success; on lag (the cursor's version is not retained) the cursor stays
  // and the batch says so.
  batch poll(subscription& sub) const {
    batch out;
    out.from = out.to = sub.cursor_;
    uint64_t latest = store_.latest_version();
    if (latest == sub.cursor_) return out;  // caught up
    auto changes = store_.diff(sub.cursor_, latest);
    if (!changes.has_value()) {
      out.lagged = true;
      return out;
    }
    out.changes = std::move(*changes);
    out.to = latest;
    sub.cursor_ = latest;
    return out;
  }

  // Recover (or bootstrap) a subscriber: the latest full snapshot plus its
  // version; the cursor moves there, so the next poll streams only changes
  // committed after this snapshot.
  std::pair<snapshot_type, uint64_t> rebase(subscription& sub) const {
    auto [snap, v] = store_.snapshot_latest();
    sub.cursor_ = v;
    return {std::move(snap), v};
  }

  store_type& store() const { return store_; }

 private:
  store_type& store_;
};

}  // namespace pam
