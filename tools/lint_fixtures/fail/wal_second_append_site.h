// pam-lint-fixture-path: src/server/kv_store.h
// pam-lint-fixture-expect: wal-append-site
// A second WAL append beside the combiner sink: a bulk path that logs and
// applies outside the flush locks, so two writers of one key could log A, B
// and apply B, A.
#pragma once

namespace pam {

template <typename Durable, typename Round>
auto wal_sink(Durable* d) {
  return [d](const Round& round) { d->log_round(round); };
}

template <typename Durable, typename Round>
void log_bulk(Durable* d, const Round& round) {
  d->log_round(round);
}

}  // namespace pam
