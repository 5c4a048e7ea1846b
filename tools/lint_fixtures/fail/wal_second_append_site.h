// pam-lint-fixture-path: src/server/kv_store.h
// pam-lint-fixture-expect: wal-append-site
// A second WAL append beside the combiner sink: a bulk path that logs and
// applies outside the flush locks, so two writers of one key could log A, B
// and apply B, A.
#pragma once

namespace pam {

template <typename Durable, typename Entries, typename Keys>
auto wal_sink(Durable* d) {
  return [d](size_t s, const Entries& ups, const Keys& dels) {
    d->log_batch(static_cast<uint32_t>(s), ups, dels);
  };
}

template <typename Durable, typename Entries, typename Keys>
void log_bulk(Durable* d, const Entries& ups, const Keys& dels) {
  d->log_batch(~uint32_t{0}, ups, dels);
}

}  // namespace pam
