// pam-lint-fixture-path: src/server/kv_store.h
// The store's one WAL append: the sink it hands the write combiner. A
// comment naming log_round(...) is not a call site.
#pragma once

namespace pam {

template <typename Durable, typename Round>
auto wal_sink(Durable* d) {
  return [d](const Round& round) { d->log_round(round); };
}

}  // namespace pam
