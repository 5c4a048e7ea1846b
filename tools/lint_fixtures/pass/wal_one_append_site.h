// pam-lint-fixture-path: src/server/kv_store.h
// The store's one WAL append: the sink it hands the write combiner. A
// comment naming log_batch(...) is not a call site.
#pragma once

namespace pam {

template <typename Durable, typename Entries, typename Keys>
auto wal_sink(Durable* d) {
  return [d](size_t s, const Entries& ups, const Keys& dels) {
    d->log_batch(static_cast<uint32_t>(s), ups, dels);
  };
}

}  // namespace pam
