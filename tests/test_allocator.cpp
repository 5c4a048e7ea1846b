// Tests for the unified pool layer (src/alloc/arena.h) and its typed /
// runtime-sized facades (type_allocator, raw_pool): hot-path correctness,
// exact striped accounting from worker and foreign threads alike, chunk
// provenance (reserved_bytes), trim(), and trim_all() reaching the caches of
// every scheduler worker. Also the bulk scratch buffer
// (src/alloc/scratch_buffer.h): sizes around the huge-page threshold.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <utility>
#include <set>
#include <thread>
#include <vector>

#include "alloc/leaf_pool.h"
#include "alloc/scratch_buffer.h"
#include "alloc/type_allocator.h"
#include "pam/pam.h"
#include "parallel/parallel.h"
#include "server/kv_store.h"

namespace {

struct blob48 {
  uint64_t a, b, c, d, e, f;
};

struct counted {
  static inline std::atomic<int> live{0};
  int payload;
  explicit counted(int p) : payload(p) { live.fetch_add(1); }
  ~counted() { live.fetch_sub(1); }
};

using alloc48 = pam::type_allocator<blob48>;
using alloc_counted = pam::type_allocator<counted>;

TEST(Allocator, AllocateGivesDistinctAlignedBlocks) {
  std::vector<blob48*> ps;
  std::set<void*> seen;
  for (int i = 0; i < 10000; i++) {
    blob48* p = alloc48::allocate();
    ASSERT_NE(p, nullptr);
    ASSERT_EQ(reinterpret_cast<uintptr_t>(p) % alignof(blob48), 0u);
    ASSERT_TRUE(seen.insert(p).second) << "duplicate block";
    p->a = static_cast<uint64_t>(i);
    ps.push_back(p);
  }
  for (int i = 0; i < 10000; i++) ASSERT_EQ(ps[i]->a, static_cast<uint64_t>(i));
  for (auto* p : ps) alloc48::deallocate(p);
}

TEST(Allocator, UsedCountTracksNet) {
  int64_t base = alloc48::used();
  std::vector<blob48*> ps;
  for (int i = 0; i < 5000; i++) ps.push_back(alloc48::allocate());
  EXPECT_EQ(alloc48::used(), base + 5000);
  for (int i = 0; i < 2000; i++) {
    alloc48::deallocate(ps.back());
    ps.pop_back();
  }
  EXPECT_EQ(alloc48::used(), base + 3000);
  for (auto* p : ps) alloc48::deallocate(p);
  EXPECT_EQ(alloc48::used(), base);
}

TEST(Allocator, BlocksAreRecycled) {
  // Freeing then allocating should reuse storage rather than grow the pool.
  std::vector<blob48*> ps;
  for (int i = 0; i < 1000; i++) ps.push_back(alloc48::allocate());
  for (auto* p : ps) alloc48::deallocate(p);
  int64_t reserved = alloc48::reserved();
  for (int i = 0; i < 1000; i++) ps[i] = alloc48::allocate();
  EXPECT_EQ(alloc48::reserved(), reserved);
  for (auto* p : ps) alloc48::deallocate(p);
}

TEST(Allocator, CreateDestroyRunConstructors) {
  int live_before = counted::live.load();
  counted* p = alloc_counted::create(17);
  EXPECT_EQ(p->payload, 17);
  EXPECT_EQ(counted::live.load(), live_before + 1);
  alloc_counted::destroy(p);
  EXPECT_EQ(counted::live.load(), live_before);
}

TEST(Allocator, ParallelAllocFreeStress) {
  // Hammer the pool from all workers; verify no block is handed out twice
  // concurrently by writing a worker-unique stamp and re-reading it.
  const size_t rounds = 200, per_round = 500;
  int64_t base = alloc48::used();
  pam::parallel_for(0, static_cast<size_t>(pam::num_workers()) * 4, [&](size_t lane) {
    std::vector<blob48*> mine;
    mine.reserve(per_round);
    for (size_t r = 0; r < rounds; r++) {
      for (size_t i = 0; i < per_round; i++) {
        blob48* p = alloc48::allocate();
        p->a = lane;
        p->b = i;
        mine.push_back(p);
      }
      for (size_t i = 0; i < per_round; i++) {
        blob48* p = mine[i];
        ASSERT_EQ(p->a, lane);
        ASSERT_EQ(p->b, i);
        alloc48::deallocate(p);
      }
      mine.clear();
    }
  }, 1);
  EXPECT_EQ(alloc48::used(), base);
}

TEST(Allocator, IndependentPoolsPerType) {
  struct other {
    char data[24];
  };
  int64_t used48 = alloc48::used();
  auto* p = pam::type_allocator<other>::allocate();
  EXPECT_EQ(alloc48::used(), used48);  // other type's pool does not affect ours
  pam::type_allocator<other>::deallocate(p);
}

// ---------------------------------------------------------- raw_pool ----
// The runtime-sized pool behind leaf-block storage (src/alloc/leaf_pool.h).

TEST(RawPool, DistinctAlignedSlotsAndCounters) {
  static pam::raw_pool pool(200, 16);  // odd size, explicit alignment
  // The stride is rounded up so every slot in a chunk is aligned.
  EXPECT_GE(pool.slot_bytes(), 200u);
  EXPECT_EQ(pool.slot_bytes() % 16, 0u);
  int64_t base = pool.used();
  std::vector<void*> ps;
  std::set<void*> seen;
  for (int i = 0; i < 5000; i++) {
    void* p = pool.allocate();
    ASSERT_NE(p, nullptr);
    ASSERT_EQ(reinterpret_cast<uintptr_t>(p) % 16, 0u);
    ASSERT_TRUE(seen.insert(p).second) << "duplicate slot";
    ps.push_back(p);
  }
  EXPECT_EQ(pool.used(), base + 5000);
  for (void* p : ps) pool.deallocate(p);
  EXPECT_EQ(pool.used(), base);
  EXPECT_GE(pool.reserved(), 5000);
}

TEST(RawPool, SlotsAreRecycled) {
  static pam::raw_pool pool(64, 8);
  void* a = pool.allocate();
  pool.deallocate(a);
  // The thread-local cache hands the same slot straight back.
  void* b = pool.allocate();
  EXPECT_EQ(a, b);
  pool.deallocate(b);
}

TEST(RawPool, ParallelAllocFreeStress) {
  static pam::raw_pool pool(96, 8);
  int64_t base = pool.used();
  pam::parallel_for(0, 2000, [&](size_t i) {
    std::vector<void*> mine;
    for (size_t j = 0; j < 1 + i % 17; j++) mine.push_back(pool.allocate());
    for (void* p : mine) *static_cast<char*>(p) = 1;
    for (void* p : mine) pool.deallocate(p);
  }, 1);
  EXPECT_EQ(pool.used(), base);
}

// ------------------------------------------- provenance, trim, stripes --

TEST(Arena, ReservedBytesTracksChunkProvenance) {
  static pam::block_pool pool(120, 8);
  EXPECT_EQ(pool.reserved_bytes(), 0u);
  std::vector<void*> ps;
  for (int i = 0; i < 3000; i++) ps.push_back(pool.allocate());
  // Exact accounting: the byte footprint is the carved chunk slots times
  // the (alignment-rounded) stride, nothing estimated.
  EXPECT_EQ(pool.reserved_bytes(),
            static_cast<size_t>(pool.reserved()) * pool.slot_bytes());
  EXPECT_GE(pool.reserved(), 3000);
  for (void* p : ps) pool.deallocate(p);
}

TEST(Arena, TrimReleasesFullyFreeChunks) {
  static pam::block_pool pool(256, 16);
  std::vector<void*> ps;
  for (int i = 0; i < 4000; i++) ps.push_back(pool.allocate());
  size_t peak_bytes = pool.reserved_bytes();
  EXPECT_GT(peak_bytes, 0u);
  for (void* p : ps) pool.deallocate(p);
  // Everything was allocated and freed on this thread, so after the local
  // hand-back inside trim() every chunk is fully free and must go back to
  // the OS.
  size_t released = pool.trim();
  EXPECT_EQ(released, peak_bytes);
  EXPECT_EQ(pool.reserved(), 0);
  EXPECT_EQ(pool.reserved_bytes(), 0u);
  EXPECT_EQ(pool.used(), 0);
  // The pool re-carves on demand afterwards.
  void* p = pool.allocate();
  EXPECT_NE(p, nullptr);
  EXPECT_GT(pool.reserved(), 0);
  pool.deallocate(p);
}

TEST(Arena, TrimKeepsChunksWithLiveSlots) {
  static pam::block_pool pool(512, 16);
  std::vector<void*> ps;
  for (int i = 0; i < 300; i++) ps.push_back(pool.allocate());
  // Keep one slot live: every chunk holding it must survive trim, and no
  // live slot may ever be handed back.
  void* survivor = ps.back();
  ps.pop_back();
  for (void* p : ps) pool.deallocate(p);
  pool.trim();
  EXPECT_EQ(pool.used(), 1);
  EXPECT_GT(pool.reserved(), 0);
  *static_cast<char*>(survivor) = 42;  // still mapped
  EXPECT_EQ(*static_cast<char*>(survivor), 42);
  pool.deallocate(survivor);
  size_t released = pool.trim();
  EXPECT_GT(released, 0u);
  EXPECT_EQ(pool.reserved(), 0);
}

TEST(Arena, TypedFacadeExposesTrim) {
  struct trim_blob {
    uint64_t x[6];
  };
  using alloc = pam::type_allocator<trim_blob>;
  std::vector<trim_blob*> ps;
  for (int i = 0; i < 5000; i++) ps.push_back(alloc::allocate());
  // Typed pools stride exactly sizeof(T): no alignment padding is ever
  // added beyond alignof(T) (sizeof is already a multiple of it).
  EXPECT_EQ(alloc::reserved_bytes(),
            static_cast<size_t>(alloc::reserved()) * sizeof(trim_blob));
  for (auto* p : ps) alloc::deallocate(p);
  EXPECT_GT(alloc::trim(), 0u);
  EXPECT_EQ(alloc::used(), 0);
  EXPECT_EQ(alloc::reserved(), 0);
}

TEST(Arena, ForeignThreadsKeepCountsExact) {
  // Server client threads are not scheduler workers; their counter traffic
  // now spreads over hashed stripes instead of all sharing one. The
  // observable contract is that concurrent foreign alloc/free traffic sums
  // to an exact net of zero.
  static pam::block_pool pool(64, 8);
  int64_t base = pool.used();
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; t++) {
    threads.emplace_back([&] {
      for (int round = 0; round < 50; round++) {
        std::vector<void*> mine;
        for (int i = 0; i < 200; i++) mine.push_back(pool.allocate());
        for (void* p : mine) pool.deallocate(p);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(pool.used(), base);
}

// ------------------------------------------- trim_all and worker caches --

// Runs body(worker_id) once on every scheduler worker, all at the same
// time: a parallel_for with one iteration per worker whose iterations wait
// for each other, so no worker can run two of them. Forces at least 4
// workers for its duration. Returns false if the workers never all met
// (a pool that cannot steal), which the callers assert on.
template <typename F>
bool on_every_worker_at_once(const F& body) {
  int saved = pam::num_workers();
  if (saved < 4) pam::set_num_workers(4);
  const size_t p = static_cast<size_t>(pam::num_workers());
  std::atomic<size_t> arrived{0};
  std::atomic<bool> met{true};
  pam::parallel_for(0, p, [&](size_t) {
    arrived.fetch_add(1);
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (arrived.load() < p) {
      if (std::chrono::steady_clock::now() > deadline) {
        met.store(false);
        break;
      }
      std::this_thread::yield();
    }
    body(pam::worker_id());
  }, 1);
  if (saved < 4) pam::set_num_workers(saved);
  return met.load();
}

// Allocate a few chunks' worth of slots and free them all, leaving them in
// the calling thread's cache for `pool`.
void churn(pam::raw_pool& pool) {
  std::vector<void*> mine;
  for (int i = 0; i < 1500; i++) mine.push_back(pool.allocate());
  for (void* q : mine) pool.deallocate(q);
}

TEST(Arena, TrimAllReclaimsWorkerCaches) {
  ASSERT_EQ(pam::worker_id(), -1);
  pam::raw_pool pool(200, 8);
  // Every worker frees slots into its own cache; all are dead afterwards.
  ASSERT_TRUE(on_every_worker_at_once([&](int) { churn(pool); }));
  EXPECT_EQ(pool.used(), 0);
  EXPECT_GT(pool.reserved_bytes(), 0u);
  // trim() alone reaches only the calling thread's cache: the workers'
  // caches pin their chunks.
  pool.trim();
  EXPECT_GT(pool.reserved_bytes(), 0u);
  // trim_all() has every worker hand its caches back first.
  pam::block_pool::trim_all();
  EXPECT_EQ(pool.reserved_bytes(), 0u);
  EXPECT_EQ(pool.reserved(), 0);
  // The pool keeps working: the workers' emptied caches refill.
  ASSERT_TRUE(on_every_worker_at_once([&](int) { churn(pool); }));
  EXPECT_EQ(pool.used(), 0);
  pam::block_pool::trim_all();
  EXPECT_EQ(pool.reserved_bytes(), 0u);
}

using trim_store_t = pam::kv_store<pam::aug_map<pam::sum_entry<uint64_t, uint64_t>>>;

TEST(Arena, TrimMemoryFromASpawnedWorkerReturns) {
  // A call from inside a parallel task: the other workers are still in
  // their tasks or helping a join when it is made, and must answer from
  // there. Every worker churns and every one is reached (the calling
  // worker inline), so everything is released.
  pam::raw_pool pool(136, 8);
  std::atomic<int> calls{0};
  ASSERT_TRUE(on_every_worker_at_once([&](int id) {
    churn(pool);
    if (id == 1) {
      trim_store_t::trim_memory();
      calls.fetch_add(1);
    }
  }));
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(pool.used(), 0);
  EXPECT_EQ(pool.reserved_bytes(), 0u);
}

TEST(Arena, TrimMemoryFromAForeignThreadReturns) {
  pam::raw_pool pool(152, 8);
  ASSERT_TRUE(on_every_worker_at_once([&](int) { churn(pool); }));
  size_t held = pool.reserved_bytes();
  EXPECT_GT(held, 0u);
  size_t released = 0;
  std::thread t([&] { released = trim_store_t::trim_memory(); });
  t.join();
  EXPECT_GE(released, held);
  EXPECT_EQ(pool.reserved_bytes(), 0u);
}

TEST(Arena, TrimCannotDrainAnotherUserThreadsCache) {
  // A user thread runs no scheduler loop, so its cache is reachable only
  // by that thread: slots the main thread freed stay reserved through a
  // trim from another thread, until main trims itself (or exits).
  ASSERT_EQ(pam::worker_id(), -1);
  pam::raw_pool pool(264, 8);
  churn(pool);
  EXPECT_EQ(pool.used(), 0);
  std::thread t([] { pam::block_pool::trim_all(); });
  t.join();
  EXPECT_GT(pool.reserved_bytes(), 0u);
  pam::block_pool::trim_all();
  EXPECT_EQ(pool.reserved_bytes(), 0u);
}

TEST(Arena, MemoryStatsReportUsedBytes) {
  pam::raw_pool pool(72, 8);
  size_t before = trim_store_t::memory().used_bytes;
  std::vector<void*> ps;
  for (int i = 0; i < 100; i++) ps.push_back(pool.allocate());
  auto mem = trim_store_t::memory();
  EXPECT_EQ(mem.used_bytes - before, 100 * pool.slot_bytes());
  EXPECT_GE(mem.reserved_bytes, mem.used_bytes);
  for (void* q : ps) pool.deallocate(q);
  EXPECT_EQ(trim_store_t::memory().used_bytes, before);
}

// Every byte of a scratch buffer is writable and T is aligned; on Linux
// outside ASan builds a buffer of at least one huge page is huge-page
// aligned. Run under ASan/LSan, the std::allocator path must free cleanly.
template <typename T>
void expect_scratch_buffer(size_t n) {
  pam::scratch_buffer<T> b(n);
  ASSERT_EQ(b.size(), n);
  size_t bytes = n * sizeof(T);
  auto addr = reinterpret_cast<uintptr_t>(b.data());
  EXPECT_EQ(addr % alignof(T), 0u) << bytes;
  if (pam::alloc_internal::kHugeMappings && bytes >= pam::kHugePageBytes) {
    EXPECT_EQ(addr % pam::kHugePageBytes, 0u) << bytes;
  }
  if (bytes == 0) return;
  auto* p = reinterpret_cast<unsigned char*>(b.data());
  for (size_t i = 0; i < bytes; i++) p[i] = static_cast<unsigned char>(i * 131 + 7);
  for (size_t i = 0; i < bytes; i++) {
    ASSERT_EQ(p[i], static_cast<unsigned char>(i * 131 + 7)) << i << " of " << bytes;
  }
}

TEST(ScratchBuffer, SizesAroundTheHugePageThreshold) {
  const size_t huge = pam::kHugePageBytes;
  for (size_t bytes : {size_t{0}, size_t{1}, huge - 1, huge, huge + 1, 32 * huge}) {
    expect_scratch_buffer<unsigned char>(bytes);
    expect_scratch_buffer<std::pair<uint64_t, uint64_t>>((bytes + 15) / 16);
  }
}

TEST(ScratchBuffer, MovesTransferOwnership) {
  pam::scratch_buffer<uint64_t> a(pam::kHugePageBytes / 8);
  uint64_t* p = a.data();
  p[0] = 42;
  pam::scratch_buffer<uint64_t> b(std::move(a));
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(b.data(), p);
  pam::scratch_buffer<uint64_t> c(3);
  c = std::move(b);  // frees c's own slots
  EXPECT_EQ(c.data(), p);
  EXPECT_EQ(c.data()[0], 42u);
  pam::scratch_buffer<uint64_t> empty;
  EXPECT_EQ(empty.data(), nullptr);
  EXPECT_EQ(empty.size(), 0u);
}

}  // namespace
