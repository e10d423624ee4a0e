// Concurrent read-path tests: with the index in its immutable (bulk-loaded)
// state, RangeQuery/KnnQuery/Raf::Get/BufferPool::Read from many threads
// must return byte-identical results to the serial run, and the atomic
// IoStats totals must match the serial totals on a cold (capacity-0) cache.
// tools/check.sh also runs this binary under ThreadSanitizer
// (-DSPB_SANITIZE=thread) and AddressSanitizer (-DSPB_SANITIZE=address).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include <chrono>

#include "common/rng.h"
#include "core/spb_tree.h"
#include "data/datasets.h"
#include "exec/query_executor.h"
#include "storage/buffer_pool.h"
#include "storage/io_engine.h"
#include "storage/page_file.h"
#include "storage/raf.h"

namespace spb {
namespace {

constexpr size_t kThreads = 8;

// ------------------------------------------------------------- BufferPool

TEST(ConcurrencyTest, BufferPoolConcurrentReadsSeeConsistentPages) {
  auto file = PageFile::CreateInMemory();
  constexpr size_t kPages = 64;
  for (size_t i = 0; i < kPages; ++i) {
    PageId id;
    ASSERT_TRUE(file->Allocate(&id).ok());
    Page p;
    // Every byte of page i holds i, so torn reads are detectable.
    for (size_t b = 0; b < kPageSize; ++b) p.bytes()[b] = uint8_t(i);
    ASSERT_TRUE(file->Write(id, p).ok());
  }

  BufferPool pool(file.get(), 48);
  EXPECT_GT(pool.num_shards(), 1u) << "capacity 48 should stripe the LRU";
  constexpr size_t kReadsPerThread = 2000;
  std::atomic<size_t> torn{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      Page p;
      for (size_t i = 0; i < kReadsPerThread; ++i) {
        const PageId id = PageId(rng.Uniform(kPages));
        ASSERT_TRUE(pool.Read(id, &p).ok());
        for (size_t b = 0; b < kPageSize; ++b) {
          if (p.bytes()[b] != uint8_t(id)) {
            torn.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(torn.load(), 0u);
  // Every read was either a hit or a miss; the atomic counters lost nothing.
  EXPECT_EQ(pool.stats().page_reads + pool.stats().cache_hits,
            kThreads * kReadsPerThread);
}

TEST(ConcurrencyTest, BufferPoolZeroCapacityCountsEveryConcurrentRead) {
  auto file = PageFile::CreateInMemory();
  PageId id;
  ASSERT_TRUE(file->Allocate(&id).ok());
  BufferPool pool(file.get(), 0);
  constexpr size_t kReadsPerThread = 500;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      Page p;
      for (size_t i = 0; i < kReadsPerThread; ++i) {
        ASSERT_TRUE(pool.Read(0, &p).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  // With no cache, every read is a page access — deterministic even under
  // maximal contention.
  EXPECT_EQ(pool.stats().page_reads, kThreads * kReadsPerThread);
  EXPECT_EQ(pool.stats().cache_hits, 0u);
}

// Readers pin memory-file pages through the pool (hits, and misses that
// cache the file's own frame) while one writer rewrites the same page ids
// through Write and AppendSpan. Every version of page i holds one byte
// value throughout, so a pin on a frame the writer changed in place would
// show a torn page; the writer swaps frames instead. Run under TSan and
// ASan by tools/check.sh.
TEST(ConcurrencyTest, PinnedMemoryFramesSurviveConcurrentRewrites) {
  constexpr size_t kPages = 64;
  constexpr int kRounds = 40;
  auto version = [](size_t page, int round) {
    Page p;
    p.data.fill(uint8_t(page * 4 + size_t(round) % 4));
    return p;
  };
  auto file = PageFile::CreateInMemory();
  for (size_t i = 0; i < kPages; ++i) {
    PageId id;
    ASSERT_TRUE(file->Allocate(&id).ok());
    ASSERT_TRUE(file->Write(id, version(i, 0)).ok());
  }
  BufferPool pool(file.get(), 48);  // smaller than the file: misses too
  std::atomic<bool> done{false};
  std::atomic<size_t> reads{0};
  std::atomic<size_t> bad{0};
  std::vector<std::thread> readers;
  for (size_t t = 0; t + 1 < kThreads; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(300 + t);
      while (!done.load(std::memory_order_relaxed)) {
        reads.fetch_add(1, std::memory_order_relaxed);
        const PageId id = PageId(rng.Uniform(kPages));
        BufferPool::PagePin pin;
        if (!pool.ReadPinned(id, &pin).ok()) {
          bad.fetch_add(1);
          continue;
        }
        const uint8_t first = pin->bytes()[0];
        if (first / 4 != id) bad.fetch_add(1);
        std::this_thread::yield();  // let the writer swap this frame
        for (size_t b = 0; b < kPageSize; ++b) {
          if (pin->bytes()[b] != first) {
            bad.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  // Keep rewriting until the readers have overlapped the writer for a while.
  // Failures are counted, not asserted, so the readers are always joined.
  int round = 1;
  for (; round <= kRounds || reads.load() < 20000; ++round) {
    if (round % 2 == 0) {
      std::vector<Page> span;
      for (size_t i = 0; i < kPages; ++i) span.push_back(version(i, round));
      if (!pool.AppendSpan(0, kPages, span.data()).ok()) bad.fetch_add(1);
    } else {
      for (size_t i = 0; i < kPages; ++i) {
        if (!pool.Write(PageId(i), version(i, round)).ok()) bad.fetch_add(1);
      }
    }
  }
  done.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(pool.stats().page_writes, size_t(round - 1) * kPages);
}

// Wraps a PageFile, counting Read() calls and stalling each one so that
// concurrent misses of the same page provably overlap in time.
class SlowCountingPageFile : public PageFile {
 public:
  explicit SlowCountingPageFile(std::unique_ptr<PageFile> base)
      : base_(std::move(base)) {}
  PageId num_pages() const override { return base_->num_pages(); }
  Status Allocate(PageId* id) override { return base_->Allocate(id); }
  Status Read(PageId id, Page* out) override {
    reads.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return base_->Read(id, out);
  }
  Status Write(PageId id, const Page& page) override {
    return base_->Write(id, page);
  }
  Status Sync() override { return base_->Sync(); }

  std::atomic<uint64_t> reads{0};

 private:
  std::unique_ptr<PageFile> base_;
};

// The single-flight guarantee: N threads missing the same page concurrently
// produce exactly ONE file read and one physical_read — the leader fetches,
// the rest join the pending entry and share its bytes. (Threads that arrive
// after the leader finished hit the cache instead; either way the file sees
// one read.)
TEST(ConcurrencyTest, ConcurrentMissesOfOnePageCollapseToOneFileRead) {
  auto base = PageFile::CreateInMemory();
  PageId id;
  ASSERT_TRUE(base->Allocate(&id).ok());
  Page w;
  for (size_t b = 0; b < kPageSize; ++b) w.bytes()[b] = uint8_t(b * 11);
  ASSERT_TRUE(base->Write(id, w).ok());
  SlowCountingPageFile file(std::move(base));

  BufferPool pool(&file, 8);
  constexpr size_t kReaders = 4;
  std::atomic<size_t> bad_bytes{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      Page p;
      ASSERT_TRUE(pool.Read(0, &p).ok());
      if (memcmp(p.bytes(), w.bytes(), kPageSize) != 0) bad_bytes.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(bad_bytes.load(), 0u);
  EXPECT_EQ(file.reads.load(), 1u);
  EXPECT_EQ(pool.stats().physical_reads, 1u);
  // Every logical read is accounted — as the leader's miss, a waiter's
  // shared read, or a late arrival's cache hit.
  EXPECT_EQ(pool.stats().page_reads + pool.stats().cache_hits, kReaders);
}

// Prefetch-then-evict under contention: many sessions stage the same pages
// into a 2-page pool, so claimed pages are evicted almost immediately while
// other threads' background span reads are still landing. Run under TSan by
// tools/check.sh; also checks bytes and the no-lost-counts invariant.
TEST(ConcurrencyTest, ReadaheadSessionsShareTinyPoolWithoutRaces) {
  constexpr size_t kPages = 32;
  auto file = PageFile::CreateInMemory();
  for (size_t i = 0; i < kPages; ++i) {
    PageId id;
    ASSERT_TRUE(file->Allocate(&id).ok());
    Page p;
    for (size_t b = 0; b < kPageSize; ++b) p.bytes()[b] = uint8_t(i + b);
    ASSERT_TRUE(file->Write(id, p).ok());
  }
  BufferPool pool(file.get(), 2);
  PageFetcher fetcher(2);  // real background I/O threads
  std::atomic<size_t> bad_bytes{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(90 + t);
      uint8_t got[64];
      for (int round = 0; round < 20; ++round) {
        Readahead ra(&pool, &fetcher, ReadaheadOptions{8});
        std::vector<PageId> pages;
        for (size_t i = 0; i < kPages; ++i) pages.push_back(PageId(i));
        ra.Schedule(pages);
        for (size_t i = 0; i < kPages; ++i) {
          const size_t off = rng.Uniform(kPageSize - sizeof(got));
          ASSERT_TRUE(ra.ReadInto(PageId(i), off, sizeof(got), got).ok());
          for (size_t b = 0; b < sizeof(got); ++b) {
            if (got[b] != uint8_t(i + off + b)) {
              bad_bytes.fetch_add(1);
              break;
            }
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad_bytes.load(), 0u);
  // Every logical read was either a miss (demand or staged claim) or a hit.
  EXPECT_EQ(pool.stats().page_reads + pool.stats().cache_hits,
            kThreads * 20 * kPages);
  EXPECT_LE(pool.stats().physical_reads, pool.stats().page_reads);
}

// -------------------------------------------------------------------- RAF

TEST(ConcurrencyTest, RafConcurrentGetsReturnIdenticalRecords) {
  std::unique_ptr<Raf> raf;
  ASSERT_TRUE(Raf::Create(PageFile::CreateInMemory(), 32, &raf).ok());
  Rng rng(7);
  std::vector<uint64_t> offsets;
  std::vector<Blob> expected;
  for (size_t i = 0; i < 500; ++i) {
    Blob obj(8 + rng.Uniform(200));
    for (auto& b : obj) b = uint8_t(rng.Uniform(256));
    uint64_t off;
    ASSERT_TRUE(raf->Append(ObjectId(i), obj, &off).ok());
    offsets.push_back(off);
    expected.push_back(std::move(obj));
  }
  ASSERT_TRUE(raf->Sync().ok());  // quiescent: tail clean, reads are safe

  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng trng(40 + t);
      ObjectId id;
      Blob obj;
      for (size_t i = 0; i < 1000; ++i) {
        const size_t pick = trng.Uniform(offsets.size());
        ASSERT_TRUE(raf->Get(offsets[pick], &id, &obj).ok());
        if (id != ObjectId(pick) || obj != expected[pick]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

// ------------------------------------------------- SPB-tree query fan-out

class SpbConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = MakeDatasetByName("synthetic", 2000, 4242);
    SpbTreeOptions opts;
    // Capacity-0 caches make cold-cache PA deterministic per query, so the
    // summed concurrent totals must equal the serial totals exactly.
    opts.btree_cache_pages = 0;
    opts.raf_cache_pages = 0;
    ASSERT_TRUE(
        SpbTree::Build(ds_.objects, ds_.metric.get(), opts, &tree_).ok());
    const double d_plus = ds_.metric->max_distance();
    radius_ = 0.08 * d_plus;
    for (size_t i = 0; i < 24; ++i) queries_.push_back(ds_.objects[i]);
  }

  QueryStats SerialRange(std::vector<std::vector<ObjectId>>* results) {
    tree_->ResetCounters();
    results->assign(queries_.size(), {});
    for (size_t i = 0; i < queries_.size(); ++i) {
      EXPECT_TRUE(
          tree_->RangeQuery(queries_[i], radius_, &(*results)[i]).ok());
      std::sort((*results)[i].begin(), (*results)[i].end());
    }
    return tree_->cumulative_stats();
  }

  QueryStats SerialKnn(size_t k, std::vector<std::vector<Neighbor>>* results) {
    tree_->ResetCounters();
    results->assign(queries_.size(), {});
    for (size_t i = 0; i < queries_.size(); ++i) {
      EXPECT_TRUE(tree_->KnnQuery(queries_[i], k, &(*results)[i]).ok());
    }
    return tree_->cumulative_stats();
  }

  Dataset ds_;
  std::unique_ptr<SpbTree> tree_;
  std::vector<Blob> queries_;
  double radius_ = 0.0;
};

TEST_F(SpbConcurrencyTest, ConcurrentRangeMatchesSerialResultsAndStats) {
  std::vector<std::vector<ObjectId>> serial;
  const QueryStats serial_totals = SerialRange(&serial);

  tree_->ResetCounters();
  std::vector<std::vector<ObjectId>> concurrent(queries_.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= queries_.size()) break;
        ASSERT_TRUE(
            tree_->RangeQuery(queries_[i], radius_, &concurrent[i]).ok());
        std::sort(concurrent[i].begin(), concurrent[i].end());
      }
    });
  }
  for (auto& t : threads) t.join();
  const QueryStats concurrent_totals = tree_->cumulative_stats();

  EXPECT_EQ(concurrent, serial);
  EXPECT_EQ(concurrent_totals.page_accesses, serial_totals.page_accesses);
  EXPECT_EQ(concurrent_totals.distance_computations,
            serial_totals.distance_computations);
}

TEST_F(SpbConcurrencyTest, ConcurrentKnnMatchesSerialResultsAndStats) {
  constexpr size_t kK = 10;
  std::vector<std::vector<Neighbor>> serial;
  const QueryStats serial_totals = SerialKnn(kK, &serial);

  tree_->ResetCounters();
  std::vector<std::vector<Neighbor>> concurrent(queries_.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= queries_.size()) break;
        ASSERT_TRUE(tree_->KnnQuery(queries_[i], kK, &concurrent[i]).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  const QueryStats concurrent_totals = tree_->cumulative_stats();

  EXPECT_EQ(concurrent, serial);
  EXPECT_EQ(concurrent_totals.page_accesses, serial_totals.page_accesses);
  EXPECT_EQ(concurrent_totals.distance_computations,
            serial_totals.distance_computations);
}

TEST_F(SpbConcurrencyTest, ConcurrentQueriesWithWarmSharedCache) {
  // With real cache capacities the PA totals are interleaving-dependent, but
  // the results must still be identical. This is the configuration that
  // actually exercises the striped LRU under contention.
  TuningOptions tn = tree_->tuning();
  tn.btree_cache_pages = 128;
  tn.raf_cache_pages = 128;
  ASSERT_TRUE(tree_->ApplyTuning(tn).ok());

  std::vector<std::vector<ObjectId>> serial;
  SerialRange(&serial);
  std::vector<std::vector<ObjectId>> concurrent(queries_.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= queries_.size()) break;
        ASSERT_TRUE(
            tree_->RangeQuery(queries_[i], radius_, &concurrent[i]).ok());
        std::sort(concurrent[i].begin(), concurrent[i].end());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(concurrent, serial);
}

// The I/O engine's core contract at the query level: prefetch on vs off
// changes neither results nor logical PA/compdists — serially or with
// concurrent queries each owning a private readahead session. Capacity-0
// caches make the totals exactly deterministic.
TEST_F(SpbConcurrencyTest, PrefetchOnOffIdenticalResultsAndLogicalPa) {
  constexpr size_t kK = 10;
  TuningOptions tn = tree_->tuning();
  tn.enable_prefetch = false;
  ASSERT_TRUE(tree_->ApplyTuning(tn).ok());
  std::vector<std::vector<ObjectId>> range_off;
  const QueryStats range_off_totals = SerialRange(&range_off);
  std::vector<std::vector<Neighbor>> knn_off;
  const QueryStats knn_off_totals = SerialKnn(kK, &knn_off);

  tn.enable_prefetch = true;
  ASSERT_TRUE(tree_->ApplyTuning(tn).ok());
  std::vector<std::vector<ObjectId>> range_on;
  const QueryStats range_on_totals = SerialRange(&range_on);
  std::vector<std::vector<Neighbor>> knn_on;
  const QueryStats knn_on_totals = SerialKnn(kK, &knn_on);

  EXPECT_EQ(range_on, range_off);
  EXPECT_EQ(knn_on, knn_off);
  EXPECT_EQ(range_on_totals.page_accesses, range_off_totals.page_accesses);
  EXPECT_EQ(knn_on_totals.page_accesses, knn_off_totals.page_accesses);
  EXPECT_EQ(range_on_totals.distance_computations,
            range_off_totals.distance_computations);
  EXPECT_EQ(knn_on_totals.distance_computations,
            knn_off_totals.distance_computations);

  // Concurrent, prefetch on: same results, same deterministic totals.
  tree_->ResetCounters();
  std::vector<std::vector<ObjectId>> concurrent(queries_.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= queries_.size()) break;
        ASSERT_TRUE(
            tree_->RangeQuery(queries_[i], radius_, &concurrent[i]).ok());
        std::sort(concurrent[i].begin(), concurrent[i].end());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(concurrent, range_off);
  EXPECT_EQ(tree_->cumulative_stats().page_accesses,
            range_off_totals.page_accesses);
}

// ---------------------------------------------------------- QueryExecutor

TEST_F(SpbConcurrencyTest, ExecutorRangeBatchMatchesSerial) {
  std::vector<std::vector<ObjectId>> serial;
  const QueryStats serial_totals = SerialRange(&serial);

  QueryExecutor exec(tree_.get(), 4);
  EXPECT_EQ(exec.num_threads(), 4u);
  tree_->ResetCounters();
  std::vector<std::vector<ObjectId>> batch;
  BatchStats stats;
  ASSERT_TRUE(exec.RunRangeBatch(queries_, radius_, &batch, &stats).ok());

  EXPECT_EQ(batch, serial);
  EXPECT_EQ(stats.num_queries, queries_.size());
  EXPECT_EQ(stats.totals.page_accesses, serial_totals.page_accesses);
  EXPECT_EQ(stats.totals.distance_computations,
            serial_totals.distance_computations);
  EXPECT_GT(stats.qps, 0.0);
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_LE(stats.p50_seconds, stats.p99_seconds);
}

TEST_F(SpbConcurrencyTest, ExecutorKnnBatchMatchesSerial) {
  constexpr size_t kK = 5;
  std::vector<std::vector<Neighbor>> serial;
  SerialKnn(kK, &serial);

  QueryExecutor exec(tree_.get(), kThreads);
  std::vector<std::vector<Neighbor>> batch;
  BatchStats stats;
  ASSERT_TRUE(exec.RunKnnBatch(queries_, kK, &batch, &stats).ok());
  EXPECT_EQ(batch, serial);
  for (const auto& nn : batch) EXPECT_EQ(nn.size(), kK);
}

TEST_F(SpbConcurrencyTest, ExecutorRunsConsecutiveAndEmptyBatches) {
  QueryExecutor exec(tree_.get(), 3);
  std::vector<std::vector<ObjectId>> a, b;
  BatchStats stats;
  ASSERT_TRUE(
      exec.RunRangeBatch(std::vector<Blob>{}, radius_, &a, &stats).ok());
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(stats.num_queries, 0u);
  ASSERT_TRUE(exec.RunRangeBatch(queries_, radius_, &a, nullptr).ok());
  ASSERT_TRUE(exec.RunRangeBatch(queries_, radius_, &b, &stats).ok());
  EXPECT_EQ(a, b);
}

// Regression: with far more workers than queries, most workers sleep through
// a batch entirely and can wake after RunBatch has reset the current batch;
// they must re-wait instead of dereferencing a null batch pointer.
TEST_F(SpbConcurrencyTest, ExecutorSurvivesMoreThreadsThanQueries) {
  QueryExecutor exec(tree_.get(), 8);
  std::vector<Blob> one(queries_.begin(), queries_.begin() + 1);
  std::vector<std::vector<ObjectId>> serial, got;
  ASSERT_TRUE(tree_->RangeQuery(one[0], radius_, &serial.emplace_back()).ok());
  std::sort(serial[0].begin(), serial[0].end());
  for (int round = 0; round < 50; ++round) {
    ASSERT_TRUE(exec.RunRangeBatch(one, radius_, &got, nullptr).ok());
    ASSERT_EQ(got, serial);
  }
}

}  // namespace
}  // namespace spb
