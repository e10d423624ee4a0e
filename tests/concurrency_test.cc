// Concurrent read-path tests: with the index in its immutable (bulk-loaded)
// state, RangeQuery/KnnQuery/Raf::Get/BufferPool::Read from many threads
// must return byte-identical results to the serial run, and the atomic
// IoStats totals must match the serial totals on a cold (capacity-0) cache.
// tools/check.sh also runs this binary under ThreadSanitizer
// (-DSPB_SANITIZE=thread) and AddressSanitizer (-DSPB_SANITIZE=address).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include <chrono>

#include "common/rng.h"
#include "core/spb_tree.h"
#include "data/datasets.h"
#include "exec/query_executor.h"
#include "storage/buffer_pool.h"
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
  EXPECT_LE(pool.stats().physical_reads, pool.stats().page_reads);
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
    // Disk-backed, so concurrent misses run real file reads.
    std::filesystem::remove_all(dir_);
    opts.storage_dir = dir_;
    ASSERT_TRUE(
        SpbTree::Build(ds_.objects, ds_.metric.get(), opts, &tree_).ok());
    const double d_plus = ds_.metric->max_distance();
    radius_ = 0.08 * d_plus;
    for (size_t i = 0; i < 24; ++i) queries_.push_back(ds_.objects[i]);
  }

  void TearDown() override {
    tree_.reset();
    std::filesystem::remove_all(dir_);
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

  const std::string dir_ =
      (std::filesystem::temp_directory_path() / "spb_concurrency_test")
          .string();
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

// ---------------------------------------------------------- QueryExecutor

std::vector<Request> RangeOps(const std::vector<Blob>& queries, double r) {
  std::vector<Request> ops;
  for (const Blob& q : queries) ops.push_back(Request::Range(q, r));
  return ops;
}

// Submit sorts each range slot, as SerialRange does.
std::vector<std::vector<ObjectId>> RangeIds(const BatchResult& batch) {
  std::vector<std::vector<ObjectId>> ids;
  for (const OpResult& r : batch.results) ids.push_back(r.range_ids);
  return ids;
}

TEST_F(SpbConcurrencyTest, ExecutorRangeBatchMatchesSerial) {
  std::vector<std::vector<ObjectId>> serial;
  const QueryStats serial_totals = SerialRange(&serial);

  QueryExecutor exec(tree_.get(), 4);
  EXPECT_EQ(exec.num_threads(), 4u);
  tree_->ResetCounters();
  const BatchResult batch = exec.Submit(RangeOps(queries_, radius_));
  ASSERT_TRUE(batch.first_error.ok());

  EXPECT_EQ(RangeIds(batch), serial);
  const BatchStats& stats = batch.stats;
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
  std::vector<Request> ops;
  for (const Blob& q : queries_) ops.push_back(Request::Knn(q, kK));
  const BatchResult batch = exec.Submit(ops);
  ASSERT_TRUE(batch.first_error.ok());
  std::vector<std::vector<Neighbor>> got;
  for (const OpResult& r : batch.results) got.push_back(r.neighbors);
  EXPECT_EQ(got, serial);
  for (const auto& nn : got) EXPECT_EQ(nn.size(), kK);
}

TEST_F(SpbConcurrencyTest, ExecutorRunsConsecutiveAndEmptyBatches) {
  QueryExecutor exec(tree_.get(), 3);
  const BatchResult empty = exec.Submit(std::vector<Request>{});
  ASSERT_TRUE(empty.first_error.ok());
  EXPECT_TRUE(empty.results.empty());
  EXPECT_EQ(empty.stats.num_queries, 0u);
  const std::vector<Request> ops = RangeOps(queries_, radius_);
  const BatchResult a = exec.Submit(ops);
  const BatchResult b = exec.Submit(ops);
  ASSERT_TRUE(a.first_error.ok());
  ASSERT_TRUE(b.first_error.ok());
  EXPECT_EQ(RangeIds(a), RangeIds(b));
}

// Regression: with far more workers than queries, most workers sleep through
// a batch entirely and can wake after Submit has retired it; they must
// re-wait instead of dereferencing a null batch pointer.
TEST_F(SpbConcurrencyTest, ExecutorSurvivesMoreThreadsThanQueries) {
  QueryExecutor exec(tree_.get(), 8);
  const std::vector<Request> one{Request::Range(queries_[0], radius_)};
  std::vector<ObjectId> serial;
  ASSERT_TRUE(tree_->RangeQuery(queries_[0], radius_, &serial).ok());
  std::sort(serial.begin(), serial.end());
  for (int round = 0; round < 50; ++round) {
    const BatchResult got = exec.Submit(one);
    ASSERT_TRUE(got.first_error.ok());
    ASSERT_EQ(got.results[0].range_ids, serial);
  }
}

}  // namespace
}  // namespace spb
