// Update-engine tests: epoch-based snapshot publication (exec/snapshot.h)
// and the SPB-tree's concurrent Insert/Delete/BatchInsert paths built on it.
//
// The load-bearing property is *snapshot isolation*: a query pins one
// published index version for its whole traversal, so queries running
// concurrently with writers return exactly what some quiesced version would
// — never a torn in-between state. The interleaved tests check that
// directly: with inserts provably outside every query ball, under-load
// results must be byte-identical to the quiesced baseline; with in-ball
// inserts, every observed result set must be sandwiched between the initial
// and final quiesced sets. tools/check.sh also runs this binary under
// ThreadSanitizer and AddressSanitizer (--writes stage).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/spb_tree.h"
#include "data/datasets.h"
#include "exec/query_executor.h"
#include "exec/snapshot.h"
#include "vptree/vp_tree.h"

namespace spb {
namespace {

// --------------------------------------------------------- SnapshotManager

TEST(SnapshotManagerTest, AcquireSeesPublishedVersion) {
  IndexVersion v0;
  v0.root = 7;
  v0.num_objects = 100;
  SnapshotManager mgr(v0, nullptr);

  const Snapshot s0 = mgr.Acquire();
  ASSERT_TRUE(s0.valid());
  EXPECT_EQ(s0.version().root, 7u);
  EXPECT_EQ(s0.version().num_objects, 100u);

  IndexVersion v1 = v0;
  v1.root = 9;
  v1.num_objects = 101;
  mgr.Publish(v1, {});

  // The old snapshot keeps its version; new acquires see the new one.
  EXPECT_EQ(s0.version().root, 7u);
  EXPECT_EQ(mgr.Acquire().version().root, 9u);
  EXPECT_GT(mgr.Acquire().epoch(), s0.epoch());
}

TEST(SnapshotManagerTest, RetireWaitsForPinningSnapshot) {
  std::vector<PageId> retired;
  IndexVersion v0;
  v0.root = 1;
  SnapshotManager mgr(v0, [&](std::vector<PageId> pages) {
    retired.insert(retired.end(), pages.begin(), pages.end());
  });

  Snapshot pin = mgr.Acquire();  // pins epoch 0
  IndexVersion v1 = v0;
  v1.root = 2;
  mgr.Publish(v1, {10, 11});

  // Pages 10/11 belong to the superseded version, which `pin` still reads.
  EXPECT_TRUE(retired.empty());
  EXPECT_EQ(mgr.pending_retirements(), 1u);
  EXPECT_EQ(mgr.live_epochs(), 2u);  // pinned epoch 0 + current epoch 1

  pin = Snapshot();  // drop the pin: epoch 0 is now reclaimable
  // PR 8: Release is a pure fetch_sub (mutex-free fast path) — the drain
  // and the retire callback run on the next writer/accessor pass, not on
  // the reader's release. pending_retirements() is such a drain point.
  EXPECT_EQ(mgr.pending_retirements(), 0u);
  EXPECT_EQ(retired, (std::vector<PageId>{10, 11}));
  EXPECT_EQ(mgr.live_epochs(), 1u);
}

TEST(SnapshotManagerTest, UnpinnedSupersededPagesRetireImmediately) {
  std::vector<PageId> retired;
  IndexVersion v0;
  SnapshotManager mgr(v0, [&](std::vector<PageId> pages) {
    retired.insert(retired.end(), pages.begin(), pages.end());
  });

  IndexVersion v1;
  v1.root = 3;
  mgr.Publish(v1, {20});
  // No reader pinned the superseded epoch; the publish itself drops the
  // manager's own pin of it, so the pages retire right away.
  EXPECT_EQ(retired, (std::vector<PageId>{20}));
  EXPECT_EQ(mgr.pending_retirements(), 0u);
}

TEST(SnapshotManagerTest, RetirementsDrainInEpochOrder) {
  std::vector<PageId> retired;
  IndexVersion v;
  SnapshotManager mgr(v, [&](std::vector<PageId> pages) {
    retired.insert(retired.end(), pages.begin(), pages.end());
  });

  Snapshot pin = mgr.Acquire();
  IndexVersion v1 = v;
  v1.root = 1;
  mgr.Publish(v1, {30});
  IndexVersion v2 = v;
  v2.root = 2;
  mgr.Publish(v2, {31});
  // Both entries wait on the epoch-0 pin (30 directly; 31 because the
  // queue drains in order behind it).
  EXPECT_TRUE(retired.empty());
  EXPECT_EQ(mgr.pending_retirements(), 2u);

  pin = Snapshot();
  // Drain on the accessor pass (see RetireWaitsForPinningSnapshot): both
  // entries fire in epoch order once the pin is gone.
  EXPECT_EQ(mgr.pending_retirements(), 0u);
  EXPECT_EQ(retired, (std::vector<PageId>{30, 31}));
}

// ----------------------------------------------------- SpbTree + snapshots

TEST(SpbSnapshotTest, EpochDrainReclaimsSupersededPages) {
  Dataset ds = MakeSynthetic(600, 41);
  SpbTreeOptions opts;
  std::unique_ptr<SpbTree> tree;
  ASSERT_TRUE(SpbTree::Build(ds.objects, ds.metric.get(), opts, &tree).ok());
  ASSERT_EQ(tree->snapshots().live_epochs(), 1u);

  Snapshot pin = tree->AcquireSnapshot();
  const uint64_t objects_at_pin = pin.version().num_objects;

  ASSERT_TRUE(tree->Insert(ds.objects[0], ObjectId(600)).ok());
  // The COW insert superseded the root-to-leaf path; those pages wait on
  // the pinned epoch.
  EXPECT_GT(tree->snapshots().pending_retirements(), 0u);
  // The pinned snapshot still reads the pre-insert version.
  EXPECT_EQ(pin.version().num_objects, objects_at_pin);
  EXPECT_EQ(tree->AcquireSnapshot().version().num_objects,
            objects_at_pin + 1);

  pin = Snapshot();  // drain the epoch: superseded pages are recycled
  EXPECT_EQ(tree->snapshots().pending_retirements(), 0u);
  EXPECT_GT(tree->btree().free_pages(), 0u);
  EXPECT_TRUE(tree->CheckIntegrity().ok());
}

// ------------------------------------------------------ interleaved updates

// Fixture: clustered synthetic vectors (centers well inside [0,1]^20) plus
// "far" objects near the zero corner, provably outside every query ball.
class SpbInterleavedTest : public ::testing::Test {
 protected:
  static constexpr double kRadius = 0.3;
  static constexpr size_t kQueries = 24;

  void SetUp() override {
    ds_ = MakeSynthetic(1200, 17);
    SpbTreeOptions opts;
    ASSERT_TRUE(
        SpbTree::Build(ds_.objects, ds_.metric.get(), opts, &tree_).ok());

    Rng rng(99);
    for (size_t i = 0; i < kQueries; ++i) {
      queries_.push_back(ds_.objects[rng.Uniform(ds_.objects.size())]);
    }
    // Far inserts: tiny distinct vectors near the zero corner. Guard that
    // each one is strictly outside every query ball — that is what makes
    // "under-load results == quiesced results" an exact requirement rather
    // than a probabilistic one.
    for (size_t i = 0; i < 64; ++i) {
      std::vector<float> v(20, 0.0f);
      for (size_t j = 0; j < 6; ++j) {
        v[j] = ((i >> j) & 1) ? 0.02f : 0.0f;
      }
      v[19] = float(i) * 1e-4f;
      Blob far(reinterpret_cast<const uint8_t*>(v.data()),
               reinterpret_cast<const uint8_t*>(v.data()) +
                   v.size() * sizeof(float));
      for (const Blob& q : queries_) {
        ASSERT_GT(ds_.metric->Distance(q, far), kRadius + 0.05);
      }
      far_.push_back(std::move(far));
    }
  }

  std::vector<std::set<ObjectId>> QuiescedRange() {
    std::vector<std::set<ObjectId>> out(queries_.size());
    for (size_t i = 0; i < queries_.size(); ++i) {
      std::vector<ObjectId> ids;
      EXPECT_TRUE(tree_->RangeQuery(queries_[i], kRadius, &ids).ok());
      out[i] = std::set<ObjectId>(ids.begin(), ids.end());
    }
    return out;
  }

  void TearDown() override {
    tree_.reset();
    std::filesystem::remove_all(dir_);
  }

  // Four readers loop over the query set while one writer inserts every
  // far object; each reader's results must equal the quiesced run.
  void CheckFarInsertsLeaveConcurrentQueriesUnchanged() {
    const std::vector<std::set<ObjectId>> want = QuiescedRange();

    constexpr size_t kReaders = 4;
    constexpr size_t kMinChecksPerReader = 50;
    std::atomic<bool> writer_done{false};
    std::atomic<size_t> readers_started{0};
    std::atomic<size_t> checked{0};
    // The writer waits for every reader's first query so the insert sequence
    // provably overlaps live traversals.
    std::thread writer([&] {
      while (readers_started.load() < kReaders) std::this_thread::yield();
      for (size_t i = 0; i < far_.size(); ++i) {
        Status s = tree_->Insert(far_[i], ObjectId(10000 + i));
        ASSERT_TRUE(s.ok()) << s.ToString();
      }
      writer_done.store(true);
    });

    std::vector<std::thread> readers;
    for (size_t t = 0; t < kReaders; ++t) {
      readers.emplace_back([&, t] {
        Rng rng(7 + t);
        std::vector<ObjectId> ids;
        for (size_t iter = 0;
             iter < kMinChecksPerReader || !writer_done.load(); ++iter) {
          const size_t i = rng.Uniform(queries_.size());
          ASSERT_TRUE(tree_->RangeQuery(queries_[i], kRadius, &ids).ok());
          // Far inserts carry ids >= 10000; none may ever appear.
          EXPECT_EQ(std::set<ObjectId>(ids.begin(), ids.end()), want[i]);
          checked.fetch_add(1);
          if (iter == 0) readers_started.fetch_add(1);
        }
      });
    }
    writer.join();
    for (auto& t : readers) t.join();

    EXPECT_GE(checked.load(), kReaders * kMinChecksPerReader);
    EXPECT_EQ(tree_->size(), 1200u + far_.size());
    EXPECT_TRUE(tree_->CheckIntegrity().ok());
    // All transient epochs drained with the last query; only the current
    // version stays pinned (by the manager itself).
    EXPECT_EQ(tree_->snapshots().live_epochs(), 1u);
    EXPECT_EQ(tree_->snapshots().pending_retirements(), 0u);
    // Quiesced results are unchanged too (the far objects are out of range).
    EXPECT_EQ(QuiescedRange(), want);
  }

  const std::string dir_ =
      (std::filesystem::temp_directory_path() / "spb_interleaved_test")
          .string();
  Dataset ds_;
  std::unique_ptr<SpbTree> tree_;
  std::vector<Blob> queries_;
  std::vector<Blob> far_;
};

// The identity test: inserts outside every query ball must leave every
// concurrently running query's result byte-identical to the quiesced run.
TEST_F(SpbInterleavedTest, FarInsertsLeaveConcurrentQueriesUnchanged) {
  CheckFarInsertsLeaveConcurrentQueriesUnchanged();
}

// The same on a disk-backed tree with a 1-page RAF pool, so queries stage
// their RAF pages through readahead sessions while the writer appends to
// the RAF's dirty tail page: reads of that page must come from the tail
// buffer, never from a staged copy claimed before the append.
TEST_F(SpbInterleavedTest, FarInsertsLeaveConcurrentDiskQueriesUnchanged) {
  SpbTreeOptions opts;
  opts.raf_cache_pages = 1;
  opts.storage_dir = dir_;
  std::filesystem::remove_all(dir_);
  tree_.reset();
  ASSERT_TRUE(
      SpbTree::Build(ds_.objects, ds_.metric.get(), opts, &tree_).ok());
  CheckFarInsertsLeaveConcurrentQueriesUnchanged();
  EXPECT_GT(tree_->CollectStats().prefetch_issued, 0u);
}

// In-ball inserts: each concurrent query must observe exactly some published
// prefix of the insert sequence — its result is sandwiched between the
// initial and the final quiesced result sets.
TEST_F(SpbInterleavedTest, InBallInsertsAreSandwiched) {
  const std::vector<std::set<ObjectId>> initial = QuiescedRange();

  // Duplicates of in-ball objects under fresh ids qualify immediately.
  std::vector<Blob> dups;
  for (size_t i = 0; i < 48; ++i) {
    dups.push_back(queries_[i % queries_.size()]);
  }

  constexpr size_t kReaders = 4;
  std::atomic<bool> writer_done{false};
  std::atomic<size_t> readers_started{0};
  std::thread writer([&] {
    while (readers_started.load() < kReaders) std::this_thread::yield();
    for (size_t i = 0; i < dups.size(); ++i) {
      Status s = tree_->Insert(dups[i], ObjectId(20000 + i));
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
    writer_done.store(true);
  });

  std::vector<std::vector<std::pair<size_t, std::set<ObjectId>>>> observed(
      kReaders);
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(31 + t);
      std::vector<ObjectId> ids;
      for (size_t iter = 0; iter < 30 || !writer_done.load(); ++iter) {
        const size_t i = rng.Uniform(queries_.size());
        ASSERT_TRUE(tree_->RangeQuery(queries_[i], kRadius, &ids).ok());
        observed[t].emplace_back(i,
                                 std::set<ObjectId>(ids.begin(), ids.end()));
        if (iter == 0) readers_started.fetch_add(1);
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();

  const std::vector<std::set<ObjectId>> final_sets = QuiescedRange();
  for (const auto& per_thread : observed) {
    for (const auto& [i, got] : per_thread) {
      EXPECT_TRUE(std::includes(got.begin(), got.end(), initial[i].begin(),
                                initial[i].end()))
          << "query " << i << " lost a pre-existing match";
      EXPECT_TRUE(std::includes(final_sets[i].begin(), final_sets[i].end(),
                                got.begin(), got.end()))
          << "query " << i << " saw an id no published version contains";
    }
  }
  EXPECT_TRUE(tree_->CheckIntegrity().ok());
}

// Delete-then-range regression: a deleted object must vanish from range
// results immediately, including queries centered on the deleted object.
TEST_F(SpbInterleavedTest, DeleteThenRangeExcludesDeleted) {
  std::vector<ObjectId> before;
  ASSERT_TRUE(tree_->RangeQuery(queries_[0], kRadius, &before).ok());
  ASSERT_FALSE(before.empty());

  std::set<ObjectId> deleted;
  for (ObjectId id : before) {
    bool found = false;
    ASSERT_TRUE(tree_->Delete(ds_.objects[id], id, &found).ok());
    EXPECT_TRUE(found) << id;
    deleted.insert(id);
  }

  std::vector<ObjectId> after;
  ASSERT_TRUE(tree_->RangeQuery(queries_[0], kRadius, &after).ok());
  EXPECT_TRUE(after.empty())
      << "range ball around a fully deleted neighborhood must be empty";
  for (size_t i = 0; i < queries_.size(); ++i) {
    std::vector<ObjectId> ids;
    ASSERT_TRUE(tree_->RangeQuery(queries_[i], kRadius, &ids).ok());
    for (ObjectId id : ids) {
      EXPECT_FALSE(deleted.count(id)) << "deleted id " << id << " resurfaced";
    }
  }
  EXPECT_EQ(tree_->size(), 1200u - deleted.size());
  EXPECT_TRUE(tree_->CheckIntegrity().ok());
}

// Writer/writer race: the second writer gets Status::Busy (kBusy), never a
// corrupt index. Callers that want queueing retry; total success count must
// match exactly.
TEST_F(SpbInterleavedTest, ConcurrentWritersSeeOnlyOkOrBusy) {
  constexpr size_t kWriters = 4;
  constexpr size_t kPerWriter = 16;
  std::atomic<size_t> busy{0};
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (size_t i = 0; i < kPerWriter; ++i) {
        const ObjectId id = ObjectId(30000 + w * kPerWriter + i);
        for (;;) {
          const Status s = tree_->Insert(far_[(w * kPerWriter + i) %
                                              far_.size()],
                                         id);
          if (s.ok()) break;
          ASSERT_EQ(s.code(), Status::Code::kBusy) << s.ToString();
          busy.fetch_add(1);
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(tree_->size(), 1200u + kWriters * kPerWriter);
  EXPECT_TRUE(tree_->CheckIntegrity().ok());
}

TEST_F(SpbInterleavedTest, BatchInsertMatchesLoopedInserts) {
  std::vector<ObjectId> ids;
  for (size_t i = 0; i < far_.size(); ++i) ids.push_back(ObjectId(40000 + i));

  // Size-mismatch taxonomy.
  std::vector<ObjectId> short_ids(ids.begin(), ids.end() - 1);
  EXPECT_EQ(tree_->BatchInsert(far_, short_ids).code(),
            Status::Code::kInvalidArgument);

  ASSERT_TRUE(tree_->BatchInsert(far_, ids).ok());
  EXPECT_EQ(tree_->size(), 1200u + far_.size());
  EXPECT_TRUE(tree_->CheckIntegrity().ok());

  // Every batched object is findable at distance 0.
  for (size_t i = 0; i < far_.size(); ++i) {
    std::vector<ObjectId> got;
    ASSERT_TRUE(tree_->RangeQuery(far_[i], 0.0, &got).ok());
    EXPECT_TRUE(std::find(got.begin(), got.end(), ids[i]) != got.end()) << i;
  }
}

// --------------------------------------------------------- executor facade

TEST_F(SpbInterleavedTest, SubmitInterleavesReadsAndWrites) {
  const std::vector<std::set<ObjectId>> initial = QuiescedRange();

  std::vector<Request> ops;
  for (size_t i = 0; i < queries_.size(); ++i) {
    Request range;
    range.kind = Request::Kind::kRange;
    range.obj = queries_[i];
    range.radius = kRadius;
    ops.push_back(std::move(range));

    Request knn;
    knn.kind = Request::Kind::kKnn;
    knn.obj = queries_[i];
    knn.k = 5;
    ops.push_back(std::move(knn));

    Request ins;
    ins.kind = Request::Kind::kInsert;
    ins.obj = far_[i % far_.size()];
    ins.id = ObjectId(50000 + i);
    ops.push_back(std::move(ins));
  }
  Request del;
  del.kind = Request::Kind::kDelete;
  del.obj = far_[0];
  del.id = ObjectId(50000);
  ops.push_back(std::move(del));

  QueryExecutor exec(tree_.get(), 4);
  BatchResult batch = exec.Submit(ops);
  ASSERT_TRUE(batch.first_error.ok()) << batch.first_error.message();
  const std::vector<OpResult>& results = batch.results;
  ASSERT_EQ(results.size(), ops.size());
  EXPECT_EQ(batch.stats.num_queries, ops.size());

  for (size_t i = 0; i < ops.size(); ++i) {
    EXPECT_TRUE(results[i].status.ok()) << i << ": "
                                        << results[i].status.ToString();
    // Far inserts never enter a query ball: every range result matches the
    // quiesced baseline exactly even though writes interleave.
    if (ops[i].kind == Request::Kind::kRange) {
      EXPECT_EQ(std::set<ObjectId>(results[i].range_ids.begin(),
                                   results[i].range_ids.end()),
                initial[i / 3]);
      EXPECT_TRUE(std::is_sorted(results[i].range_ids.begin(),
                                 results[i].range_ids.end()));
    }
    if (ops[i].kind == Request::Kind::kKnn) {
      EXPECT_EQ(results[i].neighbors.size(), 5u);
    }
  }
  EXPECT_TRUE(results.back().found) << "delete of an inserted op must find it";
  EXPECT_EQ(tree_->size(), 1200u + queries_.size() - 1);
  EXPECT_TRUE(tree_->CheckIntegrity().ok());
}

// A multi-writer index whose inserts report Status::Busy three times per id
// before they succeed. The second attempt on `park_id` blocks until
// Release(), so a test can hold one batch mid-retry while another runs.
class BusyThriceIndex : public MetricIndex {
 public:
  explicit BusyThriceIndex(ObjectId park_id) : park_id_(park_id) {}

  Status Insert(const Blob&, ObjectId id) override {
    std::unique_lock<std::mutex> lock(mu_);
    const int attempt = ++attempts_[id];
    if (id == park_id_ && attempt == 2) {
      parked_ = true;
      cv_.notify_all();
      cv_.wait(lock, [&] { return released_; });
    }
    return attempt <= 3 ? Status::Busy("busy thrice") : Status::OK();
  }
  void WaitParked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return parked_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

  Status RangeQuery(const Blob&, double, std::vector<ObjectId>* result,
                    QueryStats*) override {
    result->clear();
    return Status::OK();
  }
  Status KnnQuery(const Blob&, size_t, std::vector<Neighbor>* result,
                  QueryStats*) override {
    result->clear();
    return Status::OK();
  }
  uint64_t storage_bytes() const override { return 0; }
  QueryStats cumulative_stats() const override { return QueryStats{}; }
  void ResetCounters() override {}
  void FlushCaches() override {}
  size_t writer_concurrency() const override { return 2; }
  std::string name() const override { return "busy-thrice"; }

 private:
  const ObjectId park_id_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<ObjectId, int> attempts_;
  bool parked_ = false;
  bool released_ = false;
};

// Overlapping Submit calls (the server's dispatchers, any multi-threaded
// caller) each report their own batch's kBusy retries: batch A parks after
// its first retry while batch B runs start to finish, and neither count may
// absorb or wipe the other's.
TEST(ExecutorBusyRetryTest, OverlappingBatchesCountTheirOwnRetries) {
  BusyThriceIndex index(/*park_id=*/1);
  QueryExecutor exec(&index, 2);
  BatchResult a;
  std::thread batch_a([&] {
    const std::vector<Request> ops{Request::Insert(BlobFromString("a"), 1)};
    a = exec.Submit(ops);
  });
  index.WaitParked();
  const std::vector<Request> ops{Request::Insert(BlobFromString("b"), 2)};
  const BatchResult b = exec.Submit(ops);
  index.Release();
  batch_a.join();
  EXPECT_TRUE(a.first_error.ok()) << a.first_error.ToString();
  EXPECT_TRUE(b.first_error.ok()) << b.first_error.ToString();
  EXPECT_EQ(a.stats.busy_retries, 3u);
  EXPECT_EQ(b.stats.busy_retries, 3u);
}

// Baselines without an update path report Unimplemented through the shared
// interface — the executor (and harness) never downcasts to find out.
TEST(MixedBatchBaselineTest, DeleteOnBaselineReportsUnimplemented) {
  Dataset ds = MakeSynthetic(200, 5);
  VpTreeOptions opts;
  std::unique_ptr<VpTree> vp;
  ASSERT_TRUE(VpTree::Build(ds.objects, ds.metric.get(), opts, &vp).ok());

  bool found = true;
  const Status direct = vp->Delete(ds.objects[0], 0, &found);
  EXPECT_EQ(direct.code(), Status::Code::kUnimplemented);

  QueryExecutor exec(vp.get(), 2);
  std::vector<Request> ops(2);
  ops[0].kind = Request::Kind::kRange;
  ops[0].obj = ds.objects[0];
  ops[0].radius = 0.2;
  ops[1].kind = Request::Kind::kDelete;
  ops[1].obj = ds.objects[0];
  ops[1].id = 0;
  BatchResult batch = exec.Submit(ops);
  EXPECT_EQ(batch.first_error.code(), Status::Code::kUnimplemented);
  EXPECT_TRUE(batch.results[0].status.ok());
  EXPECT_EQ(batch.results[1].status.code(), Status::Code::kUnimplemented);
}

}  // namespace
}  // namespace spb
