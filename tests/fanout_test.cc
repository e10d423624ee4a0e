// PR 8 concurrency tests: TaskArena scheduling (including the pool-size-1
// nested fan-out deadlock regression), the SnapshotManager mutex-free
// Acquire/Release fast path (zero "snapshot.admin" acquires under pure
// reader churn, asserted through the contention registry), snapshot churn
// vs publish/retire (the TSan stress target — tools/check.sh --fanout runs
// this binary under ThreadSanitizer and AddressSanitizer), parallel-scatter
// identity against the serial path across S x T, and unit checks for
// StripedU64 / InstrumentedMutex.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/contention.h"
#include "common/striped.h"
#include "core/sharded_spb_tree.h"
#include "data/datasets.h"
#include "exec/query_executor.h"
#include "exec/snapshot.h"
#include "exec/task_arena.h"

namespace spb {
namespace {

uint64_t LockAcquires(const char* name) {
  for (const LockStatsSnapshot& s : ContentionSnapshot()) {
    if (s.name == name) return s.acquires;
  }
  return 0;
}

// ------------------------------------------------------------- TaskArena

TEST(TaskArenaTest, RunsEveryTaskExactlyOnce) {
  TaskArena arena(4);
  std::vector<std::atomic<int>> ran(1000);
  const std::function<void(size_t)> fn = [&](size_t i) {
    ran[i].fetch_add(1, std::memory_order_relaxed);
  };
  arena.RunGroup(ran.size(), fn, /*help=*/false);
  for (size_t i = 0; i < ran.size(); ++i) {
    EXPECT_EQ(ran[i].load(), 1) << "i=" << i;
  }
  const ArenaQueueStats qs = arena.queue_stats();
  EXPECT_GT(qs.tickets_pushed, 0u);
}

TEST(TaskArenaTest, CurrentIsSetOnWorkersAndNullOutside) {
  EXPECT_EQ(TaskArena::Current(), nullptr);
  TaskArena arena(2);
  std::atomic<int> ok{0};
  const std::function<void(size_t)> fn = [&](size_t) {
    if (TaskArena::Current() == &arena) ok.fetch_add(1);
  };
  arena.RunGroup(8, fn, /*help=*/false);
  EXPECT_EQ(ok.load(), 8);
  EXPECT_EQ(TaskArena::Current(), nullptr);
}

// The deadlock regression the two-level task model must survive: a single
// worker thread whose batch task itself fans out onto the same pool. With
// help=true the inner RunGroup drains its own tasks inline, so the lone
// worker can never wait on work only it could run. A hang here fails via
// ctest timeout.
TEST(TaskArenaTest, PoolSizeOneNestedFanoutCompletes) {
  TaskArena arena(1);
  std::atomic<int> leaf_runs{0};
  const std::function<void(size_t)> outer = [&](size_t) {
    TaskArena* cur = TaskArena::Current();
    ASSERT_NE(cur, nullptr);
    const std::function<void(size_t)> inner = [&](size_t) {
      leaf_runs.fetch_add(1, std::memory_order_relaxed);
    };
    cur->RunGroup(5, inner, /*help=*/true);
  };
  arena.RunGroup(3, outer, /*help=*/false);
  EXPECT_EQ(leaf_runs.load(), 15);
}

TEST(TaskArenaTest, DeepNestedFanoutAcrossPoolSizes) {
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    TaskArena arena(threads);
    std::atomic<int> leaf_runs{0};
    const std::function<void(size_t)> mid = [&](size_t) {
      const std::function<void(size_t)> leaf = [&](size_t) {
        leaf_runs.fetch_add(1, std::memory_order_relaxed);
      };
      TaskArena::Current()->RunGroup(4, leaf, /*help=*/true);
    };
    const std::function<void(size_t)> outer = [&](size_t) {
      TaskArena::Current()->RunGroup(4, mid, /*help=*/true);
    };
    arena.RunGroup(4, outer, /*help=*/false);
    EXPECT_EQ(leaf_runs.load(), 64) << "threads=" << threads;
  }
}

// ----------------------------------------------- SnapshotManager fast path

// The PR 8 zero-mutex proof: a reader-only churn phase must not touch
// "snapshot.admin" at all. The instrumented mutex reports acquires through
// the contention registry, so the assertion is exact — no sampling.
TEST(SnapshotFastPathTest, AcquireReleaseTakesNoMutex) {
  IndexVersion v0;
  v0.root = 1;
  SnapshotManager mgr(v0, nullptr);

  ContentionReset();
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 20000;
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < kItersPerThread; ++i) {
        Snapshot s = mgr.Acquire();
        ASSERT_TRUE(s.valid());
        ASSERT_EQ(s.version().root, 1u);
      }
    });
  }
  for (std::thread& th : readers) th.join();
  // Snapshot the registry BEFORE calling any accessor (live_epochs etc. are
  // deliberate drain points that do take the admin mutex).
  EXPECT_EQ(LockAcquires("snapshot.admin"), 0u);
}

// TSan stress: 8 readers churning Acquire/Release against a writer
// publishing and retiring. Readers must only ever observe fully published
// versions; every retirement must fire exactly once by the end.
TEST(SnapshotFastPathTest, ConcurrentAcquireVsPublishRetire) {
  constexpr int kReaders = 8;
  constexpr uint64_t kPublishes = 400;

  std::atomic<uint64_t> retired_pages{0};
  IndexVersion v0;
  v0.root = 0;
  v0.num_objects = 0;
  SnapshotManager mgr(v0, [&](std::vector<PageId> pages) {
    retired_pages.fetch_add(pages.size(), std::memory_order_relaxed);
  });

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        Snapshot s = mgr.Acquire();
        ASSERT_TRUE(s.valid());
        // Publication invariant: root and num_objects move together, so a
        // torn version would trip one of these.
        ASSERT_EQ(s.version().root, s.version().num_objects);
        ASSERT_LE(s.version().root, kPublishes);
        ASSERT_LE(s.epoch(), kPublishes);
      }
    });
  }

  for (uint64_t i = 1; i <= kPublishes; ++i) {
    IndexVersion v;
    v.root = i;
    v.num_objects = i;
    mgr.Publish(v, {PageId(i)});
  }
  stop.store(true);
  for (std::thread& th : readers) th.join();

  EXPECT_EQ(mgr.pending_retirements(), 0u);  // drains whatever is left
  EXPECT_EQ(retired_pages.load(), kPublishes);
  EXPECT_EQ(mgr.current_epoch(), kPublishes);
  EXPECT_EQ(mgr.Acquire().version().root, kPublishes);
  EXPECT_EQ(mgr.live_epochs(), 1u);
}

// -------------------------------------------- parallel-scatter identity

SpbTreeOptions FanoutOptions(size_t shards) {
  SpbTreeOptions opts;
  opts.num_pivots = 4;
  opts.seed = 99;
  opts.num_shards = shards;
  return opts;
}

// The ctest identity gate of ISSUE PR 8: for S in {1,4} x T in {1,8},
// parallel scatter must be byte-identical to the serial path per query —
// same results, same logical PA, same compdists. The serial baseline runs
// on this thread with the flag off; the parallel run goes through a
// QueryExecutor's arena workers with the flag on, so ShardedSpbTree sees
// TaskArena::Current() != nullptr and actually fans out.
TEST(FanoutIdentityTest, ParallelScatterByteIdenticalAcrossSAndT) {
  Dataset ds = MakeSynthetic(900, 23);
  const size_t kQueries = 24;

  for (size_t S : {size_t{1}, size_t{4}}) {
    std::unique_ptr<ShardedSpbTree> tree;
    ASSERT_TRUE(
        ShardedSpbTree::Build(ds.objects, ds.metric.get(), FanoutOptions(S),
                              &tree)
            .ok());

    // Serial baseline, per query.
    tree->set_parallel_scatter(false);
    std::vector<std::vector<ObjectId>> want_range(kQueries);
    std::vector<QueryStats> want_range_stats(kQueries);
    std::vector<std::vector<Neighbor>> want_knn(kQueries);
    std::vector<QueryStats> want_knn_stats(kQueries);
    for (size_t i = 0; i < kQueries; ++i) {
      const Blob& q = ds.objects[i * 31 % ds.objects.size()];
      ASSERT_TRUE(
          tree->RangeQuery(q, 0.2, &want_range[i], &want_range_stats[i])
              .ok());
      ASSERT_TRUE(
          tree->KnnQuery(q, 10, &want_knn[i], &want_knn_stats[i]).ok());
    }

    for (size_t T : {size_t{1}, size_t{8}}) {
      tree->set_parallel_scatter(true);
      QueryExecutor exec(tree.get(), T);
      std::vector<std::vector<ObjectId>> got_range(kQueries);
      std::vector<QueryStats> got_range_stats(kQueries);
      std::vector<std::vector<Neighbor>> got_knn(kQueries);
      std::vector<QueryStats> got_knn_stats(kQueries);
      // Per-query PA/compdist attribution requires the query to be alone on
      // the tree (stats are cumulative-counter deltas — concurrent whole
      // queries pollute each other's deltas, see docs/ARCHITECTURE.md
      // §"Cost accounting"), so drive one single-query group at a time: the
      // query's *own* shard fan-out still runs parallel across the pool.
      for (size_t i = 0; i < kQueries; ++i) {
        const std::function<void(size_t)> run = [&](size_t) {
          const Blob& q = ds.objects[i * 31 % ds.objects.size()];
          ASSERT_TRUE(
              tree->RangeQuery(q, 0.2, &got_range[i], &got_range_stats[i])
                  .ok());
          ASSERT_TRUE(
              tree->KnnQuery(q, 10, &got_knn[i], &got_knn_stats[i]).ok());
        };
        exec.arena()->RunGroup(1, run, /*help=*/false);
      }

      for (size_t i = 0; i < kQueries; ++i) {
        SCOPED_TRACE("S=" + std::to_string(S) + " T=" + std::to_string(T) +
                     " q=" + std::to_string(i));
        EXPECT_EQ(got_range[i], want_range[i]);
        EXPECT_EQ(got_range_stats[i].page_accesses,
                  want_range_stats[i].page_accesses);
        EXPECT_EQ(got_range_stats[i].distance_computations,
                  want_range_stats[i].distance_computations);
        ASSERT_EQ(got_knn[i].size(), want_knn[i].size());
        for (size_t j = 0; j < want_knn[i].size(); ++j) {
          EXPECT_EQ(got_knn[i][j].id, want_knn[i][j].id);
          EXPECT_DOUBLE_EQ(got_knn[i][j].distance, want_knn[i][j].distance);
        }
        EXPECT_EQ(got_knn_stats[i].page_accesses,
                  want_knn_stats[i].page_accesses);
        EXPECT_EQ(got_knn_stats[i].distance_computations,
                  want_knn_stats[i].distance_computations);
      }

      // Results (not stats) must also hold when whole queries overlap:
      // one group of kQueries concurrent tasks, each fanning out.
      std::vector<std::vector<ObjectId>> conc_range(kQueries);
      std::vector<std::vector<Neighbor>> conc_knn(kQueries);
      const std::function<void(size_t)> conc = [&](size_t i) {
        const Blob& q = ds.objects[i * 31 % ds.objects.size()];
        ASSERT_TRUE(tree->RangeQuery(q, 0.2, &conc_range[i], nullptr).ok());
        ASSERT_TRUE(tree->KnnQuery(q, 10, &conc_knn[i], nullptr).ok());
      };
      exec.arena()->RunGroup(kQueries, conc, /*help=*/false);
      for (size_t i = 0; i < kQueries; ++i) {
        SCOPED_TRACE("concurrent S=" + std::to_string(S) +
                     " T=" + std::to_string(T) + " q=" + std::to_string(i));
        EXPECT_EQ(conc_range[i], want_range[i]);
        ASSERT_EQ(conc_knn[i].size(), want_knn[i].size());
        for (size_t j = 0; j < want_knn[i].size(); ++j) {
          EXPECT_EQ(conc_knn[i][j].id, want_knn[i][j].id);
          EXPECT_DOUBLE_EQ(conc_knn[i][j].distance, want_knn[i][j].distance);
        }
      }
    }
  }
}

// ------------------------------------------------------- striped counters

TEST(StripedU64Test, ConcurrentAddsSumExactly) {
  StripedU64 c;
  constexpr int kThreads = 8;
  constexpr uint64_t kAdds = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (uint64_t i = 0; i < kAdds; ++i) c.fetch_add(1);
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(c.load(), kThreads * kAdds);

  c.store(7);
  EXPECT_EQ(c.load(), 7u);
  c = 9;                                   // atomic-style assignment
  const uint64_t v = c;                    // atomic-style read
  EXPECT_EQ(v, 9u);
}

// ---------------------------------------------------- contention registry

TEST(ContentionTest, InstrumentedMutexCountsAcquiresAndWaits) {
  ContentionReset();
  InstrumentedMutex mu("test.mu");
  {
    std::lock_guard<InstrumentedMutex> lock(mu);
  }
  {
    std::lock_guard<InstrumentedMutex> lock(mu);
  }
  bool found = false;
  for (const LockStatsSnapshot& s : ContentionSnapshot()) {
    if (s.name != "test.mu") continue;
    found = true;
    EXPECT_EQ(s.acquires, 2u);
    EXPECT_EQ(s.contended, 0u);
  }
  EXPECT_TRUE(found);

  // Force contention: hold the lock while another thread blocks on it.
  std::atomic<bool> held{false};
  std::thread holder([&] {
    std::lock_guard<InstrumentedMutex> lock(mu);
    held.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  while (!held.load()) std::this_thread::yield();
  {
    std::lock_guard<InstrumentedMutex> lock(mu);  // must wait
  }
  holder.join();
  for (const LockStatsSnapshot& s : ContentionSnapshot()) {
    if (s.name != "test.mu") continue;
    EXPECT_EQ(s.acquires, 4u);
    EXPECT_GE(s.contended, 1u);
    EXPECT_GT(s.wait_ns, 0u);
    uint64_t hist_total = 0;
    for (uint64_t b : s.wait_hist) hist_total += b;
    EXPECT_EQ(hist_total, s.contended);
  }

  ContentionReset();
  EXPECT_EQ(LockAcquires("test.mu"), 0u);
}

}  // namespace
}  // namespace spb
