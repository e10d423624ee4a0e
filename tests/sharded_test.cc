// Sharded SPB-tree tests (core/sharded_spb_tree.h): query identity against
// the unsharded tree across shard counts, byte-identity of the S=1
// delegation path, cross-shard kNN correctness under the seeded NDk bound,
// per-shard writer isolation (kBusy never crosses a shard boundary), mixed
// executor batches at S in {2,4,8}, aggregate-stat wiring, the RAF
// dead-bytes counter and sharded save/open round-trips. tools/check.sh also runs this binary under
// ThreadSanitizer and AddressSanitizer (--writes stage).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <set>
#include <thread>
#include <vector>

#include "core/sharded_spb_tree.h"
#include "core/spb_tree.h"
#include "data/datasets.h"
#include "exec/query_executor.h"

namespace spb {
namespace {

namespace fs = std::filesystem;

std::vector<ObjectId> SortedIds(std::vector<ObjectId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

// Brute-force kNN over a subset of `objects` (the live set), tie-broken by
// ascending id like the sharded merge.
std::vector<Neighbor> BruteKnn(const std::vector<Blob>& objects,
                               const DistanceFunction& metric, const Blob& q,
                               size_t k) {
  std::vector<Neighbor> all;
  for (size_t i = 0; i < objects.size(); ++i) {
    all.push_back(Neighbor{ObjectId(i), metric.Distance(q, objects[i])});
  }
  std::sort(all.begin(), all.end(), [](const Neighbor& a, const Neighbor& b) {
    return a.distance < b.distance ||
           (a.distance == b.distance && a.id < b.id);
  });
  if (all.size() > k) all.resize(k);
  return all;
}

SpbTreeOptions BaseOptions() {
  SpbTreeOptions opts;
  opts.num_pivots = 4;
  opts.seed = 99;
  return opts;
}

class ShardedIdentityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = MakeSynthetic(900, 23);
    ASSERT_TRUE(
        SpbTree::Build(ds_.objects, ds_.metric.get(), BaseOptions(), &flat_)
            .ok());
  }

  Dataset ds_;
  std::unique_ptr<SpbTree> flat_;
};

TEST_F(ShardedIdentityTest, RangeResultsMatchUnshardedAcrossShardCounts) {
  for (size_t S : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    SpbTreeOptions opts = BaseOptions();
    opts.num_shards = S;
    std::unique_ptr<ShardedSpbTree> sharded;
    ASSERT_TRUE(
        ShardedSpbTree::Build(ds_.objects, ds_.metric.get(), opts, &sharded)
            .ok());
    EXPECT_EQ(sharded->num_shards(), S);
    EXPECT_EQ(sharded->size(), ds_.objects.size());
    ASSERT_TRUE(sharded->CheckIntegrity().ok());

    for (size_t qi = 0; qi < 25; ++qi) {
      const Blob& q = ds_.objects[qi * 31 % ds_.objects.size()];
      for (double r : {0.05, 0.2, 0.5}) {
        std::vector<ObjectId> want, got;
        ASSERT_TRUE(flat_->RangeQuery(q, r, &want).ok());
        ASSERT_TRUE(sharded->RangeQuery(q, r, &got).ok());
        EXPECT_EQ(SortedIds(want), SortedIds(got))
            << "S=" << S << " qi=" << qi << " r=" << r;
      }
    }
  }
}

TEST_F(ShardedIdentityTest, KnnResultsMatchBruteForceAcrossShardCounts) {
  for (size_t S : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    SpbTreeOptions opts = BaseOptions();
    opts.num_shards = S;
    std::unique_ptr<ShardedSpbTree> sharded;
    ASSERT_TRUE(
        ShardedSpbTree::Build(ds_.objects, ds_.metric.get(), opts, &sharded)
            .ok());

    for (size_t qi = 0; qi < 15; ++qi) {
      const Blob& q = ds_.objects[qi * 53 % ds_.objects.size()];
      for (size_t k : {size_t{1}, size_t{10}}) {
        const std::vector<Neighbor> want =
            BruteKnn(ds_.objects, *ds_.metric, q, k);
        std::vector<Neighbor> got;
        ASSERT_TRUE(sharded->KnnQuery(q, k, &got).ok());
        ASSERT_EQ(got.size(), want.size()) << "S=" << S;
        for (size_t i = 0; i < want.size(); ++i) {
          // Distances are exact (same kernel); ids may differ only on ties.
          EXPECT_DOUBLE_EQ(got[i].distance, want[i].distance)
              << "S=" << S << " qi=" << qi << " k=" << k << " i=" << i;
          EXPECT_DOUBLE_EQ(ds_.metric->Distance(q, ds_.objects[got[i].id]),
                           got[i].distance);
        }
      }
    }
  }
}

// The S=1 router is pure delegation: cold per-query PA and compdists must
// be byte-identical to the unsharded tree, not merely equal results.
TEST_F(ShardedIdentityTest, SingleShardIsByteIdenticalToUnsharded) {
  SpbTreeOptions opts = BaseOptions();
  opts.num_shards = 1;
  std::unique_ptr<ShardedSpbTree> sharded;
  ASSERT_TRUE(
      ShardedSpbTree::Build(ds_.objects, ds_.metric.get(), opts, &sharded)
          .ok());
  EXPECT_EQ(sharded->writer_concurrency(), 1u);

  flat_->ResetCounters();
  sharded->ResetCounters();
  for (size_t qi = 0; qi < 10; ++qi) {
    const Blob& q = ds_.objects[qi * 91 % ds_.objects.size()];
    flat_->FlushCaches();
    sharded->FlushCaches();
    QueryStats a, b;
    std::vector<ObjectId> ra, rb;
    ASSERT_TRUE(flat_->RangeQuery(q, 0.3, &ra, &a).ok());
    ASSERT_TRUE(sharded->RangeQuery(q, 0.3, &rb, &b).ok());
    EXPECT_EQ(SortedIds(ra), SortedIds(rb));
    EXPECT_EQ(a.page_accesses, b.page_accesses) << "qi=" << qi;
    EXPECT_EQ(a.distance_computations, b.distance_computations) << "qi=" << qi;

    flat_->FlushCaches();
    sharded->FlushCaches();
    std::vector<Neighbor> na, nb;
    ASSERT_TRUE(flat_->KnnQuery(q, 8, &na, &a).ok());
    ASSERT_TRUE(sharded->KnnQuery(q, 8, &nb, &b).ok());
    EXPECT_EQ(na, nb);
    EXPECT_EQ(a.page_accesses, b.page_accesses) << "qi=" << qi;
    EXPECT_EQ(a.distance_computations, b.distance_computations) << "qi=" << qi;
  }
  const QueryStats ca = flat_->cumulative_stats();
  const QueryStats cb = sharded->cumulative_stats();
  EXPECT_EQ(ca.page_accesses, cb.page_accesses);
  EXPECT_EQ(ca.distance_computations, cb.distance_computations);
}

// With the planner off every shard resolves the default traversal to
// greedy: at S=4 the router's 4-argument KnnQuery matches an explicit
// kGreedy scatter query by query — neighbours, PA and compdists.
TEST_F(ShardedIdentityTest, DefaultTraversalIsGreedy) {
  SpbTreeOptions opts = BaseOptions();
  opts.num_shards = 4;
  std::unique_ptr<ShardedSpbTree> sharded;
  ASSERT_TRUE(
      ShardedSpbTree::Build(ds_.objects, ds_.metric.get(), opts, &sharded)
          .ok());
  ASSERT_FALSE(opts.enable_planner);
  for (size_t qi = 0; qi < 15; ++qi) {
    const Blob& q = ds_.objects[qi * 37 % ds_.objects.size()];
    for (size_t k : {size_t{1}, size_t{10}}) {
      std::vector<Neighbor> def, greedy;
      QueryStats a, b;
      sharded->FlushCaches();
      ASSERT_TRUE(sharded->KnnQuery(q, k, &def, &a).ok());
      sharded->FlushCaches();
      ASSERT_TRUE(
          sharded->KnnQuery(q, k, &greedy, &b, KnnTraversal::kGreedy).ok());
      EXPECT_EQ(def, greedy) << "qi=" << qi << " k=" << k;
      EXPECT_EQ(a.page_accesses, b.page_accesses) << "qi=" << qi << " k=" << k;
      EXPECT_EQ(a.distance_computations, b.distance_computations)
          << "qi=" << qi << " k=" << k;
    }
  }
}

TEST_F(ShardedIdentityTest, AggregateStatsSumOverShards) {
  SpbTreeOptions opts = BaseOptions();
  opts.num_shards = 4;
  std::unique_ptr<ShardedSpbTree> sharded;
  ASSERT_TRUE(
      ShardedSpbTree::Build(ds_.objects, ds_.metric.get(), opts, &sharded)
          .ok());
  sharded->ResetCounters();

  std::vector<ObjectId> ids;
  std::vector<Neighbor> nn;
  for (size_t qi = 0; qi < 10; ++qi) {
    const Blob& q = ds_.objects[qi * 17 % ds_.objects.size()];
    ASSERT_TRUE(sharded->RangeQuery(q, 0.25, &ids).ok());
    ASSERT_TRUE(sharded->KnnQuery(q, 5, &nn).ok());
  }

  uint64_t pa = 0, reads = 0, hits = 0;
  for (size_t s = 0; s < sharded->num_shards(); ++s) {
    pa += sharded->shard(s).cumulative_stats().page_accesses;
    const IoStats io = sharded->shard(s).io_stats();
    reads += io.page_reads.load();
    hits += io.cache_hits.load();
  }
  EXPECT_EQ(sharded->cumulative_stats().page_accesses, pa);
  const IoStats agg = sharded->io_stats();
  EXPECT_EQ(agg.page_reads.load(), reads);
  EXPECT_EQ(agg.cache_hits.load(), hits);
  // The router's q-mappings are counted on top of the shard compdists.
  uint64_t shard_dists = 0;
  for (size_t s = 0; s < sharded->num_shards(); ++s) {
    shard_dists += sharded->shard(s).cumulative_stats().distance_computations;
  }
  EXPECT_GE(sharded->cumulative_stats().distance_computations, shard_dists);
}

// Two writers on *different* shards must never see each other's writer
// lock: kBusy is per-shard under sharding.
TEST(ShardedWritersTest, DisjointShardWritersNeverCollide) {
  Dataset ds = MakeSynthetic(400, 7);
  SpbTreeOptions opts = BaseOptions();
  opts.num_shards = 2;
  std::unique_ptr<ShardedSpbTree> tree;
  ASSERT_TRUE(
      ShardedSpbTree::Build(ds.objects, ds.metric.get(), opts, &tree).ok());

  // Fresh objects bucketed by the shard their key routes to.
  Dataset extra = MakeSynthetic(300, 1234);
  std::vector<std::vector<Blob>> per_shard(2);
  for (const Blob& o : extra.objects) {
    const std::vector<double> phi = tree->space().Phi(o, *ds.metric);
    per_shard[tree->RouteKey(tree->space().KeyFor(phi))].push_back(o);
  }
  ASSERT_FALSE(per_shard[0].empty());
  ASSERT_FALSE(per_shard[1].empty());

  std::atomic<uint64_t> busy{0}, failures{0};
  auto writer = [&](size_t shard, ObjectId base) {
    for (size_t i = 0; i < per_shard[shard].size(); ++i) {
      const Status s =
          tree->Insert(per_shard[shard][i], base + ObjectId(i));
      if (s.code() == Status::Code::kBusy) busy.fetch_add(1);
      if (!s.ok()) failures.fetch_add(1);
    }
  };
  std::thread t0(writer, 0, 10000);
  std::thread t1(writer, 1, 20000);
  t0.join();
  t1.join();

  EXPECT_EQ(busy.load(), 0u);
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(tree->size(),
            ds.objects.size() + per_shard[0].size() + per_shard[1].size());
  EXPECT_TRUE(tree->CheckIntegrity().ok());
}

// Inserts and deletes route correctly and queries see them; deletes feed
// the per-shard RAF dead-bytes counter with exactly 8 + payload bytes per
// removed record.
TEST(ShardedUpdatesTest, InsertDeleteAndDeadBytes) {
  Dataset ds = MakeSynthetic(500, 11);
  SpbTreeOptions opts = BaseOptions();
  opts.num_shards = 4;
  std::unique_ptr<ShardedSpbTree> tree;
  ASSERT_TRUE(
      ShardedSpbTree::Build(ds.objects, ds.metric.get(), opts, &tree).ok());
  EXPECT_EQ(tree->io_stats().dead_bytes.load(), 0u);

  uint64_t expect_dead = 0;
  for (size_t i = 0; i < 40; ++i) {
    bool found = false;
    ASSERT_TRUE(tree->Delete(ds.objects[i], ObjectId(i), &found).ok());
    ASSERT_TRUE(found);
    expect_dead += 8 + ds.objects[i].size();
  }
  EXPECT_EQ(tree->io_stats().dead_bytes.load(), expect_dead);
  EXPECT_EQ(tree->size(), ds.objects.size() - 40);

  // Deleted objects are gone; a survivor is still findable at radius 0.
  std::vector<ObjectId> ids;
  ASSERT_TRUE(tree->RangeQuery(ds.objects[0], 0.0, &ids).ok());
  EXPECT_TRUE(std::find(ids.begin(), ids.end(), ObjectId(0)) == ids.end());
  ASSERT_TRUE(tree->RangeQuery(ds.objects[100], 0.0, &ids).ok());
  EXPECT_TRUE(std::find(ids.begin(), ids.end(), ObjectId(100)) != ids.end());

  // Re-insert one deleted object; kNN must find it again.
  ASSERT_TRUE(tree->Insert(ds.objects[3], ObjectId(3)).ok());
  std::vector<Neighbor> nn;
  ASSERT_TRUE(tree->KnnQuery(ds.objects[3], 1, &nn).ok());
  ASSERT_EQ(nn.size(), 1u);
  EXPECT_EQ(nn[0].id, ObjectId(3));
  EXPECT_EQ(nn[0].distance, 0.0);
  EXPECT_TRUE(tree->CheckIntegrity().ok());
}

// The dead-bytes counter also works on the plain (unsharded) tree.
TEST(ShardedUpdatesTest, DeadBytesOnPlainTree) {
  Dataset ds = MakeSynthetic(200, 3);
  std::unique_ptr<SpbTree> tree;
  ASSERT_TRUE(
      SpbTree::Build(ds.objects, ds.metric.get(), BaseOptions(), &tree).ok());
  bool found = false;
  ASSERT_TRUE(tree->Delete(ds.objects[5], ObjectId(5), &found).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(tree->io_stats().dead_bytes.load(),
            8 + uint64_t(ds.objects[5].size()));
  // A miss (already deleted) orphans nothing.
  ASSERT_TRUE(tree->Delete(ds.objects[5], ObjectId(5), &found).ok());
  EXPECT_FALSE(found);
  EXPECT_EQ(tree->io_stats().dead_bytes.load(),
            8 + uint64_t(ds.objects[5].size()));
}

// A mixed executor batch — inserts, deletes of present ids, range and kNN
// queries — then a pure-insert batch, at every S > 1: every op lands, every
// delete finds its target, and the routing invariant holds afterwards.
TEST(ShardedExecutorTest, MixedBatchRunsConcurrentWriters) {
  Dataset ds = MakeSynthetic(600, 29);
  Dataset extra = MakeSynthetic(60, 555);
  for (size_t S : {size_t{2}, size_t{4}, size_t{8}}) {
    SCOPED_TRACE("S=" + std::to_string(S));
    SpbTreeOptions opts = BaseOptions();
    opts.num_shards = S;
    std::unique_ptr<ShardedSpbTree> tree;
    ASSERT_TRUE(
        ShardedSpbTree::Build(ds.objects, ds.metric.get(), opts, &tree).ok());
    EXPECT_EQ(tree->writer_concurrency(), S);

    QueryExecutor exec(tree.get(), 4);
    std::vector<Request> ops;
    for (size_t i = 0; i < 60; ++i) {
      Request op;
      if (i % 4 == 0) {
        op.kind = Request::Kind::kInsert;
        op.obj = extra.objects[i];
        op.id = ObjectId(5000 + i);
      } else if (i % 4 == 1) {
        op.kind = Request::Kind::kDelete;
        op.obj = ds.objects[i];
        op.id = ObjectId(i);
      } else if (i % 4 == 2) {
        op.kind = Request::Kind::kRange;
        op.obj = ds.objects[i];
        op.radius = 0.2;
      } else {
        op.kind = Request::Kind::kKnn;
        op.obj = ds.objects[i];
        op.k = 5;
      }
      ops.push_back(op);
    }
    BatchResult batch = exec.Submit(ops);
    ASSERT_TRUE(batch.first_error.ok()) << batch.first_error.message();
    const std::vector<OpResult>& results = batch.results;
    for (size_t i = 0; i < results.size(); ++i) {
      // The executor's write path retries transient Busy, so every op
      // lands.
      EXPECT_TRUE(results[i].status.ok()) << i << ": "
                                          << results[i].status.message();
      if (ops[i].kind == Request::Kind::kDelete) {
        EXPECT_TRUE(results[i].found) << "delete " << i;
      }
    }
    EXPECT_EQ(tree->size(), ds.objects.size());

    std::vector<Request> inserts(512);
    for (size_t i = 0; i < inserts.size(); ++i) {
      inserts[i].kind = Request::Kind::kInsert;
      inserts[i].obj = ds.objects[(7 * i) % ds.objects.size()];
      inserts[i].id = ObjectId(6000 + i);
    }
    BatchResult ins = exec.Submit(inserts);
    ASSERT_TRUE(ins.first_error.ok()) << ins.first_error.message();
    EXPECT_EQ(tree->size(), ds.objects.size() + inserts.size());
    EXPECT_TRUE(tree->CheckIntegrity().ok());
  }
}

TEST(ShardedPersistenceTest, SaveOpenRoundTrip) {
  const std::string dir =
      (fs::temp_directory_path() / "spb_sharded_test").string();
  fs::remove_all(dir);
  Dataset ds = MakeSynthetic(500, 31);
  SpbTreeOptions opts = BaseOptions();
  opts.num_shards = 4;
  opts.storage_dir = dir;
  std::unique_ptr<ShardedSpbTree> tree;
  ASSERT_TRUE(
      ShardedSpbTree::Build(ds.objects, ds.metric.get(), opts, &tree).ok());
  ASSERT_TRUE(tree->Save().ok());
  EXPECT_TRUE(ShardedSpbTree::IsShardedDir(dir));

  std::vector<ObjectId> want;
  ASSERT_TRUE(tree->RangeQuery(ds.objects[7], 0.3, &want).ok());
  tree.reset();

  std::unique_ptr<ShardedSpbTree> reopened;
  ASSERT_TRUE(
      ShardedSpbTree::Open(dir, ds.metric.get(), BaseOptions(), &reopened)
          .ok());
  EXPECT_EQ(reopened->num_shards(), 4u);
  EXPECT_EQ(reopened->size(), ds.objects.size());
  std::vector<ObjectId> got;
  ASSERT_TRUE(reopened->RangeQuery(ds.objects[7], 0.3, &got).ok());
  EXPECT_EQ(SortedIds(want), SortedIds(got));
  ASSERT_TRUE(reopened->CheckIntegrity().ok());
  fs::remove_all(dir);
}

TEST(ShardedTuningTest, NumShardsIsConstructionTime) {
  Dataset ds = MakeSynthetic(300, 13);
  SpbTreeOptions opts = BaseOptions();
  opts.num_shards = 2;
  std::unique_ptr<ShardedSpbTree> tree;
  ASSERT_TRUE(
      ShardedSpbTree::Build(ds.objects, ds.metric.get(), opts, &tree).ok());

  TuningOptions t = tree->tuning();
  EXPECT_EQ(t.num_shards, 2u);
  t.num_shards = 4;
  EXPECT_EQ(tree->ApplyTuning(t).code(), Status::Code::kInvalidArgument);
  t.num_shards = 2;
  t.enable_cutoff = false;
  ASSERT_TRUE(tree->ApplyTuning(t).ok());
  EXPECT_FALSE(tree->tuning().enable_cutoff);
  EXPECT_FALSE(tree->shard(1).tuning().enable_cutoff);

  // The plain tree rejects any re-shard attempt too.
  std::unique_ptr<SpbTree> flat;
  ASSERT_TRUE(
      SpbTree::Build(ds.objects, ds.metric.get(), BaseOptions(), &flat).ok());
  TuningOptions ft = flat->tuning();
  ft.num_shards = 2;
  EXPECT_EQ(flat->ApplyTuning(ft).code(), Status::Code::kInvalidArgument);

  // Non-power-of-two shard counts are rejected at build time.
  SpbTreeOptions bad = BaseOptions();
  bad.num_shards = 3;
  std::unique_ptr<ShardedSpbTree> dummy;
  EXPECT_EQ(
      ShardedSpbTree::Build(ds.objects, ds.metric.get(), bad, &dummy).code(),
      Status::Code::kInvalidArgument);
}

}  // namespace
}  // namespace spb
