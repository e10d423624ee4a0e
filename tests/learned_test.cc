// Learned leaf-locator + cost-model planner tests (bptree/leaf_model.h,
// core/spb_tree.h §"Learned leaf locator"): SeekRank exactness as a
// property over the real directory, byte-identity of locator-on queries
// against the classic descent (results AND compdists, with strictly fewer
// B+-tree node touches), stale-model fallback under COW churn (flat and
// S=4 sharded), planner routing identity (planner-on results equal both
// static traversals; compdists equal one of them), and reopening an index
// whose meta file still carries the retired planner-calibration field.
// tools/check.sh also runs this binary under ThreadSanitizer and
// AddressSanitizer (--learned stage).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <vector>

#include "bptree/leaf_model.h"
#include "common/coding.h"
#include "core/sharded_spb_tree.h"
#include "core/spb_tree.h"
#include "data/datasets.h"
#include "storage/page.h"

namespace spb {
namespace {

namespace fs = std::filesystem;

std::vector<ObjectId> SortedIds(std::vector<ObjectId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

SpbTreeOptions BaseOptions() {
  SpbTreeOptions opts;
  opts.num_pivots = 4;
  opts.seed = 77;
  return opts;
}

SpbTreeOptions LocatorOptions() {
  SpbTreeOptions opts = BaseOptions();
  opts.enable_learned_locator = true;
  return opts;
}

// ---------------------------------------------------------------------------
// LeafModel property test: the rank SeekRank returns must equal the
// lower_bound over the directory's max keys for *any* key.
TEST(LeafModelTest, SeekRankIsExactForAnyKey) {
  Dataset ds = MakeSynthetic(3000, 41);
  std::unique_ptr<SpbTree> tree;
  ASSERT_TRUE(
      SpbTree::Build(ds.objects, ds.metric.get(), LocatorOptions(), &tree)
          .ok());
  const Snapshot snap = tree->AcquireSnapshot();
  const std::shared_ptr<const LeafModel> model = tree->LocatorForSnapshot(snap);
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->epoch(), snap.epoch());
  ASSERT_GT(model->num_leaves(), 1u);

  // Directory invariants: per-leaf min <= max, max keys nondecreasing.
  std::vector<uint64_t> max_keys;
  for (size_t i = 0; i < model->num_leaves(); ++i) {
    EXPECT_LE(model->min_key(i), model->max_key(i));
    if (i > 0) {
      EXPECT_GE(model->max_key(i), model->max_key(i - 1));
    }
    max_keys.push_back(model->max_key(i));
  }

  auto truth = [&](uint64_t key) {
    return size_t(std::lower_bound(max_keys.begin(), max_keys.end(), key) -
                  max_keys.begin());
  };

  // Every directory boundary key, its neighbours, and a swept range of
  // arbitrary keys (uniform over the key range plus far beyond it).
  auto check = [&](uint64_t key) {
    EXPECT_EQ(model->SeekRank(key), truth(key)) << "key=" << key;
  };
  for (size_t i = 0; i < model->num_leaves(); ++i) {
    check(model->min_key(i));
    check(model->max_key(i));
    if (model->max_key(i) > 0) check(model->max_key(i) - 1);
    check(model->max_key(i) + 1);
  }
  std::mt19937_64 rng(123);
  const uint64_t top = max_keys.back();
  for (int i = 0; i < 2000; ++i) {
    check(rng() % (top + top / 2 + 1));
  }
  // Past every leaf: rank == num_leaves().
  EXPECT_EQ(model->SeekRank(top + 1), model->num_leaves());
}

// ---------------------------------------------------------------------------
// Byte-identity: the locator changes *where decoded inner nodes come from*,
// never which entries are visited. Results and compdists must match the
// classic tree exactly, query by query, while the B+-tree's total node
// touches (reads + cache hits) drop. The same holds with the planner on as
// well: explicit traversals bypass it, and its range plans shape only the
// cutoff and readahead budget.
class LocatorIdentityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = MakeSynthetic(2500, 19);
    ASSERT_TRUE(
        SpbTree::Build(ds_.objects, ds_.metric.get(), BaseOptions(), &classic_)
            .ok());
    SpbTreeOptions planned = LocatorOptions();
    planned.enable_planner = true;
    for (const SpbTreeOptions& opts : {LocatorOptions(), planned}) {
      std::unique_ptr<SpbTree> tree;
      ASSERT_TRUE(
          SpbTree::Build(ds_.objects, ds_.metric.get(), opts, &tree).ok());
      learned_.push_back(std::move(tree));
    }
  }

  Dataset ds_;
  std::unique_ptr<SpbTree> classic_;
  // Locator on; locator and planner on.
  std::vector<std::unique_ptr<SpbTree>> learned_;
};

TEST_F(LocatorIdentityTest, QueriesAreByteIdenticalWithFewerNodeTouches) {
  for (const std::unique_ptr<SpbTree>& learned : learned_) {
    SCOPED_TRACE(learned->tuning().enable_planner ? "locator+planner"
                                                  : "locator");
    classic_->ResetCounters();
    learned->ResetCounters();
    for (size_t qi = 0; qi < 20; ++qi) {
      const Blob& q = ds_.objects[qi * 37 % ds_.objects.size()];
      QueryStats a, b;
      // Point lookups (r=0, the locator's fast path) and real radii.
      for (double r : {0.0, 0.1, 0.35}) {
        std::vector<ObjectId> ra, rb;
        ASSERT_TRUE(classic_->RangeQuery(q, r, &ra, &a).ok());
        ASSERT_TRUE(learned->RangeQuery(q, r, &rb, &b).ok());
        EXPECT_EQ(SortedIds(ra), SortedIds(rb)) << "qi=" << qi << " r=" << r;
        EXPECT_EQ(a.distance_computations, b.distance_computations)
            << "qi=" << qi << " r=" << r;
      }
      for (KnnTraversal t :
           {KnnTraversal::kIncremental, KnnTraversal::kGreedy}) {
        std::vector<Neighbor> na, nb;
        ASSERT_TRUE(classic_->KnnQuery(q, 7, &na, &a, t).ok());
        ASSERT_TRUE(learned->KnnQuery(q, 7, &nb, &b, t).ok());
        EXPECT_EQ(na, nb) << "qi=" << qi;
        EXPECT_EQ(a.distance_computations, b.distance_computations)
            << "qi=" << qi;
      }
    }
    // The learned tree's queries ran entirely from the model (no classic
    // fallbacks) and touched strictly fewer B+-tree nodes.
    const StatsSnapshot ls = learned->CollectStats();
    EXPECT_TRUE(ls.locator_model_present);
    EXPECT_GT(ls.locator_hits, 0u);
    EXPECT_EQ(ls.locator_fallbacks, 0u);
    EXPECT_EQ(ls.locator_stale, 0u);
    const IoStats ca = classic_->io_stats();
    const IoStats cb = learned->io_stats();
    EXPECT_LT(cb.page_reads.load() + cb.cache_hits.load(),
              ca.page_reads.load() + ca.cache_hits.load());

    // The default traversal (kAuto: planned when the planner is on) returns
    // the classic tree's neighbours.
    for (size_t qi = 0; qi < 20; ++qi) {
      const Blob& q = ds_.objects[qi * 37 % ds_.objects.size()];
      std::vector<Neighbor> na, nb;
      ASSERT_TRUE(classic_->KnnQuery(q, 10, &na).ok());
      ASSERT_TRUE(learned->KnnQuery(q, 10, &nb).ok());
      EXPECT_EQ(na, nb) << "qi=" << qi;
    }
  }
}

// ---------------------------------------------------------------------------
// COW churn: every write invalidates the writer's model copy; snapshots
// published after the write must never consult the stale model (epoch
// mismatch → counted fallback to classic descent), and results must stay
// identical to an unindexed-by-model tree throughout. After enough churn
// the tree re-trains and fresh queries hit the model again.
TEST(LocatorChurnTest, StaleModelIsNeverConsultedAndRebuilds) {
  Dataset ds = MakeSynthetic(1200, 29);
  Dataset extra = MakeSynthetic(100, 5150);
  std::unique_ptr<SpbTree> classic, learned;
  ASSERT_TRUE(
      SpbTree::Build(ds.objects, ds.metric.get(), BaseOptions(), &classic)
          .ok());
  ASSERT_TRUE(
      SpbTree::Build(ds.objects, ds.metric.get(), LocatorOptions(), &learned)
          .ok());
  const uint64_t rebuilds_at_build = learned->CollectStats().locator_rebuilds;

  // Interleave writes with queries. The first write invalidates; the next
  // queries must fall back (stale) yet return identical results.
  for (size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(classic->Insert(extra.objects[i], ObjectId(20000 + i)).ok());
    ASSERT_TRUE(learned->Insert(extra.objects[i], ObjectId(20000 + i)).ok());
    const Blob& q = ds.objects[(i * 131) % ds.objects.size()];
    std::vector<ObjectId> ra, rb;
    QueryStats a, b;
    ASSERT_TRUE(classic->RangeQuery(q, 0.25, &ra, &a).ok());
    ASSERT_TRUE(learned->RangeQuery(q, 0.25, &rb, &b).ok());
    EXPECT_EQ(SortedIds(ra), SortedIds(rb)) << "i=" << i;
    EXPECT_EQ(a.distance_computations, b.distance_computations) << "i=" << i;
    std::vector<Neighbor> na, nb;
    ASSERT_TRUE(classic->KnnQuery(q, 5, &na, &a).ok());
    ASSERT_TRUE(learned->KnnQuery(q, 5, &nb, &b).ok());
    EXPECT_EQ(na, nb) << "i=" << i;
  }
  const StatsSnapshot mid = learned->CollectStats();
  EXPECT_GT(mid.locator_stale, 0u) << "churn queries must have seen a stale model";
  EXPECT_GT(mid.locator_fallbacks, 0u);

  // Deletes count as churn too.
  bool found = false;
  ASSERT_TRUE(classic->Delete(ds.objects[3], ObjectId(3), &found).ok());
  ASSERT_TRUE(found);
  ASSERT_TRUE(learned->Delete(ds.objects[3], ObjectId(3), &found).ok());
  ASSERT_TRUE(found);

  // Land exactly on the refresh threshold (8 inserts + 1 delete so far, 55
  // more writes = 64 stale writes): the last write re-trains the model, so
  // fresh snapshots hit it again (hits grow, stale stops growing).
  for (size_t i = 8; i < 63; ++i) {
    ASSERT_TRUE(classic->Insert(extra.objects[i], ObjectId(20000 + i)).ok());
    ASSERT_TRUE(learned->Insert(extra.objects[i], ObjectId(20000 + i)).ok());
  }
  const StatsSnapshot late = learned->CollectStats();
  EXPECT_GT(late.locator_rebuilds, rebuilds_at_build);
  const uint64_t stale_before = late.locator_stale, hits_before = late.locator_hits;
  for (size_t qi = 0; qi < 10; ++qi) {
    const Blob& q = ds.objects[(qi * 211) % ds.objects.size()];
    std::vector<ObjectId> ra, rb;
    ASSERT_TRUE(classic->RangeQuery(q, 0.25, &ra).ok());
    ASSERT_TRUE(learned->RangeQuery(q, 0.25, &rb).ok());
    EXPECT_EQ(SortedIds(ra), SortedIds(rb));
  }
  const StatsSnapshot fresh = learned->CollectStats();
  EXPECT_EQ(fresh.locator_stale, stale_before);
  EXPECT_GT(fresh.locator_hits, hits_before);
  EXPECT_TRUE(learned->CheckIntegrity().ok());
}

// Same churn discipline through the sharded router: per-shard models
// invalidate independently; results stay identical to a classic flat tree.
// Covers S=4 with the locator on, and S in {1,4} with the locator and the
// planner both on.
TEST(LocatorChurnTest, ShardedChurnStaysIdenticalToClassic) {
  Dataset ds = MakeSynthetic(1000, 47);
  Dataset extra = MakeSynthetic(40, 909);
  struct Cell {
    size_t shards;
    bool planner;
  };
  for (const Cell& cell : {Cell{4, false}, Cell{1, true}, Cell{4, true}}) {
    SCOPED_TRACE("S=" + std::to_string(cell.shards) +
                 " planner=" + std::to_string(cell.planner));
    std::unique_ptr<SpbTree> classic;
    ASSERT_TRUE(
        SpbTree::Build(ds.objects, ds.metric.get(), BaseOptions(), &classic)
            .ok());
    SpbTreeOptions opts = LocatorOptions();
    opts.enable_planner = cell.planner;
    opts.num_shards = cell.shards;
    std::unique_ptr<ShardedSpbTree> sharded;
    ASSERT_TRUE(
        ShardedSpbTree::Build(ds.objects, ds.metric.get(), opts, &sharded)
            .ok());
    const StatsSnapshot built = sharded->CollectStats();
    EXPECT_TRUE(built.locator_model_present);
    EXPECT_GE(built.locator_rebuilds, cell.shards);  // one per shard

    for (size_t i = 0; i < extra.objects.size(); ++i) {
      ASSERT_TRUE(
          classic->Insert(extra.objects[i], ObjectId(30000 + i)).ok());
      ASSERT_TRUE(
          sharded->Insert(extra.objects[i], ObjectId(30000 + i)).ok());
      if (i % 5 != 0) continue;
      const Blob& q = ds.objects[(i * 73) % ds.objects.size()];
      for (double r : {0.0, 0.3}) {
        std::vector<ObjectId> ra, rb;
        ASSERT_TRUE(classic->RangeQuery(q, r, &ra).ok());
        ASSERT_TRUE(sharded->RangeQuery(q, r, &rb).ok());
        EXPECT_EQ(SortedIds(ra), SortedIds(rb)) << "i=" << i << " r=" << r;
      }
      std::vector<Neighbor> na, nb;
      ASSERT_TRUE(classic->KnnQuery(q, 6, &na).ok());
      ASSERT_TRUE(sharded->KnnQuery(q, 6, &nb).ok());
      ASSERT_EQ(na.size(), nb.size());
      for (size_t j = 0; j < na.size(); ++j) {
        EXPECT_DOUBLE_EQ(na[j].distance, nb[j].distance) << "i=" << i;
      }
    }
    EXPECT_TRUE(sharded->CheckIntegrity().ok());
  }
}

// ---------------------------------------------------------------------------
// Planner routing identity: whatever the planner picks, results must equal
// both static traversals' results, and compdists must equal one of the two
// (the one the plan resolved to) — routing is a pure either/or, never a
// third behaviour.
TEST(PlannerTest, RoutedKnnMatchesOneOfTheStaticConfigs) {
  Dataset ds = MakeSynthetic(2000, 61);
  SpbTreeOptions opts = BaseOptions();
  opts.enable_planner = true;
  std::unique_ptr<SpbTree> planned, static_tree;
  ASSERT_TRUE(SpbTree::Build(ds.objects, ds.metric.get(), opts, &planned).ok());
  ASSERT_TRUE(
      SpbTree::Build(ds.objects, ds.metric.get(), BaseOptions(), &static_tree)
          .ok());

  size_t greedy_like = 0, incremental_like = 0;
  for (size_t qi = 0; qi < 25; ++qi) {
    const Blob& q = ds.objects[(qi * 83) % ds.objects.size()];
    for (size_t k : {size_t{3}, size_t{15}}) {
      QueryStats si, sg, sp;
      std::vector<Neighbor> ni, ng, np;
      ASSERT_TRUE(static_tree
                      ->KnnQuery(q, k, &ni, &si, KnnTraversal::kIncremental)
                      .ok());
      ASSERT_TRUE(
          static_tree->KnnQuery(q, k, &ng, &sg, KnnTraversal::kGreedy).ok());
      // 3-arg overload → kAuto → the planner routes.
      ASSERT_TRUE(planned->KnnQuery(q, k, &np, &sp).ok());
      EXPECT_EQ(np, ni) << "qi=" << qi << " k=" << k;
      EXPECT_EQ(np, ng) << "qi=" << qi << " k=" << k;
      const bool matches_incremental =
          sp.distance_computations == si.distance_computations;
      const bool matches_greedy =
          sp.distance_computations == sg.distance_computations;
      EXPECT_TRUE(matches_incremental || matches_greedy)
          << "qi=" << qi << " k=" << k << " planned="
          << sp.distance_computations << " inc=" << si.distance_computations
          << " greedy=" << sg.distance_computations;
      if (matches_greedy && !matches_incremental) ++greedy_like;
      if (matches_incremental) ++incremental_like;
    }
  }
  const StatsSnapshot ps = planned->CollectStats();
  EXPECT_EQ(ps.planner_planned_knn, 50u);
  EXPECT_EQ(ps.planner_routed_greedy + ps.planner_routed_incremental, ps.planner_planned_knn);
}

// Planner-on range queries return the classic results (the planner only
// shapes cutoff/readahead on the range path — never the visit set).
TEST(PlannerTest, PlannedRangeQueriesMatchClassicResults) {
  Dataset ds = MakeSynthetic(1500, 71);
  SpbTreeOptions opts = BaseOptions();
  opts.enable_planner = true;
  std::unique_ptr<SpbTree> planned, classic;
  ASSERT_TRUE(SpbTree::Build(ds.objects, ds.metric.get(), opts, &planned).ok());
  ASSERT_TRUE(
      SpbTree::Build(ds.objects, ds.metric.get(), BaseOptions(), &classic)
          .ok());
  for (size_t qi = 0; qi < 20; ++qi) {
    const Blob& q = ds.objects[(qi * 101) % ds.objects.size()];
    for (double r : {0.0, 0.15, 0.4}) {
      std::vector<ObjectId> ra, rb;
      ASSERT_TRUE(classic->RangeQuery(q, r, &ra).ok());
      ASSERT_TRUE(planned->RangeQuery(q, r, &rb).ok());
      EXPECT_EQ(SortedIds(ra), SortedIds(rb)) << "qi=" << qi << " r=" << r;
    }
  }
  EXPECT_GT(planned->CollectStats().planner_planned_range, 0u);
}

// ---------------------------------------------------------------------------
// Meta files written while the planner persisted its calibration EMA end in
// one more F64. Open must ignore it: an index carrying that trailing field
// answers every query with the same results, PA and compdists as the same
// index without it.
TEST(LegacyMetaTest, TrailingCalibrationFieldIsIgnoredOnOpen) {
  const std::string dir =
      (fs::temp_directory_path() / "spb_learned_meta").string();
  const std::string old_dir =
      (fs::temp_directory_path() / "spb_learned_meta_old").string();
  fs::remove_all(dir);
  fs::remove_all(old_dir);
  Dataset ds = MakeSynthetic(800, 13);
  SpbTreeOptions opts = LocatorOptions();
  opts.enable_planner = true;
  opts.storage_dir = dir;
  {
    std::unique_ptr<SpbTree> tree;
    ASSERT_TRUE(SpbTree::Build(ds.objects, ds.metric.get(), opts, &tree).ok());
    ASSERT_TRUE(tree->Save().ok());
  }
  fs::copy(dir, old_dir, fs::copy_options::recursive);

  // Append one F64 to the meta payload and bump the length word at page 0,
  // offset 8 (the payload starts at page 1).
  const std::string meta = old_dir + "/meta.spb";
  std::vector<uint8_t> bytes;
  {
    std::ifstream in(meta, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GE(bytes.size(), 2 * kPageSize);
  const uint64_t len = DecodeFixed64(bytes.data() + 8);
  const size_t end = kPageSize + len;
  bytes.resize(std::max(bytes.size(),
                        (end + 8 + kPageSize - 1) / kPageSize * kPageSize));
  EncodeDouble(bytes.data() + end, 1.94e4);
  EncodeFixed64(bytes.data() + 8, len + 8);
  {
    std::ofstream out(meta, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              std::streamsize(bytes.size()));
    ASSERT_TRUE(out.good());
  }

  std::unique_ptr<SpbTree> fresh, old;
  ASSERT_TRUE(SpbTree::Open(dir, ds.metric.get(), opts, &fresh).ok());
  ASSERT_TRUE(SpbTree::Open(old_dir, ds.metric.get(), opts, &old).ok());
  EXPECT_TRUE(old->CollectStats().locator_model_present);
  EXPECT_TRUE(old->CheckIntegrity().ok());
  for (size_t qi = 0; qi < 15; ++qi) {
    const Blob& q = ds.objects[(qi * 53) % ds.objects.size()];
    for (double r : {0.0, 0.2}) {
      std::vector<ObjectId> a, b;
      QueryStats sa, sb;
      fresh->FlushCaches();
      old->FlushCaches();
      ASSERT_TRUE(fresh->RangeQuery(q, r, &a, &sa).ok());
      ASSERT_TRUE(old->RangeQuery(q, r, &b, &sb).ok());
      EXPECT_EQ(a, b) << "qi=" << qi << " r=" << r;
      EXPECT_EQ(sa.page_accesses, sb.page_accesses) << "qi=" << qi;
      EXPECT_EQ(sa.distance_computations, sb.distance_computations)
          << "qi=" << qi;
    }
    for (KnnTraversal t : {KnnTraversal::kIncremental, KnnTraversal::kGreedy}) {
      std::vector<Neighbor> a, b;
      QueryStats sa, sb;
      fresh->FlushCaches();
      old->FlushCaches();
      ASSERT_TRUE(fresh->KnnQuery(q, 5, &a, &sa, t).ok());
      ASSERT_TRUE(old->KnnQuery(q, 5, &b, &sb, t).ok());
      EXPECT_EQ(a, b) << "qi=" << qi;
      EXPECT_EQ(sa.page_accesses, sb.page_accesses) << "qi=" << qi;
      EXPECT_EQ(sa.distance_computations, sb.distance_computations)
          << "qi=" << qi;
    }
  }
  fresh.reset();
  old.reset();
  fs::remove_all(dir);
  fs::remove_all(old_dir);
}

// ApplyTuning toggles the locator live: off drops the model (queries fall
// back), on re-trains it.
TEST(LocatorTuningTest, ToggleDropsAndRetrainsModel) {
  Dataset ds = MakeSynthetic(600, 83);
  std::unique_ptr<SpbTree> tree;
  ASSERT_TRUE(
      SpbTree::Build(ds.objects, ds.metric.get(), LocatorOptions(), &tree)
          .ok());
  EXPECT_TRUE(tree->CollectStats().locator_model_present);

  TuningOptions t = tree->tuning();
  EXPECT_TRUE(t.enable_learned_locator);
  t.enable_learned_locator = false;
  ASSERT_TRUE(tree->ApplyTuning(t).ok());
  EXPECT_FALSE(tree->CollectStats().locator_model_present);
  std::vector<ObjectId> ids;
  ASSERT_TRUE(tree->RangeQuery(ds.objects[1], 0.0, &ids).ok());
  EXPECT_TRUE(std::find(ids.begin(), ids.end(), ObjectId(1)) != ids.end());

  t.enable_learned_locator = true;
  ASSERT_TRUE(tree->ApplyTuning(t).ok());
  EXPECT_TRUE(tree->CollectStats().locator_model_present);
  ASSERT_TRUE(tree->RangeQuery(ds.objects[1], 0.0, &ids).ok());
  EXPECT_TRUE(std::find(ids.begin(), ids.end(), ObjectId(1)) != ids.end());
}

}  // namespace
}  // namespace spb
