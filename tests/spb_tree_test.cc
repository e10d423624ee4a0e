#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <set>

#include "common/rng.h"
#include "core/spb_tree.h"
#include "data/datasets.h"

namespace spb {
namespace {

// Brute-force references.
std::set<ObjectId> BruteRange(const Dataset& ds, const Blob& q, double r) {
  std::set<ObjectId> out;
  for (size_t i = 0; i < ds.objects.size(); ++i) {
    if (ds.metric->Distance(q, ds.objects[i]) <= r) out.insert(ObjectId(i));
  }
  return out;
}

std::vector<double> BruteKnnDistances(const Dataset& ds, const Blob& q,
                                      size_t k) {
  std::vector<double> d;
  d.reserve(ds.objects.size());
  for (const Blob& o : ds.objects) d.push_back(ds.metric->Distance(q, o));
  std::sort(d.begin(), d.end());
  d.resize(std::min(k, d.size()));
  return d;
}

struct SpbCase {
  std::string label;
  std::string dataset;
  CurveType curve;
  size_t num_pivots;
};

class SpbQueryTest : public ::testing::TestWithParam<SpbCase> {
 protected:
  void SetUp() override {
    const auto& p = GetParam();
    ds_ = MakeDatasetByName(p.dataset, 1500, 77);
    SpbTreeOptions opts;
    opts.num_pivots = p.num_pivots;
    opts.curve = p.curve;
    ASSERT_TRUE(SpbTree::Build(ds_.objects, ds_.metric.get(), opts, &tree_)
                    .ok());
  }

  Dataset ds_;
  std::unique_ptr<SpbTree> tree_;
};

TEST_P(SpbQueryTest, BuildIndexesEverything) {
  EXPECT_EQ(tree_->size(), ds_.objects.size());
  EXPECT_TRUE(tree_->CheckIntegrity().ok());
}

TEST_P(SpbQueryTest, RangeQueryMatchesBruteForce) {
  const double d_plus = ds_.metric->max_distance();
  Rng rng(5);
  for (double frac : {0.02, 0.08, 0.32}) {
    for (int t = 0; t < 8; ++t) {
      const Blob& q = ds_.objects[rng.Uniform(ds_.objects.size())];
      std::vector<ObjectId> got;
      ASSERT_TRUE(tree_->RangeQuery(q, frac * d_plus, &got).ok());
      std::set<ObjectId> got_set(got.begin(), got.end());
      EXPECT_EQ(got_set.size(), got.size()) << "duplicate results";
      EXPECT_EQ(got_set, BruteRange(ds_, q, frac * d_plus))
          << GetParam().label << " r=" << frac * d_plus;
    }
  }
}

TEST_P(SpbQueryTest, RangeQueryWithForeignQueryObject) {
  // Query objects not in the dataset exercise the "query anywhere" path.
  Dataset probe = MakeDatasetByName(GetParam().dataset, 10, 999);
  const double r = 0.1 * ds_.metric->max_distance();
  for (const Blob& q : probe.objects) {
    std::vector<ObjectId> got;
    ASSERT_TRUE(tree_->RangeQuery(q, r, &got).ok());
    EXPECT_EQ(std::set<ObjectId>(got.begin(), got.end()),
              BruteRange(ds_, q, r));
  }
}

TEST_P(SpbQueryTest, KnnMatchesBruteForceDistances) {
  Rng rng(6);
  for (size_t k : {1u, 4u, 16u}) {
    for (int t = 0; t < 8; ++t) {
      const Blob& q = ds_.objects[rng.Uniform(ds_.objects.size())];
      std::vector<Neighbor> got;
      ASSERT_TRUE(tree_->KnnQuery(q, k, &got).ok());
      const auto want = BruteKnnDistances(ds_, q, k);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_NEAR(got[i].distance, want[i], 1e-9)
            << GetParam().label << " k=" << k << " i=" << i;
        // Distances reported must be the true metric distances.
        EXPECT_NEAR(ds_.metric->Distance(q, ds_.objects[got[i].id]),
                    got[i].distance, 1e-9);
      }
    }
  }
}

TEST_P(SpbQueryTest, GreedyTraversalReturnsSameKnn) {
  Rng rng(7);
  for (int t = 0; t < 10; ++t) {
    const Blob& q = ds_.objects[rng.Uniform(ds_.objects.size())];
    std::vector<Neighbor> inc, greedy;
    ASSERT_TRUE(
        tree_->KnnQuery(q, 8, &inc, nullptr, KnnTraversal::kIncremental)
            .ok());
    ASSERT_TRUE(
        tree_->KnnQuery(q, 8, &greedy, nullptr, KnnTraversal::kGreedy).ok());
    ASSERT_EQ(inc.size(), greedy.size());
    for (size_t i = 0; i < inc.size(); ++i) {
      EXPECT_NEAR(inc[i].distance, greedy[i].distance, 1e-9);
    }
  }
}

// With the planner off the default traversal is greedy: the 4-argument
// KnnQuery runs exactly what an explicit kGreedy call runs — the same
// neighbours and, from the same flushed caches, the same PA and compdists.
TEST_P(SpbQueryTest, DefaultTraversalIsGreedy) {
  ASSERT_FALSE(tree_->options().enable_planner);
  Rng rng(8);
  for (size_t k : {1u, 8u}) {
    for (int t = 0; t < 10; ++t) {
      const Blob& q = ds_.objects[rng.Uniform(ds_.objects.size())];
      std::vector<Neighbor> def, greedy;
      QueryStats s_def, s_greedy;
      tree_->FlushCaches();
      ASSERT_TRUE(tree_->KnnQuery(q, k, &def, &s_def).ok());
      tree_->FlushCaches();
      ASSERT_TRUE(
          tree_->KnnQuery(q, k, &greedy, &s_greedy, KnnTraversal::kGreedy)
              .ok());
      EXPECT_EQ(def, greedy) << GetParam().label << " k=" << k;
      EXPECT_EQ(s_def.page_accesses, s_greedy.page_accesses)
          << GetParam().label << " k=" << k;
      EXPECT_EQ(s_def.distance_computations, s_greedy.distance_computations)
          << GetParam().label << " k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DatasetsAndCurves, SpbQueryTest,
    ::testing::Values(
        SpbCase{"words_hilbert", "words", CurveType::kHilbert, 5},
        SpbCase{"words_zorder", "words", CurveType::kZOrder, 5},
        SpbCase{"color_hilbert", "color", CurveType::kHilbert, 5},
        SpbCase{"color_zorder", "color", CurveType::kZOrder, 5},
        SpbCase{"dna_hilbert", "dna", CurveType::kHilbert, 3},
        SpbCase{"signature_hilbert", "signature", CurveType::kHilbert, 5},
        SpbCase{"synthetic_hilbert", "synthetic", CurveType::kHilbert, 5},
        SpbCase{"color_1pivot", "color", CurveType::kHilbert, 1},
        SpbCase{"color_9pivots", "color", CurveType::kHilbert, 9}),
    [](const ::testing::TestParamInfo<SpbCase>& info) {
      return info.param.label;
    });

// ------------------------------------------------------------------ updates

class SpbUpdateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = MakeWords(800, 3);
    extra_ = MakeWords(200, 4);
    SpbTreeOptions opts;
    ASSERT_TRUE(
        SpbTree::Build(ds_.objects, ds_.metric.get(), opts, &tree_).ok());
  }

  Dataset ds_, extra_;
  std::unique_ptr<SpbTree> tree_;
};

TEST_F(SpbUpdateTest, InsertedObjectsAreFound) {
  for (size_t i = 0; i < extra_.objects.size(); ++i) {
    ASSERT_TRUE(
        tree_->Insert(extra_.objects[i], ObjectId(ds_.objects.size() + i))
            .ok());
  }
  EXPECT_EQ(tree_->size(), 1000u);
  EXPECT_TRUE(tree_->CheckIntegrity().ok());

  // Merge datasets and compare against brute force.
  Dataset merged = ds_;
  merged.objects.insert(merged.objects.end(), extra_.objects.begin(),
                        extra_.objects.end());
  Rng rng(1);
  for (int t = 0; t < 10; ++t) {
    const Blob& q = merged.objects[rng.Uniform(merged.objects.size())];
    std::vector<ObjectId> got;
    ASSERT_TRUE(tree_->RangeQuery(q, 2.0, &got).ok());
    EXPECT_EQ(std::set<ObjectId>(got.begin(), got.end()),
              BruteRange(merged, q, 2.0));
  }
}

TEST_F(SpbUpdateTest, DeletedObjectsDisappear) {
  // Delete every third object.
  std::set<ObjectId> deleted;
  for (size_t i = 0; i < ds_.objects.size(); i += 3) {
    bool found;
    ASSERT_TRUE(tree_->Delete(ds_.objects[i], ObjectId(i), &found).ok());
    EXPECT_TRUE(found) << i;
    deleted.insert(ObjectId(i));
  }
  EXPECT_EQ(tree_->size(), ds_.objects.size() - deleted.size());

  Rng rng(2);
  for (int t = 0; t < 10; ++t) {
    const Blob& q = ds_.objects[rng.Uniform(ds_.objects.size())];
    std::vector<ObjectId> got;
    ASSERT_TRUE(tree_->RangeQuery(q, 3.0, &got).ok());
    std::set<ObjectId> want;
    for (ObjectId id : BruteRange(ds_, q, 3.0)) {
      if (!deleted.count(id)) want.insert(id);
    }
    EXPECT_EQ(std::set<ObjectId>(got.begin(), got.end()), want);
  }
}

TEST_F(SpbUpdateTest, DeleteMissingObjectReportsNotFound) {
  bool found;
  ASSERT_TRUE(
      tree_->Delete(BlobFromString("zzzznotindataset"), 12345, &found).ok());
  EXPECT_FALSE(found);
  EXPECT_EQ(tree_->size(), 800u);
}

TEST_F(SpbUpdateTest, DeleteThenReinsertRoundTrips) {
  bool found;
  ASSERT_TRUE(tree_->Delete(ds_.objects[5], 5, &found).ok());
  ASSERT_TRUE(found);
  ASSERT_TRUE(tree_->Insert(ds_.objects[5], 5).ok());
  std::vector<ObjectId> got;
  ASSERT_TRUE(tree_->RangeQuery(ds_.objects[5], 0.0, &got).ok());
  EXPECT_TRUE(std::find(got.begin(), got.end(), 5u) != got.end());
}

// ------------------------------------------------------------------- stats

TEST(SpbStatsTest, QueryStatsAreCountedAndCacheSensitive) {
  Dataset ds = MakeColor(3000, 11);
  SpbTreeOptions opts;
  std::unique_ptr<SpbTree> tree;
  ASSERT_TRUE(SpbTree::Build(ds.objects, ds.metric.get(), opts, &tree).ok());

  tree->FlushCaches();
  QueryStats cold;
  std::vector<Neighbor> result;
  ASSERT_TRUE(tree->KnnQuery(ds.objects[0], 8, &result, &cold).ok());
  EXPECT_GT(cold.page_accesses, 0u);
  EXPECT_GT(cold.distance_computations, 0u);
  EXPECT_GE(cold.elapsed_seconds, 0.0);

  // Same query warm: cached pages are not counted as accesses.
  QueryStats warm;
  ASSERT_TRUE(tree->KnnQuery(ds.objects[0], 8, &result, &warm).ok());
  EXPECT_LT(warm.page_accesses, cold.page_accesses);
  EXPECT_EQ(warm.distance_computations, cold.distance_computations);
}

TEST(SpbStatsTest, FewerDistanceComputationsThanLinearScan) {
  Dataset ds = MakeColor(3000, 12);
  SpbTreeOptions opts;
  std::unique_ptr<SpbTree> tree;
  ASSERT_TRUE(SpbTree::Build(ds.objects, ds.metric.get(), opts, &tree).ok());
  QueryStats stats;
  std::vector<Neighbor> result;
  ASSERT_TRUE(tree->KnnQuery(ds.objects[42], 8, &result, &stats).ok());
  // The whole point of the index: far fewer than |O| distance computations.
  EXPECT_LT(stats.distance_computations, ds.objects.size() / 2);
}

TEST(SpbStatsTest, ConstructionCostIsTracked) {
  Dataset ds = MakeWords(500, 13);
  SpbTreeOptions opts;
  std::unique_ptr<SpbTree> tree;
  ASSERT_TRUE(SpbTree::Build(ds.objects, ds.metric.get(), opts, &tree).ok());
  const QueryStats cost = tree->cumulative_stats();
  // Mapping alone costs |O| * |P| distance computations.
  EXPECT_GE(cost.distance_computations, 500u * 5u);
  EXPECT_GT(cost.page_accesses, 0u);
}

TEST(SpbStatsTest, StorageBytesReflectBothFiles) {
  Dataset ds = MakeWords(2000, 14);
  SpbTreeOptions opts;
  std::unique_ptr<SpbTree> tree;
  ASSERT_TRUE(SpbTree::Build(ds.objects, ds.metric.get(), opts, &tree).ok());
  EXPECT_GT(tree->storage_bytes(), 2000u * 4u);  // at least the payloads
  EXPECT_EQ(tree->storage_bytes() % 1, 0u);
  EXPECT_GE(tree->storage_bytes(),
            tree->btree().file_bytes() + tree->raf().file_bytes());
}

// -------------------------------------------------------------- cost model

TEST(SpbCostModelTest, RangeEstimateTracksActualWithinFactor) {
  Dataset ds = MakeSynthetic(4000, 21);
  SpbTreeOptions opts;
  std::unique_ptr<SpbTree> tree;
  ASSERT_TRUE(SpbTree::Build(ds.objects, ds.metric.get(), opts, &tree).ok());

  const double r = 0.08 * ds.metric->max_distance();
  double actual_sum = 0, est_sum = 0;
  for (int t = 0; t < 30; ++t) {
    const Blob& q = ds.objects[size_t(t)];
    const CostEstimate est = tree->EstimateRangeCost(q, r);
    QueryStats stats;
    std::vector<ObjectId> result;
    tree->FlushCaches();
    ASSERT_TRUE(tree->RangeQuery(q, r, &result, &stats).ok());
    actual_sum += double(stats.distance_computations);
    est_sum += est.distance_computations;
  }
  // Aggregate accuracy within 2x (the paper reports >80% per-query accuracy
  // on real data; our bound is deliberately loose for CI stability).
  EXPECT_GT(est_sum, actual_sum * 0.4);
  EXPECT_LT(est_sum, actual_sum * 2.5);
}

TEST(SpbCostModelTest, KnnRadiusEstimateIsPositiveAndOrdered) {
  Dataset ds = MakeSynthetic(3000, 22);
  SpbTreeOptions opts;
  std::unique_ptr<SpbTree> tree;
  ASSERT_TRUE(SpbTree::Build(ds.objects, ds.metric.get(), opts, &tree).ok());
  const Blob& q = ds.objects[7];
  const CostEstimate e1 = tree->EstimateKnnCost(q, 1);
  const CostEstimate e32 = tree->EstimateKnnCost(q, 32);
  EXPECT_GE(e32.estimated_radius, e1.estimated_radius);
  EXPECT_GE(e32.distance_computations, e1.distance_computations);
}

// ------------------------------------------------------------ disk backing

TEST(SpbDiskTest, BuildOnDiskAndQuery) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "spb_disk_test").string();
  std::filesystem::remove_all(dir);
  Dataset ds = MakeWords(1000, 31);
  SpbTreeOptions opts;
  opts.storage_dir = dir;
  std::unique_ptr<SpbTree> tree;
  ASSERT_TRUE(SpbTree::Build(ds.objects, ds.metric.get(), opts, &tree).ok());
  EXPECT_TRUE(std::filesystem::exists(dir + "/btree.spb"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/raf.spb"));

  std::vector<ObjectId> got;
  ASSERT_TRUE(tree->RangeQuery(ds.objects[0], 2.0, &got).ok());
  EXPECT_EQ(std::set<ObjectId>(got.begin(), got.end()),
            BruteRange(ds, ds.objects[0], 2.0));
  tree.reset();
  std::filesystem::remove_all(dir);
}

// -------------------------------------------------------------- edge cases

TEST(SpbEdgeTest, EmptyIndexAnswersQueries) {
  Dataset ds = MakeWords(10, 1);
  std::vector<Blob> empty;
  SpbTreeOptions opts;
  std::unique_ptr<SpbTree> tree;
  ASSERT_TRUE(SpbTree::Build(empty, ds.metric.get(), opts, &tree).ok());
  std::vector<ObjectId> range;
  ASSERT_TRUE(tree->RangeQuery(ds.objects[0], 5.0, &range).ok());
  EXPECT_TRUE(range.empty());
  std::vector<Neighbor> knn;
  ASSERT_TRUE(tree->KnnQuery(ds.objects[0], 3, &knn).ok());
  EXPECT_TRUE(knn.empty());
}

TEST(SpbEdgeTest, SingleObjectIndex) {
  Dataset ds = MakeWords(1, 1);
  SpbTreeOptions opts;
  std::unique_ptr<SpbTree> tree;
  ASSERT_TRUE(SpbTree::Build(ds.objects, ds.metric.get(), opts, &tree).ok());
  std::vector<Neighbor> knn;
  ASSERT_TRUE(tree->KnnQuery(ds.objects[0], 5, &knn).ok());
  ASSERT_EQ(knn.size(), 1u);
  EXPECT_EQ(knn[0].id, 0u);
  EXPECT_NEAR(knn[0].distance, 0.0, 1e-12);
}

TEST(SpbEdgeTest, KGreaterThanDatasetReturnsAll) {
  Dataset ds = MakeWords(20, 1);
  SpbTreeOptions opts;
  std::unique_ptr<SpbTree> tree;
  ASSERT_TRUE(SpbTree::Build(ds.objects, ds.metric.get(), opts, &tree).ok());
  std::vector<Neighbor> knn;
  ASSERT_TRUE(tree->KnnQuery(ds.objects[0], 100, &knn).ok());
  EXPECT_EQ(knn.size(), 20u);
  EXPECT_TRUE(std::is_sorted(knn.begin(), knn.end(),
                             [](const Neighbor& a, const Neighbor& b) {
                               return a.distance < b.distance;
                             }));
}

TEST(SpbEdgeTest, ZeroRadiusFindsExactMatchesOnly) {
  Dataset ds = MakeWords(500, 2);
  SpbTreeOptions opts;
  std::unique_ptr<SpbTree> tree;
  ASSERT_TRUE(SpbTree::Build(ds.objects, ds.metric.get(), opts, &tree).ok());
  std::vector<ObjectId> got;
  ASSERT_TRUE(tree->RangeQuery(ds.objects[17], 0.0, &got).ok());
  EXPECT_EQ(std::set<ObjectId>(got.begin(), got.end()),
            BruteRange(ds, ds.objects[17], 0.0));
  EXPECT_FALSE(got.empty());
}

TEST(SpbEdgeTest, RadiusCoveringEverythingReturnsAll) {
  Dataset ds = MakeColor(300, 3);
  SpbTreeOptions opts;
  std::unique_ptr<SpbTree> tree;
  ASSERT_TRUE(SpbTree::Build(ds.objects, ds.metric.get(), opts, &tree).ok());
  std::vector<ObjectId> got;
  ASSERT_TRUE(
      tree->RangeQuery(ds.objects[0], ds.metric->max_distance(), &got).ok());
  EXPECT_EQ(got.size(), 300u);
}

TEST(SpbEdgeTest, VaryingDeltaPreservesCorrectness) {
  Dataset ds = MakeColor(800, 4);
  for (double delta : {0.001, 0.005, 0.05, 0.2}) {
    SpbTreeOptions opts;
    opts.delta = delta;
    std::unique_ptr<SpbTree> tree;
    ASSERT_TRUE(SpbTree::Build(ds.objects, ds.metric.get(), opts, &tree).ok());
    std::vector<ObjectId> got;
    const double r = 0.1 * ds.metric->max_distance();
    ASSERT_TRUE(tree->RangeQuery(ds.objects[9], r, &got).ok());
    EXPECT_EQ(std::set<ObjectId>(got.begin(), got.end()),
              BruteRange(ds, ds.objects[9], r))
        << "delta=" << delta;
  }
}

TEST(SpbEdgeTest, DuplicateObjectsAllReported) {
  // 50 copies of the same word plus filler.
  Dataset ds = MakeWords(100, 5);
  for (int i = 0; i < 50; ++i) ds.objects.push_back(BlobFromString("twin"));
  SpbTreeOptions opts;
  std::unique_ptr<SpbTree> tree;
  ASSERT_TRUE(SpbTree::Build(ds.objects, ds.metric.get(), opts, &tree).ok());
  std::vector<ObjectId> got;
  ASSERT_TRUE(tree->RangeQuery(BlobFromString("twin"), 0.0, &got).ok());
  EXPECT_GE(got.size(), 50u);
}

// A child pointer leading back up the tree turns the node graph into a
// cycle. A version is a tree, so no query visits more nodes than the
// B+-tree file has pages: past that, range and kNN queries (both
// traversals) end in kCorruption instead of looping on a growing frontier.
TEST(SpbCorruptionTest, CyclicNodeGraphEndsQueriesInCorruption) {
  Dataset ds = MakeSynthetic(20000, 31);
  std::unique_ptr<SpbTree> tree;
  ASSERT_TRUE(
      SpbTree::Build(ds.objects, ds.metric.get(), SpbTreeOptions{}, &tree)
          .ok());
  const Blob q = MakeSynthetic(1, 32).objects[0];  // not in the index
  const std::vector<double> phi_q = tree->space().Phi(q, *ds.metric);

  // Point the root's child nearest to q back at the root: kNN then
  // re-expands the root ahead of any neighbour, and every range region
  // meets it.
  BPlusTree& bt = tree->btree();
  const PageId root = bt.root();
  BptNode node;
  ASSERT_TRUE(bt.ReadNode(root, &node).ok());
  ASSERT_FALSE(node.is_leaf);
  size_t nearest = 0;
  double nearest_mind = std::numeric_limits<double>::infinity();
  std::vector<uint32_t> lo, hi;
  for (size_t i = 0; i < node.internal_entries.size(); ++i) {
    const InternalEntry& e = node.internal_entries[i];
    bt.DecodeBox(e.mbb_min, e.mbb_max, &lo, &hi);
    const double mind = tree->space().LowerBoundToBox(phi_q, lo, hi);
    if (mind < nearest_mind) {
      nearest_mind = mind;
      nearest = i;
    }
  }
  ASSERT_LT(nearest_mind, BruteKnnDistances(ds, q, 1)[0]);
  node.internal_entries[nearest].child = root;
  Page page;
  node.SerializeTo(&page);
  ASSERT_TRUE(bt.pool().file()->Write(root, page).ok());
  tree->FlushCaches();

  std::vector<ObjectId> ids;
  EXPECT_EQ(tree->RangeQuery(q, ds.metric->max_distance(), &ids).code(),
            Status::Code::kCorruption);
  for (const KnnTraversal t :
       {KnnTraversal::kGreedy, KnnTraversal::kIncremental}) {
    std::vector<Neighbor> nn;
    EXPECT_EQ(tree->KnnQuery(q, 10, &nn, nullptr, t).code(),
              Status::Code::kCorruption)
        << (t == KnnTraversal::kGreedy ? "greedy" : "best-first");
  }
}

}  // namespace
}  // namespace spb
