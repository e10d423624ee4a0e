#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "common/rng.h"
#include "core/spb_tree.h"
#include "data/datasets.h"
#include "mindex/m_index.h"
#include "mtree/mtree.h"
#include "omni/omni_rtree.h"

namespace spb {
namespace {

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
  for (const Blob& o : ds.objects) d.push_back(ds.metric->Distance(q, o));
  std::sort(d.begin(), d.end());
  d.resize(std::min(k, d.size()));
  return d;
}

enum class MamKind { kMtree, kOmni, kMindex };

struct MamCase {
  std::string label;
  MamKind kind;
  std::string dataset;
};

class MamTest : public ::testing::TestWithParam<MamCase> {
 protected:
  void SetUp() override {
    ds_ = MakeDatasetByName(GetParam().dataset, 1200, 55);
    index_ = BuildIndex(ds_.objects);
    ASSERT_NE(index_, nullptr);
  }

  std::unique_ptr<MetricIndex> BuildIndex(const std::vector<Blob>& objects) {
    switch (GetParam().kind) {
      case MamKind::kMtree: {
        MtreeOptions opts;
        std::unique_ptr<MTree> t;
        if (!MTree::Build(objects, ds_.metric.get(), opts, &t).ok()) {
          return nullptr;
        }
        return t;
      }
      case MamKind::kOmni: {
        OmniOptions opts;
        std::unique_ptr<OmniRTree> t;
        if (!OmniRTree::Build(objects, ds_.metric.get(), opts, &t).ok()) {
          return nullptr;
        }
        return t;
      }
      case MamKind::kMindex: {
        MIndexOptions opts;
        std::unique_ptr<MIndex> t;
        if (!MIndex::Build(objects, ds_.metric.get(), opts, &t).ok()) {
          return nullptr;
        }
        return t;
      }
    }
    return nullptr;
  }

  Dataset ds_;
  std::unique_ptr<MetricIndex> index_;
};

TEST_P(MamTest, RangeQueryMatchesBruteForce) {
  const double d_plus = ds_.metric->max_distance();
  Rng rng(5);
  for (double frac : {0.02, 0.08, 0.32}) {
    for (int t = 0; t < 6; ++t) {
      const Blob& q = ds_.objects[rng.Uniform(ds_.objects.size())];
      std::vector<ObjectId> got;
      ASSERT_TRUE(index_->RangeQuery(q, frac * d_plus, &got, nullptr).ok());
      EXPECT_EQ(std::set<ObjectId>(got.begin(), got.end()),
                BruteRange(ds_, q, frac * d_plus))
          << GetParam().label << " r=" << frac * d_plus;
    }
  }
}

TEST_P(MamTest, KnnMatchesBruteForceDistances) {
  Rng rng(6);
  for (size_t k : {1u, 8u, 32u}) {
    for (int t = 0; t < 6; ++t) {
      const Blob& q = ds_.objects[rng.Uniform(ds_.objects.size())];
      std::vector<Neighbor> got;
      ASSERT_TRUE(index_->KnnQuery(q, k, &got, nullptr).ok());
      const auto want = BruteKnnDistances(ds_, q, k);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_NEAR(got[i].distance, want[i], 1e-9)
            << GetParam().label << " k=" << k;
      }
    }
  }
}

TEST_P(MamTest, InsertedObjectsAreFound) {
  Dataset extra = MakeDatasetByName(GetParam().dataset, 150, 77);
  for (size_t i = 0; i < extra.objects.size(); ++i) {
    ASSERT_TRUE(
        index_->Insert(extra.objects[i], ObjectId(ds_.objects.size() + i))
            .ok());
  }
  Dataset merged = ds_;
  merged.objects.insert(merged.objects.end(), extra.objects.begin(),
                        extra.objects.end());
  const double r = 0.08 * ds_.metric->max_distance();
  Rng rng(8);
  for (int t = 0; t < 6; ++t) {
    const Blob& q = merged.objects[rng.Uniform(merged.objects.size())];
    std::vector<ObjectId> got;
    ASSERT_TRUE(index_->RangeQuery(q, r, &got, nullptr).ok());
    EXPECT_EQ(std::set<ObjectId>(got.begin(), got.end()),
              BruteRange(merged, q, r))
        << GetParam().label;
  }
}

TEST_P(MamTest, QueryStatsPopulated) {
  index_->FlushCaches();
  QueryStats stats;
  std::vector<Neighbor> got;
  ASSERT_TRUE(index_->KnnQuery(ds_.objects[0], 8, &got, &stats).ok());
  EXPECT_GT(stats.page_accesses, 0u);
  EXPECT_GT(stats.distance_computations, 0u);
  EXPECT_GT(index_->storage_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllBaselines, MamTest,
    ::testing::Values(MamCase{"mtree_words", MamKind::kMtree, "words"},
                      MamCase{"mtree_color", MamKind::kMtree, "color"},
                      MamCase{"mtree_signature", MamKind::kMtree, "signature"},
                      MamCase{"omni_words", MamKind::kOmni, "words"},
                      MamCase{"omni_color", MamKind::kOmni, "color"},
                      MamCase{"omni_synthetic", MamKind::kOmni, "synthetic"},
                      MamCase{"mindex_words", MamKind::kMindex, "words"},
                      MamCase{"mindex_color", MamKind::kMindex, "color"},
                      MamCase{"mindex_signature", MamKind::kMindex,
                              "signature"}),
    [](const ::testing::TestParamInfo<MamCase>& info) {
      return info.param.label;
    });

TEST(MtreeInvariantTest, BulkLoadedTreeIsConsistent) {
  Dataset ds = MakeColor(800, 9);
  MtreeOptions opts;
  std::unique_ptr<MTree> tree;
  ASSERT_TRUE(MTree::Build(ds.objects, ds.metric.get(), opts, &tree).ok());
  EXPECT_EQ(tree->size(), 800u);
  EXPECT_TRUE(tree->CheckInvariants().ok());
}

TEST(MtreeInvariantTest, InsertOnlyTreeIsConsistent) {
  Dataset ds = MakeWords(600, 10);
  MtreeOptions opts;
  std::unique_ptr<MTree> tree;
  ASSERT_TRUE(MTree::CreateEmpty(ds.metric.get(), opts, &tree).ok());
  for (size_t i = 0; i < ds.objects.size(); ++i) {
    ASSERT_TRUE(tree->Insert(ds.objects[i], ObjectId(i)).ok());
  }
  EXPECT_EQ(tree->size(), 600u);
  EXPECT_TRUE(tree->CheckInvariants().ok());
}

TEST(MamComparisonTest, SpbTreeStorageIsSmallest) {
  // Table 6's storage ranking: the SPB-tree's SFC compression beats MAMs
  // that store coordinates (OmniR), distance vectors (M-Index), or objects
  // in nodes (M-tree).
  Dataset ds = MakeWords(4000, 11);
  SpbTreeOptions sopts;
  std::unique_ptr<SpbTree> spb;
  ASSERT_TRUE(SpbTree::Build(ds.objects, ds.metric.get(), sopts, &spb).ok());
  MIndexOptions mopts;
  std::unique_ptr<MIndex> mindex;
  ASSERT_TRUE(MIndex::Build(ds.objects, ds.metric.get(), mopts, &mindex).ok());
  MtreeOptions topts;
  std::unique_ptr<MTree> mtree;
  ASSERT_TRUE(MTree::Build(ds.objects, ds.metric.get(), topts, &mtree).ok());

  EXPECT_LT(spb->storage_bytes(), mindex->storage_bytes());
  EXPECT_LT(spb->storage_bytes(), mtree->storage_bytes());
}

TEST(MamComparisonTest, MindexRejectsTooManyPivots) {
  Dataset ds = MakeWords(50, 12);
  MIndexOptions opts;
  opts.num_pivots = 64;
  std::unique_ptr<MIndex> index;
  EXPECT_FALSE(MIndex::Build(ds.objects, ds.metric.get(), opts, &index).ok());
}

TEST(MamComparisonTest, EmptyIndexesAnswerQueries) {
  Dataset ds = MakeWords(10, 13);
  std::vector<Blob> empty;
  MtreeOptions mopts;
  std::unique_ptr<MTree> mtree;
  ASSERT_TRUE(MTree::Build(empty, ds.metric.get(), mopts, &mtree).ok());
  OmniOptions oopts;
  std::unique_ptr<OmniRTree> omni;
  ASSERT_TRUE(OmniRTree::Build(empty, ds.metric.get(), oopts, &omni).ok());
  MIndexOptions iopts;
  std::unique_ptr<MIndex> mindex;
  ASSERT_TRUE(MIndex::Build(empty, ds.metric.get(), iopts, &mindex).ok());
  for (MetricIndex* idx : std::initializer_list<MetricIndex*>{
           mtree.get(), omni.get(), mindex.get()}) {
    // Each query overwrites the caller's stats, early returns included.
    const QueryStats stale{7, 7, 7.0};
    QueryStats stats = stale;
    std::vector<ObjectId> range;
    EXPECT_TRUE(idx->RangeQuery(ds.objects[0], 5.0, &range, &stats).ok());
    EXPECT_TRUE(range.empty());
    EXPECT_EQ(stats.distance_computations, 0u) << idx->name() << " range";
    std::vector<Neighbor> knn;
    for (size_t k : {3, 0}) {
      stats = stale;
      EXPECT_TRUE(idx->KnnQuery(ds.objects[0], k, &knn, &stats).ok());
      EXPECT_TRUE(knn.empty());
      EXPECT_EQ(stats.distance_computations, 0u)
          << idx->name() << " kNN k=" << k;
    }
  }
}

// ------------------------------------------------------------- StatScope

// A MetricIndex whose only behaviour is counting cumulative_stats() calls.
class CountingStatsIndex : public MetricIndex {
 public:
  Status Insert(const Blob&, ObjectId) override { return Status::OK(); }
  Status RangeQuery(const Blob&, double, std::vector<ObjectId>*,
                    QueryStats*) override {
    return Status::OK();
  }
  Status KnnQuery(const Blob&, size_t, std::vector<Neighbor>*,
                  QueryStats*) override {
    return Status::OK();
  }
  uint64_t storage_bytes() const override { return 0; }
  QueryStats cumulative_stats() const override {
    ++stats_calls;
    return totals;
  }
  void ResetCounters() override {}
  void FlushCaches() override {}
  std::string name() const override { return "counting"; }

  QueryStats totals;
  mutable int stats_calls = 0;
};

// A query whose caller passes no QueryStats reads no counters; one that
// passes a QueryStats gets the counters' delta over the scope.
TEST(StatScopeTest, ReadsCountersOnlyWhenAsked) {
  CountingStatsIndex index;
  {
    StatScope scope(index, nullptr);
    index.totals.page_accesses += 5;
  }
  EXPECT_EQ(index.stats_calls, 0);

  QueryStats out;
  {
    StatScope scope(index, &out);
    index.totals.page_accesses += 3;
    index.totals.distance_computations += 4;
  }
  EXPECT_EQ(index.stats_calls, 2);
  EXPECT_EQ(out.page_accesses, 3u);
  EXPECT_EQ(out.distance_computations, 4u);
  EXPECT_GE(out.elapsed_seconds, 0.0);
}

}  // namespace
}  // namespace spb
