#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "data/datasets.h"
#include "edindex/ed_index.h"
#include "join/join_common.h"
#include "join/quickjoin.h"
#include "join/sja.h"
#include "pivots/selection.h"

namespace spb {
namespace {

std::set<JoinPair> ToSet(std::vector<JoinPair> v) {
  return std::set<JoinPair>(v.begin(), v.end());
}

struct JoinCase {
  std::string label;
  std::string dataset;
  double eps_frac;
};

class JoinTest : public ::testing::TestWithParam<JoinCase> {
 protected:
  void SetUp() override {
    const auto& p = GetParam();
    q_ = MakeDatasetByName(p.dataset, 400, 100);
    o_ = MakeDatasetByName(p.dataset, 500, 200);
    eps_ = p.eps_frac * q_.metric->max_distance();
    expected_ = ToSet(NestedLoopJoin(q_.objects, o_.objects, *q_.metric, eps_));
  }

  // Builds a pair of Z-order SPB-trees sharing one pivot table.
  void BuildSpbPair(std::unique_ptr<SpbTree>* tq, std::unique_ptr<SpbTree>* to) {
    // Shared pivots chosen over the union of both sets.
    std::vector<Blob> combined = q_.objects;
    combined.insert(combined.end(), o_.objects.begin(), o_.objects.end());
    PivotSelectionOptions popts;
    popts.num_pivots = 5;
    PivotTable pivots(SelectPivots(PivotSelectorType::kHfi, combined,
                                   *q_.metric, popts));
    SpbTreeOptions opts;
    opts.curve = CurveType::kZOrder;
    ASSERT_TRUE(SpbTree::BuildWithPivots(q_.objects, q_.metric.get(), pivots,
                                         opts, tq)
                    .ok());
    ASSERT_TRUE(SpbTree::BuildWithPivots(o_.objects, o_.metric.get(), pivots,
                                         opts, to)
                    .ok());
  }

  Dataset q_, o_;
  double eps_;
  std::set<JoinPair> expected_;
};

TEST_P(JoinTest, SjaMatchesNestedLoop) {
  std::unique_ptr<SpbTree> tq, to;
  BuildSpbPair(&tq, &to);
  tq->FlushCaches();
  to->FlushCaches();
  std::vector<JoinPair> got;
  QueryStats stats;
  ASSERT_TRUE(SimilarityJoinSJA(*tq, *to, eps_, &got, &stats).ok());
  EXPECT_EQ(got.size(), ToSet(got).size()) << "SJA produced duplicates";
  EXPECT_EQ(ToSet(got), expected_) << GetParam().label;
  EXPECT_GT(stats.page_accesses, 0u);
}

TEST_P(JoinTest, QuickjoinMatchesNestedLoop) {
  Quickjoin qj(q_.metric.get());
  std::vector<JoinPair> got = qj.Join(q_.objects, o_.objects, eps_);
  EXPECT_EQ(ToSet(got), expected_) << GetParam().label;
}

TEST_P(JoinTest, RangeJoinMatchesNestedLoop) {
  std::unique_ptr<SpbTree> to;
  SpbTreeOptions opts;
  ASSERT_TRUE(SpbTree::Build(o_.objects, o_.metric.get(), opts, &to).ok());
  std::vector<JoinPair> got;
  ASSERT_TRUE(RangeJoin(q_.objects, *to, eps_, &got).ok());
  EXPECT_EQ(ToSet(got), expected_) << GetParam().label;
}

TEST_P(JoinTest, EdIndexMatchesNestedLoop) {
  EdIndexOptions eopts;
  eopts.epsilon_build = eps_;
  std::unique_ptr<EdIndex> index;
  ASSERT_TRUE(
      EdIndex::Build(q_.objects, o_.objects, q_.metric.get(), eopts, &index)
          .ok());
  std::vector<JoinPair> got;
  QueryStats stats;
  ASSERT_TRUE(index->SimilarityJoin(eps_, &got, &stats).ok());
  EXPECT_EQ(ToSet(got), expected_) << GetParam().label;
  EXPECT_EQ(got.size(), ToSet(got).size()) << "eD-index left duplicates";
}

INSTANTIATE_TEST_SUITE_P(
    DatasetsAndEps, JoinTest,
    ::testing::Values(JoinCase{"words_small", "words", 0.03},
                      JoinCase{"words_mid", "words", 0.06},
                      JoinCase{"color_small", "color", 0.02},
                      JoinCase{"color_mid", "color", 0.06},
                      JoinCase{"signature_small", "signature", 0.04},
                      JoinCase{"synthetic_mid", "synthetic", 0.06}),
    [](const ::testing::TestParamInfo<JoinCase>& info) {
      return info.param.label;
    });

// ----------------------------------------------------------- preconditions

TEST(SjaPreconditionTest, RejectsHilbertTrees) {
  Dataset ds = MakeWords(100, 1);
  SpbTreeOptions opts;  // Hilbert default
  std::unique_ptr<SpbTree> tq, to;
  ASSERT_TRUE(SpbTree::Build(ds.objects, ds.metric.get(), opts, &tq).ok());
  ASSERT_TRUE(SpbTree::Build(ds.objects, ds.metric.get(), opts, &to).ok());
  std::vector<JoinPair> got;
  EXPECT_FALSE(SimilarityJoinSJA(*tq, *to, 1.0, &got).ok());
}

TEST(SjaPreconditionTest, RejectsMismatchedPivotTables) {
  Dataset ds = MakeWords(200, 1);
  SpbTreeOptions opts;
  opts.curve = CurveType::kZOrder;
  std::unique_ptr<SpbTree> tq, to;
  opts.seed = 1;
  ASSERT_TRUE(SpbTree::Build(ds.objects, ds.metric.get(), opts, &tq).ok());
  opts.seed = 2;  // different pivots
  ASSERT_TRUE(SpbTree::Build(ds.objects, ds.metric.get(), opts, &to).ok());
  std::vector<JoinPair> got;
  EXPECT_FALSE(SimilarityJoinSJA(*tq, *to, 1.0, &got).ok());
}

TEST(EdIndexPreconditionTest, RejectsEpsilonLargerThanBuilt) {
  Dataset ds = MakeWords(100, 1);
  EdIndexOptions opts;
  opts.epsilon_build = 1.0;
  std::unique_ptr<EdIndex> index;
  ASSERT_TRUE(
      EdIndex::Build(ds.objects, ds.objects, ds.metric.get(), opts, &index)
          .ok());
  std::vector<JoinPair> got;
  EXPECT_FALSE(index->SimilarityJoin(2.0, &got).ok());
  EXPECT_TRUE(index->SimilarityJoin(1.0, &got).ok());
}

TEST(EdIndexPreconditionTest, ReplicationInflatesEntryCount) {
  Dataset ds = MakeColor(800, 2);
  EdIndexOptions opts;
  opts.epsilon_build = 0.06 * ds.metric->max_distance();
  std::unique_ptr<EdIndex> index;
  ASSERT_TRUE(
      EdIndex::Build(ds.objects, ds.objects, ds.metric.get(), opts, &index)
          .ok());
  EXPECT_GE(index->total_entries(), 1600u);  // at least one copy each
}

// --------------------------------------------------------------- edge cases

TEST(JoinEdgeTest, EmptySidesYieldEmptyResult) {
  Dataset ds = MakeWords(50, 3);
  std::vector<Blob> empty;
  EXPECT_TRUE(NestedLoopJoin(empty, ds.objects, *ds.metric, 1.0).empty());
  EXPECT_TRUE(NestedLoopJoin(ds.objects, empty, *ds.metric, 1.0).empty());
  Quickjoin qj(ds.metric.get());
  EXPECT_TRUE(qj.Join(empty, ds.objects, 1.0).empty());
  EXPECT_TRUE(qj.Join(ds.objects, empty, 1.0).empty());
}

TEST(JoinEdgeTest, ZeroEpsilonFindsExactDuplicatesAcrossSets) {
  Dataset q = MakeWords(100, 4);
  Dataset o = MakeWords(100, 5);
  o.objects[7] = q.objects[3];  // plant one exact duplicate
  const auto expected =
      ToSet(NestedLoopJoin(q.objects, o.objects, *q.metric, 0.0));
  ASSERT_TRUE(expected.count(JoinPair{3, 7}) == 1);
  Quickjoin qj(q.metric.get());
  EXPECT_EQ(ToSet(qj.Join(q.objects, o.objects, 0.0)), expected);
}

TEST(JoinEdgeTest, SjaSelfJoinStyleIdenticalSets) {
  // Joining a set with a copy of itself: every object pairs with its twin.
  Dataset ds = MakeColor(200, 6);
  std::vector<Blob> combined = ds.objects;
  PivotSelectionOptions popts;
  popts.num_pivots = 4;
  PivotTable pivots(
      SelectPivots(PivotSelectorType::kHfi, combined, *ds.metric, popts));
  SpbTreeOptions opts;
  opts.curve = CurveType::kZOrder;
  std::unique_ptr<SpbTree> tq, to;
  ASSERT_TRUE(SpbTree::BuildWithPivots(ds.objects, ds.metric.get(), pivots,
                                       opts, &tq)
                  .ok());
  ASSERT_TRUE(SpbTree::BuildWithPivots(ds.objects, ds.metric.get(), pivots,
                                       opts, &to)
                  .ok());
  std::vector<JoinPair> got;
  ASSERT_TRUE(SimilarityJoinSJA(*tq, *to, 0.0, &got).ok());
  std::set<JoinPair> got_set = ToSet(got);
  for (ObjectId i = 0; i < 200; ++i) {
    EXPECT_TRUE(got_set.count(JoinPair{i, i}) == 1) << i;
  }
}

TEST(JoinEdgeTest, QuickjoinDeterministicForSeed) {
  Dataset q = MakeWords(200, 7);
  Dataset o = MakeWords(200, 8);
  Quickjoin qj1(q.metric.get(), 32, 99);
  Quickjoin qj2(q.metric.get(), 32, 99);
  EXPECT_EQ(ToSet(qj1.Join(q.objects, o.objects, 2.0)),
            ToSet(qj2.Join(q.objects, o.objects, 2.0)));
}

TEST(JoinEdgeTest, QuickjoinCheaperThanNestedLoopOnSelectiveEps) {
  Dataset q = MakeColor(1500, 9);
  Dataset o = MakeColor(1500, 10);
  const double eps = 0.02 * q.metric->max_distance();
  QueryStats nl_stats, qj_stats;
  NestedLoopJoin(q.objects, o.objects, *q.metric, eps, &nl_stats);
  Quickjoin qj(q.metric.get());
  qj.Join(q.objects, o.objects, eps, &qj_stats);
  EXPECT_LT(qj_stats.distance_computations, nl_stats.distance_computations);
}

}  // namespace
}  // namespace spb
