#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <set>
#include <string>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/spb_tree.h"
#include "data/datasets.h"

namespace spb {
namespace {

namespace fs = std::filesystem;

class SpbPersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() / "spb_persist_test").string();
    fs::remove_all(dir_);
    ds_ = MakeWords(2000, 21);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::unique_ptr<SpbTree> BuildOnDisk() {
    SpbTreeOptions opts;
    opts.storage_dir = dir_;
    std::unique_ptr<SpbTree> tree;
    EXPECT_TRUE(
        SpbTree::Build(ds_.objects, ds_.metric.get(), opts, &tree).ok());
    return tree;
  }

  std::set<ObjectId> BruteRange(const Blob& q, double r) {
    std::set<ObjectId> out;
    for (size_t i = 0; i < ds_.objects.size(); ++i) {
      if (ds_.metric->Distance(q, ds_.objects[i]) <= r) {
        out.insert(ObjectId(i));
      }
    }
    return out;
  }

  std::string dir_;
  Dataset ds_;
};

TEST_F(SpbPersistenceTest, SaveThenOpenAnswersIdenticalQueries) {
  std::vector<ObjectId> before_range;
  std::vector<Neighbor> before_knn;
  {
    auto tree = BuildOnDisk();
    ASSERT_TRUE(tree->Save().ok());
    ASSERT_TRUE(tree->RangeQuery(ds_.objects[3], 2.0, &before_range).ok());
    ASSERT_TRUE(tree->KnnQuery(ds_.objects[3], 7, &before_knn).ok());
  }
  std::unique_ptr<SpbTree> reopened;
  SpbTreeOptions opts;
  ASSERT_TRUE(
      SpbTree::Open(dir_, ds_.metric.get(), opts, &reopened).ok());
  EXPECT_EQ(reopened->size(), ds_.objects.size());

  std::vector<ObjectId> after_range;
  std::vector<Neighbor> after_knn;
  ASSERT_TRUE(reopened->RangeQuery(ds_.objects[3], 2.0, &after_range).ok());
  ASSERT_TRUE(reopened->KnnQuery(ds_.objects[3], 7, &after_knn).ok());
  EXPECT_EQ(std::set<ObjectId>(before_range.begin(), before_range.end()),
            std::set<ObjectId>(after_range.begin(), after_range.end()));
  ASSERT_EQ(before_knn.size(), after_knn.size());
  for (size_t i = 0; i < before_knn.size(); ++i) {
    EXPECT_DOUBLE_EQ(before_knn[i].distance, after_knn[i].distance);
  }
}

TEST_F(SpbPersistenceTest, ReopenedIndexMatchesBruteForce) {
  {
    auto tree = BuildOnDisk();
    ASSERT_TRUE(tree->Save().ok());
  }
  std::unique_ptr<SpbTree> tree;
  SpbTreeOptions opts;
  ASSERT_TRUE(SpbTree::Open(dir_, ds_.metric.get(), opts, &tree).ok());
  Rng rng(4);
  for (int t = 0; t < 10; ++t) {
    const Blob& q = ds_.objects[rng.Uniform(ds_.objects.size())];
    std::vector<ObjectId> got;
    ASSERT_TRUE(tree->RangeQuery(q, 2.0, &got).ok());
    EXPECT_EQ(std::set<ObjectId>(got.begin(), got.end()), BruteRange(q, 2.0));
  }
  EXPECT_TRUE(tree->CheckIntegrity().ok());
}

TEST_F(SpbPersistenceTest, ReopenedIndexSupportsUpdates) {
  {
    auto tree = BuildOnDisk();
    ASSERT_TRUE(tree->Save().ok());
  }
  std::unique_ptr<SpbTree> tree;
  SpbTreeOptions opts;
  ASSERT_TRUE(SpbTree::Open(dir_, ds_.metric.get(), opts, &tree).ok());
  ASSERT_TRUE(
      tree->Insert(BlobFromString("persistedword"),
                   ObjectId(ds_.objects.size()))
          .ok());
  std::vector<ObjectId> got;
  ASSERT_TRUE(tree->RangeQuery(BlobFromString("persistedword"), 0.0, &got)
                  .ok());
  EXPECT_TRUE(std::find(got.begin(), got.end(),
                        ObjectId(ds_.objects.size())) != got.end());

  // Save again and reopen: the update must survive.
  ASSERT_TRUE(tree->Save().ok());
  tree.reset();
  ASSERT_TRUE(SpbTree::Open(dir_, ds_.metric.get(), opts, &tree).ok());
  EXPECT_EQ(tree->size(), ds_.objects.size() + 1);
  ASSERT_TRUE(tree->RangeQuery(BlobFromString("persistedword"), 0.0, &got)
                  .ok());
  EXPECT_FALSE(got.empty());
}

TEST_F(SpbPersistenceTest, CostModelSurvivesReopen) {
  CostEstimate before;
  {
    auto tree = BuildOnDisk();
    ASSERT_TRUE(tree->Save().ok());
    before = tree->EstimateKnnCost(ds_.objects[5], 8);
  }
  std::unique_ptr<SpbTree> tree;
  SpbTreeOptions opts;
  ASSERT_TRUE(SpbTree::Open(dir_, ds_.metric.get(), opts, &tree).ok());
  const CostEstimate after = tree->EstimateKnnCost(ds_.objects[5], 8);
  EXPECT_DOUBLE_EQ(before.distance_computations, after.distance_computations);
  EXPECT_DOUBLE_EQ(before.estimated_radius, after.estimated_radius);
}

TEST_F(SpbPersistenceTest, SaveRequiresDiskBacking) {
  SpbTreeOptions opts;  // in-memory
  std::unique_ptr<SpbTree> tree;
  ASSERT_TRUE(SpbTree::Build(ds_.objects, ds_.metric.get(), opts, &tree).ok());
  EXPECT_FALSE(tree->Save().ok());
}

TEST_F(SpbPersistenceTest, OpenMissingDirectoryFails) {
  std::unique_ptr<SpbTree> tree;
  SpbTreeOptions opts;
  EXPECT_FALSE(
      SpbTree::Open("/nonexistent/spb", ds_.metric.get(), opts, &tree).ok());
}

TEST_F(SpbPersistenceTest, CorruptedMetaMagicIsRejected) {
  {
    auto tree = BuildOnDisk();
    ASSERT_TRUE(tree->Save().ok());
  }
  // Flip the magic in meta.spb.
  std::FILE* f = std::fopen((dir_ + "/meta.spb").c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  const char garbage[8] = {'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X'};
  ASSERT_EQ(std::fwrite(garbage, 1, 8, f), 8u);
  std::fclose(f);
  std::unique_ptr<SpbTree> tree;
  SpbTreeOptions opts;
  const Status s = SpbTree::Open(dir_, ds_.metric.get(), opts, &tree);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kCorruption);
}

TEST_F(SpbPersistenceTest, TruncatedMetaIsRejected) {
  {
    auto tree = BuildOnDisk();
    ASSERT_TRUE(tree->Save().ok());
  }
  // Truncate meta.spb to one page: the declared length exceeds the data.
  fs::resize_file(dir_ + "/meta.spb", kPageSize);
  std::unique_ptr<SpbTree> tree;
  SpbTreeOptions opts;
  EXPECT_FALSE(SpbTree::Open(dir_, ds_.metric.get(), opts, &tree).ok());
}

TEST_F(SpbPersistenceTest, CorruptedBtreeMagicIsRejected) {
  {
    auto tree = BuildOnDisk();
    ASSERT_TRUE(tree->Save().ok());
  }
  std::FILE* f = std::fopen((dir_ + "/btree.spb").c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  const char garbage[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  ASSERT_EQ(std::fwrite(garbage, 1, 8, f), 8u);
  std::fclose(f);
  std::unique_ptr<SpbTree> tree;
  SpbTreeOptions opts;
  EXPECT_FALSE(SpbTree::Open(dir_, ds_.metric.get(), opts, &tree).ok());
}

TEST_F(SpbPersistenceTest, NonPageAlignedFileIsRejected) {
  {
    auto tree = BuildOnDisk();
    ASSERT_TRUE(tree->Save().ok());
  }
  fs::resize_file(dir_ + "/raf.spb", fs::file_size(dir_ + "/raf.spb") - 100);
  std::unique_ptr<SpbTree> tree;
  SpbTreeOptions opts;
  EXPECT_FALSE(SpbTree::Open(dir_, ds_.metric.get(), opts, &tree).ok());
}

TEST_F(SpbPersistenceTest, ContinuousMetricIndexPersists) {
  Dataset color = MakeColor(1500, 8);
  const std::string cdir =
      (fs::temp_directory_path() / "spb_persist_color").string();
  fs::remove_all(cdir);
  {
    SpbTreeOptions opts;
    opts.storage_dir = cdir;
    opts.delta = 0.003;
    std::unique_ptr<SpbTree> tree;
    ASSERT_TRUE(
        SpbTree::Build(color.objects, color.metric.get(), opts, &tree).ok());
    ASSERT_TRUE(tree->Save().ok());
  }
  std::unique_ptr<SpbTree> tree;
  SpbTreeOptions opts;
  ASSERT_TRUE(SpbTree::Open(cdir, color.metric.get(), opts, &tree).ok());
  // delta restored from meta, not from the (default) runtime options.
  EXPECT_DOUBLE_EQ(tree->options().delta, 0.003);
  std::vector<Neighbor> knn;
  ASSERT_TRUE(tree->KnnQuery(color.objects[0], 5, &knn).ok());
  ASSERT_EQ(knn.size(), 5u);
  EXPECT_NEAR(knn[0].distance, 0.0, 1e-9);
  fs::remove_all(cdir);
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// The bulk load is a pure function of its input: a build on parallel
// threads and a serial one (a ParallelFor nested in another runs inline)
// write byte-identical files at equal construction cost, for a discrete and
// a continuous metric, below and above the per-thread chunk size.
TEST(BuildDeterminismTest, ParallelAndSerialDiskBuildsAreByteIdentical) {
  const std::string root =
      (fs::temp_directory_path() / "spb_build_determinism").string();
  for (const bool words : {true, false}) {
    for (const size_t n : {size_t{1500}, 3 * SpbTree::kBuildChunkObjects}) {
      SCOPED_TRACE(std::string(words ? "words" : "synthetic") + " n=" +
                   std::to_string(n));
      fs::remove_all(root);
      const Dataset ds = words ? MakeWords(n, 5) : MakeSynthetic(n, 5);
      std::unique_ptr<SpbTree> trees[2];
      Status built[2];
      auto build = [&](int which) {
        SpbTreeOptions opts;
        opts.storage_dir = root + "/" + std::to_string(which);
        built[which] =
            SpbTree::Build(ds.objects, ds.metric.get(), opts, &trees[which]);
      };
      build(0);
      ParallelFor(2, 1, [&](size_t begin, size_t) {
        if (begin == 0) build(1);
      });
      for (int i = 0; i < 2; ++i) {
        ASSERT_TRUE(built[i].ok()) << built[i].ToString();
        ASSERT_TRUE(trees[i]->CheckIntegrity().ok());
        ASSERT_TRUE(trees[i]->Save().ok());
      }
      const QueryStats c0 = trees[0]->cumulative_stats();
      const QueryStats c1 = trees[1]->cumulative_stats();
      EXPECT_EQ(c0.page_accesses, c1.page_accesses);
      EXPECT_EQ(c0.distance_computations, c1.distance_computations);
      for (const char* file : {"/btree.spb", "/raf.spb", "/meta.spb"}) {
        const std::string a = FileBytes(root + "/0" + file);
        EXPECT_FALSE(a.empty()) << file;
        EXPECT_TRUE(a == FileBytes(root + "/1" + file)) << file;
      }
    }
  }
  fs::remove_all(root);
}

// The bulk load never holds every object's pivot distances: it fixes the
// cost model's reservoir slots from the RNG alone and copies out just the
// rows they keep. The sample must still be exactly the serial reservoir
// over phi(o) in object order — same rows, same slots, bit for bit — above
// the per-thread chunk size and below the reservoir capacity.
TEST(BuildDeterminismTest, CostSampleIsTheSerialReservoir) {
  const size_t cap = CostModel::kDefaultSampleCapacity;
  for (const bool words : {true, false}) {
    for (const size_t n : {3 * SpbTree::kBuildChunkObjects + 17, cap / 2}) {
      SCOPED_TRACE(std::string(words ? "words" : "synthetic") + " n=" +
                   std::to_string(n));
      const Dataset ds = words ? MakeWords(n, 6) : MakeSynthetic(n, 6);
      SpbTreeOptions opts;
      opts.seed = 4242;
      ASSERT_EQ(opts.cost_sample_size, cap);
      std::unique_ptr<SpbTree> tree;
      ASSERT_TRUE(
          SpbTree::Build(ds.objects, ds.metric.get(), opts, &tree).ok());

      std::vector<std::vector<double>> want;
      Rng rng(opts.seed ^ 0xc0);
      for (size_t i = 0; i < n; ++i) {
        std::vector<double> phi = tree->space().Phi(ds.objects[i], *ds.metric);
        if (want.size() < cap) {
          want.push_back(std::move(phi));
        } else {
          const uint64_t slot = rng.Uniform(i + 1);
          if (slot < cap) want[slot] = std::move(phi);
        }
      }
      const auto& got = tree->cost_model().sample();
      ASSERT_EQ(got.size(), std::min(n, cap));
      ASSERT_EQ(got.size(), want.size());
      for (size_t s = 0; s < got.size(); ++s) {
        ASSERT_EQ(got[s].size(), want[s].size()) << "slot " << s;
        EXPECT_EQ(std::memcmp(got[s].data(), want[s].data(),
                              want[s].size() * sizeof(double)),
                  0)
            << "slot " << s;
      }
    }
  }
}

// Where a page's bytes come from must not show in any query: a memory-backed
// and a disk-backed build of the same data return the same results at the
// same logical PA, cache_hits and compdists, query by query, cold (caches
// flushed before each query) and warm. The memory twin's pools cache the
// memory files' own pages; the disk twin's read them from its files. Either
// way every miss is one demand read, so over this serial run each twin
// reads every page it misses with exactly one physical read.
TEST(StorageParityTest, MemoryAndDiskTwinsMatchPerQuery) {
  const std::string dir =
      (fs::temp_directory_path() / "spb_storage_parity").string();
  fs::remove_all(dir);
  const Dataset ds = MakeSynthetic(3000, 17);
  std::unique_ptr<SpbTree> twins[2];  // [0] memory-backed, [1] disk-backed
  for (int disk = 0; disk < 2; ++disk) {
    SpbTreeOptions opts;
    if (disk == 1) opts.storage_dir = dir;
    ASSERT_TRUE(
        SpbTree::Build(ds.objects, ds.metric.get(), opts, &twins[disk]).ok());
  }
  // {logical PA, cache_hits, compdists} of one query.
  using Cost = std::array<uint64_t, 3>;
  auto measure = [](SpbTree& tree, const std::function<void()>& query) {
    const QueryStats q0 = tree.cumulative_stats();
    const uint64_t hits0 = tree.io_stats().cache_hits.load();
    query();
    const QueryStats q1 = tree.cumulative_stats();
    return Cost{q1.page_accesses - q0.page_accesses,
                tree.io_stats().cache_hits.load() - hits0,
                q1.distance_computations - q0.distance_computations};
  };
  const double radius = 0.08 * ds.metric->max_distance();
  const IoStats io_before[2] = {twins[0]->io_stats(), twins[1]->io_stats()};
  for (const bool cold : {true, false}) {
    SCOPED_TRACE(cold ? "cold" : "warm");
    for (auto& tree : twins) tree->FlushCaches();
    for (size_t i = 0; i < 24; ++i) {
      const Blob& q = ds.objects[i * 131 % ds.objects.size()];
      std::vector<ObjectId> range[2];
      std::vector<Neighbor> knn[2];
      Cost range_cost[2], knn_cost[2];
      for (int t = 0; t < 2; ++t) {
        SpbTree& tree = *twins[t];
        if (cold) tree.FlushCaches();
        range_cost[t] = measure(tree, [&] {
          ASSERT_TRUE(tree.RangeQuery(q, radius, &range[t]).ok());
        });
        if (cold) tree.FlushCaches();
        knn_cost[t] = measure(
            tree, [&] { ASSERT_TRUE(tree.KnnQuery(q, 10, &knn[t]).ok()); });
      }
      SCOPED_TRACE("query " + std::to_string(i));
      EXPECT_FALSE(range[0].empty());
      EXPECT_EQ(range[0], range[1]);
      EXPECT_EQ(knn[0], knn[1]);
      EXPECT_EQ(range_cost[0], range_cost[1]);
      EXPECT_EQ(knn_cost[0], knn_cost[1]);
    }
  }
  for (int t = 0; t < 2; ++t) {
    SCOPED_TRACE(t == 1 ? "disk twin" : "memory twin");
    const IoStats io_after = twins[t]->io_stats();
    const uint64_t page_reads =
        io_after.page_reads.load() - io_before[t].page_reads.load();
    EXPECT_GT(page_reads, 0u);
    EXPECT_EQ(io_after.physical_reads.load() -
                  io_before[t].physical_reads.load(),
              page_reads);
  }
  twins[1].reset();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace spb
