// Warm-path decode engine tests: decoded-node cache invalidation, zero-copy
// BlobView identity with Raf::Get (page-spanning records, dirty-tail reads,
// pin-outlives-eviction), and end-to-end accounting parity of the cache /
// zero-copy toggles.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "bptree/bptree.h"
#include "common/rng.h"
#include "core/spb_tree.h"
#include "data/datasets.h"
#include "storage/page_file.h"
#include "storage/raf.h"

namespace spb {
namespace {

// ------------------------------------------------------------ Raf::GetView

class BlobViewTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(Raf::Create(PageFile::CreateInMemory(), 64, &raf_).ok());
  }

  // Appends `n` records with sizes cycling through `sizes` and remembers
  // their offsets and payloads.
  void Fill(size_t n, const std::vector<size_t>& sizes) {
    Rng rng(7);
    for (size_t i = 0; i < n; ++i) {
      Blob obj(sizes[i % sizes.size()]);
      for (auto& b : obj) b = uint8_t(rng.Uniform(256));
      uint64_t off;
      ASSERT_TRUE(raf_->Append(ObjectId(i), obj, &off).ok());
      offsets_.push_back(off);
      payloads_.push_back(std::move(obj));
    }
  }

  std::unique_ptr<Raf> raf_;
  std::vector<uint64_t> offsets_;
  std::vector<Blob> payloads_;
};

TEST_F(BlobViewTest, MatchesGetForAllRecordShapes) {
  // Sizes chosen to produce in-page records, records ending exactly at a
  // page boundary, multi-page-spanning records and empty records.
  Fill(200, {10, 0, 100, 1000, kPageSize / 2, kPageSize + 17, 3 * kPageSize});
  ASSERT_TRUE(raf_->Sync().ok());
  for (size_t i = 0; i < offsets_.size(); ++i) {
    ObjectId gid, vid;
    Blob gobj;
    BlobView view;
    ASSERT_TRUE(raf_->Get(offsets_[i], &gid, &gobj).ok());
    ASSERT_TRUE(raf_->GetView(offsets_[i], &vid, &view).ok());
    EXPECT_EQ(gid, vid);
    ASSERT_EQ(gobj.size(), view.size()) << "record " << i;
    EXPECT_EQ(gobj, view.ToBlob()) << "record " << i;
    EXPECT_EQ(gobj, payloads_[i]);
  }
}

TEST_F(BlobViewTest, AccountingMatchesGetExactly) {
  Fill(120, {64, 0, 700, kPageSize + 5});
  ASSERT_TRUE(raf_->Sync().ok());

  // Cold pass with Get.
  raf_->FlushCache();
  raf_->ResetStats();
  for (uint64_t off : offsets_) {
    ObjectId id;
    Blob obj;
    ASSERT_TRUE(raf_->Get(off, &id, &obj).ok());
  }
  const uint64_t get_reads = raf_->stats().page_reads.load();
  const uint64_t get_hits = raf_->stats().cache_hits.load();

  // Cold pass with GetView: identical page reads AND cache hits (the
  // pin+Touch pair mirrors Get's header+payload accesses).
  raf_->FlushCache();
  raf_->ResetStats();
  for (uint64_t off : offsets_) {
    ObjectId id;
    BlobView view;
    ASSERT_TRUE(raf_->GetView(off, &id, &view).ok());
  }
  EXPECT_EQ(raf_->stats().page_reads.load(), get_reads);
  EXPECT_EQ(raf_->stats().cache_hits.load(), get_hits);

  // Warm passes must match too.
  raf_->ResetStats();
  for (uint64_t off : offsets_) {
    ObjectId id;
    Blob obj;
    ASSERT_TRUE(raf_->Get(off, &id, &obj).ok());
  }
  const uint64_t warm_reads = raf_->stats().page_reads.load();
  const uint64_t warm_hits = raf_->stats().cache_hits.load();
  raf_->ResetStats();
  for (uint64_t off : offsets_) {
    ObjectId id;
    BlobView view;
    ASSERT_TRUE(raf_->GetView(off, &id, &view).ok());
  }
  EXPECT_EQ(raf_->stats().page_reads.load(), warm_reads);
  EXPECT_EQ(raf_->stats().cache_hits.load(), warm_hits);
}

TEST_F(BlobViewTest, DirtyTailReadsFallBackToCopy) {
  // No Sync: the last records live on the dirty in-memory tail page and
  // must be served by the copy fallback (a view into the pool would miss
  // the tail's bytes).
  Fill(30, {50, 200});
  for (size_t i = 0; i < offsets_.size(); ++i) {
    ObjectId gid, vid;
    Blob gobj;
    BlobView view;
    ASSERT_TRUE(raf_->Get(offsets_[i], &gid, &gobj).ok());
    ASSERT_TRUE(raf_->GetView(offsets_[i], &vid, &view).ok());
    EXPECT_EQ(gid, vid);
    EXPECT_EQ(gobj, view.ToBlob()) << "record " << i;
  }
  // The very last record is certainly on the dirty tail.
  ObjectId id;
  BlobView view;
  ASSERT_TRUE(raf_->GetView(offsets_.back(), &id, &view).ok());
  EXPECT_FALSE(view.pinned());
  EXPECT_EQ(view.ToBlob(), payloads_.back());
}

TEST_F(BlobViewTest, ViewOutlivesEviction) {
  Fill(400, {900});  // ~4 records/page over many pages
  ASSERT_TRUE(raf_->Sync().ok());
  ASSERT_TRUE(raf_->SetCachePages(4).ok());  // tiny pool to force eviction

  ObjectId id;
  BlobView view;
  ASSERT_TRUE(raf_->GetView(offsets_[0], &id, &view).ok());
  ASSERT_TRUE(view.pinned());
  const Blob before = view.ToBlob();

  // Churn the pool until the pinned frame's entry is long evicted.
  for (size_t i = 0; i < offsets_.size(); ++i) {
    ObjectId tid;
    Blob tobj;
    ASSERT_TRUE(raf_->Get(offsets_[i], &tid, &tobj).ok());
  }
  EXPECT_EQ(view.ToBlob(), before);  // pin kept the bytes alive
  EXPECT_EQ(before, payloads_[0]);
}

// -------------------------------------------------- BPlusTree node cache

class NodeCacheBptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    curve_ = SpaceFillingCurve::Create(CurveType::kHilbert, 4, 8);
    ASSERT_TRUE(
        BPlusTree::Create(PageFile::CreateInMemory(), 64, curve_.get(), &bt_)
            .ok());
    ASSERT_TRUE(bt_->SetNodeCacheEntries(128).ok());
    std::vector<LeafEntry> entries;
    for (uint64_t i = 0; i < 500; ++i) {
      entries.push_back(LeafEntry{i * 3, i});
    }
    ASSERT_TRUE(bt_->BulkLoad(entries).ok());
  }

  // A copy-on-write insert adopted at once; with no snapshots, the pages it
  // superseded are recycled by the next write.
  void CowInsert(uint64_t key, uint64_t ptr) {
    TreeVersion v;
    std::vector<PageId> superseded;
    ASSERT_TRUE(bt_->InsertCow(key, ptr, &v, &superseded).ok());
    bt_->AdoptVersion(v);
    bt_->AddFreePages(superseded);
  }

  // Reads every node of the current version through GetNode, via a cursor.
  void ScanAll() {
    BPlusTree::LeafCursor cur(bt_.get(), bt_->version());
    ASSERT_TRUE(cur.SeekFirst().ok());
    while (cur.valid()) ASSERT_TRUE(cur.Next().ok());
  }

  std::unique_ptr<SpaceFillingCurve> curve_;
  std::unique_ptr<BPlusTree> bt_;
};

TEST_F(NodeCacheBptTest, GetNodeMatchesReadNode) {
  DecodedNode scratch;
  NodeHandle h;
  BptNode plain;
  ASSERT_TRUE(bt_->GetNode(bt_->root(), &scratch, &h).ok());
  ASSERT_TRUE(bt_->ReadNode(bt_->root(), &plain).ok());
  EXPECT_EQ(h->node.is_leaf, plain.is_leaf);
  ASSERT_EQ(h->node.internal_entries.size(), plain.internal_entries.size());
  // Cached MBB corners must equal DecodeBox of the raw entries.
  std::vector<uint32_t> lo, hi;
  for (size_t i = 0; i < plain.internal_entries.size(); ++i) {
    bt_->DecodeBox(plain.internal_entries[i].mbb_min,
                   plain.internal_entries[i].mbb_max, &lo, &hi);
    for (size_t d = 0; d < curve_->dims(); ++d) {
      EXPECT_EQ(h->lo(i)[d], lo[d]);
      EXPECT_EQ(h->hi(i)[d], hi[d]);
    }
  }
}

TEST_F(NodeCacheBptTest, InsertInvalidatesCachedNodes) {
  // Warm the cache over the whole tree.
  ScanAll();

  // COW rewrites a live page id only by recycling one. The first insert
  // supersedes the root and the first leaf, whose cached decodes stay (old
  // versions may still read them); the second insert writes its new path
  // onto exactly those recycled ids. A stale cached decode of either would
  // hide the second entry.
  CowInsert(1, 9999);
  EXPECT_EQ(bt_->free_pages(), 2u);
  CowInsert(2, 4242);
  EXPECT_EQ(bt_->free_pages(), 2u);
  BPlusTree::LeafCursor cur(bt_.get(), bt_->version());
  ASSERT_TRUE(cur.Seek(2).ok());
  ASSERT_TRUE(cur.valid());
  EXPECT_EQ(cur.entry(), (LeafEntry{2, 4242}))
      << "cached node served stale after a recycled page was rewritten";
  ASSERT_TRUE(cur.Seek(1).ok());
  ASSERT_TRUE(cur.valid());
  EXPECT_EQ(cur.entry(), (LeafEntry{1, 9999}));
}

TEST_F(NodeCacheBptTest, HandleKeepsNodeAliveAcrossInvalidation) {
  PageId leaf_id;
  {
    BPlusTree::LeafCursor cur(bt_.get(), bt_->version());
    ASSERT_TRUE(cur.SeekFirst().ok());
    leaf_id = cur.leaf().id;
  }
  DecodedNode scratch;
  NodeHandle h;
  ASSERT_TRUE(bt_->GetNode(leaf_id, &scratch, &h).ok());
  const size_t before = h->node.leaf_entries.size();
  // The second insert rewrites the first leaf's recycled id, which
  // invalidates its cached decode.
  CowInsert(1, 9999);
  CowInsert(2, 4242);
  bt_->node_cache().Clear();
  EXPECT_TRUE(h->node.is_leaf);
  EXPECT_EQ(h->node.leaf_entries.size(), before);  // old decode still valid
}

TEST_F(NodeCacheBptTest, AccountingParityCacheOnVsOff) {
  // The same GetNode sequence must produce identical pool counters with the
  // cache on and off (the accounting-parity rule).
  auto run = [&](uint64_t* reads, uint64_t* hits) {
    bt_->pool().Flush();
    bt_->pool().stats().Reset();
    for (int pass = 0; pass < 3; ++pass) ScanAll();
    *reads = bt_->stats().page_reads.load();
    *hits = bt_->stats().cache_hits.load();
  };
  uint64_t on_reads, on_hits, off_reads, off_hits;
  ASSERT_TRUE(bt_->SetNodeCacheEntries(128).ok());
  run(&on_reads, &on_hits);
  ASSERT_TRUE(bt_->SetNodeCacheEntries(0).ok());
  run(&off_reads, &off_hits);
  EXPECT_EQ(on_reads, off_reads);
  EXPECT_EQ(on_hits, off_hits);
}

// ------------------------------------------------------ SpbTree end-to-end

class WarmPathSpbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = MakeWords(800, 3);
    extra_ = MakeWords(200, 4);
    SpbTreeOptions opts;  // node cache + zero copy on by default
    ASSERT_TRUE(
        SpbTree::Build(ds_.objects, ds_.metric.get(), opts, &tree_).ok());
  }

  std::set<ObjectId> BruteRange(const Dataset& ds, const Blob& q, double r) {
    std::set<ObjectId> out;
    for (size_t i = 0; i < ds.objects.size(); ++i) {
      if (ds.metric->Distance(q, ds.objects[i]) <= r) out.insert(ObjectId(i));
    }
    return out;
  }

  Dataset ds_, extra_;
  std::unique_ptr<SpbTree> tree_;
};

TEST_F(WarmPathSpbTest, WarmCacheNeverServesStaleAfterInsert) {
  // Warm the decoded-node cache with queries first...
  Rng rng(11);
  for (int t = 0; t < 10; ++t) {
    const Blob& q = ds_.objects[rng.Uniform(ds_.objects.size())];
    std::vector<ObjectId> got;
    ASSERT_TRUE(tree_->RangeQuery(q, 2.0, &got).ok());
  }
  // ...then mutate and re-query: results must reflect every insert.
  for (size_t i = 0; i < extra_.objects.size(); ++i) {
    ASSERT_TRUE(
        tree_->Insert(extra_.objects[i], ObjectId(ds_.objects.size() + i))
            .ok());
  }
  Dataset merged = ds_;
  merged.objects.insert(merged.objects.end(), extra_.objects.begin(),
                        extra_.objects.end());
  for (int t = 0; t < 10; ++t) {
    const Blob& q = merged.objects[rng.Uniform(merged.objects.size())];
    std::vector<ObjectId> got;
    ASSERT_TRUE(tree_->RangeQuery(q, 2.0, &got).ok());
    EXPECT_EQ(std::set<ObjectId>(got.begin(), got.end()),
              BruteRange(merged, q, 2.0));
  }
}

// The accounting-parity rule of the decode engine (node cache + zero-copy
// reads): on or off, queries return the same results with the same logical
// PA, buffer-pool cache hits and compdists — warm (one warm-up sweep, then
// the measured pass) and cold (caches flushed before every query, the
// paper's protocol).
TEST_F(WarmPathSpbTest, QueriesIdenticalWithTogglesOnAndOff) {
  Rng rng(5);
  std::vector<Blob> queries;
  for (int t = 0; t < 20; ++t) {
    queries.push_back(ds_.objects[rng.Uniform(ds_.objects.size())]);
  }
  struct Observed {
    std::vector<std::vector<ObjectId>> range;
    std::vector<std::vector<Neighbor>> knn;
    uint64_t pa = 0, cd = 0, hits = 0;
  };
  auto run = [&](bool engine_on, bool cold, Observed* out) {
    TuningOptions tn = tree_->tuning();
    tn.node_cache_entries = engine_on ? 1024 : 0;
    tn.enable_zero_copy = engine_on;
    ASSERT_TRUE(tree_->ApplyTuning(tn).ok());
    // Warm: one warm-up sweep so both configs query an identically warmed
    // pool.
    if (!cold) {
      for (const Blob& q : queries) {
        std::vector<ObjectId> r;
        ASSERT_TRUE(tree_->RangeQuery(q, 2.0, &r).ok());
      }
    }
    const uint64_t hits_before = tree_->io_stats().cache_hits.load();
    for (const Blob& q : queries) {
      QueryStats rs, ks;
      std::vector<ObjectId> r;
      std::vector<Neighbor> nn;
      if (cold) tree_->FlushCaches();
      ASSERT_TRUE(tree_->RangeQuery(q, 2.0, &r, &rs).ok());
      if (cold) tree_->FlushCaches();
      ASSERT_TRUE(tree_->KnnQuery(q, 10, &nn, &ks).ok());
      out->range.push_back(std::move(r));
      out->knn.push_back(std::move(nn));
      out->pa += rs.page_accesses + ks.page_accesses;
      out->cd += rs.distance_computations + ks.distance_computations;
    }
    out->hits = tree_->io_stats().cache_hits.load() - hits_before;
  };
  for (const bool cold : {false, true}) {
    SCOPED_TRACE(cold ? "cold" : "warm");
    Observed on, off;
    run(true, cold, &on);
    run(false, cold, &off);
    ASSERT_EQ(on.range.size(), off.range.size());
    for (size_t i = 0; i < on.range.size(); ++i) {
      EXPECT_EQ(on.range[i], off.range[i]) << "range query " << i;
      ASSERT_EQ(on.knn[i].size(), off.knn[i].size()) << "knn query " << i;
      for (size_t j = 0; j < on.knn[i].size(); ++j) {
        EXPECT_EQ(on.knn[i][j].id, off.knn[i][j].id);
        EXPECT_EQ(on.knn[i][j].distance, off.knn[i][j].distance);
      }
    }
    EXPECT_EQ(on.pa, off.pa);
    EXPECT_EQ(on.hits, off.hits);
    EXPECT_EQ(on.cd, off.cd);
  }
}

}  // namespace
}  // namespace spb
