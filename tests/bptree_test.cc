#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>

#include "bptree/bptree.h"
#include "common/coding.h"
#include "common/rng.h"
#include "sfc/sfc.h"
#include "storage/page_file.h"

namespace spb {
namespace {

// Every write is copy-on-write. These trees have no snapshots, so each
// result is adopted at once and its superseded pages are recycled by the
// next write.
Status CowInsert(BPlusTree* tree, uint64_t key, uint64_t ptr) {
  TreeVersion v;
  std::vector<PageId> superseded;
  SPB_RETURN_IF_ERROR(tree->InsertCow(key, ptr, &v, &superseded));
  tree->AdoptVersion(v);
  tree->AddFreePages(superseded);
  return Status::OK();
}

Status CowDelete(BPlusTree* tree, uint64_t key, uint64_t ptr, bool* found) {
  TreeVersion v;
  std::vector<PageId> superseded;
  SPB_RETURN_IF_ERROR(tree->DeleteCow(key, ptr, found, &v, &superseded));
  tree->AdoptVersion(v);
  tree->AddFreePages(superseded);
  return Status::OK();
}

// Collects (key, ptr) pairs with a cursor over the current version.
std::vector<LeafEntry> CursorScan(BPlusTree* tree) {
  std::vector<LeafEntry> out;
  BPlusTree::LeafCursor cur(tree, tree->version());
  EXPECT_TRUE(cur.SeekFirst().ok());
  while (cur.valid()) {
    out.push_back(cur.entry());
    EXPECT_TRUE(cur.Next().ok());
  }
  return out;
}

class BptreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    curve_ = SpaceFillingCurve::Create(CurveType::kHilbert, 2, 8);
    ASSERT_TRUE(
        BPlusTree::Create(PageFile::CreateInMemory(), 32, curve_.get(), &tree_)
            .ok());
  }

  Status Insert(uint64_t key, uint64_t ptr) {
    return CowInsert(tree_.get(), key, ptr);
  }
  Status Delete(uint64_t key, uint64_t ptr, bool* found) {
    return CowDelete(tree_.get(), key, ptr, found);
  }
  std::vector<LeafEntry> ScanAll() { return CursorScan(tree_.get()); }

  std::unique_ptr<SpaceFillingCurve> curve_;
  std::unique_ptr<BPlusTree> tree_;
};

TEST_F(BptreeTest, FreshTreeIsEmpty) {
  EXPECT_EQ(tree_->num_entries(), 0u);
  EXPECT_EQ(tree_->height(), 1u);
  EXPECT_TRUE(tree_->CheckInvariants().ok());
}

TEST_F(BptreeTest, SingleInsertVisibleInScanAndSeek) {
  ASSERT_TRUE(Insert(42, 1000).ok());
  EXPECT_EQ(tree_->num_entries(), 1u);
  auto all = ScanAll();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].key, 42u);
  EXPECT_EQ(all[0].ptr, 1000u);

  BPlusTree::LeafCursor cur(tree_.get(), tree_->version());
  ASSERT_TRUE(cur.Seek(42).ok());
  ASSERT_TRUE(cur.valid());
  EXPECT_EQ(cur.entry().key, 42u);
  ASSERT_TRUE(cur.Seek(43).ok());
  EXPECT_FALSE(cur.valid());  // nothing >= 43
}

TEST_F(BptreeTest, ManyRandomInsertsMatchReferenceMultimap) {
  Rng rng(77);
  std::multimap<uint64_t, uint64_t> ref;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t key = rng.Uniform(1 << 16);
    ASSERT_TRUE(Insert(key, uint64_t(i)).ok());
    ref.emplace(key, uint64_t(i));
  }
  EXPECT_EQ(tree_->num_entries(), 5000u);
  EXPECT_GT(tree_->height(), 1u);
  ASSERT_TRUE(tree_->CheckInvariants().ok());

  auto all = ScanAll();
  ASSERT_EQ(all.size(), ref.size());
  // Keys must match the reference in sorted order; ptr sets per key match.
  size_t i = 0;
  for (auto it = ref.begin(); it != ref.end();) {
    const uint64_t key = it->first;
    std::multiset<uint64_t> want, got;
    for (; it != ref.end() && it->first == key; ++it) want.insert(it->second);
    for (; i < all.size() && all[i].key == key; ++i) got.insert(all[i].ptr);
    EXPECT_EQ(want, got) << "key " << key;
  }
  EXPECT_EQ(i, all.size());
}

TEST_F(BptreeTest, SeekFindsFirstGreaterOrEqual) {
  for (uint64_t k = 0; k < 3000; k += 3) {
    ASSERT_TRUE(Insert(k, k * 10).ok());
  }
  BPlusTree::LeafCursor cur(tree_.get(), tree_->version());
  for (uint64_t probe : {0ull, 1ull, 2ull, 3ull, 100ull, 2996ull, 2997ull}) {
    ASSERT_TRUE(cur.Seek(probe).ok());
    ASSERT_TRUE(cur.valid());
    const uint64_t expect = ((probe + 2) / 3) * 3;
    EXPECT_EQ(cur.entry().key, expect) << "probe " << probe;
  }
  ASSERT_TRUE(cur.Seek(2998).ok());
  EXPECT_FALSE(cur.valid());
}

TEST_F(BptreeTest, DuplicateKeysAllCoexistAndAreScannable) {
  for (uint64_t p = 0; p < 600; ++p) {
    ASSERT_TRUE(Insert(7, p).ok());
  }
  ASSERT_TRUE(tree_->CheckInvariants().ok());
  auto all = ScanAll();
  ASSERT_EQ(all.size(), 600u);
  std::set<uint64_t> ptrs;
  for (const auto& e : all) {
    EXPECT_EQ(e.key, 7u);
    ptrs.insert(e.ptr);
  }
  EXPECT_EQ(ptrs.size(), 600u);
}

TEST_F(BptreeTest, DeleteRemovesExactlyTheMatchingEntry) {
  ASSERT_TRUE(Insert(5, 100).ok());
  ASSERT_TRUE(Insert(5, 200).ok());
  ASSERT_TRUE(Insert(6, 300).ok());
  bool found;
  ASSERT_TRUE(Delete(5, 200, &found).ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(tree_->num_entries(), 2u);
  auto all = ScanAll();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].ptr, 100u);
  EXPECT_EQ(all[1].ptr, 300u);
}

TEST_F(BptreeTest, DeleteMissingReportsNotFound) {
  ASSERT_TRUE(Insert(5, 100).ok());
  bool found;
  ASSERT_TRUE(Delete(5, 999, &found).ok());
  EXPECT_FALSE(found);
  ASSERT_TRUE(Delete(4, 100, &found).ok());
  EXPECT_FALSE(found);
  EXPECT_EQ(tree_->num_entries(), 1u);
}

TEST_F(BptreeTest, RandomInsertDeleteMatchesReference) {
  Rng rng(123);
  std::multimap<uint64_t, uint64_t> ref;
  uint64_t next_ptr = 0;
  for (int round = 0; round < 8000; ++round) {
    if (ref.empty() || rng.Uniform(3) != 0) {
      const uint64_t key = rng.Uniform(500);
      ASSERT_TRUE(Insert(key, next_ptr).ok());
      ref.emplace(key, next_ptr);
      ++next_ptr;
    } else {
      auto it = ref.begin();
      std::advance(it, ptrdiff_t(rng.Uniform(ref.size())));
      bool found;
      ASSERT_TRUE(Delete(it->first, it->second, &found).ok());
      EXPECT_TRUE(found) << "key=" << it->first << " ptr=" << it->second;
      ref.erase(it);
    }
  }
  EXPECT_EQ(tree_->num_entries(), ref.size());
  ASSERT_TRUE(tree_->CheckInvariants().ok());
  auto all = ScanAll();
  ASSERT_EQ(all.size(), ref.size());
  std::multiset<std::pair<uint64_t, uint64_t>> want, got;
  for (const auto& [k, p] : ref) want.emplace(k, p);
  for (const auto& e : all) got.emplace(e.key, e.ptr);
  EXPECT_EQ(want, got);
}

TEST_F(BptreeTest, BulkLoadBuildsSortedBalancedTree) {
  std::vector<LeafEntry> entries;
  for (uint64_t k = 0; k < 10000; ++k) entries.push_back({k * 2, k});
  ASSERT_TRUE(tree_->BulkLoad(entries).ok());
  EXPECT_EQ(tree_->num_entries(), 10000u);
  EXPECT_GE(tree_->height(), 2u);
  ASSERT_TRUE(tree_->CheckInvariants().ok());
  auto all = ScanAll();
  ASSERT_EQ(all.size(), 10000u);
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].key, i * 2);
    EXPECT_EQ(all[i].ptr, i);
  }
}

TEST_F(BptreeTest, BulkLoadRejectsUnsortedInput) {
  std::vector<LeafEntry> entries = {{5, 0}, {3, 1}};
  EXPECT_FALSE(tree_->BulkLoad(entries).ok());
}

TEST_F(BptreeTest, BulkLoadRejectsNonFreshTree) {
  ASSERT_TRUE(Insert(1, 1).ok());
  std::vector<LeafEntry> entries = {{5, 0}};
  EXPECT_FALSE(tree_->BulkLoad(entries).ok());
}

TEST_F(BptreeTest, BulkLoadedTreeAcceptsFurtherInserts) {
  std::vector<LeafEntry> entries;
  for (uint64_t k = 0; k < 2000; ++k) entries.push_back({k * 4, k});
  ASSERT_TRUE(tree_->BulkLoad(entries).ok());
  for (uint64_t k = 0; k < 500; ++k) {
    ASSERT_TRUE(Insert(k * 4 + 1, 100000 + k).ok());
  }
  EXPECT_EQ(tree_->num_entries(), 2500u);
  ASSERT_TRUE(tree_->CheckInvariants().ok());
}

TEST_F(BptreeTest, MbbContainsAllSubtreeCells) {
  // Insert clustered keys; then every internal entry's decoded box must
  // contain the cells of all keys below it (checked by CheckInvariants).
  Rng rng(9);
  std::vector<uint32_t> coords(2);
  for (int i = 0; i < 4000; ++i) {
    coords[0] = uint32_t(rng.Uniform(256));
    coords[1] = uint32_t(rng.Uniform(256));
    ASSERT_TRUE(Insert(curve_->Encode(coords), uint64_t(i)).ok());
  }
  ASSERT_TRUE(tree_->CheckInvariants().ok());
}

TEST_F(BptreeTest, PersistsAcrossReopen) {
  std::string path =
      (std::filesystem::temp_directory_path() / "spb_bpt_reopen.dat").string();
  {
    std::unique_ptr<PageFile> f;
    ASSERT_TRUE(PageFile::CreateOnDisk(path, &f).ok());
    std::unique_ptr<BPlusTree> tree;
    ASSERT_TRUE(BPlusTree::Create(std::move(f), 32, curve_.get(), &tree).ok());
    for (uint64_t k = 0; k < 1000; ++k) {
      ASSERT_TRUE(CowInsert(tree.get(), k * 7 % 1000, k).ok());
    }
    ASSERT_TRUE(tree->Sync().ok());
  }
  {
    std::unique_ptr<PageFile> f;
    ASSERT_TRUE(PageFile::OpenOnDisk(path, &f).ok());
    std::unique_ptr<BPlusTree> tree;
    ASSERT_TRUE(BPlusTree::Open(std::move(f), 32, curve_.get(), &tree).ok());
    EXPECT_EQ(tree->num_entries(), 1000u);
    EXPECT_TRUE(tree->CheckInvariants().ok());
    BPlusTree::LeafCursor cur(tree.get(), tree->version());
    ASSERT_TRUE(cur.Seek(0).ok());
    ASSERT_TRUE(cur.valid());
    EXPECT_EQ(cur.entry().key, 0u);
  }
  std::remove(path.c_str());
}

TEST_F(BptreeTest, NodeSerializationRoundTrips) {
  BptNode leaf;
  leaf.id = 3;
  leaf.is_leaf = true;
  for (uint64_t i = 0; i < 100; ++i) leaf.leaf_entries.push_back({i, i * 2});
  Page page;
  leaf.SerializeTo(&page);
  EXPECT_EQ(DecodeFixed32(page.bytes() + 4), 0u);  // reserved header bytes
  BptNode back;
  ASSERT_TRUE(back.DeserializeFrom(page, 3).ok());
  EXPECT_TRUE(back.is_leaf);
  EXPECT_EQ(back.leaf_entries, leaf.leaf_entries);

  BptNode internal;
  internal.id = 4;
  internal.is_leaf = false;
  for (uint64_t i = 0; i < 50; ++i) {
    internal.internal_entries.push_back(
        InternalEntry{i * 10, PageId(i), i * 100, i * 100 + 5});
  }
  internal.SerializeTo(&page);
  ASSERT_TRUE(back.DeserializeFrom(page, 4).ok());
  EXPECT_FALSE(back.is_leaf);
  ASSERT_EQ(back.internal_entries.size(), 50u);
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(back.internal_entries[i].key, internal.internal_entries[i].key);
    EXPECT_EQ(back.internal_entries[i].child,
              internal.internal_entries[i].child);
    EXPECT_EQ(back.internal_entries[i].mbb_min,
              internal.internal_entries[i].mbb_min);
    EXPECT_EQ(back.internal_entries[i].mbb_max,
              internal.internal_entries[i].mbb_max);
  }
}

TEST_F(BptreeTest, CapacityConstantsMatchPageBudget) {
  EXPECT_EQ(BptNode::kLeafCapacity, 255u);
  EXPECT_EQ(BptNode::kInternalCapacity, 146u);
  EXPECT_LE(BptNode::kHeaderSize +
                BptNode::kLeafCapacity * BptNode::kLeafEntrySize,
            kPageSize);
  EXPECT_LE(BptNode::kHeaderSize +
                BptNode::kInternalCapacity * BptNode::kInternalEntrySize,
            kPageSize);
}

TEST_F(BptreeTest, PageAccessesAreCounted) {
  std::vector<LeafEntry> entries;
  for (uint64_t k = 0; k < 20000; ++k) entries.push_back({k, k});
  ASSERT_TRUE(tree_->BulkLoad(entries).ok());
  tree_->pool().Flush();
  tree_->pool().stats().Reset();
  BPlusTree::LeafCursor cur(tree_.get(), tree_->version());
  ASSERT_TRUE(cur.Seek(12345).ok());
  ASSERT_TRUE(cur.valid());
  EXPECT_EQ(cur.entry().key, 12345u);
  // Root-to-leaf path: height pages.
  EXPECT_EQ(tree_->stats().page_reads, tree_->height());
}

TEST(BptreeHeightThreeTest, CursorCrossesInternalNodes) {
  // More full leaves than one internal node holds: height 3, so scans and
  // seeks cross internal-node boundaries.
  auto curve = SpaceFillingCurve::Create(CurveType::kHilbert, 2, 16);
  std::unique_ptr<BPlusTree> tree;
  ASSERT_TRUE(
      BPlusTree::Create(PageFile::CreateInMemory(), 32, curve.get(), &tree)
          .ok());
  const size_t num_leaves = BptNode::kInternalCapacity + 20;
  std::vector<LeafEntry> entries;
  for (uint64_t i = 0; i < BptNode::kLeafCapacity * num_leaves; ++i) {
    entries.push_back({4 * (i + 1), i});
  }
  ASSERT_TRUE(tree->BulkLoad(entries).ok());
  ASSERT_EQ(tree->height(), 3u);

  // A cold full scan returns every entry in order and reads each node once:
  // the leaves, the internal nodes above them, and the root.
  tree->pool().Flush();
  tree->pool().stats().Reset();
  EXPECT_EQ(CursorScan(tree.get()), entries);
  const size_t num_inner =
      (num_leaves + BptNode::kInternalCapacity - 1) /
      BptNode::kInternalCapacity;
  EXPECT_EQ(tree->stats().page_reads.load(), num_leaves + num_inner + 1);

  std::vector<LeafEntry> firsts;
  for (size_t l = 0; l < num_leaves; ++l) {
    firsts.push_back(entries[l * BptNode::kLeafCapacity]);
  }
  {
    BPlusTree::LeafCursor cur(tree.get(), tree->version());
    for (const LeafEntry& f : firsts) {
      ASSERT_TRUE(cur.Seek(f.key).ok());
      ASSERT_TRUE(cur.valid());
      EXPECT_EQ(cur.entry(), f);
      ASSERT_TRUE(cur.Seek(f.key + 1).ok());
      ASSERT_TRUE(cur.valid());
      EXPECT_EQ(cur.entry().key, f.key + 4);
    }
  }

  // An entry just below every leaf's first key splits the full leaf before
  // it (and, in turn, internal nodes); deleting each first key then leaves
  // stale-low separators behind.
  std::multimap<uint64_t, uint64_t> ref;
  for (const LeafEntry& e : entries) ref.emplace(e.key, e.ptr);
  uint64_t next_ptr = entries.size();
  for (const LeafEntry& f : firsts) {
    ASSERT_TRUE(CowInsert(tree.get(), f.key - 1, next_ptr).ok());
    ref.emplace(f.key - 1, next_ptr++);
  }
  for (const LeafEntry& f : firsts) {
    bool found = false;
    ASSERT_TRUE(CowDelete(tree.get(), f.key, f.ptr, &found).ok());
    EXPECT_TRUE(found) << "key " << f.key;
    ref.erase(f.key);  // keys are unique
  }
  EXPECT_EQ(tree->height(), 3u);
  ASSERT_TRUE(tree->CheckInvariants().ok());
  std::vector<LeafEntry> want;
  for (const auto& [key, ptr] : ref) want.push_back({key, ptr});
  EXPECT_EQ(CursorScan(tree.get()), want);
}

}  // namespace
}  // namespace spb
