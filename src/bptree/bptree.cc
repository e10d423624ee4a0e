#include "bptree/bptree.h"

#include <algorithm>

#include "common/coding.h"

namespace spb {

namespace {
constexpr uint64_t kBptMagic = 0x5350424250543031ULL;  // "SPBBPT01"
constexpr PageId kMetaPage = 0;
// Longest run of leaves BulkLoad writes with one span write (256 KiB).
constexpr size_t kLeafRunPages = 64;
}  // namespace

Status BPlusTree::Create(std::unique_ptr<PageFile> file, size_t cache_pages,
                         const SpaceFillingCurve* curve,
                         std::unique_ptr<BPlusTree>* out) {
  auto tree = std::unique_ptr<BPlusTree>(
      new BPlusTree(std::move(file), cache_pages, curve));
  PageId meta_id;
  SPB_RETURN_IF_ERROR(tree->owned_file_->Allocate(&meta_id));
  if (meta_id != kMetaPage) {
    return Status::InvalidArgument("B+-tree requires a fresh page file");
  }
  BptNode root;
  SPB_RETURN_IF_ERROR(tree->AllocateNode(/*is_leaf=*/true, &root));
  SPB_RETURN_IF_ERROR(tree->WriteNode(root));
  tree->root_ = root.id;
  tree->first_leaf_ = root.id;
  tree->height_ = 1;
  tree->num_entries_ = 0;
  SPB_RETURN_IF_ERROR(tree->WriteMeta());
  *out = std::move(tree);
  return Status::OK();
}

Status BPlusTree::Open(std::unique_ptr<PageFile> file, size_t cache_pages,
                       const SpaceFillingCurve* curve,
                       std::unique_ptr<BPlusTree>* out) {
  auto tree = std::unique_ptr<BPlusTree>(
      new BPlusTree(std::move(file), cache_pages, curve));
  SPB_RETURN_IF_ERROR(tree->ReadMeta());
  *out = std::move(tree);
  return Status::OK();
}

Status BPlusTree::WriteMeta() {
  Page meta;
  EncodeFixed64(meta.bytes(), kBptMagic);
  EncodeFixed32(meta.bytes() + 8, root_);
  EncodeFixed32(meta.bytes() + 12, height_);
  EncodeFixed64(meta.bytes() + 16, num_entries_);
  EncodeFixed32(meta.bytes() + 24, first_leaf_);
  // The chain-validity flag must survive a save/reopen: COW writes and
  // compaction leave first_leaf_ stale by design, and a reopened tree must
  // not mistake the stale chain for a checkable one.
  EncodeFixed32(meta.bytes() + 28, leaf_chain_valid_ ? 1 : 0);
  return owned_file_->Write(kMetaPage, meta);
}

Status BPlusTree::ReadMeta() {
  Page meta;
  // Through the pool (not owned_file_) so the meta-page read shows up in
  // IoStats like every other page access.
  SPB_RETURN_IF_ERROR(pool_.Read(kMetaPage, &meta));
  if (DecodeFixed64(meta.bytes()) != kBptMagic) {
    return Status::Corruption("bad B+-tree magic");
  }
  root_ = DecodeFixed32(meta.bytes() + 8);
  height_ = DecodeFixed32(meta.bytes() + 12);
  num_entries_ = DecodeFixed64(meta.bytes() + 16);
  first_leaf_ = DecodeFixed32(meta.bytes() + 24);
  leaf_chain_valid_ = DecodeFixed32(meta.bytes() + 28) != 0;
  return Status::OK();
}

Status BPlusTree::ReadNode(PageId id, BptNode* node) {
  Page page;
  SPB_RETURN_IF_ERROR(pool_.Read(id, &page));
  return node->DeserializeFrom(page, id);
}

Status BPlusTree::WriteNode(const BptNode& node) {
  Page page;
  node.SerializeTo(&page);
  // Invalidate before the write lands so no reader can re-cache the stale
  // decode between the write and the erase.
  node_cache_.Erase(node.id);
  return pool_.Write(node.id, page);
}

Status BPlusTree::GetNode(PageId id, DecodedNode* scratch, NodeHandle* out) {
  if (node_cache_.enabled()) {
    if (auto cached = node_cache_.Lookup(id)) {
      // Accounting parity: charge the buffer pool exactly as a re-read
      // would (hit bookkeeping + LRU promotion, or a demand fetch if the
      // page was evicted).
      SPB_RETURN_IF_ERROR(pool_.Touch(id));
      out->SetShared(std::move(cached));
      return Status::OK();
    }
    BufferPool::PagePin pin;
    SPB_RETURN_IF_ERROR(pool_.ReadPinned(id, &pin));
    auto decoded = std::make_shared<DecodedNode>();
    SPB_RETURN_IF_ERROR(decoded->Decode(*pin, id, *curve_));
    node_cache_.Insert(id, decoded);
    out->SetShared(std::move(decoded));
    return Status::OK();
  }
  BufferPool::PagePin pin;
  SPB_RETURN_IF_ERROR(pool_.ReadPinned(id, &pin));
  SPB_RETURN_IF_ERROR(scratch->Decode(*pin, id, *curve_));
  out->SetBorrowed(scratch);
  return Status::OK();
}

Status BPlusTree::AllocateNode(bool is_leaf, BptNode* node) {
  PageId id;
  SPB_RETURN_IF_ERROR(pool_.Allocate(&id));
  node->id = id;
  node->is_leaf = is_leaf;
  node->next_leaf = kInvalidPageId;
  node->leaf_entries.clear();
  node->internal_entries.clear();
  return Status::OK();
}

Status BPlusTree::AllocateCowPage(PageId* id) {
  {
    std::lock_guard<std::mutex> lock(free_mu_);
    if (!free_pages_.empty()) {
      *id = free_pages_.back();
      free_pages_.pop_back();
      return Status::OK();
    }
  }
  return pool_.Allocate(id);
}

void BPlusTree::AddFreePages(const std::vector<PageId>& ids) {
  std::lock_guard<std::mutex> lock(free_mu_);
  free_pages_.insert(free_pages_.end(), ids.begin(), ids.end());
}

size_t BPlusTree::free_pages() const {
  std::lock_guard<std::mutex> lock(free_mu_);
  return free_pages_.size();
}

void BPlusTree::AdoptVersion(const TreeVersion& v) {
  root_ = v.root;
  height_ = v.height;
  num_entries_ = v.num_entries;
}

Status BPlusTree::ReadNodeRaw(PageId id, BptNode* node) {
  Page page;
  SPB_RETURN_IF_ERROR(owned_file_->Read(id, &page));
  return node->DeserializeFrom(page, id);
}

Status BPlusTree::DecodeNodeUncounted(PageId id, DecodedNode* out) {
  Page page;
  SPB_RETURN_IF_ERROR(owned_file_->Read(id, &page));
  return out->Decode(page, id, *curve_);
}

Status BPlusTree::WriteNodeRaw(const BptNode& node) {
  Page page;
  node.SerializeTo(&page);
  node_cache_.Erase(node.id);
  return owned_file_->Write(node.id, page);
}

Status BPlusTree::CollectVersionPages(const TreeVersion& version,
                                      std::vector<PageId>* pages) {
  pages->clear();
  if (version.root == kInvalidPageId) return Status::OK();
  std::vector<PageId> frontier{version.root};
  while (!frontier.empty()) {
    PageId id = frontier.back();
    frontier.pop_back();
    pages->push_back(id);
    BptNode node;
    SPB_RETURN_IF_ERROR(ReadNodeRaw(id, &node));
    if (!node.is_leaf) {
      for (const InternalEntry& e : node.internal_entries) {
        frontier.push_back(e.child);
      }
    }
  }
  return Status::OK();
}

Status BPlusTree::CollectLeafEntriesRaw(const TreeVersion& version,
                                        std::vector<LeafEntry>* out) {
  out->clear();
  out->reserve(version.num_entries);
  if (version.root == kInvalidPageId) return Status::OK();
  // Explicit DFS stack, children pushed right-to-left so leaves emit in
  // ascending key order.
  std::vector<PageId> stack{version.root};
  BptNode node;
  while (!stack.empty()) {
    PageId id = stack.back();
    stack.pop_back();
    SPB_RETURN_IF_ERROR(ReadNodeRaw(id, &node));
    if (node.is_leaf) {
      out->insert(out->end(), node.leaf_entries.begin(),
                  node.leaf_entries.end());
    } else {
      for (auto it = node.internal_entries.rbegin();
           it != node.internal_entries.rend(); ++it) {
        stack.push_back(it->child);
      }
    }
  }
  return Status::OK();
}

Status BPlusTree::BulkLoadCow(const std::vector<LeafEntry>& entries,
                              TreeVersion* out) {
  if (!std::is_sorted(entries.begin(), entries.end(),
                      [](const LeafEntry& a, const LeafEntry& b) {
                        return a.key < b.key ||
                               (a.key == b.key && a.ptr < b.ptr);
                      })) {
    return Status::InvalidArgument("BulkLoadCow input must be sorted");
  }

  // ---- Leaf level on fresh/recycled ids. No next_leaf chain: COW-produced
  // versions are iterated with LeafCursor only.
  const size_t num_leaves =
      entries.empty()
          ? 1
          : (entries.size() + BptNode::kLeafCapacity - 1) /
                BptNode::kLeafCapacity;
  std::vector<InternalEntry> level;
  level.reserve(num_leaves);
  size_t pos = 0;
  for (size_t i = 0; i < num_leaves; ++i) {
    BptNode leaf;
    SPB_RETURN_IF_ERROR(AllocateCowPage(&leaf.id));
    leaf.is_leaf = true;
    leaf.next_leaf = kInvalidPageId;
    const size_t take = std::min(BptNode::kLeafCapacity, entries.size() - pos);
    leaf.leaf_entries.assign(entries.begin() + ptrdiff_t(pos),
                             entries.begin() + ptrdiff_t(pos + take));
    pos += take;
    SPB_RETURN_IF_ERROR(WriteNodeRaw(leaf));
    uint64_t mbb_min, mbb_max;
    ComputeLeafBox(leaf, &mbb_min, &mbb_max);
    const uint64_t min_key =
        leaf.leaf_entries.empty() ? 0 : leaf.min_key();
    level.push_back(InternalEntry{min_key, leaf.id, mbb_min, mbb_max});
  }

  // ---- Internal levels, bottom-up.
  uint32_t height = 1;
  while (level.size() > 1) {
    std::vector<InternalEntry> next_level;
    const size_t num_nodes = (level.size() + BptNode::kInternalCapacity - 1) /
                             BptNode::kInternalCapacity;
    next_level.reserve(num_nodes);
    size_t lpos = 0;
    for (size_t i = 0; i < num_nodes; ++i) {
      BptNode node;
      SPB_RETURN_IF_ERROR(AllocateCowPage(&node.id));
      node.is_leaf = false;
      node.next_leaf = kInvalidPageId;
      const size_t take =
          std::min(BptNode::kInternalCapacity, level.size() - lpos);
      node.internal_entries.assign(level.begin() + ptrdiff_t(lpos),
                                   level.begin() + ptrdiff_t(lpos + take));
      lpos += take;
      SPB_RETURN_IF_ERROR(WriteNodeRaw(node));
      uint64_t mbb_min, mbb_max;
      ComputeInternalBox(node, &mbb_min, &mbb_max);
      next_level.push_back(
          InternalEntry{node.min_key(), node.id, mbb_min, mbb_max});
    }
    level = std::move(next_level);
    ++height;
  }
  leaf_chain_valid_ = false;
  out->root = level[0].child;
  out->height = height;
  out->num_entries = entries.size();
  return Status::OK();
}

namespace {

// Batch-decodes `keys` and widens [lo, hi] to cover every decoded cell.
// DecodeBatch writes a dim-major matrix, so the min/max sweep runs along
// contiguous rows — one decode pass per node instead of one per entry.
void WidenBoxFromKeys(const SpaceFillingCurve& curve,
                      const std::vector<uint64_t>& keys,
                      std::vector<uint32_t>* lo, std::vector<uint32_t>* hi) {
  const size_t dims = curve.dims();
  const size_t n = keys.size();
  std::vector<uint32_t> cells(dims * n + n);
  uint32_t* mat = cells.data();
  curve.DecodeBatch(keys.data(), n, mat, cells.data() + dims * n);
  for (size_t d = 0; d < dims; ++d) {
    const uint32_t* row = mat + d * n;
    uint32_t mn = (*lo)[d], mx = (*hi)[d];
    for (size_t i = 0; i < n; ++i) {
      mn = std::min(mn, row[i]);
      mx = std::max(mx, row[i]);
    }
    (*lo)[d] = mn;
    (*hi)[d] = mx;
  }
}

}  // namespace

void BPlusTree::ComputeLeafBox(const BptNode& node, uint64_t* mbb_min,
                               uint64_t* mbb_max) const {
  if (node.leaf_entries.empty()) {
    *mbb_min = 0;
    *mbb_max = 0;
    return;
  }
  const size_t dims = curve_->dims();
  std::vector<uint32_t> lo(dims, UINT32_MAX), hi(dims, 0);
  std::vector<uint64_t> keys(node.leaf_entries.size());
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = node.leaf_entries[i].key;
  WidenBoxFromKeys(*curve_, keys, &lo, &hi);
  *mbb_min = curve_->Encode(lo);
  *mbb_max = curve_->Encode(hi);
}

void BPlusTree::ComputeInternalBox(const BptNode& node, uint64_t* mbb_min,
                                   uint64_t* mbb_max) const {
  if (node.internal_entries.empty()) {
    *mbb_min = 0;
    *mbb_max = 0;
    return;
  }
  const size_t dims = curve_->dims();
  std::vector<uint32_t> lo(dims, UINT32_MAX), hi(dims, 0);
  std::vector<uint64_t> keys(node.internal_entries.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = node.internal_entries[i].mbb_min;
  }
  WidenBoxFromKeys(*curve_, keys, &lo, &hi);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = node.internal_entries[i].mbb_max;
  }
  WidenBoxFromKeys(*curve_, keys, &lo, &hi);
  *mbb_min = curve_->Encode(lo);
  *mbb_max = curve_->Encode(hi);
}

Status BPlusTree::BulkLoad(const std::vector<LeafEntry>& entries) {
  if (num_entries_ != 0 || height_ != 1) {
    return Status::InvalidArgument("BulkLoad requires a fresh tree");
  }
  // Every page the rebuild writes is invalidated by WriteNode, but a full
  // rebuild warrants a full drop: stale decodes must not outlive it.
  node_cache_.Clear();
  if (!std::is_sorted(entries.begin(), entries.end(),
                      [](const LeafEntry& a, const LeafEntry& b) {
                        return a.key < b.key ||
                               (a.key == b.key && a.ptr < b.ptr);
                      })) {
    return Status::InvalidArgument("BulkLoad input must be sorted");
  }
  if (entries.empty()) return Status::OK();

  // ---- Leaf level. The existing (empty) root page becomes the first leaf;
  // the others take the ids the file grows into. Leaves are serialized
  // straight into runs of consecutive pages, each written with one
  // BufferPool::AppendSpan: page ids, page_writes and pool contents are
  // those of a WriteNode per leaf, without a zero-fill write per page.
  const size_t num_leaves =
      (entries.size() + BptNode::kLeafCapacity - 1) / BptNode::kLeafCapacity;
  const PageId fresh = owned_file_->num_pages();
  auto leaf_id = [&](size_t i) {
    return i == 0 ? root_ : fresh + static_cast<PageId>(i - 1);
  };
  std::vector<Page> run;
  run.reserve(std::min(num_leaves, kLeafRunPages));
  PageId run_first = kInvalidPageId;
  auto write_run = [&]() {
    Status s = pool_.AppendSpan(run_first, run.size(), run.data());
    run.clear();
    return s;
  };

  std::vector<InternalEntry> level;
  level.reserve(num_leaves);
  size_t pos = 0;
  for (size_t i = 0; i < num_leaves; ++i) {
    BptNode leaf;
    leaf.id = leaf_id(i);
    leaf.is_leaf = true;
    leaf.next_leaf = (i + 1 < num_leaves) ? leaf_id(i + 1) : kInvalidPageId;
    const size_t take =
        std::min(BptNode::kLeafCapacity, entries.size() - pos);
    leaf.leaf_entries.assign(entries.begin() + ptrdiff_t(pos),
                             entries.begin() + ptrdiff_t(pos + take));
    pos += take;
    if (!run.empty() && (run.size() == kLeafRunPages ||
                         leaf.id != run_first + run.size())) {
      SPB_RETURN_IF_ERROR(write_run());
    }
    if (run.empty()) run_first = leaf.id;
    run.emplace_back();
    leaf.SerializeTo(&run.back());
    node_cache_.Erase(leaf.id);
    uint64_t mbb_min, mbb_max;
    ComputeLeafBox(leaf, &mbb_min, &mbb_max);
    level.push_back(
        InternalEntry{leaf.min_key(), leaf.id, mbb_min, mbb_max});
  }
  SPB_RETURN_IF_ERROR(write_run());
  first_leaf_ = root_;
  height_ = 1;

  // ---- Internal levels, bottom-up.
  while (level.size() > 1) {
    std::vector<InternalEntry> next_level;
    const size_t num_nodes = (level.size() + BptNode::kInternalCapacity - 1) /
                             BptNode::kInternalCapacity;
    next_level.reserve(num_nodes);
    size_t lpos = 0;
    for (size_t i = 0; i < num_nodes; ++i) {
      BptNode node;
      SPB_RETURN_IF_ERROR(AllocateNode(/*is_leaf=*/false, &node));
      const size_t take =
          std::min(BptNode::kInternalCapacity, level.size() - lpos);
      node.internal_entries.assign(level.begin() + ptrdiff_t(lpos),
                                   level.begin() + ptrdiff_t(lpos + take));
      lpos += take;
      SPB_RETURN_IF_ERROR(WriteNode(node));
      uint64_t mbb_min, mbb_max;
      ComputeInternalBox(node, &mbb_min, &mbb_max);
      next_level.push_back(
          InternalEntry{node.min_key(), node.id, mbb_min, mbb_max});
    }
    level = std::move(next_level);
    ++height_;
  }
  root_ = level[0].child;
  num_entries_ = entries.size();
  return WriteMeta();
}

Status BPlusTree::InsertRec(PageId node_id, uint64_t key, uint64_t ptr,
                            ChildUpdate* up) {
  BptNode node;
  SPB_RETURN_IF_ERROR(ReadNode(node_id, &node));

  if (node.is_leaf) {
    auto it = std::upper_bound(
        node.leaf_entries.begin(), node.leaf_entries.end(), key,
        [](uint64_t k, const LeafEntry& e) { return k < e.key; });
    node.leaf_entries.insert(it, LeafEntry{key, ptr});

    if (node.leaf_entries.size() <= BptNode::kLeafCapacity) {
      SPB_RETURN_IF_ERROR(WriteNode(node));
      up->split = false;
      up->min_key = node.min_key();
      ComputeLeafBox(node, &up->mbb_min, &up->mbb_max);
      return Status::OK();
    }
    // Split: left keeps the first half, right gets the rest.
    BptNode right;
    SPB_RETURN_IF_ERROR(AllocateNode(/*is_leaf=*/true, &right));
    const size_t mid = node.leaf_entries.size() / 2;
    right.leaf_entries.assign(node.leaf_entries.begin() + ptrdiff_t(mid),
                              node.leaf_entries.end());
    node.leaf_entries.resize(mid);
    right.next_leaf = node.next_leaf;
    node.next_leaf = right.id;
    SPB_RETURN_IF_ERROR(WriteNode(node));
    SPB_RETURN_IF_ERROR(WriteNode(right));
    up->split = true;
    up->min_key = node.min_key();
    ComputeLeafBox(node, &up->mbb_min, &up->mbb_max);
    up->split_key = right.min_key();
    up->split_child = right.id;
    ComputeLeafBox(right, &up->split_mbb_min, &up->split_mbb_max);
    return Status::OK();
  }

  // Internal: descend into the last child whose separator key <= key.
  size_t i = 0;
  for (size_t j = 1; j < node.internal_entries.size(); ++j) {
    if (node.internal_entries[j].key <= key) i = j;
  }
  ChildUpdate child_up;
  SPB_RETURN_IF_ERROR(
      InsertRec(node.internal_entries[i].child, key, ptr, &child_up));
  node.internal_entries[i].key = child_up.min_key;
  node.internal_entries[i].mbb_min = child_up.mbb_min;
  node.internal_entries[i].mbb_max = child_up.mbb_max;
  if (child_up.split) {
    node.internal_entries.insert(
        node.internal_entries.begin() + ptrdiff_t(i + 1),
        InternalEntry{child_up.split_key, child_up.split_child,
                      child_up.split_mbb_min, child_up.split_mbb_max});
  }

  if (node.internal_entries.size() <= BptNode::kInternalCapacity) {
    SPB_RETURN_IF_ERROR(WriteNode(node));
    up->split = false;
    up->min_key = node.min_key();
    ComputeInternalBox(node, &up->mbb_min, &up->mbb_max);
    return Status::OK();
  }
  BptNode right;
  SPB_RETURN_IF_ERROR(AllocateNode(/*is_leaf=*/false, &right));
  const size_t mid = node.internal_entries.size() / 2;
  right.internal_entries.assign(
      node.internal_entries.begin() + ptrdiff_t(mid),
      node.internal_entries.end());
  node.internal_entries.resize(mid);
  SPB_RETURN_IF_ERROR(WriteNode(node));
  SPB_RETURN_IF_ERROR(WriteNode(right));
  up->split = true;
  up->min_key = node.min_key();
  ComputeInternalBox(node, &up->mbb_min, &up->mbb_max);
  up->split_key = right.min_key();
  up->split_child = right.id;
  ComputeInternalBox(right, &up->split_mbb_min, &up->split_mbb_max);
  return Status::OK();
}

Status BPlusTree::Insert(uint64_t key, uint64_t ptr) {
  ChildUpdate up;
  SPB_RETURN_IF_ERROR(InsertRec(root_, key, ptr, &up));
  if (up.split) {
    BptNode new_root;
    SPB_RETURN_IF_ERROR(AllocateNode(/*is_leaf=*/false, &new_root));
    new_root.internal_entries.push_back(
        InternalEntry{up.min_key, root_, up.mbb_min, up.mbb_max});
    new_root.internal_entries.push_back(
        InternalEntry{up.split_key, up.split_child, up.split_mbb_min,
                      up.split_mbb_max});
    SPB_RETURN_IF_ERROR(WriteNode(new_root));
    root_ = new_root.id;
    ++height_;
  }
  ++num_entries_;
  return Status::OK();
}

Status BPlusTree::InsertCowRec(PageId node_id, uint64_t key, uint64_t ptr,
                               CowUpdate* up, std::vector<PageId>* superseded) {
  BptNode node;
  SPB_RETURN_IF_ERROR(ReadNode(node_id, &node));
  // This node is modified on every path through here, so its current page is
  // superseded unconditionally; the copy gets a fresh id.
  superseded->push_back(node_id);
  PageId new_id;
  SPB_RETURN_IF_ERROR(AllocateCowPage(&new_id));

  if (node.is_leaf) {
    node.id = new_id;
    auto it = std::upper_bound(
        node.leaf_entries.begin(), node.leaf_entries.end(), key,
        [](uint64_t k, const LeafEntry& e) { return k < e.key; });
    node.leaf_entries.insert(it, LeafEntry{key, ptr});

    if (node.leaf_entries.size() <= BptNode::kLeafCapacity) {
      SPB_RETURN_IF_ERROR(WriteNode(node));
      up->split = false;
      up->new_child = node.id;
      up->min_key = node.min_key();
      ComputeLeafBox(node, &up->mbb_min, &up->mbb_max);
      return Status::OK();
    }
    BptNode right;
    right.is_leaf = true;
    SPB_RETURN_IF_ERROR(AllocateCowPage(&right.id));
    const size_t mid = node.leaf_entries.size() / 2;
    right.leaf_entries.assign(node.leaf_entries.begin() + ptrdiff_t(mid),
                              node.leaf_entries.end());
    node.leaf_entries.resize(mid);
    // Best-effort local links only: the global chain is already declared
    // invalid (leaf_chain_valid_), since the left sibling of `node` still
    // points at the superseded page.
    right.next_leaf = node.next_leaf;
    node.next_leaf = right.id;
    SPB_RETURN_IF_ERROR(WriteNode(node));
    SPB_RETURN_IF_ERROR(WriteNode(right));
    up->split = true;
    up->new_child = node.id;
    up->min_key = node.min_key();
    ComputeLeafBox(node, &up->mbb_min, &up->mbb_max);
    up->split_key = right.min_key();
    up->split_child = right.id;
    ComputeLeafBox(right, &up->split_mbb_min, &up->split_mbb_max);
    return Status::OK();
  }

  size_t i = 0;
  for (size_t j = 1; j < node.internal_entries.size(); ++j) {
    if (node.internal_entries[j].key <= key) i = j;
  }
  CowUpdate child_up;
  SPB_RETURN_IF_ERROR(InsertCowRec(node.internal_entries[i].child, key, ptr,
                                   &child_up, superseded));
  node.id = new_id;
  node.internal_entries[i].key = child_up.min_key;
  node.internal_entries[i].child = child_up.new_child;
  node.internal_entries[i].mbb_min = child_up.mbb_min;
  node.internal_entries[i].mbb_max = child_up.mbb_max;
  if (child_up.split) {
    node.internal_entries.insert(
        node.internal_entries.begin() + ptrdiff_t(i + 1),
        InternalEntry{child_up.split_key, child_up.split_child,
                      child_up.split_mbb_min, child_up.split_mbb_max});
  }

  if (node.internal_entries.size() <= BptNode::kInternalCapacity) {
    SPB_RETURN_IF_ERROR(WriteNode(node));
    up->split = false;
    up->new_child = node.id;
    up->min_key = node.min_key();
    ComputeInternalBox(node, &up->mbb_min, &up->mbb_max);
    return Status::OK();
  }
  BptNode right;
  right.is_leaf = false;
  SPB_RETURN_IF_ERROR(AllocateCowPage(&right.id));
  const size_t mid = node.internal_entries.size() / 2;
  right.internal_entries.assign(node.internal_entries.begin() + ptrdiff_t(mid),
                                node.internal_entries.end());
  node.internal_entries.resize(mid);
  SPB_RETURN_IF_ERROR(WriteNode(node));
  SPB_RETURN_IF_ERROR(WriteNode(right));
  up->split = true;
  up->new_child = node.id;
  up->min_key = node.min_key();
  ComputeInternalBox(node, &up->mbb_min, &up->mbb_max);
  up->split_key = right.min_key();
  up->split_child = right.id;
  ComputeInternalBox(right, &up->split_mbb_min, &up->split_mbb_max);
  return Status::OK();
}

Status BPlusTree::InsertCow(uint64_t key, uint64_t ptr, TreeVersion* out,
                            std::vector<PageId>* superseded) {
  leaf_chain_valid_ = false;
  CowUpdate up;
  SPB_RETURN_IF_ERROR(InsertCowRec(root_, key, ptr, &up, superseded));
  PageId new_root = up.new_child;
  uint32_t new_height = height_;
  if (up.split) {
    BptNode root;
    root.is_leaf = false;
    root.next_leaf = kInvalidPageId;
    SPB_RETURN_IF_ERROR(AllocateCowPage(&root.id));
    root.internal_entries.push_back(
        InternalEntry{up.min_key, up.new_child, up.mbb_min, up.mbb_max});
    root.internal_entries.push_back(
        InternalEntry{up.split_key, up.split_child, up.split_mbb_min,
                      up.split_mbb_max});
    SPB_RETURN_IF_ERROR(WriteNode(root));
    new_root = root.id;
    ++new_height;
  }
  out->root = new_root;
  out->height = new_height;
  out->num_entries = num_entries_ + 1;
  return Status::OK();
}

Status BPlusTree::DeleteCow(uint64_t key, uint64_t ptr, bool* found,
                            TreeVersion* out,
                            std::vector<PageId>* superseded) {
  *found = false;
  *out = version();
  LeafCursor cur(this, version());
  SPB_RETURN_IF_ERROR(cur.Seek(key));
  while (cur.valid() && cur.entry().key == key) {
    if (cur.entry().ptr == ptr) {
      *found = true;
      break;
    }
    SPB_RETURN_IF_ERROR(cur.Next());
  }
  if (!*found) return Status::OK();

  leaf_chain_valid_ = false;
  // Rewrite the cursor's root-to-leaf path bottom-up under fresh ids. Only
  // child links (and the direct parent's MBB, which can only shrink) are
  // refreshed — separators and ancestor MBBs stay conservative, mirroring
  // the lazy in-place Delete.
  BptNode leaf_copy = cur.leaf();
  leaf_copy.leaf_entries.erase(leaf_copy.leaf_entries.begin() +
                               ptrdiff_t(cur.pos()));
  superseded->push_back(leaf_copy.id);
  SPB_RETURN_IF_ERROR(AllocateCowPage(&leaf_copy.id));
  SPB_RETURN_IF_ERROR(WriteNode(leaf_copy));
  uint64_t leaf_mbb_min, leaf_mbb_max;
  ComputeLeafBox(leaf_copy, &leaf_mbb_min, &leaf_mbb_max);

  PageId child_id = leaf_copy.id;
  for (size_t level = cur.frames_.size() - 1; level-- > 0;) {
    BptNode copy = cur.frames_[level].handle->node;
    const size_t idx = cur.frames_[level].idx;
    copy.internal_entries[idx].child = child_id;
    if (level + 2 == cur.frames_.size()) {
      // Direct parent of the leaf: its entry's MBB can be tightened to the
      // recomputed (smaller or equal) leaf box. For an emptied leaf the
      // {0,0} box is fine — the invariant checker skips empty children.
      copy.internal_entries[idx].mbb_min = leaf_mbb_min;
      copy.internal_entries[idx].mbb_max = leaf_mbb_max;
    }
    superseded->push_back(copy.id);
    SPB_RETURN_IF_ERROR(AllocateCowPage(&copy.id));
    SPB_RETURN_IF_ERROR(WriteNode(copy));
    child_id = copy.id;
  }
  out->root = child_id;
  out->height = height_;
  out->num_entries = num_entries_ - 1;
  return Status::OK();
}

Status BPlusTree::LeafCursor::LoadFrame(size_t level, PageId id) {
  if (frames_.size() <= level) frames_.resize(level + 1);
  Frame& f = frames_[level];
  if (!f.scratch) f.scratch = std::make_unique<DecodedNode>();
  f.idx = 0;
  return tree_->GetNode(id, f.scratch.get(), &f.handle);
}

Status BPlusTree::LeafCursor::DescendLeftmost(size_t level) {
  while (true) {
    const BptNode& node = frames_[level].handle->node;
    if (node.is_leaf) {
      frames_.resize(level + 1);
      return Status::OK();
    }
    const PageId child = node.internal_entries[frames_[level].idx].child;
    SPB_RETURN_IF_ERROR(LoadFrame(level + 1, child));
    ++level;
  }
}

Status BPlusTree::LeafCursor::AdvanceLeaf() {
  while (true) {
    // Deepest ancestor frame with an unvisited sibling subtree.
    ptrdiff_t l = ptrdiff_t(frames_.size()) - 2;
    for (; l >= 0; --l) {
      const Frame& f = frames_[size_t(l)];
      if (f.idx + 1 < f.handle->node.internal_entries.size()) break;
    }
    if (l < 0) {
      valid_ = false;
      return Status::OK();
    }
    Frame& f = frames_[size_t(l)];
    ++f.idx;
    SPB_RETURN_IF_ERROR(
        LoadFrame(size_t(l) + 1, f.handle->node.internal_entries[f.idx].child));
    SPB_RETURN_IF_ERROR(DescendLeftmost(size_t(l) + 1));
    if (!frames_.back().handle->node.leaf_entries.empty()) {
      frames_.back().idx = 0;
      valid_ = true;
      return Status::OK();
    }
    // Lazily-deleted-empty leaf: keep advancing.
  }
}

Status BPlusTree::LeafCursor::SeekFirst() {
  valid_ = false;
  frames_.clear();
  if (version_.root == kInvalidPageId) return Status::OK();
  SPB_RETURN_IF_ERROR(LoadFrame(0, version_.root));
  SPB_RETURN_IF_ERROR(DescendLeftmost(0));
  if (!frames_.back().handle->node.leaf_entries.empty()) {
    frames_.back().idx = 0;
    valid_ = true;
    return Status::OK();
  }
  return AdvanceLeaf();
}

Status BPlusTree::LeafCursor::Seek(uint64_t key) {
  valid_ = false;
  frames_.clear();
  if (version_.root == kInvalidPageId) return Status::OK();
  SPB_RETURN_IF_ERROR(LoadFrame(0, version_.root));
  size_t level = 0;
  while (!frames_[level].handle->node.is_leaf) {
    const auto& entries = frames_[level].handle->node.internal_entries;
    // Same descent rule as SeekLeaf: the first entry >= key can only live in
    // (or after) the last child whose separator is strictly below key.
    size_t i = 0;
    for (size_t j = 1; j < entries.size(); ++j) {
      if (entries[j].key < key) i = j;
    }
    frames_[level].idx = i;
    SPB_RETURN_IF_ERROR(LoadFrame(level + 1, entries[i].child));
    ++level;
  }
  frames_.resize(level + 1);
  const auto& leaf_entries = frames_[level].handle->node.leaf_entries;
  auto it = std::lower_bound(
      leaf_entries.begin(), leaf_entries.end(), key,
      [](const LeafEntry& e, uint64_t k) { return e.key < k; });
  frames_[level].idx = size_t(it - leaf_entries.begin());
  if (frames_[level].idx < leaf_entries.size()) {
    valid_ = true;
    return Status::OK();
  }
  // Landed past the end of this leaf (stale-low separators can do that):
  // walk forward to the next non-empty leaf.
  return AdvanceLeaf();
}

Status BPlusTree::LeafCursor::Next() {
  if (!valid_) return Status::OK();
  Frame& f = frames_.back();
  ++f.idx;
  if (f.idx < f.handle->node.leaf_entries.size()) return Status::OK();
  return AdvanceLeaf();
}

Status BPlusTree::SeekLeaf(uint64_t key, BptNode* leaf, size_t* pos) {
  PageId id = root_;
  BptNode node;
  for (uint32_t level = height_; level > 1; --level) {
    SPB_RETURN_IF_ERROR(ReadNode(id, &node));
    if (node.is_leaf) break;
    // First entry >= key can only live in (or after) the last child whose
    // separator is strictly below key.
    size_t i = 0;
    for (size_t j = 1; j < node.internal_entries.size(); ++j) {
      if (node.internal_entries[j].key < key) i = j;
    }
    id = node.internal_entries[i].child;
  }
  SPB_RETURN_IF_ERROR(ReadNode(id, leaf));
  while (true) {
    auto it = std::lower_bound(
        leaf->leaf_entries.begin(), leaf->leaf_entries.end(), key,
        [](const LeafEntry& e, uint64_t k) { return e.key < k; });
    if (it != leaf->leaf_entries.end()) {
      *pos = size_t(it - leaf->leaf_entries.begin());
      return Status::OK();
    }
    if (leaf->next_leaf == kInvalidPageId) {
      *pos = leaf->leaf_entries.size();
      leaf->id = kInvalidPageId;
      return Status::OK();
    }
    SPB_RETURN_IF_ERROR(ReadNode(leaf->next_leaf, leaf));
  }
}

Status BPlusTree::Delete(uint64_t key, uint64_t ptr, bool* found) {
  *found = false;
  BptNode leaf;
  size_t pos;
  SPB_RETURN_IF_ERROR(SeekLeaf(key, &leaf, &pos));
  while (leaf.id != kInvalidPageId) {
    for (; pos < leaf.leaf_entries.size(); ++pos) {
      const LeafEntry& e = leaf.leaf_entries[pos];
      if (e.key != key) return Status::OK();  // past all duplicates
      if (e.ptr == ptr) {
        leaf.leaf_entries.erase(leaf.leaf_entries.begin() + ptrdiff_t(pos));
        SPB_RETURN_IF_ERROR(WriteNode(leaf));
        --num_entries_;
        *found = true;
        return Status::OK();
      }
    }
    if (leaf.next_leaf == kInvalidPageId) return Status::OK();
    SPB_RETURN_IF_ERROR(ReadNode(leaf.next_leaf, &leaf));
    pos = 0;
  }
  return Status::OK();
}

Status BPlusTree::Sync() {
  SPB_RETURN_IF_ERROR(WriteMeta());
  return owned_file_->Sync();
}

Status BPlusTree::CheckInvariantsRec(PageId node_id, bool is_root,
                                     uint64_t* min_key,
                                     std::vector<uint32_t>* lo,
                                     std::vector<uint32_t>* hi,
                                     uint32_t* depth) {
  BptNode node;
  SPB_RETURN_IF_ERROR(ReadNode(node_id, &node));
  const size_t dims = curve_->dims();
  lo->assign(dims, UINT32_MAX);
  hi->assign(dims, 0);

  if (node.is_leaf) {
    *depth = 1;
    if (node.leaf_entries.empty()) {
      if (!is_root) {
        // Lazily-deleted-empty leaves are allowed; report a box that is
        // contained in anything.
        *min_key = UINT64_MAX;
        return Status::OK();
      }
      *min_key = UINT64_MAX;
      return Status::OK();
    }
    std::vector<uint32_t> cell;
    uint64_t prev = 0;
    bool first = true;
    for (const LeafEntry& e : node.leaf_entries) {
      if (!first && e.key < prev) {
        return Status::Corruption("leaf keys out of order");
      }
      prev = e.key;
      first = false;
      curve_->Decode(e.key, &cell);
      for (size_t i = 0; i < dims; ++i) {
        (*lo)[i] = std::min((*lo)[i], cell[i]);
        (*hi)[i] = std::max((*hi)[i], cell[i]);
      }
    }
    *min_key = node.leaf_entries.front().key;
    return Status::OK();
  }

  if (node.internal_entries.empty()) {
    return Status::Corruption("empty internal node");
  }
  *min_key = UINT64_MAX;
  uint32_t child_depth = 0;
  for (size_t i = 0; i < node.internal_entries.size(); ++i) {
    const InternalEntry& e = node.internal_entries[i];
    if (i > 0 && e.key < node.internal_entries[i - 1].key) {
      return Status::Corruption("internal keys out of order");
    }
    uint64_t child_min;
    std::vector<uint32_t> clo, chi;
    uint32_t d;
    SPB_RETURN_IF_ERROR(
        CheckInvariantsRec(e.child, false, &child_min, &clo, &chi, &d));
    if (i == 0) {
      child_depth = d;
    } else if (d != child_depth) {
      return Status::Corruption("unbalanced subtree depths");
    }
    if (child_min != UINT64_MAX) {
      // Separator must be a (possibly stale-low) lower bound of the subtree.
      if (e.key > child_min) {
        return Status::Corruption("separator exceeds subtree min");
      }
      *min_key = std::min(*min_key, child_min);
      // Entry MBB must contain the subtree's actual box.
      std::vector<uint32_t> elo, ehi;
      DecodeBox(e.mbb_min, e.mbb_max, &elo, &ehi);
      for (size_t k = 0; k < dims; ++k) {
        if (clo[k] < elo[k] || chi[k] > ehi[k]) {
          return Status::Corruption("MBB does not contain subtree");
        }
        (*lo)[k] = std::min((*lo)[k], clo[k]);
        (*hi)[k] = std::max((*hi)[k], chi[k]);
      }
    }
  }
  *depth = child_depth + 1;
  return Status::OK();
}

Status BPlusTree::CheckInvariants() {
  uint64_t min_key;
  std::vector<uint32_t> lo, hi;
  uint32_t depth;
  SPB_RETURN_IF_ERROR(
      CheckInvariantsRec(root_, true, &min_key, &lo, &hi, &depth));
  if (depth != height_) return Status::Corruption("height mismatch");

  // Leaf chain: globally sorted, covers exactly num_entries_ entries, and
  // starts at first_leaf_. Only checkable on trees never touched by a COW
  // write — COW leaves the chain stale by design.
  if (leaf_chain_valid_) {
    BptNode leaf;
    SPB_RETURN_IF_ERROR(ReadNode(first_leaf_, &leaf));
    uint64_t count = 0;
    uint64_t prev = 0;
    bool first = true;
    while (true) {
      for (const LeafEntry& e : leaf.leaf_entries) {
        if (!first && e.key < prev) {
          return Status::Corruption("leaf chain out of order");
        }
        prev = e.key;
        first = false;
        ++count;
      }
      if (leaf.next_leaf == kInvalidPageId) break;
      SPB_RETURN_IF_ERROR(ReadNode(leaf.next_leaf, &leaf));
    }
    if (count != num_entries_) {
      return Status::Corruption("leaf chain entry count mismatch");
    }
  }

  // Chain-free global order + count via the parent-stack cursor: the same
  // guarantee the chain walk gave, valid on COW'd trees too.
  LeafCursor cur(this, version());
  SPB_RETURN_IF_ERROR(cur.SeekFirst());
  uint64_t cur_count = 0;
  uint64_t cur_prev = 0;
  bool cur_first = true;
  while (cur.valid()) {
    if (!cur_first && cur.entry().key < cur_prev) {
      return Status::Corruption("cursor scan out of order");
    }
    cur_prev = cur.entry().key;
    cur_first = false;
    ++cur_count;
    SPB_RETURN_IF_ERROR(cur.Next());
  }
  if (cur_count != num_entries_) {
    return Status::Corruption("cursor scan entry count mismatch");
  }
  return Status::OK();
}

}  // namespace spb
