#include "vptree/vp_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "common/coding.h"

namespace spb {

namespace {
constexpr size_t kLeafHeader = 4;
constexpr size_t kLeafEntryOverhead = 8;  // id + len
}  // namespace

size_t VpTree::Node::LeafByteSize() const {
  size_t bytes = kLeafHeader;
  for (const LeafEntry& e : entries) bytes += kLeafEntryOverhead + e.obj.size();
  return bytes;
}

void VpTree::Node::SerializeTo(Page* page) const {
  page->Clear();
  uint8_t* dst = page->bytes();
  dst[0] = is_leaf ? 1 : 0;
  if (is_leaf) {
    EncodeFixed16(dst + 2, uint16_t(entries.size()));
    dst += kLeafHeader;
    for (const LeafEntry& e : entries) {
      EncodeFixed32(dst, e.id);
      EncodeFixed32(dst + 4, uint32_t(e.obj.size()));
      std::memcpy(dst + 8, e.obj.data(), e.obj.size());
      dst += kLeafEntryOverhead + e.obj.size();
    }
  } else {
    EncodeFixed32(dst + 4, uint32_t(vantage.size()));
    EncodeDouble(dst + 8, mu);
    EncodeFixed32(dst + 16, inner);
    EncodeFixed32(dst + 20, outer);
    EncodeFixed32(dst + 24, vantage_id);
    std::memcpy(dst + 28, vantage.data(), vantage.size());
  }
}

Status VpTree::Node::DeserializeFrom(const Page& page, PageId page_id) {
  const uint8_t* src = page.bytes();
  id = page_id;
  is_leaf = src[0] != 0;
  entries.clear();
  if (is_leaf) {
    const uint16_t count = DecodeFixed16(src + 2);
    src += kLeafHeader;
    entries.reserve(count);
    for (uint16_t i = 0; i < count; ++i) {
      LeafEntry e;
      e.id = DecodeFixed32(src);
      const uint32_t len = DecodeFixed32(src + 4);
      e.obj.assign(src + 8, src + 8 + len);
      src += kLeafEntryOverhead + len;
      entries.push_back(std::move(e));
    }
  } else {
    const uint32_t vlen = DecodeFixed32(src + 4);
    mu = DecodeDouble(src + 8);
    inner = DecodeFixed32(src + 16);
    outer = DecodeFixed32(src + 20);
    vantage_id = DecodeFixed32(src + 24);
    vantage.assign(src + 28, src + 28 + vlen);
  }
  return Status::OK();
}

Status VpTree::ReadNode(PageId id, Node* node) {
  Page page;
  SPB_RETURN_IF_ERROR(pool_.Read(id, &page));
  return node->DeserializeFrom(page, id);
}

Status VpTree::WriteNode(const Node& node) {
  Page page;
  node.SerializeTo(&page);
  return pool_.Write(node.id, page);
}

Status VpTree::AllocateNode(bool is_leaf, Node* node) {
  PageId id;
  SPB_RETURN_IF_ERROR(pool_.Allocate(&id));
  *node = Node{};
  node->id = id;
  node->is_leaf = is_leaf;
  return Status::OK();
}

Status VpTree::BuildRec(std::vector<Item> items, PageId* root) {
  // Leaf case: all items fit in one page.
  size_t bytes = kLeafHeader;
  for (const Item& it : items) bytes += kLeafEntryOverhead + it.obj->size();
  if (bytes <= kPageSize || items.size() < 2) {
    if (bytes > kPageSize) {
      return Status::InvalidArgument("object too large for a VP-tree leaf");
    }
    Node leaf;
    SPB_RETURN_IF_ERROR(AllocateNode(/*is_leaf=*/true, &leaf));
    for (const Item& it : items) {
      leaf.entries.push_back(LeafEntry{it.id, *it.obj});
    }
    SPB_RETURN_IF_ERROR(WriteNode(leaf));
    *root = leaf.id;
    return Status::OK();
  }

  // Pick a random vantage, split the rest at the median distance.
  const size_t vi = rng_.Uniform(items.size());
  std::swap(items[vi], items.back());
  const Item vantage = items.back();
  items.pop_back();
  for (Item& it : items) it.dist = Distance(*it.obj, *vantage.obj);
  std::sort(items.begin(), items.end(),
            [](const Item& a, const Item& b) { return a.dist < b.dist; });
  const size_t mid = items.size() / 2;
  const double mu = items[mid].dist;
  // Invariant: inner items satisfy d <= mu, outer items d >= mu.
  std::vector<Item> inner_items(items.begin(), items.begin() + ptrdiff_t(mid));
  std::vector<Item> outer_items(items.begin() + ptrdiff_t(mid), items.end());

  Node node;
  SPB_RETURN_IF_ERROR(AllocateNode(/*is_leaf=*/false, &node));
  node.vantage = *vantage.obj;
  node.vantage_id = vantage.id;
  node.mu = mu;
  if (!inner_items.empty()) {
    SPB_RETURN_IF_ERROR(BuildRec(std::move(inner_items), &node.inner));
  }
  SPB_RETURN_IF_ERROR(BuildRec(std::move(outer_items), &node.outer));
  SPB_RETURN_IF_ERROR(WriteNode(node));
  *root = node.id;
  return Status::OK();
}

Status VpTree::Build(const std::vector<Blob>& objects,
                     const DistanceFunction* metric,
                     const VpTreeOptions& options,
                     std::unique_ptr<VpTree>* out) {
  auto tree = std::unique_ptr<VpTree>(new VpTree(metric, options));
  std::vector<Item> items;
  items.reserve(objects.size());
  for (size_t i = 0; i < objects.size(); ++i) {
    items.push_back(Item{ObjectId(i), &objects[i], 0.0});
  }
  SPB_RETURN_IF_ERROR(tree->BuildRec(std::move(items), &tree->root_));
  tree->num_objects_ = objects.size();
  *out = std::move(tree);
  return Status::OK();
}

Status VpTree::SplitLeaf(Node* leaf) {
  // Rebuild the overflowing bucket as a subtree, then graft the new root's
  // contents into the existing page so the parent pointer stays valid. (The
  // freshly allocated root page becomes garbage — a one-page cost per
  // split.)
  std::vector<Blob> owned;
  owned.reserve(leaf->entries.size());
  for (const LeafEntry& e : leaf->entries) owned.push_back(e.obj);
  std::vector<Item> items;
  for (size_t i = 0; i < owned.size(); ++i) {
    items.push_back(Item{leaf->entries[i].id, &owned[i], 0.0});
  }
  PageId subtree;
  SPB_RETURN_IF_ERROR(BuildRec(std::move(items), &subtree));
  Node new_root;
  SPB_RETURN_IF_ERROR(ReadNode(subtree, &new_root));
  new_root.id = leaf->id;
  return WriteNode(new_root);
}

Status VpTree::InsertInto(PageId node_id, const Blob& obj, ObjectId id) {
  Node node;
  SPB_RETURN_IF_ERROR(ReadNode(node_id, &node));
  if (node.is_leaf) {
    node.entries.push_back(LeafEntry{id, obj});
    if (node.LeafByteSize() <= kPageSize) return WriteNode(node);
    return SplitLeaf(&node);
  }
  const double d = Distance(obj, node.vantage);
  if (d <= node.mu && node.inner != kInvalidPageId) {
    return InsertInto(node.inner, obj, id);
  }
  if (node.outer != kInvalidPageId) return InsertInto(node.outer, obj, id);
  // Missing side (built from a degenerate split): start a new leaf there.
  Node leaf;
  SPB_RETURN_IF_ERROR(AllocateNode(/*is_leaf=*/true, &leaf));
  leaf.entries.push_back(LeafEntry{id, obj});
  SPB_RETURN_IF_ERROR(WriteNode(leaf));
  if (d <= node.mu) {
    node.inner = leaf.id;
  } else {
    node.outer = leaf.id;
  }
  return WriteNode(node);
}

Status VpTree::Insert(const Blob& obj, ObjectId id) {
  SPB_RETURN_IF_ERROR(InsertInto(root_, obj, id));
  ++num_objects_;
  return Status::OK();
}

Status VpTree::RangeRec(PageId node_id, const Blob& q, double r,
                        std::vector<ObjectId>* result) {
  if (node_id == kInvalidPageId) return Status::OK();
  Node node;
  SPB_RETURN_IF_ERROR(ReadNode(node_id, &node));
  if (node.is_leaf) {
    for (const LeafEntry& e : node.entries) {
      if (Distance(q, e.obj) <= r) result->push_back(e.id);
    }
    return Status::OK();
  }
  const double d = Distance(q, node.vantage);
  if (d <= r) result->push_back(node.vantage_id);
  if (d - r <= node.mu) {
    SPB_RETURN_IF_ERROR(RangeRec(node.inner, q, r, result));
  }
  if (d + r >= node.mu) {
    SPB_RETURN_IF_ERROR(RangeRec(node.outer, q, r, result));
  }
  return Status::OK();
}

Status VpTree::RangeQuery(const Blob& q, double r,
                          std::vector<ObjectId>* result, QueryStats* stats) {
  StatScope scope(*this, stats);
  result->clear();
  if (num_objects_ > 0) {
    SPB_RETURN_IF_ERROR(RangeRec(root_, q, r, result));
  }
  return Status::OK();
}

Status VpTree::KnnQuery(const Blob& q, size_t k, std::vector<Neighbor>* result,
                        QueryStats* stats) {
  StatScope scope(*this, stats);
  result->clear();
  if (num_objects_ > 0 && k > 0) {
    std::priority_queue<Neighbor, std::vector<Neighbor>,
                        decltype([](const Neighbor& a, const Neighbor& b) {
                          return a.distance < b.distance;
                        })>
        best;
    auto cur_ndk = [&]() {
      return best.size() < k ? std::numeric_limits<double>::infinity()
                             : best.top().distance;
    };
    auto offer = [&](ObjectId id, double d) {
      if (best.size() < k) {
        best.push(Neighbor{id, d});
      } else if (d < best.top().distance) {
        best.pop();
        best.push(Neighbor{id, d});
      }
    };
    struct HeapItem {
      double dmin;
      PageId node;
    };
    auto cmp = [](const HeapItem& a, const HeapItem& b) {
      return a.dmin > b.dmin;
    };
    std::priority_queue<HeapItem, std::vector<HeapItem>, decltype(cmp)> heap(
        cmp);
    heap.push(HeapItem{0.0, root_});
    Node node;
    while (!heap.empty()) {
      const HeapItem item = heap.top();
      heap.pop();
      if (item.dmin >= cur_ndk()) break;
      SPB_RETURN_IF_ERROR(ReadNode(item.node, &node));
      if (node.is_leaf) {
        for (const LeafEntry& e : node.entries) {
          offer(e.id, Distance(q, e.obj));
        }
        continue;
      }
      const double d = Distance(q, node.vantage);
      offer(node.vantage_id, d);
      if (node.inner != kInvalidPageId) {
        const double dmin = std::max(item.dmin, d - node.mu);
        if (dmin < cur_ndk()) {
          heap.push(HeapItem{std::max(0.0, dmin), node.inner});
        }
      }
      if (node.outer != kInvalidPageId) {
        const double dmin = std::max(item.dmin, node.mu - d);
        if (dmin < cur_ndk()) {
          heap.push(HeapItem{std::max(0.0, dmin), node.outer});
        }
      }
    }
    result->resize(best.size());
    for (size_t i = best.size(); i-- > 0;) {
      (*result)[i] = best.top();
      best.pop();
    }
  }
  return Status::OK();
}

QueryStats VpTree::cumulative_stats() const {
  QueryStats s;
  s.page_accesses = pool_.stats().page_accesses();
  s.distance_computations = counting_.count();
  return s;
}

void VpTree::ResetCounters() {
  pool_.stats().Reset();
  counting_.Reset();
}

}  // namespace spb
