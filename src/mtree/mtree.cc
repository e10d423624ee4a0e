#include "mtree/mtree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "common/coding.h"

namespace spb {

namespace {
constexpr size_t kNodeHeader = 4;
constexpr size_t kLeafOverhead = 16;      // id + len + parent_dist
constexpr size_t kRoutingOverhead = 24;   // child + len + radius + parent_dist
constexpr size_t kMaxBulkFanout = 64;
}  // namespace

size_t MTree::Node::ByteSize() const {
  size_t bytes = kNodeHeader;
  if (is_leaf) {
    for (const LeafEntry& e : leaves) bytes += kLeafOverhead + e.obj.size();
  } else {
    for (const RoutingEntry& e : routes) {
      bytes += kRoutingOverhead + e.obj.size();
    }
  }
  return bytes;
}

void MTree::Node::SerializeTo(Page* page) const {
  page->Clear();
  uint8_t* dst = page->bytes();
  dst[0] = is_leaf ? 1 : 0;
  EncodeFixed16(dst + 2, uint16_t(is_leaf ? leaves.size() : routes.size()));
  dst += kNodeHeader;
  if (is_leaf) {
    for (const LeafEntry& e : leaves) {
      EncodeFixed32(dst, e.id);
      EncodeFixed32(dst + 4, uint32_t(e.obj.size()));
      EncodeDouble(dst + 8, e.parent_dist);
      std::memcpy(dst + 16, e.obj.data(), e.obj.size());
      dst += kLeafOverhead + e.obj.size();
    }
  } else {
    for (const RoutingEntry& e : routes) {
      EncodeFixed32(dst, e.child);
      EncodeFixed32(dst + 4, uint32_t(e.obj.size()));
      EncodeDouble(dst + 8, e.radius);
      EncodeDouble(dst + 16, e.parent_dist);
      std::memcpy(dst + 24, e.obj.data(), e.obj.size());
      dst += kRoutingOverhead + e.obj.size();
    }
  }
}

Status MTree::Node::DeserializeFrom(const Page& page, PageId page_id) {
  const uint8_t* src = page.bytes();
  id = page_id;
  is_leaf = src[0] != 0;
  const uint16_t count = DecodeFixed16(src + 2);
  src += kNodeHeader;
  leaves.clear();
  routes.clear();
  if (is_leaf) {
    leaves.reserve(count);
    for (uint16_t i = 0; i < count; ++i) {
      LeafEntry e;
      e.id = DecodeFixed32(src);
      const uint32_t len = DecodeFixed32(src + 4);
      e.parent_dist = DecodeDouble(src + 8);
      e.obj.assign(src + 16, src + 16 + len);
      src += kLeafOverhead + len;
      leaves.push_back(std::move(e));
    }
  } else {
    routes.reserve(count);
    for (uint16_t i = 0; i < count; ++i) {
      RoutingEntry e;
      e.child = DecodeFixed32(src);
      const uint32_t len = DecodeFixed32(src + 4);
      e.radius = DecodeDouble(src + 8);
      e.parent_dist = DecodeDouble(src + 16);
      e.obj.assign(src + 24, src + 24 + len);
      src += kRoutingOverhead + len;
      routes.push_back(std::move(e));
    }
  }
  return Status::OK();
}

Status MTree::ReadNode(PageId id, Node* node) {
  Page page;
  SPB_RETURN_IF_ERROR(pool_.Read(id, &page));
  return node->DeserializeFrom(page, id);
}

Status MTree::WriteNode(const Node& node) {
  Page page;
  node.SerializeTo(&page);
  return pool_.Write(node.id, page);
}

Status MTree::AllocateNode(bool is_leaf, Node* node) {
  PageId id;
  SPB_RETURN_IF_ERROR(pool_.Allocate(&id));
  node->id = id;
  node->is_leaf = is_leaf;
  node->leaves.clear();
  node->routes.clear();
  return Status::OK();
}

Status MTree::CreateEmpty(const DistanceFunction* metric,
                          const MtreeOptions& options,
                          std::unique_ptr<MTree>* out) {
  auto tree = std::unique_ptr<MTree>(new MTree(metric, options));
  Node root;
  SPB_RETURN_IF_ERROR(tree->AllocateNode(/*is_leaf=*/true, &root));
  SPB_RETURN_IF_ERROR(tree->WriteNode(root));
  tree->root_ = root.id;
  *out = std::move(tree);
  return Status::OK();
}

// --------------------------------------------------------------- bulk load

Status MTree::BulkRec(std::vector<Item> items, SubtreeSummary* out) {
  // Leaf case: everything fits in one page.
  size_t leaf_bytes = kNodeHeader;
  for (const Item& it : items) leaf_bytes += kLeafOverhead + it.obj->size();
  if (leaf_bytes <= kPageSize) {
    Node leaf;
    SPB_RETURN_IF_ERROR(AllocateNode(/*is_leaf=*/true, &leaf));
    const Blob& routing = *items[rng_.Uniform(items.size())].obj;
    double radius = 0.0;
    for (const Item& it : items) {
      const double d = Distance(*it.obj, routing);
      radius = std::max(radius, d);
      leaf.leaves.push_back(LeafEntry{it.id, d, *it.obj});
    }
    SPB_RETURN_IF_ERROR(WriteNode(leaf));
    *out = SubtreeSummary{leaf.id, routing, radius};
    return Status::OK();
  }

  // Sample seeds and assign every item to its nearest seed.
  size_t avg = 0;
  for (const Item& it : items) avg += it.obj->size();
  avg = avg / items.size() + 1;
  const size_t est_leaf_items =
      std::max<size_t>(1, (kPageSize - kNodeHeader) / (kLeafOverhead + avg));
  const size_t k = std::clamp<size_t>(
      (items.size() + est_leaf_items - 1) / est_leaf_items, 2, kMaxBulkFanout);

  std::vector<const Blob*> seeds;
  for (size_t i = 0; i < k; ++i) {
    seeds.push_back(items[rng_.Uniform(items.size())].obj);
  }
  std::vector<std::vector<Item>> clusters(k);
  for (const Item& it : items) {
    size_t best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (size_t s = 0; s < k; ++s) {
      const double d = Distance(*it.obj, *seeds[s]);
      if (d < best_d) {
        best_d = d;
        best = s;
      }
    }
    clusters[best].push_back(it);
  }
  size_t non_empty = 0;
  for (const auto& c : clusters) {
    if (!c.empty()) ++non_empty;
  }
  if (non_empty < 2) {
    // Degenerate clustering (duplicates): split round-robin instead.
    for (auto& c : clusters) c.clear();
    for (size_t i = 0; i < items.size(); ++i) {
      clusters[i % k].push_back(items[i]);
    }
  }

  std::vector<SubtreeSummary> summaries;
  for (auto& cluster : clusters) {
    if (cluster.empty()) continue;
    SubtreeSummary s;
    SPB_RETURN_IF_ERROR(BulkRec(std::move(cluster), &s));
    summaries.push_back(std::move(s));
  }
  return BuildOverSummaries(std::move(summaries), out);
}

Status MTree::BuildOverSummaries(std::vector<SubtreeSummary> summaries,
                                 SubtreeSummary* out) {
  if (summaries.size() == 1) {
    *out = std::move(summaries[0]);
    return Status::OK();
  }
  size_t bytes = kNodeHeader;
  for (const SubtreeSummary& s : summaries) {
    bytes += kRoutingOverhead + s.routing_obj.size();
  }
  if (bytes <= kPageSize) {
    Node node;
    SPB_RETURN_IF_ERROR(AllocateNode(/*is_leaf=*/false, &node));
    const Blob routing = summaries[0].routing_obj;
    double radius = 0.0;
    for (SubtreeSummary& s : summaries) {
      const double d = Distance(s.routing_obj, routing);
      radius = std::max(radius, d + s.radius);
      node.routes.push_back(
          RoutingEntry{s.page, s.radius, d, std::move(s.routing_obj)});
    }
    SPB_RETURN_IF_ERROR(WriteNode(node));
    *out = SubtreeSummary{node.id, routing, radius};
    return Status::OK();
  }
  // Too many children for one page: group them by nearest sampled seed and
  // recurse.
  const size_t g = std::clamp<size_t>((bytes + kPageSize - 1) / kPageSize, 2,
                                      summaries.size());
  // Snapshot the seed objects: the assignment loop moves summaries out, so
  // referencing them through indices would read moved-from blobs.
  std::vector<Blob> seed_objs;
  for (size_t i = 0; i < g; ++i) {
    seed_objs.push_back(summaries[rng_.Uniform(summaries.size())].routing_obj);
  }
  std::vector<std::vector<SubtreeSummary>> groups(g);
  for (size_t i = 0; i < summaries.size(); ++i) {
    size_t best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (size_t s = 0; s < g; ++s) {
      const double d = Distance(summaries[i].routing_obj, seed_objs[s]);
      if (d < best_d) {
        best_d = d;
        best = s;
      }
    }
    groups[best].push_back(std::move(summaries[i]));
  }
  size_t non_empty = 0;
  for (const auto& grp : groups) {
    if (!grp.empty()) ++non_empty;
  }
  if (non_empty < 2) {
    // Degenerate clustering (all summaries at one seed): split round-robin
    // so recursion always makes progress.
    std::vector<SubtreeSummary> all;
    for (auto& grp : groups) {
      for (auto& s : grp) all.push_back(std::move(s));
    }
    std::vector<std::vector<SubtreeSummary>> rr(g);
    for (size_t i = 0; i < all.size(); ++i) {
      rr[i % g].push_back(std::move(all[i]));
    }
    groups = std::move(rr);
  }
  std::vector<SubtreeSummary> upper;
  for (auto& grp : groups) {
    if (grp.empty()) continue;
    SubtreeSummary s;
    SPB_RETURN_IF_ERROR(BuildOverSummaries(std::move(grp), &s));
    upper.push_back(std::move(s));
  }
  return BuildOverSummaries(std::move(upper), out);
}

Status MTree::Build(const std::vector<Blob>& objects,
                    const DistanceFunction* metric,
                    const MtreeOptions& options, std::unique_ptr<MTree>* out) {
  SPB_RETURN_IF_ERROR(CreateEmpty(metric, options, out));
  if (objects.empty()) return Status::OK();
  MTree* tree = out->get();
  std::vector<Item> items;
  items.reserve(objects.size());
  for (size_t i = 0; i < objects.size(); ++i) {
    items.push_back(Item{ObjectId(i), &objects[i]});
  }
  SubtreeSummary summary;
  SPB_RETURN_IF_ERROR(tree->BulkRec(std::move(items), &summary));
  tree->root_ = summary.page;
  tree->num_objects_ = objects.size();
  return Status::OK();
}

// ------------------------------------------------------------------ insert

Status MTree::SplitLeaf(Node* node, const Blob* routing,
                        SplitResult* result) {
  auto& entries = node->leaves;
  const size_t n = entries.size();
  // Sampled mM_RAD promotion: pick the candidate pair minimizing the larger
  // covering radius of the generalized-hyperplane partition.
  size_t best_a = 0, best_b = 1;
  double best_cost = std::numeric_limits<double>::infinity();
  for (size_t trial = 0; trial < options_.promotion_samples; ++trial) {
    const size_t a = rng_.Uniform(n);
    size_t b = rng_.Uniform(n);
    if (a == b) b = (b + 1) % n;
    double ra = 0.0, rb = 0.0;
    for (const LeafEntry& e : entries) {
      const double da = Distance(e.obj, entries[a].obj);
      const double db = Distance(e.obj, entries[b].obj);
      if (da <= db) {
        ra = std::max(ra, da);
      } else {
        rb = std::max(rb, db);
      }
    }
    const double cost = std::max(ra, rb);
    if (cost < best_cost) {
      best_cost = cost;
      best_a = a;
      best_b = b;
    }
  }

  const Blob pa = entries[best_a].obj;
  const Blob pb = entries[best_b].obj;
  Node right;
  SPB_RETURN_IF_ERROR(AllocateNode(/*is_leaf=*/true, &right));
  std::vector<LeafEntry> left_entries;
  double ra = 0.0, rb = 0.0;
  for (LeafEntry& e : entries) {
    const double da = Distance(e.obj, pa);
    const double db = Distance(e.obj, pb);
    if (da <= db) {
      e.parent_dist = da;
      ra = std::max(ra, da);
      left_entries.push_back(std::move(e));
    } else {
      e.parent_dist = db;
      rb = std::max(rb, db);
      right.leaves.push_back(std::move(e));
    }
  }
  node->leaves = std::move(left_entries);
  SPB_RETURN_IF_ERROR(WriteNode(*node));
  SPB_RETURN_IF_ERROR(WriteNode(right));
  result->split = true;
  result->left = RoutingEntry{node->id, ra,
                              routing ? Distance(pa, *routing) : 0.0, pa};
  result->right = RoutingEntry{right.id, rb,
                               routing ? Distance(pb, *routing) : 0.0, pb};
  return Status::OK();
}

Status MTree::SplitInternal(Node* node, const Blob* routing,
                            SplitResult* result) {
  auto& entries = node->routes;
  const size_t n = entries.size();
  size_t best_a = 0, best_b = 1;
  double best_cost = std::numeric_limits<double>::infinity();
  for (size_t trial = 0; trial < options_.promotion_samples; ++trial) {
    const size_t a = rng_.Uniform(n);
    size_t b = rng_.Uniform(n);
    if (a == b) b = (b + 1) % n;
    double ra = 0.0, rb = 0.0;
    for (const RoutingEntry& e : entries) {
      const double da = Distance(e.obj, entries[a].obj);
      const double db = Distance(e.obj, entries[b].obj);
      if (da <= db) {
        ra = std::max(ra, da + e.radius);
      } else {
        rb = std::max(rb, db + e.radius);
      }
    }
    const double cost = std::max(ra, rb);
    if (cost < best_cost) {
      best_cost = cost;
      best_a = a;
      best_b = b;
    }
  }
  const Blob pa = entries[best_a].obj;
  const Blob pb = entries[best_b].obj;
  Node right;
  SPB_RETURN_IF_ERROR(AllocateNode(/*is_leaf=*/false, &right));
  std::vector<RoutingEntry> left_entries;
  double ra = 0.0, rb = 0.0;
  for (RoutingEntry& e : entries) {
    const double da = Distance(e.obj, pa);
    const double db = Distance(e.obj, pb);
    if (da <= db) {
      e.parent_dist = da;
      ra = std::max(ra, da + e.radius);
      left_entries.push_back(std::move(e));
    } else {
      e.parent_dist = db;
      rb = std::max(rb, db + e.radius);
      right.routes.push_back(std::move(e));
    }
  }
  node->routes = std::move(left_entries);
  SPB_RETURN_IF_ERROR(WriteNode(*node));
  SPB_RETURN_IF_ERROR(WriteNode(right));
  result->split = true;
  result->left = RoutingEntry{node->id, ra,
                              routing ? Distance(pa, *routing) : 0.0, pa};
  result->right = RoutingEntry{right.id, rb,
                               routing ? Distance(pb, *routing) : 0.0, pb};
  return Status::OK();
}

Status MTree::InsertInto(PageId node_id, const Blob& obj, ObjectId id,
                         double dist_to_routing, const Blob* routing,
                         SplitResult* result) {
  result->split = false;
  Node node;
  SPB_RETURN_IF_ERROR(ReadNode(node_id, &node));

  if (node.is_leaf) {
    node.leaves.push_back(LeafEntry{id, dist_to_routing, obj});
    if (node.ByteSize() <= kPageSize) return WriteNode(node);
    return SplitLeaf(&node, routing, result);
  }

  // Choose the subtree: minimum distance among covering entries, else
  // minimum radius enlargement.
  size_t best = 0;
  double best_d = 0.0;
  double best_covered = std::numeric_limits<double>::infinity();
  double best_enlarge = std::numeric_limits<double>::infinity();
  bool covered_found = false;
  std::vector<double> dists(node.routes.size());
  for (size_t i = 0; i < node.routes.size(); ++i) {
    dists[i] = Distance(obj, node.routes[i].obj);
    if (dists[i] <= node.routes[i].radius) {
      if (!covered_found || dists[i] < best_covered) {
        covered_found = true;
        best_covered = dists[i];
        best = i;
        best_d = dists[i];
      }
    } else if (!covered_found) {
      const double enlarge = dists[i] - node.routes[i].radius;
      if (enlarge < best_enlarge) {
        best_enlarge = enlarge;
        best = i;
        best_d = dists[i];
      }
    }
  }
  RoutingEntry& chosen = node.routes[best];
  chosen.radius = std::max(chosen.radius, best_d);

  SplitResult child_split;
  SPB_RETURN_IF_ERROR(
      InsertInto(chosen.child, obj, id, best_d, &chosen.obj, &child_split));
  if (child_split.split) {
    node.routes[best] = std::move(child_split.left);
    node.routes.push_back(std::move(child_split.right));
    if (node.ByteSize() > kPageSize) {
      return SplitInternal(&node, routing, result);
    }
  }
  return WriteNode(node);
}

Status MTree::Insert(const Blob& obj, ObjectId id) {
  SplitResult split;
  SPB_RETURN_IF_ERROR(InsertInto(root_, obj, id, 0.0, nullptr, &split));
  if (split.split) {
    Node new_root;
    SPB_RETURN_IF_ERROR(AllocateNode(/*is_leaf=*/false, &new_root));
    new_root.routes.push_back(std::move(split.left));
    new_root.routes.push_back(std::move(split.right));
    SPB_RETURN_IF_ERROR(WriteNode(new_root));
    root_ = new_root.id;
  }
  ++num_objects_;
  return Status::OK();
}

// ------------------------------------------------------------------ search

Status MTree::RangeRec(PageId node_id, const Blob& q, double r,
                       double d_q_parent, std::vector<ObjectId>* result) {
  Node node;
  SPB_RETURN_IF_ERROR(ReadNode(node_id, &node));
  if (node.is_leaf) {
    for (const LeafEntry& e : node.leaves) {
      if (d_q_parent >= 0.0 &&
          std::fabs(d_q_parent - e.parent_dist) > r) {
        continue;  // parent-distance test: skip without computing d(q, o)
      }
      if (Distance(q, e.obj) <= r) result->push_back(e.id);
    }
    return Status::OK();
  }
  for (const RoutingEntry& e : node.routes) {
    if (d_q_parent >= 0.0 &&
        std::fabs(d_q_parent - e.parent_dist) > r + e.radius) {
      continue;
    }
    const double d = Distance(q, e.obj);
    if (d <= r + e.radius) {
      SPB_RETURN_IF_ERROR(RangeRec(e.child, q, r, d, result));
    }
  }
  return Status::OK();
}

Status MTree::RangeQuery(const Blob& q, double r,
                         std::vector<ObjectId>* result, QueryStats* stats) {
  StatScope scope(*this, stats);
  result->clear();
  SPB_RETURN_IF_ERROR(RangeRec(root_, q, r, -1.0, result));
  return Status::OK();
}

Status MTree::KnnQuery(const Blob& q, size_t k, std::vector<Neighbor>* result,
                       QueryStats* stats) {
  StatScope scope(*this, stats);
  result->clear();
  if (num_objects_ == 0 || k == 0) return Status::OK();

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
    double d_q_parent;  // d(q, routing object of node); -1 for the root
  };
  auto cmp = [](const HeapItem& a, const HeapItem& b) {
    return a.dmin > b.dmin;
  };
  std::priority_queue<HeapItem, std::vector<HeapItem>, decltype(cmp)> heap(
      cmp);
  heap.push(HeapItem{0.0, root_, -1.0});

  Node node;
  while (!heap.empty()) {
    const HeapItem item = heap.top();
    heap.pop();
    if (item.dmin >= cur_ndk()) break;
    SPB_RETURN_IF_ERROR(ReadNode(item.node, &node));
    if (node.is_leaf) {
      for (const LeafEntry& e : node.leaves) {
        if (item.d_q_parent >= 0.0 &&
            std::fabs(item.d_q_parent - e.parent_dist) >= cur_ndk()) {
          continue;
        }
        offer(e.id, Distance(q, e.obj));
      }
      continue;
    }
    for (const RoutingEntry& e : node.routes) {
      if (item.d_q_parent >= 0.0 &&
          std::fabs(item.d_q_parent - e.parent_dist) - e.radius >=
              cur_ndk()) {
        continue;
      }
      const double d = Distance(q, e.obj);
      const double dmin = std::max(0.0, d - e.radius);
      if (dmin < cur_ndk()) heap.push(HeapItem{dmin, e.child, d});
    }
  }
  result->resize(best.size());
  for (size_t i = best.size(); i-- > 0;) {
    (*result)[i] = best.top();
    best.pop();
  }
  return Status::OK();
}

QueryStats MTree::cumulative_stats() const {
  QueryStats s;
  s.page_accesses = pool_.stats().page_accesses();
  s.distance_computations = counting_.count();
  return s;
}

void MTree::ResetCounters() {
  pool_.stats().Reset();
  counting_.Reset();
}

Status MTree::CheckRec(PageId node_id, const Blob* routing, double radius,
                       double parent_dist_expected, bool has_parent) {
  // The M-tree invariant is object containment: every object stored below a
  // routing entry lies within the entry's covering radius of its routing
  // object (balls of siblings may overlap and need not nest). Verified here
  // by collecting the subtree's objects.
  (void)parent_dist_expected;
  std::vector<Blob> objects;
  SPB_RETURN_IF_ERROR(CollectObjects(node_id, routing, has_parent, &objects));
  if (has_parent) {
    for (const Blob& o : objects) {
      if (Distance(o, *routing) > radius + 1e-6) {
        return Status::Corruption("object outside covering radius");
      }
    }
  }
  return Status::OK();
}

Status MTree::CollectObjects(PageId node_id, const Blob* routing,
                             bool has_parent, std::vector<Blob>* out) {
  Node node;
  SPB_RETURN_IF_ERROR(ReadNode(node_id, &node));
  if (node.is_leaf) {
    for (const LeafEntry& e : node.leaves) {
      if (has_parent &&
          std::fabs(Distance(e.obj, *routing) - e.parent_dist) > 1e-6) {
        return Status::Corruption("leaf parent_dist incorrect");
      }
      out->push_back(e.obj);
    }
    return Status::OK();
  }
  for (const RoutingEntry& e : node.routes) {
    if (has_parent &&
        std::fabs(Distance(e.obj, *routing) - e.parent_dist) > 1e-6) {
      return Status::Corruption("routing parent_dist incorrect");
    }
    // Check the child subtree's own radius invariant...
    SPB_RETURN_IF_ERROR(CheckRec(e.child, &e.obj, e.radius, 0.0, true));
    // ...and fold its objects into the parent collection.
    SPB_RETURN_IF_ERROR(CollectObjects(e.child, &e.obj, true, out));
  }
  return Status::OK();
}

Status MTree::CheckInvariants() {
  return CheckRec(root_, nullptr, 0.0, 0.0, false);
}

}  // namespace spb
