#include "omni/omni_rtree.h"

#include <algorithm>
#include <functional>
#include <cmath>
#include <limits>
#include <queue>

#include "common/coding.h"
#include "pivots/selection.h"

namespace spb {

namespace {

// L-inf distance from a point to a rectangle (0 inside). This is MIND in the
// mapped space: a lower bound on the metric distance to any object whose
// omni-coordinates fall inside the rectangle.
double MinDistToRect(const std::vector<double>& p,
                     const std::vector<double>& lo,
                     const std::vector<double>& hi) {
  double best = 0.0;
  for (size_t i = 0; i < p.size(); ++i) {
    double d = 0.0;
    if (p[i] < lo[i]) {
      d = lo[i] - p[i];
    } else if (p[i] > hi[i]) {
      d = p[i] - hi[i];
    }
    best = std::max(best, d);
  }
  return best;
}

double MinDistToPoint(const std::vector<double>& a,
                      const std::vector<double>& b) {
  double best = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    best = std::max(best, std::fabs(a[i] - b[i]));
  }
  return best;
}

}  // namespace

void OmniRTree::Node::SerializeTo(Page* page, size_t dims) const {
  page->Clear();
  uint8_t* dst = page->bytes();
  dst[0] = is_leaf ? 1 : 0;
  EncodeFixed16(dst + 2, uint16_t(is_leaf ? leaves.size() : children.size()));
  dst += 4;
  if (is_leaf) {
    for (const LeafEntry& e : leaves) {
      EncodeFixed64(dst, e.raf_ptr);
      dst += 8;
      for (size_t i = 0; i < dims; ++i) {
        EncodeDouble(dst, e.point[i]);
        dst += 8;
      }
    }
  } else {
    for (const InternalEntry& e : children) {
      EncodeFixed32(dst, e.child);
      dst += 4;
      for (size_t i = 0; i < dims; ++i) {
        EncodeDouble(dst, e.lo[i]);
        dst += 8;
      }
      for (size_t i = 0; i < dims; ++i) {
        EncodeDouble(dst, e.hi[i]);
        dst += 8;
      }
    }
  }
}

Status OmniRTree::Node::DeserializeFrom(const Page& page, PageId page_id,
                                        size_t dims) {
  const uint8_t* src = page.bytes();
  id = page_id;
  is_leaf = src[0] != 0;
  const uint16_t count = DecodeFixed16(src + 2);
  src += 4;
  leaves.clear();
  children.clear();
  if (is_leaf) {
    leaves.resize(count);
    for (auto& e : leaves) {
      e.raf_ptr = DecodeFixed64(src);
      src += 8;
      e.point.resize(dims);
      for (size_t i = 0; i < dims; ++i) {
        e.point[i] = DecodeDouble(src);
        src += 8;
      }
    }
  } else {
    children.resize(count);
    for (auto& e : children) {
      e.child = DecodeFixed32(src);
      src += 4;
      e.lo.resize(dims);
      e.hi.resize(dims);
      for (size_t i = 0; i < dims; ++i) {
        e.lo[i] = DecodeDouble(src);
        src += 8;
      }
      for (size_t i = 0; i < dims; ++i) {
        e.hi[i] = DecodeDouble(src);
        src += 8;
      }
    }
  }
  return Status::OK();
}

Status OmniRTree::ReadNode(PageId id, Node* node) {
  Page page;
  SPB_RETURN_IF_ERROR(pool_.Read(id, &page));
  return node->DeserializeFrom(page, id, dims());
}

Status OmniRTree::WriteNode(const Node& node) {
  Page page;
  node.SerializeTo(&page, dims());
  return pool_.Write(node.id, page);
}

Status OmniRTree::AllocateNode(bool is_leaf, Node* node) {
  PageId id;
  SPB_RETURN_IF_ERROR(pool_.Allocate(&id));
  node->id = id;
  node->is_leaf = is_leaf;
  node->leaves.clear();
  node->children.clear();
  return Status::OK();
}

void OmniRTree::ComputeMbr(const Node& node, std::vector<double>* lo,
                           std::vector<double>* hi) {
  const size_t d = node.is_leaf
                       ? (node.leaves.empty() ? 0 : node.leaves[0].point.size())
                       : (node.children.empty() ? 0 : node.children[0].lo.size());
  lo->assign(d, std::numeric_limits<double>::infinity());
  hi->assign(d, -std::numeric_limits<double>::infinity());
  if (node.is_leaf) {
    for (const LeafEntry& e : node.leaves) {
      for (size_t i = 0; i < d; ++i) {
        (*lo)[i] = std::min((*lo)[i], e.point[i]);
        (*hi)[i] = std::max((*hi)[i], e.point[i]);
      }
    }
  } else {
    for (const InternalEntry& e : node.children) {
      for (size_t i = 0; i < d; ++i) {
        (*lo)[i] = std::min((*lo)[i], e.lo[i]);
        (*hi)[i] = std::max((*hi)[i], e.hi[i]);
      }
    }
  }
}

Status OmniRTree::Build(const std::vector<Blob>& objects,
                        const DistanceFunction* metric,
                        const OmniOptions& options,
                        std::unique_ptr<OmniRTree>* out) {
  auto tree = std::unique_ptr<OmniRTree>(new OmniRTree(metric, options));
  PivotSelectionOptions popts;
  popts.num_pivots = options.num_pivots;
  popts.seed = options.seed;
  tree->pivots_ = PivotTable(
      SelectPivots(PivotSelectorType::kHf, objects, tree->counting_, popts));
  SPB_RETURN_IF_ERROR(Raf::Create(PageFile::CreateInMemory(),
                                  options.cache_pages, &tree->raf_));

  // Map everything to omni-coordinates.
  struct Mapped {
    std::vector<double> point;
    ObjectId id;
  };
  std::vector<Mapped> mapped(objects.size());
  for (size_t i = 0; i < objects.size(); ++i) {
    mapped[i] = Mapped{tree->MapObject(objects[i]), ObjectId(i)};
  }

  if (objects.empty()) {
    Node root;
    SPB_RETURN_IF_ERROR(tree->AllocateNode(true, &root));
    SPB_RETURN_IF_ERROR(tree->WriteNode(root));
    tree->root_ = root.id;
    *out = std::move(tree);
    return Status::OK();
  }

  // Sort-Tile-Recursive ordering.
  const size_t d = tree->dims();
  const size_t cap = tree->leaf_capacity();
  std::function<void(size_t, size_t, size_t)> str =
      [&](size_t begin, size_t end, size_t dim) {
        const size_t n = end - begin;
        if (n <= cap || dim >= d) return;
        std::sort(mapped.begin() + ptrdiff_t(begin),
                  mapped.begin() + ptrdiff_t(end),
                  [dim](const Mapped& a, const Mapped& b) {
                    return a.point[dim] < b.point[dim];
                  });
        const double pages = std::ceil(double(n) / double(cap));
        const size_t slabs = std::max<size_t>(
            1, size_t(std::ceil(std::pow(pages, 1.0 / double(d - dim)))));
        const size_t per_slab = (n + slabs - 1) / slabs;
        for (size_t s = begin; s < end; s += per_slab) {
          str(s, std::min(end, s + per_slab), dim + 1);
        }
      };
  str(0, mapped.size(), 0);

  // RAF in STR order; pack leaves; build internal levels over consecutive
  // summaries (STR order keeps neighbors spatially close).
  std::vector<InternalEntry> level;
  size_t pos = 0;
  while (pos < mapped.size()) {
    Node leaf;
    SPB_RETURN_IF_ERROR(tree->AllocateNode(true, &leaf));
    const size_t take = std::min(cap, mapped.size() - pos);
    for (size_t i = 0; i < take; ++i) {
      uint64_t offset;
      SPB_RETURN_IF_ERROR(tree->raf_->Append(
          mapped[pos + i].id, objects[mapped[pos + i].id], &offset));
      leaf.leaves.push_back(LeafEntry{offset, mapped[pos + i].point});
    }
    pos += take;
    SPB_RETURN_IF_ERROR(tree->WriteNode(leaf));
    InternalEntry e;
    e.child = leaf.id;
    ComputeMbr(leaf, &e.lo, &e.hi);
    level.push_back(std::move(e));
  }
  SPB_RETURN_IF_ERROR(tree->raf_->Sync());

  const size_t icap = tree->internal_capacity();
  while (level.size() > 1) {
    std::vector<InternalEntry> next;
    size_t lpos = 0;
    while (lpos < level.size()) {
      Node node;
      SPB_RETURN_IF_ERROR(tree->AllocateNode(false, &node));
      const size_t take = std::min(icap, level.size() - lpos);
      node.children.assign(level.begin() + ptrdiff_t(lpos),
                           level.begin() + ptrdiff_t(lpos + take));
      lpos += take;
      SPB_RETURN_IF_ERROR(tree->WriteNode(node));
      InternalEntry e;
      e.child = node.id;
      ComputeMbr(node, &e.lo, &e.hi);
      next.push_back(std::move(e));
    }
    level = std::move(next);
  }
  tree->root_ = level[0].child;
  tree->num_objects_ = objects.size();
  *out = std::move(tree);
  return Status::OK();
}

Status OmniRTree::InsertInto(PageId node_id, const LeafEntry& entry,
                             SplitResult* result) {
  result->split = false;
  Node node;
  SPB_RETURN_IF_ERROR(ReadNode(node_id, &node));

  auto finish = [&](Node* n) -> Status {
    const size_t cap = n->is_leaf ? leaf_capacity() : internal_capacity();
    if ((n->is_leaf ? n->leaves.size() : n->children.size()) <= cap) {
      SPB_RETURN_IF_ERROR(WriteNode(*n));
      return Status::OK();
    }
    // Split along the dimension with the largest center spread.
    Node right;
    SPB_RETURN_IF_ERROR(AllocateNode(n->is_leaf, &right));
    size_t split_dim = 0;
    double best_spread = -1.0;
    const size_t d = dims();
    for (size_t i = 0; i < d; ++i) {
      double mn = std::numeric_limits<double>::infinity(), mx = -mn;
      auto consider = [&](double v) {
        mn = std::min(mn, v);
        mx = std::max(mx, v);
      };
      if (n->is_leaf) {
        for (const LeafEntry& e : n->leaves) consider(e.point[i]);
      } else {
        for (const InternalEntry& e : n->children) {
          consider((e.lo[i] + e.hi[i]) / 2);
        }
      }
      if (mx - mn > best_spread) {
        best_spread = mx - mn;
        split_dim = i;
      }
    }
    if (n->is_leaf) {
      std::sort(n->leaves.begin(), n->leaves.end(),
                [split_dim](const LeafEntry& a, const LeafEntry& b) {
                  return a.point[split_dim] < b.point[split_dim];
                });
      const size_t mid = n->leaves.size() / 2;
      right.leaves.assign(n->leaves.begin() + ptrdiff_t(mid),
                          n->leaves.end());
      n->leaves.resize(mid);
    } else {
      std::sort(n->children.begin(), n->children.end(),
                [split_dim](const InternalEntry& a, const InternalEntry& b) {
                  return a.lo[split_dim] + a.hi[split_dim] <
                         b.lo[split_dim] + b.hi[split_dim];
                });
      const size_t mid = n->children.size() / 2;
      right.children.assign(n->children.begin() + ptrdiff_t(mid),
                            n->children.end());
      n->children.resize(mid);
    }
    SPB_RETURN_IF_ERROR(WriteNode(*n));
    SPB_RETURN_IF_ERROR(WriteNode(right));
    result->split = true;
    result->left.child = n->id;
    ComputeMbr(*n, &result->left.lo, &result->left.hi);
    result->right.child = right.id;
    ComputeMbr(right, &result->right.lo, &result->right.hi);
    return Status::OK();
  };

  if (node.is_leaf) {
    node.leaves.push_back(entry);
    return finish(&node);
  }

  // Least L1 enlargement.
  size_t best = 0;
  double best_enlarge = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < node.children.size(); ++i) {
    double enlarge = 0.0;
    for (size_t j = 0; j < dims(); ++j) {
      enlarge += std::max(0.0, node.children[i].lo[j] - entry.point[j]);
      enlarge += std::max(0.0, entry.point[j] - node.children[i].hi[j]);
    }
    if (enlarge < best_enlarge) {
      best_enlarge = enlarge;
      best = i;
    }
  }
  for (size_t j = 0; j < dims(); ++j) {
    node.children[best].lo[j] =
        std::min(node.children[best].lo[j], entry.point[j]);
    node.children[best].hi[j] =
        std::max(node.children[best].hi[j], entry.point[j]);
  }
  SplitResult child_split;
  SPB_RETURN_IF_ERROR(
      InsertInto(node.children[best].child, entry, &child_split));
  if (child_split.split) {
    node.children[best] = std::move(child_split.left);
    node.children.push_back(std::move(child_split.right));
  }
  return finish(&node);
}

Status OmniRTree::Insert(const Blob& obj, ObjectId id) {
  LeafEntry entry;
  entry.point = MapObject(obj);
  SPB_RETURN_IF_ERROR(raf_->Append(id, obj, &entry.raf_ptr));
  SplitResult split;
  SPB_RETURN_IF_ERROR(InsertInto(root_, entry, &split));
  if (split.split) {
    Node new_root;
    SPB_RETURN_IF_ERROR(AllocateNode(false, &new_root));
    new_root.children.push_back(std::move(split.left));
    new_root.children.push_back(std::move(split.right));
    SPB_RETURN_IF_ERROR(WriteNode(new_root));
    root_ = new_root.id;
  }
  ++num_objects_;
  return Status::OK();
}

Status OmniRTree::RangeQuery(const Blob& q, double r,
                             std::vector<ObjectId>* result,
                             QueryStats* stats) {
  StatScope scope(*this, stats);
  result->clear();
  if (num_objects_ > 0) {
    const std::vector<double> phi_q = MapObject(q);
    std::queue<PageId> todo;
    todo.push(root_);
    Node node;
    while (!todo.empty()) {
      const PageId id = todo.front();
      todo.pop();
      SPB_RETURN_IF_ERROR(ReadNode(id, &node));
      if (!node.is_leaf) {
        for (const InternalEntry& e : node.children) {
          if (MinDistToRect(phi_q, e.lo, e.hi) <= r) todo.push(e.child);
        }
        continue;
      }
      for (const LeafEntry& e : node.leaves) {
        if (MinDistToPoint(phi_q, e.point) > r) continue;  // lower bound
        ObjectId oid;
        Blob obj;
        SPB_RETURN_IF_ERROR(raf_->Get(e.raf_ptr, &oid, &obj));
        // Omni upper-bound test: some focus close enough to guarantee a hit.
        bool guaranteed = false;
        for (size_t i = 0; i < phi_q.size() && !guaranteed; ++i) {
          guaranteed = e.point[i] <= r - phi_q[i];
        }
        if (guaranteed || counting_.Distance(q, obj) <= r) {
          result->push_back(oid);
        }
      }
    }
  }
  return Status::OK();
}

Status OmniRTree::KnnQuery(const Blob& q, size_t k,
                           std::vector<Neighbor>* result, QueryStats* stats) {
  StatScope scope(*this, stats);
  result->clear();
  if (num_objects_ > 0 && k > 0) {
    const std::vector<double> phi_q = MapObject(q);
    std::priority_queue<Neighbor, std::vector<Neighbor>,
                        decltype([](const Neighbor& a, const Neighbor& b) {
                          return a.distance < b.distance;
                        })>
        best;
    auto cur_ndk = [&]() {
      return best.size() < k ? std::numeric_limits<double>::infinity()
                             : best.top().distance;
    };
    struct HeapItem {
      double mind;
      bool is_entry;
      PageId node;
      uint64_t raf_ptr;
    };
    auto cmp = [](const HeapItem& a, const HeapItem& b) {
      return a.mind > b.mind;
    };
    std::priority_queue<HeapItem, std::vector<HeapItem>, decltype(cmp)> heap(
        cmp);
    heap.push(HeapItem{0.0, false, root_, 0});
    Node node;
    while (!heap.empty()) {
      const HeapItem item = heap.top();
      heap.pop();
      if (item.mind >= cur_ndk()) break;
      if (item.is_entry) {
        ObjectId oid;
        Blob obj;
        SPB_RETURN_IF_ERROR(raf_->Get(item.raf_ptr, &oid, &obj));
        const double d = counting_.Distance(q, obj);
        if (best.size() < k) {
          best.push(Neighbor{oid, d});
        } else if (d < best.top().distance) {
          best.pop();
          best.push(Neighbor{oid, d});
        }
        continue;
      }
      SPB_RETURN_IF_ERROR(ReadNode(item.node, &node));
      if (node.is_leaf) {
        for (const LeafEntry& e : node.leaves) {
          const double mind = MinDistToPoint(phi_q, e.point);
          if (mind < cur_ndk()) {
            heap.push(HeapItem{mind, true, kInvalidPageId, e.raf_ptr});
          }
        }
      } else {
        for (const InternalEntry& e : node.children) {
          const double mind = MinDistToRect(phi_q, e.lo, e.hi);
          if (mind < cur_ndk()) {
            heap.push(HeapItem{mind, false, e.child, 0});
          }
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

uint64_t OmniRTree::storage_bytes() const {
  return uint64_t(file_->num_pages()) * kPageSize + raf_->file_bytes() +
         pivots_.Serialize().size();
}

QueryStats OmniRTree::cumulative_stats() const {
  QueryStats s;
  s.page_accesses =
      pool_.stats().page_accesses() + raf_->stats().page_accesses();
  s.distance_computations = counting_.count();
  return s;
}

void OmniRTree::ResetCounters() {
  pool_.stats().Reset();
  raf_->ResetStats();
  counting_.Reset();
}

}  // namespace spb
