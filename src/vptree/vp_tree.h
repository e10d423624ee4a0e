#ifndef SPB_VPTREE_VP_TREE_H_
#define SPB_VPTREE_VP_TREE_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/metric_index.h"
#include "metrics/distance.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace spb {

struct VpTreeOptions {
  size_t cache_pages = 32;
  /// Sample size used to estimate the median radius at each split.
  size_t median_sample = 64;
  uint64_t seed = 20150415;
};

/// Disk-based Vantage-Point tree (Yianilos, SODA 1993; Bozkaya & Ozsoyoglu's
/// mvp-variant ancestry) — the classic pivot-based method from the paper's
/// related-work survey (Section 2.1, refs [8], [23]). Included as an extra
/// baseline beyond the paper's evaluated competitors.
///
/// Each internal node stores a vantage object and the median distance mu of
/// its subtree to that vantage; objects closer than mu descend into the
/// inner child, the rest into the outer child. Pruning uses
/// |d(q,v) - mu| > r to skip a side. Leaves store object payloads inline
/// (like the M-tree, objects live in the index).
class VpTree final : public MetricIndex {
 public:
  /// Bulk-builds by recursive median splitting (ids = positions).
  static Status Build(const std::vector<Blob>& objects,
                      const DistanceFunction* metric,
                      const VpTreeOptions& options,
                      std::unique_ptr<VpTree>* out);

  Status Insert(const Blob& obj, ObjectId id) override;
  Status RangeQuery(const Blob& q, double r, std::vector<ObjectId>* result,
                    QueryStats* stats) override;
  Status KnnQuery(const Blob& q, size_t k, std::vector<Neighbor>* result,
                  QueryStats* stats) override;

  uint64_t storage_bytes() const override {
    return uint64_t(file_->num_pages()) * kPageSize;
  }
  QueryStats cumulative_stats() const override;
  void ResetCounters() override;
  void FlushCaches() override { pool_.Flush(); }
  std::string name() const override { return "VP-tree"; }

  uint64_t size() const { return num_objects_; }

 private:
  struct Item {
    ObjectId id;
    const Blob* obj;
    double dist;  // scratch
  };
  struct LeafEntry {
    ObjectId id;
    Blob obj;
  };
  // In-memory node. Internal nodes hold the vantage object (which is itself
  // a data object) plus the two children; leaves hold a bucket of objects.
  struct Node {
    PageId id = kInvalidPageId;
    bool is_leaf = true;
    // Internal:
    ObjectId vantage_id = 0;
    Blob vantage;
    double mu = 0.0;
    PageId inner = kInvalidPageId;
    PageId outer = kInvalidPageId;
    // Leaf:
    std::vector<LeafEntry> entries;

    size_t LeafByteSize() const;
    void SerializeTo(Page* page) const;
    Status DeserializeFrom(const Page& page, PageId page_id);
  };

  VpTree(const DistanceFunction* metric, const VpTreeOptions& options)
      : options_(options),
        counting_(metric),
        file_(PageFile::CreateInMemory()),
        pool_(file_.get(), options.cache_pages),
        rng_(options.seed) {}

  double Distance(const Blob& a, const Blob& b) {
    return counting_.Distance(a, b);
  }
  Status ReadNode(PageId id, Node* node);
  Status WriteNode(const Node& node);
  Status AllocateNode(bool is_leaf, Node* node);

  Status BuildRec(std::vector<Item> items, PageId* root);
  Status InsertInto(PageId node_id, const Blob& obj, ObjectId id);
  Status SplitLeaf(Node* leaf);
  Status RangeRec(PageId node_id, const Blob& q, double r,
                  std::vector<ObjectId>* result);

  VpTreeOptions options_;
  CountingDistance counting_;
  std::unique_ptr<PageFile> file_;
  BufferPool pool_;
  Rng rng_;
  PageId root_ = kInvalidPageId;
  uint64_t num_objects_ = 0;
};

}  // namespace spb

#endif  // SPB_VPTREE_VP_TREE_H_
