#ifndef SPB_MTREE_MTREE_H_
#define SPB_MTREE_MTREE_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/metric_index.h"
#include "metrics/distance.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace spb {

struct MtreeOptions {
  size_t cache_pages = 32;
  /// Candidate promotion pairs sampled at split time (mM_RAD approximation).
  size_t promotion_samples = 8;
  uint64_t seed = 20150415;
};

/// Disk-based M-tree (Ciaccia, Patella, Zezula, VLDB 1997) — the classic
/// compact-partitioning competitor. Routing entries carry a covering radius
/// and a distance to the parent routing object; both the radius test and the
/// parent-distance test are used to avoid distance computations during
/// search. Objects are stored *inside* the nodes (unlike the SPB-tree's
/// separate RAF), which is what drives the M-tree's larger storage and I/O
/// in the paper's Table 6 / Figs. 12-13.
///
/// Build() bulk-loads via the sampling-based recursive clustering of
/// Ciaccia & Patella ("Bulk loading the M-tree"): seeds are sampled, objects
/// are assigned to the nearest seed, and clusters are loaded recursively.
/// Insert() uses the classic descend-and-split algorithm with sampled
/// mM_RAD promotion and generalized-hyperplane partitioning.
class MTree final : public MetricIndex {
 public:
  /// Bulk-loads the tree over `objects` (ids = positions).
  static Status Build(const std::vector<Blob>& objects,
                      const DistanceFunction* metric,
                      const MtreeOptions& options,
                      std::unique_ptr<MTree>* out);

  /// Creates an empty tree (insert-only construction).
  static Status CreateEmpty(const DistanceFunction* metric,
                            const MtreeOptions& options,
                            std::unique_ptr<MTree>* out);

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
  std::string name() const override { return "M-tree"; }

  uint64_t size() const { return num_objects_; }
  /// Structural self-check: covering radii and parent distances are
  /// consistent with the actual subtree contents. Test hook.
  Status CheckInvariants();

 private:
  struct LeafEntry {
    ObjectId id;
    double parent_dist;
    Blob obj;
  };
  struct RoutingEntry {
    PageId child;
    double radius;
    double parent_dist;
    Blob obj;
  };
  struct Node {
    PageId id = kInvalidPageId;
    bool is_leaf = true;
    std::vector<LeafEntry> leaves;
    std::vector<RoutingEntry> routes;

    size_t ByteSize() const;
    void SerializeTo(Page* page) const;
    Status DeserializeFrom(const Page& page, PageId page_id);
  };
  struct SplitResult {
    bool split = false;
    RoutingEntry left;   // replaces the old child entry
    RoutingEntry right;  // new sibling
  };
  struct SubtreeSummary {
    PageId page;
    Blob routing_obj;
    double radius;
  };

  MTree(const DistanceFunction* metric, const MtreeOptions& options)
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

  Status InsertInto(PageId node_id, const Blob& obj, ObjectId id,
                    double dist_to_routing, const Blob* routing,
                    SplitResult* result);
  Status SplitLeaf(Node* node, const Blob* routing, SplitResult* result);
  Status SplitInternal(Node* node, const Blob* routing, SplitResult* result);

  Status RangeRec(PageId node_id, const Blob& q, double r, double d_q_parent,
                  std::vector<ObjectId>* result);

  struct Item {
    ObjectId id;
    const Blob* obj;
  };
  Status BulkRec(std::vector<Item> items, SubtreeSummary* out);
  Status BuildOverSummaries(std::vector<SubtreeSummary> summaries,
                            SubtreeSummary* out);

  Status CheckRec(PageId node_id, const Blob* routing, double radius,
                  double parent_dist_expected, bool has_parent);
  Status CollectObjects(PageId node_id, const Blob* routing, bool has_parent,
                        std::vector<Blob>* out);

  MtreeOptions options_;
  CountingDistance counting_;
  std::unique_ptr<PageFile> file_;
  BufferPool pool_;
  Rng rng_;
  PageId root_ = kInvalidPageId;
  uint64_t num_objects_ = 0;
};

}  // namespace spb

#endif  // SPB_MTREE_MTREE_H_
