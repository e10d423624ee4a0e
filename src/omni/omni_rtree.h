#ifndef SPB_OMNI_OMNI_RTREE_H_
#define SPB_OMNI_OMNI_RTREE_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/metric_index.h"
#include "metrics/distance.h"
#include "pivots/pivot_table.h"
#include "storage/buffer_pool.h"
#include "storage/raf.h"

namespace spb {

struct OmniOptions {
  /// Number of foci. The paper configures the OmniR-tree with
  /// (intrinsic dimensionality + 1) HF-selected foci.
  size_t num_pivots = 5;
  size_t cache_pages = 32;
  uint64_t seed = 20150415;
};

/// OmniR-tree (Traina et al., "The Omni-family of all-purpose access
/// methods"): the pivot-based competitor. Objects are mapped to their
/// omni-coordinates — exact distances to a set of HF-selected foci — and an
/// R-tree indexes those coordinate points; payloads live in a separate RAF.
/// Storing full double-precision coordinates (points in leaves, MBRs in
/// internal nodes) is what makes the Omni approach's index larger than the
/// SPB-tree's one-dimensional SFC keys (Table 6).
///
/// Build() bulk-loads with Sort-Tile-Recursive packing; Insert() uses
/// least-enlargement descent with a spread-based split.
class OmniRTree final : public MetricIndex {
 public:
  static Status Build(const std::vector<Blob>& objects,
                      const DistanceFunction* metric,
                      const OmniOptions& options,
                      std::unique_ptr<OmniRTree>* out);

  Status Insert(const Blob& obj, ObjectId id) override;
  Status RangeQuery(const Blob& q, double r, std::vector<ObjectId>* result,
                    QueryStats* stats) override;
  Status KnnQuery(const Blob& q, size_t k, std::vector<Neighbor>* result,
                  QueryStats* stats) override;

  uint64_t storage_bytes() const override;
  QueryStats cumulative_stats() const override;
  void ResetCounters() override;
  void FlushCaches() override {
    pool_.Flush();
    raf_->FlushCache();
  }
  std::string name() const override { return "OmniR-tree"; }

  uint64_t size() const { return num_objects_; }
  const PivotTable& pivots() const { return pivots_; }

 private:
  struct LeafEntry {
    uint64_t raf_ptr;
    std::vector<double> point;
  };
  struct InternalEntry {
    PageId child;
    std::vector<double> lo, hi;
  };
  struct Node {
    PageId id = kInvalidPageId;
    bool is_leaf = true;
    std::vector<LeafEntry> leaves;
    std::vector<InternalEntry> children;

    void SerializeTo(Page* page, size_t dims) const;
    Status DeserializeFrom(const Page& page, PageId page_id, size_t dims);
  };
  struct SplitResult {
    bool split = false;
    InternalEntry left, right;
  };

  OmniRTree(const DistanceFunction* metric, const OmniOptions& options)
      : options_(options),
        counting_(metric),
        file_(PageFile::CreateInMemory()),
        pool_(file_.get(), options.cache_pages) {}

  size_t dims() const { return pivots_.size(); }
  size_t leaf_capacity() const { return (kPageSize - 4) / (8 + 8 * dims()); }
  size_t internal_capacity() const {
    return (kPageSize - 4) / (4 + 16 * dims());
  }

  std::vector<double> MapObject(const Blob& obj) const {
    return pivots_.Map(obj, counting_);
  }

  Status ReadNode(PageId id, Node* node);
  Status WriteNode(const Node& node);
  Status AllocateNode(bool is_leaf, Node* node);

  Status InsertInto(PageId node_id, const LeafEntry& entry,
                    SplitResult* result);
  static void ComputeMbr(const Node& node, std::vector<double>* lo,
                         std::vector<double>* hi);

  OmniOptions options_;
  CountingDistance counting_;
  PivotTable pivots_;
  std::unique_ptr<PageFile> file_;
  BufferPool pool_;
  std::unique_ptr<Raf> raf_;
  PageId root_ = kInvalidPageId;
  uint64_t num_objects_ = 0;
};

}  // namespace spb

#endif  // SPB_OMNI_OMNI_RTREE_H_
