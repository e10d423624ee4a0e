#ifndef SPB_MINDEX_M_INDEX_H_
#define SPB_MINDEX_M_INDEX_H_

#include <memory>
#include <vector>

#include "bptree/bptree.h"
#include "core/metric_index.h"
#include "metrics/distance.h"
#include "pivots/pivot_table.h"
#include "storage/raf.h"

namespace spb {

struct MIndexOptions {
  /// The paper configures the M-Index with 20 randomly chosen pivots.
  size_t num_pivots = 20;
  size_t cache_pages = 32;
  uint64_t seed = 20150415;
};

/// M-Index (Novak, Batko, Zezula, Inf. Syst. 2011): the iDistance
/// generalization for metric spaces. Every object is assigned to its
/// *nearest* pivot's cluster and keyed `cluster * C + d(o, p_cluster)` in a
/// B+-tree; all |P| pre-computed pivot distances are stored with the object
/// for filtering. Storing the full distance vector per object is what blows
/// up the M-Index's storage (Table 6: an order of magnitude over the
/// SPB-tree on string data).
///
/// Range queries scan, per cluster, the key interval
/// [d(q,p_i) - r, d(q,p_i) + r] (clipped by the cluster's radius bounds) and
/// filter candidates with the stored pivot distances before computing real
/// distances. kNN runs range queries with an iteratively doubled radius.
class MIndex final : public MetricIndex {
 public:
  static Status Build(const std::vector<Blob>& objects,
                      const DistanceFunction* metric,
                      const MIndexOptions& options,
                      std::unique_ptr<MIndex>* out);

  /// A copy-on-write B+-tree insert whose version is adopted at once, with
  /// the superseded pages recycled by the next write. There are no
  /// snapshots, so Insert stays quiesced-only: no query may run alongside
  /// it.
  Status Insert(const Blob& obj, ObjectId id) override;
  Status RangeQuery(const Blob& q, double r, std::vector<ObjectId>* result,
                    QueryStats* stats) override;
  Status KnnQuery(const Blob& q, size_t k, std::vector<Neighbor>* result,
                  QueryStats* stats) override;

  uint64_t storage_bytes() const override;
  QueryStats cumulative_stats() const override;
  void ResetCounters() override;
  void FlushCaches() override;
  std::string name() const override { return "M-Index"; }

  uint64_t size() const { return num_objects_; }

 private:
  // Key layout: cluster index in the high bits, the quantized distance to
  // the cluster pivot in the low kCellBits bits.
  static constexpr int kCellBits = 24;

  MIndex(const DistanceFunction* metric, const MIndexOptions& options)
      : options_(options), counting_(metric) {}

  uint32_t QuantizeDistance(double d) const;
  uint64_t MakeKey(size_t cluster, double d) const {
    return (uint64_t(cluster) << kCellBits) | QuantizeDistance(d);
  }

  // RAF payload: object bytes followed by |P| pivot distances.
  Blob EncodeRecord(const Blob& obj, const std::vector<double>& dists) const;
  Status DecodeRecord(const Blob& record, Blob* obj,
                      std::vector<double>* dists) const;

  Status RangeWithDistances(const Blob& q, double r,
                            std::vector<Neighbor>* result);

  MIndexOptions options_;
  CountingDistance counting_;
  PivotTable pivots_;
  std::unique_ptr<SpaceFillingCurve> key_curve_;  // 1-d identity keys
  std::unique_ptr<BPlusTree> btree_;
  std::unique_ptr<Raf> raf_;
  std::vector<double> cluster_rmin_, cluster_rmax_;
  double d_plus_ = 1.0;
  uint64_t num_objects_ = 0;
};

}  // namespace spb

#endif  // SPB_MINDEX_M_INDEX_H_
