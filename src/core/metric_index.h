#ifndef SPB_CORE_METRIC_INDEX_H_
#define SPB_CORE_METRIC_INDEX_H_

#include <chrono>
#include <string>
#include <vector>

#include "common/blob.h"
#include "common/stats.h"
#include "common/status.h"
#include "core/stats_snapshot.h"

namespace spb {

/// One kNN result.
struct Neighbor {
  ObjectId id;
  double distance;

  bool operator==(const Neighbor&) const = default;
};

/// Common interface of every metric access method in this library — the
/// SPB-tree and the competitors it is evaluated against (M-tree, OmniR-tree,
/// M-Index). The benchmark harness drives all MAMs through this interface so
/// costs are measured identically.
class MetricIndex {
 public:
  virtual ~MetricIndex() = default;

  /// Inserts one object (the Table 7 update operation).
  virtual Status Insert(const Blob& obj, ObjectId id) = 0;

  /// Inserts a batch of objects (objs[i] gets ids[i]). Indexes with a
  /// publication step may amortize it across the batch; the default simply
  /// loops Insert. Requires objs.size() == ids.size().
  virtual Status BatchInsert(const std::vector<Blob>& objs,
                             const std::vector<ObjectId>& ids) {
    if (objs.size() != ids.size()) {
      return Status::InvalidArgument("BatchInsert: objs/ids size mismatch");
    }
    for (size_t i = 0; i < objs.size(); ++i) {
      SPB_RETURN_IF_ERROR(Insert(objs[i], ids[i]));
    }
    return Status::OK();
  }

  /// Removes the object with the given payload and id; `*found` reports
  /// whether it was present. Baselines without a delete path return
  /// Status::Unimplemented — the harness skips the operation rather than
  /// downcasting to find out who supports it.
  virtual Status Delete(const Blob& obj, ObjectId id, bool* found) {
    (void)obj;
    (void)id;
    (void)found;
    return Status::Unimplemented(name() + " does not support Delete");
  }

  /// RQ(q, O, r).
  virtual Status RangeQuery(const Blob& q, double r,
                            std::vector<ObjectId>* result,
                            QueryStats* stats) = 0;

  /// kNN(q, k), sorted by ascending distance.
  virtual Status KnnQuery(const Blob& q, size_t k,
                          std::vector<Neighbor>* result,
                          QueryStats* stats) = 0;

  /// Total storage footprint in bytes (index + separately stored objects).
  virtual uint64_t storage_bytes() const = 0;

  /// Page accesses + distance computations accumulated since the last
  /// ResetCounters(); used for construction and update cost accounting.
  virtual QueryStats cumulative_stats() const = 0;
  virtual void ResetCounters() = 0;

  /// Aggregate I/O counters (logical reads/writes/hits plus physical
  /// reads) since the last ResetCounters(). Indexes without instrumented
  /// storage return zeros.
  virtual IoStats io_stats() const { return IoStats{}; }

  /// The one stats surface (PR 10): everything the index can report in a
  /// single plain-value snapshot — the paper's cost counters, the I/O
  /// counters, and (where the index has them) WAL / commit-queue / learned
  /// locator / planner counters, with per-shard drill-down for sharded
  /// indexes. This is what `spb_cli stats` prints and what the wire
  /// protocol's STATS op serializes. The base implementation fills the
  /// sections every MetricIndex has; SpbTree and ShardedSpbTree override to
  /// add theirs.
  virtual StatsSnapshot CollectStats() const {
    StatsSnapshot s;
    s.name = name();
    s.storage_bytes = storage_bytes();
    const QueryStats q = cumulative_stats();
    s.page_accesses = q.page_accesses;
    s.distance_computations = q.distance_computations;
    s.SetIoStats(io_stats());
    return s;
  }

  /// Drops LRU caches (done before each measured query, as in the paper).
  virtual void FlushCaches() = 0;

  /// How many Insert/Delete operations can make progress concurrently
  /// before the index starts reporting Status::Busy to the extras. 1 for
  /// single-writer indexes (the SPB-tree's writer try-lock); S for the
  /// sharded SPB-tree, whose writers only contend within one SFC key-range
  /// shard. QueryExecutor uses this to decide between serializing writes
  /// behind one mutex (== 1) and dispatching them concurrently with
  /// retry-on-Busy (> 1).
  virtual size_t writer_concurrency() const { return 1; }

  virtual std::string name() const = 0;
};

/// Captures an index's cost counters around one query and writes the delta
/// (plus wall time) into `out` when it goes out of scope. The delta is over
/// the aggregate counters, so it is attributable only when queries do not
/// overlap (concurrent callers pass out == nullptr). With out == nullptr it
/// reads neither the counters nor the clock.
class StatScope {
 public:
  StatScope(const MetricIndex& index, QueryStats* out)
      : index_(index), out_(out) {
    if (out_ == nullptr) return;
    before_ = index.cumulative_stats();
    start_ = std::chrono::steady_clock::now();
  }

  ~StatScope() {
    if (out_ == nullptr) return;
    const QueryStats after = index_.cumulative_stats();
    out_->page_accesses = after.page_accesses - before_.page_accesses;
    out_->distance_computations =
        after.distance_computations - before_.distance_computations;
    out_->elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
  }

  StatScope(const StatScope&) = delete;
  StatScope& operator=(const StatScope&) = delete;

 private:
  const MetricIndex& index_;
  QueryStats* out_;
  QueryStats before_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace spb

#endif  // SPB_CORE_METRIC_INDEX_H_
