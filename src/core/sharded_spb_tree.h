#ifndef SPB_CORE_SHARDED_SPB_TREE_H_
#define SPB_CORE_SHARDED_SPB_TREE_H_

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/contention.h"
#include "core/spb_tree.h"

namespace spb {

/// SFC-range-partitioned SPB-tree: the Hilbert key space is split into
/// S = options.num_shards (a power of two) contiguous key ranges and each
/// range is served by one fully independent SpbTree — its own B+-tree, RAF,
/// buffer pools, node cache and snapshot manager. Every shard shares the
/// router's pivot table, delta and curve, so phi/key computed once at the
/// router are valid in every shard.
///
/// Range boundaries are chosen at the bulk-load key quantiles, not as an
/// equal-width split of the raw 64-bit key space: the discretizer sizes the
/// cell grid for the metric's maximum distance d+, while observed pivot
/// distances occupy a narrow band of it, so real datasets map into a thin
/// slice of the key space and an equal-width prefix split would leave every
/// object in shard 0. Quantile boundaries are persisted in the manifest and
/// fixed for the index's lifetime (later inserts may skew shard sizes —
/// re-balancing is a rebuild, like any range-partitioned store).
///
/// What sharding buys:
///  - *Writers only contend within a shard.* Each shard keeps the SPB-tree's
///    single-writer try-lock, but two writers landing on different shards
///    never see Status::Busy from each other (kBusy becomes per-shard).
///    writer_concurrency() reports S so QueryExecutor dispatches writes
///    concurrently with retry-on-Busy instead of serializing them.
///  - *Shallower trees.* Each shard holds ~N/S objects, so its COW insert
///    path copies a shorter root-to-leaf spine and its queries touch a
///    shallower B+-tree.
///  - *Parallel bulk load.* Build maps the dataset once, partitions it by
///    routed key, and bulk-loads the S shards on one thread each.
///
/// Queries scatter-gather. Each shard's mapped extent is tracked as a
/// cell-space MBB (grown on insert, never shrunk on delete — conservative
/// by construction), so the router prunes whole shards before dispatch:
/// a range query only visits shards whose box intersects the range region
/// RR(q, r); a kNN query visits shards in ascending MIND(q, box) order
/// under the deterministic seeding cascade described at KnnQuery.
///
/// Surviving subqueries dispatch in parallel when the caller is a
/// TaskArena worker — i.e. the query runs inside a QueryExecutor batch:
/// per-shard subqueries become one nested task group on the same pool
/// (help-first, so a pool of any size stays deadlock-free), with per-shard
/// result slots concatenated in shard-rank order. A top-level caller runs
/// the same subqueries serially. By construction the parallel path is
/// *byte-identical* to the serial one — same results, same logical PA, same
/// compdists — because no cross-shard state flows between subqueries at run
/// time: range scatter shares nothing, and kNN fan-out starts every wave
/// shard at the same fixed bound (see KnnQuery).
/// FanoutIdentityTest (tests/fanout_test.cc) asserts this per query.
///
/// S == 1 is pure delegation: every operation forwards to the single
/// backing SpbTree's public entry points, so results, logical PA, compdists
/// and cache behaviour are byte-identical to an unsharded tree built with
/// the same options (asserted by ShardedIdentityTest in
/// tests/sharded_test.cc).
///
/// Thread safety matches SpbTree, per shard: any number of concurrent
/// queries, at most one writer *per shard* (a second writer on the same
/// shard gets Status::Busy). Router-level mutable state is limited to the
/// per-shard boxes (seqlock: lock-free readers, mutex-serialized writers)
/// and the counting metric (striped counters).
/// Save/FlushCaches/ResetCounters/ApplyTuning remain quiesced-only, as on
/// SpbTree.
class ShardedSpbTree : public MetricIndex {
 public:
  /// Bulk-builds S shards from `objects` (ids are positions, as in
  /// SpbTree::Build). Pivots are selected once over the whole dataset, the
  /// dataset is mapped once, the key range is cut at the S-quantiles of the
  /// mapped keys, and each shard is bulk-loaded on its own thread from its
  /// partition. options.num_shards must be a power of two. Shards may end
  /// up empty (duplicate quantile keys, tiny datasets); empty shards are
  /// never dispatched to.
  static Status Build(const std::vector<Blob>& objects,
                      const DistanceFunction* metric,
                      const SpbTreeOptions& options,
                      std::unique_ptr<ShardedSpbTree>* out);

  /// Reopens a sharded index persisted with Save(): reads the manifest
  /// (shards.spb), opens every shard, rebuilds the router's mapping from
  /// shard 0's restored pivots/delta/curve and recomputes the per-shard
  /// boxes from the leaf keys. `options` supplies cache sizes, exactly as
  /// SpbTree::Open.
  static Status Open(const std::string& storage_dir,
                     const DistanceFunction* metric,
                     const SpbTreeOptions& options,
                     std::unique_ptr<ShardedSpbTree>* out);

  /// True when `storage_dir` holds a sharded index (a shards.spb manifest).
  /// The CLI uses this to auto-pick Open vs SpbTree::Open.
  static bool IsShardedDir(const std::string& storage_dir);

  /// Persists every shard plus the manifest. Disk-backed indexes only.
  /// With WALs on this checkpoints every shard (log truncation included).
  Status Save();

  /// Compacts every shard's RAF (see SpbTree::Compact). Shards compact in
  /// order; queries keep running against their pinned snapshots throughout.
  Status Compact();

  /// The one stats surface: the aggregate over every shard's snapshot
  /// (sums, checkpoint_lsn/next_lsn included — meaningful as totals, not as
  /// one log's position; wq_max_group the max; locator_model_present
  /// AND-ed; locator_epoch the max), plus the router's own mapping distance
  /// computations. `shards` holds one full per-shard snapshot — the
  /// drill-down `spb_cli stats` prints.
  StatsSnapshot CollectStats() const override;

  /// Routed single insert: a one-element BatchInsert.
  /// Status::Busy only when a writer is active on the *same* shard.
  Status Insert(const Blob& obj, ObjectId id) override;

  /// Routed batch insert: every object is mapped once at the router (its
  /// SFC key's top bits name the owning shard) into one request vector per
  /// shard, and each vector goes through that shard's SpbTree::Write (one
  /// snapshot publication per touched shard). Shards are applied in shard
  /// order; on Status::Busy the remaining shards are left unapplied and the
  /// already published sub-batches stay — callers that need all-or-nothing
  /// retry the whole batch (re-inserting an id under the same key is an
  /// upsert, so a retry does not duplicate the applied part).
  Status BatchInsert(const std::vector<Blob>& objs,
                     const std::vector<ObjectId>& ids) override;

  /// Routed delete (lazy, as SpbTree::Delete; the shard's RAF dead-bytes
  /// counter absorbs the orphaned record): mapped once at the router, one
  /// request through the owning shard's Write. The shard box is *not*
  /// shrunk.
  Status Delete(const Blob& obj, ObjectId id, bool* found) override;

  /// Scatter-gather RQ(q, O, r): q is mapped once, shards whose box misses
  /// RR(q, r) are pruned at the router, the rest run the standard RQA
  /// traversal against their own snapshot. Result order is unspecified
  /// (per-shard results are concatenated).
  Status RangeQuery(const Blob& q, double r, std::vector<ObjectId>* result,
                    QueryStats* stats = nullptr) override;

  /// Scatter-gather kNN(q, k) under the deterministic MIND-order seeding
  /// cascade (docs/ARCHITECTURE.md §"Sharding"): shards are ranked by
  /// (MIND(q, shard box), shard index) and visited sequentially, each
  /// unbounded, until one returns k neighbours (rank 0 alone, whenever it
  /// holds >= k objects). Its exact k-th distance becomes the *fixed seed*
  /// for every remaining shard: shards whose box lower bound reaches the
  /// seed are skipped outright, the rest each start their pruning bound at
  /// exactly that value — concurrently when the caller is an arena worker,
  /// in rank order otherwise. Because every post-seed subquery depends only
  /// on (snapshot, q, k, seed) — never on a sibling's progress — results,
  /// logical PA and compdists are identical whichever way the wave
  /// executes. Results merged by (distance, id), truncated to k.
  Status KnnQuery(const Blob& q, size_t k, std::vector<Neighbor>* result,
                  QueryStats* stats, KnnTraversal traversal);
  /// Default traversal is kAuto: each dispatched shard resolves it to the
  /// kGreedy default (planner off) or against its own cost model (planner
  /// on) — so planned routing decisions can differ within one scatter,
  /// which is exactly right: the seeding shard sees k against its own
  /// density, wave shards see the fixed seed.
  Status KnnQuery(const Blob& q, size_t k, std::vector<Neighbor>* result,
                  QueryStats* stats = nullptr) override {
    return KnnQuery(q, k, result, stats, KnnTraversal::kAuto);
  }

  /// Structural self-check: every shard's CheckIntegrity plus the routing
  /// invariant (every leaf key routes to the shard holding it).
  Status CheckIntegrity();

  size_t num_shards() const { return shards_.size(); }

  /// Direct access to one shard (tests, stats drill-down). The shard is
  /// still owned by the router; treat it as read-only unless you know no
  /// router-level invariant (boxes) depends on your write.
  SpbTree& shard(size_t s) { return *shards_[s]; }
  const SpbTree& shard(size_t s) const { return *shards_[s]; }

  /// Live objects across all shards.
  uint64_t size() const;
  /// The router's mapping (shared by every shard).
  const MappedSpace& space() const { return *space_; }

  /// Shard index owning an SFC key: the number of range boundaries at or
  /// below it (boundaries_[s] is the smallest key shard s+1 owns).
  size_t RouteKey(uint64_t key) const {
    return static_cast<size_t>(
        std::upper_bound(boundaries_.begin(), boundaries_.end(), key) -
        boundaries_.begin());
  }

  // MetricIndex surface -----------------------------------------------------
  uint64_t storage_bytes() const override;
  /// Sum over shards, plus the router's own mapping/pivot-selection
  /// distance computations (so construction and update accounting matches
  /// the unsharded tree's).
  QueryStats cumulative_stats() const override;
  void ResetCounters() override;
  /// Aggregate of every shard's I/O counters (including per-shard
  /// dead_bytes; use shard(s).raf().dead_bytes() for the drill-down).
  IoStats io_stats() const override;
  void FlushCaches() override;
  /// Writers contend per shard; with the commit queues on, each shard
  /// additionally absorbs concurrent writers by grouping, so the width is
  /// the sum of the shards' own widths.
  size_t writer_concurrency() const override {
    size_t n = 0;
    for (const auto& s : shards_) n += s->writer_concurrency();
    return n;
  }
  std::string name() const override;

  /// Fans the tunable group out to every shard. t.num_shards must equal
  /// num_shards() — re-partitioning is a rebuild, not a tune — otherwise
  /// InvalidArgument. Busy if any shard has a writer in flight (shards
  /// already tuned stay tuned; retry when writers drain).
  Status ApplyTuning(const TuningOptions& t);
  /// Shard 0's tuning group with num_shards set to num_shards().
  TuningOptions tuning() const;

 private:
  // Conservative cell-space bounding box of one shard's mapped objects.
  // Grown by the insert path *before* the shard publishes, so a concurrent
  // scatter never misses a just-inserted object; never shrunk (deletes
  // leave it over-covering, which only costs a wasted dispatch).
  //
  // Readers go through a seqlock (PR 8) — every query loads every shard's
  // box, making this the hottest router structure, and the old per-box
  // mutex serialized all of them. Writers (rare: inserts and recompute)
  // still serialize on `mu`, bump `seq` odd, mutate, bump it back even;
  // readers snapshot the cells and retry if `seq` moved. The cells are
  // relaxed atomics so the deliberate read/write overlap is a data race to
  // the seqlock protocol, not to the memory model (TSan-clean).
  struct ShardBox {
    /// Writer serialization only; instrumented so the contention surface
    /// shows up in bench JSON. Readers never touch it.
    InstrumentedMutex mu{"shard.box"};
    /// 0 = never written, odd = write in flight, even >= 2 = stable.
    std::atomic<uint32_t> seq{0};
    /// Whether the shard currently holds >= 1 object. Versioned by `seq`
    /// like the cells.
    std::atomic<bool> valid{false};
    /// Set once under mu before the first seq publish; readers see it only
    /// after an acquire load of a nonzero seq.
    size_t dims = 0;
    std::unique_ptr<std::atomic<uint32_t>[]> lo, hi;
  };

  ShardedSpbTree() = default;

  static Status BuildShards(const std::vector<Blob>& objects,
                            const DistanceFunction* metric,
                            const SpbTreeOptions& options, PivotTable pivots,
                            ShardedSpbTree* t);

  // Per-shard options: storage under <dir>/shard_<s>, num_shards reset to 1.
  static SpbTreeOptions ShardOptions(const SpbTreeOptions& options, size_t s);

  // Rebuilds every shard box from its leaf keys (post-build / post-open).
  Status RecomputeBoxes();
  // Extends shard s's box to cover `cells`.
  void GrowBox(size_t s, const std::vector<uint32_t>& cells);
  // Snapshot of shard s's box; false when the shard is empty.
  bool LoadBox(size_t s, std::vector<uint32_t>* lo,
               std::vector<uint32_t>* hi) const;

  Status WriteManifest() const;

  std::string storage_dir_;
  const DistanceFunction* base_metric_ = nullptr;
  // Counts the router's own distance calls: pivot mapping for routing and
  // scatter (S > 1 only; with S == 1 every call delegates and counts inside
  // the shard).
  std::unique_ptr<CountingDistance> counting_;
  // Pivot-selection cost (Build) — folded into cumulative_stats, like
  // SpbTree::extra_distance_computations_.
  uint64_t extra_distance_computations_ = 0;
  std::unique_ptr<MappedSpace> space_;
  std::vector<std::unique_ptr<SpbTree>> shards_;
  std::vector<std::unique_ptr<ShardBox>> boxes_;
  // S-1 ascending range boundaries: boundaries_[s] is the smallest key
  // owned by shard s+1 (shard 0 starts at key 0). Fixed at build time,
  // persisted in the manifest.
  std::vector<uint64_t> boundaries_;
};

}  // namespace spb

#endif  // SPB_CORE_SHARDED_SPB_TREE_H_
