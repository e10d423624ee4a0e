#ifndef SPB_CORE_SPB_TREE_H_
#define SPB_CORE_SPB_TREE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bptree/bptree.h"
#include "bptree/leaf_model.h"
#include "common/blob.h"
#include "common/contention.h"
#include "common/stats.h"
#include "common/status.h"
#include "core/cost_model.h"
#include "core/mapped_space.h"
#include "core/metric_index.h"
#include "core/tuning.h"
#include "exec/snapshot.h"
#include "exec/write_queue.h"
#include "metrics/distance.h"
#include "common/rng.h"
#include "pivots/selection.h"
#include "storage/io_engine.h"
#include "storage/raf.h"
#include "storage/wal.h"

namespace spb {

/// Knobs of an SPB-tree, mirroring Table 3 of the paper: the runtime-tunable
/// TuningOptions base plus the construction-time parameters below (changing
/// one of those is a rebuild, not a tune).
struct SpbTreeOptions : TuningOptions {
  /// |P| — number of pivots (paper default 5, near the datasets' intrinsic
  /// dimensionality).
  size_t num_pivots = 5;
  /// Pivot selection algorithm (paper default: HFI).
  PivotSelectorType pivot_selector = PivotSelectorType::kHfi;
  /// delta-approximation granularity for continuous metrics (paper default
  /// 0.005); ignored for discrete metrics.
  double delta = 0.005;
  /// Space-filling curve (Hilbert by default; similarity joins require
  /// Z-order, see SimilarityJoin()).
  CurveType curve = CurveType::kHilbert;
  /// Reservoir size for the cost model's union distance distribution; 0
  /// disables cost-model collection.
  size_t cost_sample_size = CostModel::kDefaultSampleCapacity;
  /// Seed for pivot selection and sampling.
  uint64_t seed = 20150415;
  /// Directory for the index files (btree.spb, raf.spb). Empty = in-memory.
  std::string storage_dir;
  /// Background fetch threads of the I/O engine (disk-backed trees only).
  /// SIZE_MAX = auto (2 when the machine has more than one hardware thread,
  /// else 0); 0 = no threads, span reads run inline at schedule time
  /// (coalescing still applies, overlap does not).
  size_t prefetch_threads = SIZE_MAX;
  /// Write-path engine (docs/OPERATIONS.md §"Durability"). With
  /// `enable_group_commit` on, Insert/Delete/BatchInsert enqueue into a
  /// per-tree commit queue instead of try-locking the writer mutex: a
  /// leader drains up to `wal_group_max` requests, appends them as ONE WAL
  /// segment write with ONE fsync (when `enable_wal` and `wal_fsync` are
  /// on), applies them through the COW write path and publishes ONE
  /// snapshot epoch — so concurrent writers queue instead of bouncing off
  /// Status::Busy. `enable_wal` (requires a disk-backed tree) adds the
  /// group-commit log itself: logical records are replayed on Open past the
  /// last checkpoint (a Save() checkpoints and truncates the log).
  bool enable_group_commit = false;
  bool enable_wal = false;
};

/// kNN traversal strategies of Section 4.3 / Table 5. Both return the same
/// neighbour distances; among objects tied at the k-th distance they may
/// keep different ids.
enum class KnnTraversal {
  /// Best-first over individual leaf entries — optimal in distance
  /// computations (Lemma 4), but it revisits RAF pages and keeps one frontier
  /// item per surviving leaf entry. Pass it for k=1 lookups of objects that
  /// are in the index: it stops after a handful of verifications where
  /// greedy verifies every leaf it reaches (docs/API.md §"Queries").
  kIncremental,
  /// Verifies whole leaves as soon as they are reached — optimal in RAF page
  /// accesses, the paper's default for low-precision datasets (DNA).
  kGreedy,
  /// The default: resolves to kGreedy, or, with enable_planner on, lets the
  /// cost-model planner pick per query. The resolved traversal runs
  /// byte-identical to passing it explicitly.
  kAuto,
};

/// The Space-filling-curve and Pivot-based B+-tree (the paper's primary
/// contribution): pivot table + B+-tree over SFC keys + RAF, with range /
/// kNN search and cost models. Construction cost (page accesses, distance
/// computations) is observable through stats(); per-query costs through the
/// QueryStats out-parameters.
///
/// Thread safety — the epoch/snapshot protocol (docs/ARCHITECTURE.md
/// §"Threading model"): RangeQuery()/KnnQuery()/EstimateRangeCost()/
/// EstimateKnnCost() may run from any number of threads concurrently with
/// at most one writer (Insert/Delete/BatchInsert/Write). Each query
/// pins a Snapshot of the published index version (B+-tree root + RAF
/// watermark) and traverses only pages reachable from it; the writer
/// builds new versions copy-on-write and publishes them atomically, so
/// readers never see a half-applied update and pay no per-node locks on
/// the warm path. Every write maps its objects through the pivots before
/// it takes any lock and then commits through one body (Write). Without
/// the commit queue a second concurrent writer gets Status::Busy (kBusy) —
/// writers are serialized by one try-lock, not queued; with it
/// (enable_group_commit, or the background compactor) they queue.
/// Superseded pages are retired (cache-purged and id-recycled) only after
/// the last snapshot pinning them drains.
///
/// Cumulative PA/compdists counters are atomic and stay exact in
/// aggregate; per-query QueryStats deltas are only attributable when
/// queries do not overlap, so concurrent callers should pass stats ==
/// nullptr and read aggregate costs from cumulative_stats().
/// Save/FlushCaches/ResetCounters/ApplyTuning remain quiesced-only
/// operations (they rebuild sharded structures, reset counters
/// mid-measurement, or rewrite options that queries read unsynchronised).
class SpbTree : public MetricIndex {
 public:
  /// Fewest objects per bulk-load thread. Build maps, keys and sorts the
  /// objects in contiguous chunks on min(hardware threads, n / this)
  /// threads; its output is the same at any thread count.
  static constexpr size_t kBuildChunkObjects = 4096;

  /// Builds an index over `objects` (bulk-loading path: pivot selection,
  /// two-stage mapping, SFC sort, RAF fill, B+-tree bulk-load). Object ids
  /// are the positions in `objects`. `metric` must outlive the tree and be
  /// safe to call from several threads at once (as queries already
  /// require).
  static Status Build(const std::vector<Blob>& objects,
                      const DistanceFunction* metric,
                      const SpbTreeOptions& options,
                      std::unique_ptr<SpbTree>* out);

  /// Same, but with a caller-supplied pivot table — required for similarity
  /// joins, where both operands must share one mapping, and for sharded
  /// builds, where every shard shares the router's pivots. `ids` (optional)
  /// assigns explicit object ids instead of positions — ids[i] names
  /// objects[i]. `phis` (optional) supplies the precomputed pivot mapping as
  /// a row-major objects.size() x num_pivots buffer so a router that already
  /// mapped the dataset for partitioning does not pay the distance calls a
  /// second time; it must match what MapBatch would produce.
  static Status BuildWithPivots(const std::vector<Blob>& objects,
                                const DistanceFunction* metric,
                                PivotTable pivots,
                                const SpbTreeOptions& options,
                                std::unique_ptr<SpbTree>* out,
                                const std::vector<ObjectId>* ids = nullptr,
                                const double* phis = nullptr);

  /// Reopens an index persisted with Save() in `storage_dir`. The caller
  /// supplies the same metric the index was built with (metrics are code,
  /// not data); cache sizes come from `options`, everything else (pivots,
  /// delta, curve, cost model) is restored from the meta file.
  static Status Open(const std::string& storage_dir,
                     const DistanceFunction* metric,
                     const SpbTreeOptions& options,
                     std::unique_ptr<SpbTree>* out);

  /// Stops the write-queue leader/compactor threads before members tear
  /// down (the compactor touches btree_/raf_/snapshots_).
  ~SpbTree() override;

  /// Persists the meta file (pivot table, mapping parameters, cost model)
  /// and syncs the B+-tree and RAF. Only valid for disk-backed indexes
  /// (non-empty options.storage_dir). With the WAL enabled this is the
  /// checkpoint: after the tree state is durable the log is truncated and
  /// pages retired since the last checkpoint become recyclable. Blocks
  /// behind in-flight commit groups (takes the writer lock, waiting).
  Status Save();

  /// Rewrites the RAF into SFC order on fresh pages, dropping every record
  /// orphaned by deletes/re-inserts, and swaps it in through the snapshot
  /// protocol — concurrent queries keep reading their pinned version's old
  /// file and never block. Cumulative PA/compdists counters carry over
  /// unchanged (compaction I/O is raw, outside the buffer pool) and
  /// dead_bytes resets to zero. Disk-backed trees swap via an atomic
  /// rename and checkpoint afterwards; a crash between the two is healed
  /// on Open by a generation check that rebuilds the B+-tree from the RAF.
  /// Blocks behind in-flight writers (takes the writer lock, waiting).
  Status Compact();

  /// The one stats surface: every counter group this tree has — paper cost
  /// metrics, I/O engine, WAL, commit queue, learned locator, planner — in
  /// a single plain-value snapshot.
  StatsSnapshot CollectStats() const override;

  /// With the commit queue on, concurrent writers enqueue and never see
  /// Status::Busy, so the executor may dispatch them freely; without it the
  /// single try-lock admits one writer at a time.
  size_t writer_concurrency() const override;

  /// Inserts one object with explicit id (Appendix C path: map, append to
  /// RAF, copy-on-write B+-tree insert, snapshot publish): a one-element
  /// BatchInsert. Re-inserting an id already stored under the same key
  /// replaces that record (upsert). Safe under concurrent queries; without
  /// the commit queue a second in-flight writer gets Status::Busy. The
  /// object is mapped before the writer try-lock, so an insert that gets
  /// Busy has already spent its |P| distance computations.
  Status Insert(const Blob& obj, ObjectId id) override;

  /// Batch insert: maps every object, then applies them through Write()
  /// with one snapshot publication at the end instead of one per object —
  /// pages created and superseded *within* the batch are still retired
  /// through the snapshot queue, so readers pinning the pre-batch version
  /// stay consistent. Status::Busy on a writer race (nothing applied).
  Status BatchInsert(const std::vector<Blob>& objs,
                     const std::vector<ObjectId>& ids) override;

  /// Removes the object with the given payload and id. `*found` reports
  /// whether it was present. The RAF record becomes garbage (space is
  /// reclaimed on rebuild; the orphaned bytes are tallied in the RAF's
  /// dead_bytes counter), matching the lazy-deletion design. Safe under
  /// concurrent queries (COW + publish); Status::Busy on a writer race.
  Status Delete(const Blob& obj, ObjectId id, bool* found) override;

  /// Maps one write through `space`'s pivots into a request for Write():
  /// phi(obj) and its SFC key, at space.dims() distance computations on
  /// `metric`. A tree maps with its own space and counting metric; a
  /// router maps with its own (the same pivots) to pick the shard, so the
  /// shard does not pay the distances a second time.
  static WriteQueue::Request MapWrite(const MappedSpace& space,
                                      const DistanceFunction& metric,
                                      WriteQueue::OpKind kind, const Blob& obj,
                                      ObjectId id);

  /// The one write entry point: applies `reqs` (each built by MapWrite, in
  /// order) and fills each request's status and, for deletes, found. With
  /// the commit queue the requests are enqueued and may commit across
  /// several groups, interleaved with other writers. Without it the writer
  /// lock is try-locked — Status::Busy, and nothing logged or applied, if
  /// another writer holds it — and the whole vector commits as one group:
  /// one WAL append with one fsync, every request applied with its own
  /// status (a failed one does not stop the rest), and one snapshot
  /// publish. Returns the first non-OK request status.
  Status Write(std::vector<WriteQueue::Request>* reqs);

  /// RQ(q, O, r) — Algorithm 1 (RQA) with Lemmas 1-2 and the computeSFC leaf
  /// optimization. Result ids are in no particular order.
  Status RangeQuery(const Blob& q, double r, std::vector<ObjectId>* result,
                    QueryStats* stats = nullptr) override;

  /// kNN(q, k) — Algorithm 2 (NNA) with Lemma 3 pruning; result sorted by
  /// ascending distance. Fewer than k results when the index holds fewer
  /// objects.
  Status KnnQuery(const Blob& q, size_t k, std::vector<Neighbor>* result,
                  QueryStats* stats, KnnTraversal traversal);
  Status KnnQuery(const Blob& q, size_t k, std::vector<Neighbor>* result,
                  QueryStats* stats = nullptr) override {
    return KnnQuery(q, k, result, stats, KnnTraversal::kAuto);
  }

  /// RangeQuery with phi(q) precomputed by a router — identical traversal,
  /// without re-spending the |P| mapping distance calls per shard.
  Status RangeQueryMapped(const Blob& q, const std::vector<double>& phi_q,
                          double r, std::vector<ObjectId>* result,
                          QueryStats* stats = nullptr);

  /// KnnQuery with phi(q) precomputed and an initial pruning bound on the
  /// k-th NN distance (+inf for none). The traversal prunes on
  /// min(local NDk, bound) — frontier cutoff, node pushes and leaf filters
  /// all tighten — while the local heap still collects up to k candidates
  /// (the router merges across shards). `bound` must be an exact k-th
  /// distance over a subset of the objects (a sibling shard's result):
  /// anything smaller could prune a true neighbour. DistanceWithCutoff
  /// keeps the local NDk as its threshold, so every distance the heap holds
  /// is exact.
  Status KnnQueryMapped(const Blob& q, const std::vector<double>& phi_q,
                        size_t k, std::vector<Neighbor>* result,
                        QueryStats* stats, KnnTraversal traversal,
                        double bound);

  /// Cost models (Section 4.4). Each estimate costs |P| distance
  /// computations (mapping q).
  CostEstimate EstimateRangeCost(const Blob& q, double r) const;
  CostEstimate EstimateKnnCost(const Blob& q, size_t k) const;

  /// The same estimates with phi(q) precomputed: ZERO distance computations.
  /// This is what the online planner consumes (a router already mapped q, or
  /// the query entry point maps once and shares), so planning never perturbs
  /// a query's compdists.
  CostEstimate EstimateRangeCostMapped(const std::vector<double>& phi_q,
                                       double r) const;
  CostEstimate EstimateKnnCostMapped(const std::vector<double>& phi_q,
                                     size_t k) const;

  /// The learned leaf-location model matching `snap`, or nullptr when the
  /// locator is off, not yet built, or built for a different epoch (the
  /// caller then uses classic descent — this check IS the fallback path).
  /// The returned model is immutable and safe to use for as long as the
  /// snapshot is held. Public for the joins' leaf scans and for tests.
  std::shared_ptr<const LeafModel> LocatorForSnapshot(
      const Snapshot& snap) const;

  uint64_t size() const { return num_objects_.load(std::memory_order_relaxed); }
  const MappedSpace& space() const { return *space_; }
  const DistanceFunction& metric() const { return counting_; }
  /// The counting wrapper itself — exposes the cutoff-call/hit counters.
  const CountingDistance& counting() const { return counting_; }

  /// Pins the currently published index version: queries against the
  /// returned snapshot see a frozen tree/RAF state no matter how many
  /// writes land concurrently. Queries pin one internally; callers only
  /// need this to hold a version across multiple calls (e.g. the joins'
  /// leaf cursors) or to assert epoch behaviour in tests.
  Snapshot AcquireSnapshot() const { return snapshots_->Acquire(); }
  /// The snapshot manager itself (test/diagnostic hook: live epoch count,
  /// pending retirements).
  const SnapshotManager& snapshots() const { return *snapshots_; }

  /// Applies the runtime-tunable option group (see core/tuning.h). Takes
  /// the writer lock: Status::Busy if an Insert/Delete/BatchInsert is in
  /// flight. Requires quiesced readers, same as FlushCaches, whichever field
  /// changes: the group is assigned as a plain struct, and queries read its
  /// flags and max_readahead_pages without synchronisation. Changes to
  /// node_cache_entries / btree_cache_pages / raf_cache_pages also rebuild
  /// the sharded caches.
  Status ApplyTuning(const TuningOptions& t);
  /// The currently applied tuning group.
  TuningOptions tuning() const;

  /// Opens a readahead session over the current RAF for one caller thread
  /// (used by the joins, which drive their own leaf scans; they run with
  /// writes quiesced, so the RAF cannot be swapped out from under the
  /// session). Returns a session even when enable_prefetch is off or the
  /// tree is in memory — Schedule() is then a no-op (null fetcher), so the
  /// session degrades to the demand path. Query traversals use the private
  /// overload bound to their snapshot's RAF instead.
  Readahead NewReadaheadSession() { return NewReadaheadSession(*RafPtr()); }

  /// Aggregate I/O counters of both files (logical + physical + prefetch).
  IoStats io_stats() const override;
  BPlusTree& btree() { return *btree_; }
  const BPlusTree& btree() const { return *btree_; }
  /// The current-generation RAF. Quiesced-only accessor (joins, CLI stats,
  /// tests): a concurrent compaction swaps the pointer this dereferences.
  Raf& raf() { return *raf_; }
  const CostModel& cost_model() const { return cost_model_; }
  const SpbTreeOptions& options() const { return options_; }

  /// Total on-disk footprint: B+-tree pages + RAF pages + pivot table.
  uint64_t storage_bytes() const override;

  /// Cumulative counters since the last ResetCounters() (page accesses of
  /// both files + distance computations). Used for construction-cost
  /// accounting.
  QueryStats cumulative_stats() const override;
  void ResetCounters() override;

  /// Drops both LRU caches (the paper flushes caches before every query).
  void FlushCaches() override;
  std::string name() const override { return "SPB-tree"; }

  /// Runs a full structural self-check (B+-tree invariants + key/object
  /// agreement). Test hook; expensive.
  Status CheckIntegrity();

 private:
  SpbTree(const DistanceFunction* metric, const SpbTreeOptions& options)
      : options_(options), base_metric_(metric), counting_(metric) {}

  static Status BuildInternal(const std::vector<Blob>& objects,
                              const DistanceFunction* metric,
                              PivotTable pivots, const SpbTreeOptions& options,
                              std::unique_ptr<SpbTree>* out,
                              const std::vector<ObjectId>* ids = nullptr,
                              const double* phis_in = nullptr);

  Status MakeFiles(std::unique_ptr<PageFile>* btree_file,
                   std::unique_ptr<PageFile>* raf_file) const;

  // Reusable per-query buffers for the batched leaf hot loop. Owned by the
  // per-thread QueryArena, so concurrent queries never share one.
  struct LeafScratch {
    std::vector<uint64_t> keys;
    MappedSpace::CellBlock block;
    std::vector<uint8_t> in_box;      // batch Lemma 1 flags
    std::vector<uint8_t> guaranteed;  // batch Lemma 2 flags
    std::vector<double> mind;         // batch MIND(q, cell) for NNA
    std::vector<LeafEntry> matched;   // computeSFC merge output
    std::vector<PageId> pages;        // RAF pages to hand to readahead
    Blob obj;                         // reusable object buffer (copy path)
    BlobView view;                    // reusable zero-copy view
  };

  // All transient state of one query traversal, reused across queries so the
  // steady-state warm loop performs no heap allocation (the vectors keep
  // their high-water capacity). One arena per thread (ThreadArena): a thread
  // runs one query at a time, and QueryExecutor workers each get their own.
  // Defined in spb_tree.cc.
  struct QueryArena;
  static QueryArena& ThreadArena();

  // Verifies a run of leaf entries for a range query (the paper's VerifyRQ,
  // batched): decodes all SFC keys into an SoA cell block, applies Lemma 1
  // and Lemma 2 as per-dimension sweeps, then fetches/verifies survivors in
  // entry order — same results, RAF access order and compdists as the
  // entry-at-a-time loop. `check_region` is Algorithm 1's `flag` parameter.
  // `use_cutoff` is the per-query cutoff decision (== options_.enable_cutoff
  // unless the planner turned it off for this query; never changes results
  // or compdists — only work inside each distance call).
  Status VerifyLeafBatch(Raf* raf, const LeafEntry* entries, size_t count,
                         const Blob& q, const std::vector<double>& phi_q,
                         double r, bool check_region, bool use_cutoff,
                         const std::vector<uint32_t>& rr_lo,
                         const std::vector<uint32_t>& rr_hi,
                         LeafScratch* scratch, std::vector<ObjectId>* result,
                         Readahead* ra);

  // Builds the prefetch thread pool per options_ (called once per tree);
  // none for an in-memory tree (empty storage_dir).
  void InitFetcher();

  // Creates the snapshot manager over the freshly built/opened structures,
  // wiring the retire callback (node-cache purge + pool retire + free-list
  // recycle). Called once per tree, after btree_/raf_ exist.
  void InitSnapshots();

  // The writer-side view of the published state, assembled from the
  // B+-tree version plus the RAF watermark and object count.
  IndexVersion CurrentVersion() const;

  // Applies one mapped request under the held writer lock, WITHOUT
  // publishing: superseded page ids accumulate in `*superseded`. An insert
  // is an upsert — an entry at its key with the same id is unlinked first —
  // which is also what makes WAL replay of an already-applied insert
  // idempotent; a missing delete is kOk with found == false, which makes
  // replay of an already-applied delete idempotent.
  Status ApplyLocked(WriteQueue::Request* r, std::vector<PageId>* superseded);

  // Unlinks the first entry of `key`'s duplicate run (scanned in key order
  // by a LeafCursor) whose RAF record has id `id` and, when `obj` is given,
  // that payload. The record's bytes (8-byte header + payload) join the
  // RAF's dead-byte debt. `*removed` reports whether an entry went.
  Status UnlinkLocked(uint64_t key, ObjectId id, const Blob* obj,
                      std::vector<PageId>* superseded, bool* removed);

  // The traversal bodies of RangeQuery/KnnQuery, shared with the *Mapped
  // variants: the caller has pinned `snap`, cleared `result` and filled
  // A.phi_q (either by mapping q or by copying a router's phi).
  Status RangeSearch(const Blob& q, double r, const Snapshot& snap,
                     QueryArena& A, std::vector<ObjectId>* result);
  Status KnnSearch(const Blob& q, size_t k, const Snapshot& snap,
                   QueryArena& A, std::vector<Neighbor>* result,
                   KnnTraversal traversal, double bound);

  // The r == 0 locator fast path of RangeSearch: SeekRank straight to the
  // owning leaf, scan the duplicate run, batch-verify the exact-key matches.
  // Proven byte-identical in results/compdists to the classic descent
  // (docs/ARCHITECTURE.md §"Learned locator + planner"); only inner-node
  // page accesses differ. Requires a model valid for `snap`.
  Status PointSearchWithLocator(const Blob& q, const LeafModel& model,
                                const Snapshot& snap, QueryArena& A,
                                bool use_cutoff, std::vector<ObjectId>* result,
                                Readahead* ra);

  // ---- Learned locator maintenance (writer lock held for all of these).
  // Rebuilds the model from the writer's current adopted+published version,
  // stamped with the current snapshot epoch. Best-effort: on failure the
  // model is dropped and every query falls back to classic descent.
  void RebuildLocatorLocked();
  // Rebuild-on-churn policy: after kLocatorRefreshWrites COW mutations since
  // the model went stale, rebuild it (called after PublishCurrent on the
  // write paths, so the epoch stamp matches what readers acquire).
  void MaybeRefreshLocatorLocked();
  // Marks the writer's model stale (called on every COW mutation).
  void InvalidateLocator();

  // ---- Planner.
  // One kNN routing decision, from the cost model's O(log) components (the
  // full Eq. 6/8 estimates stay available via Estimate*CostMapped; the hot
  // path avoids their sample/box sweeps). Zero distance computations.
  struct KnnPlan {
    KnnTraversal traversal = KnnTraversal::kGreedy;
    bool use_cutoff = true;
    size_t readahead_budget = 0;
    double predicted_verifications = 0.0;  // arm-cost normalizer
  };
  KnnPlan PlanKnn(const std::vector<double>& phi_q, size_t k) const;
  // Readahead budget from a predicted page-access count: clamped to
  // [8, options_.max_readahead_pages] — the planner only ever shrinks the
  // configured budget (physical I/O shaping; logical PA is untouched).
  size_t PlannedBudget(double predicted_pages) const;
  // Feeds the per-traversal runtime EMAs that drive the greedy/incremental
  // routing (elapsed normalized by the plan's predicted work, so
  // observations from different (k, query) mixes stay comparable). `used`
  // is the traversal that actually ran.
  void UpdateKnnPlannerFeedback(double predicted, KnnTraversal used,
                                double elapsed_seconds);

  // Publishes the current adopted version, handing `superseded` to the
  // epoch retire queue.
  void PublishCurrent(std::vector<PageId> superseded);

  // Readahead session bound to one specific RAF (the snapshot's, for query
  // traversals; the current one, for the public wrapper). The planner
  // overload caps the session budget at its predicted need.
  Readahead NewReadaheadSession(Raf& raf) {
    return NewReadaheadSession(raf, options_.max_readahead_pages);
  }
  Readahead NewReadaheadSession(Raf& raf, size_t budget) {
    return Readahead(&raf.pool(),
                     options_.enable_prefetch ? fetcher_.get() : nullptr,
                     ReadaheadOptions{budget});
  }

  // The current RAF under the swap lock (shared_ptr copy: callers keep the
  // file alive across a concurrent compaction swap).
  std::shared_ptr<Raf> RafPtr() const {
    std::lock_guard<std::mutex> lock(raf_mu_);
    return raf_;
  }

  // Wires the write-path engine (WAL + commit queue + compactor) per
  // options_. Called once, after InitSnapshots(), from BuildInternal/Open.
  Status InitEngine();

  // The one commit body, under the held writer lock, for the try-lock
  // route, the group-commit leader and WAL replay (`log` false): appends
  // the group as one WAL write + one fsync, applies every request with its
  // own status, publishes ONE snapshot epoch and refreshes the locator.
  // Returns the first non-OK request status (the WAL error, on a failed
  // append, lands in every request and nothing is applied).
  Status CommitLocked(const std::vector<WriteQueue::Request*>& group,
                      bool log);

  // Replays WAL records past the last checkpoint as one CommitLocked group
  // (one publish at the end). Called from Open before counters reset.
  Status ReplayWal();

  // Rebuilds btree.spb from a full raw RAF scan (re-mapping every record).
  // Open's recovery path for a crash that landed between a compaction's
  // rename and its checkpoint (RAF generation != meta generation).
  Status RebuildBtreeFromRaf();

  // Save()'s body under the already-held writer lock; also drains
  // checkpoint-gated page recycling into the B+-tree free list.
  Status SaveLocked();

  // Compact()'s body under the already-held writer lock.
  Status CompactLocked();

  // True when the dead-byte debt crossed the compactor threshold.
  bool NeedsCompaction() const;

  // Collects node MBBs for the cost model (post-bulk-load tree walk).
  Status CollectNodeBoxes(
      std::vector<std::pair<std::vector<uint32_t>, std::vector<uint32_t>>>*
          boxes);

  SpbTreeOptions options_;
  const DistanceFunction* base_metric_;
  CountingDistance counting_;
  std::unique_ptr<MappedSpace> space_;
  std::unique_ptr<BPlusTree> btree_;
  // shared_ptr: published IndexVersions co-own the RAF they were built
  // against, so a compaction swap retires the old file only after the last
  // snapshot referencing it drains. raf_mu_ guards the pointer swap.
  std::shared_ptr<Raf> raf_;
  mutable std::mutex raf_mu_;
  std::unique_ptr<PageFetcher> fetcher_;
  CostModel cost_model_;
  std::atomic<uint64_t> num_objects_{0};
  uint64_t inserts_seen_ = 0;  // reservoir counter for cost-model updates
  // Distance computations spent before the counting wrapper existed (pivot
  // selection during Build); folded into cumulative_stats().
  uint64_t extra_distance_computations_ = 0;
  Rng sample_rng_{12345};

  // Single-writer gate: Write (without the commit queue) and ApplyTuning
  // try-lock it and return Status::Busy when it is held. Readers never take
  // it. The group-commit leader, WAL replay, Save and Compact take it
  // BLOCKING — they queue behind each other instead of failing, which is
  // what keeps a checkpoint from truncating WAL records a concurrent group
  // appended but has not yet applied.
  std::mutex writer_mu_;
  // Guards the cost model, which the writer mutates (AddSample /
  // set_total_objects) while readers run Estimate*Cost.
  mutable std::mutex cost_mu_;

  // ---- Learned leaf locator (null when disabled / dropped) ----
  // locator_ is the published model: writers install under locator_mu_,
  // readers copy the shared_ptr under it once per query and validate by
  // epoch. Instrumented ("locator.model"): the copy is the only lock a
  // locator-enabled query adds, and its contention should stay invisible.
  mutable InstrumentedMutex locator_mu_{"locator.model"};
  std::shared_ptr<const LeafModel> locator_;
  // Writer-side validity + churn counter (writer lock): the model matches
  // the current adopted version until the first COW mutation; after
  // kLocatorRefreshWrites stale writes the write path rebuilds it.
  bool locator_current_ = false;
  uint64_t locator_stale_writes_ = 0;
  static constexpr uint64_t kLocatorRefreshWrites = 64;
  mutable std::atomic<uint64_t> loc_hits_{0};
  mutable std::atomic<uint64_t> loc_fallbacks_{0};
  mutable std::atomic<uint64_t> loc_stale_{0};
  mutable std::atomic<uint64_t> loc_rebuilds_{0};

  // ---- Planner counters ----
  mutable std::atomic<uint64_t> plan_range_{0};
  mutable std::atomic<uint64_t> plan_knn_{0};
  mutable std::atomic<uint64_t> plan_greedy_{0};
  mutable std::atomic<uint64_t> plan_incremental_{0};
  mutable std::atomic<uint64_t> plan_cutoff_off_{0};
  // Per-traversal runtime EMAs (seconds / predicted verification), index
  // 0 = kIncremental, 1 = kGreedy, under cost_mu_. Compdists say which
  // traversal is work-optimal (Lemma 4: always best-first), but wall clock
  // depends on the metric's cost — a cheap metric makes greedy's
  // whole-leaf sweeps beat best-first's per-entry heap churn. These EMAs
  // learn that trade-off online; PlanKnn routes to the cheaper arm once
  // both have observations and re-probes the losing arm on a fixed cadence
  // (kPlannerExploreEvery) so the estimate tracks workload drift.
  // Transient (not persisted): runtime is a property of this process.
  mutable double arm_cost_[2] = {0.0, 0.0};
  mutable uint64_t arm_obs_[2] = {0, 0};
  static constexpr uint64_t kPlannerExploreEvery = 32;

  // ---- Write-path engine (null / empty when disabled) ----
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<WriteQueue> write_queue_;
  // With the WAL on, pages retired by the snapshot queue are NOT recycled
  // immediately: the buffer pool writes through, so a recycled page could
  // be overwritten on disk while the WAL records that rebuild its epoch
  // still matter for recovery. They queue here and join the free list at
  // the next checkpoint (Save), whose truncation makes them unreachable
  // from any replay.
  std::mutex recycle_mu_;
  std::vector<PageId> pending_recycle_;
  // Runtime-tunable engine knobs: the leader/compactor threads read these
  // while ApplyTuning writes them.
  std::atomic<bool> wal_fsync_{true};
  std::atomic<uint64_t> compact_threshold_{0};

  // Declared after btree_/raf_ so it is destroyed first: its teardown
  // drains the retire queue, whose callback touches the B+-tree caches.
  std::unique_ptr<SnapshotManager> snapshots_;
};

}  // namespace spb

#endif  // SPB_CORE_SPB_TREE_H_
