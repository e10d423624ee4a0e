#ifndef SPB_CORE_STATS_SNAPSHOT_H_
#define SPB_CORE_STATS_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"

namespace spb {

/// The one stats surface: everything an index can report, collected at a
/// single point in time by MetricIndex::CollectStats(). A single
/// plain-value struct that
///  - `spb_cli stats` prints,
///  - the bench JSON emitters scrape, and
///  - the wire protocol's STATS op serializes verbatim (every field is a
///    fixed-width scalar; the per-shard drill-down is a nested repetition
///    of the same layout — see docs/PROTOCOL.md).
///
/// All values are snapshots of cumulative counters (since the last
/// ResetCounters() unless noted); sections an index does not implement stay
/// zero. For a ShardedSpbTree the top-level struct holds the aggregate
/// (summation rules per section below) and `shards` holds one entry per
/// shard, the drill-down `spb_cli stats` prints. Plain SpbTree and the
/// baselines leave `shards` empty.
struct StatsSnapshot {
  /// MetricIndex::name() of the index that produced the snapshot.
  std::string name;
  uint64_t num_objects = 0;
  uint64_t storage_bytes = 0;
  uint32_t num_shards = 1;

  // Paper cost metrics (cumulative_stats()): PA and compdists.
  uint64_t page_accesses = 0;
  uint64_t distance_computations = 0;

  // I/O counters (io_stats()). dead_bytes is state, not a measurement: it
  // survives ResetCounters and only a compaction zeroes it.
  uint64_t page_reads = 0;
  uint64_t page_writes = 0;
  uint64_t cache_hits = 0;
  uint64_t physical_reads = 0;
  uint64_t dead_bytes = 0;
  // Always 0: there is no readahead. Only bench/trajectory reads these two
  // names; they go when that benchmark moves onto CollectStats() (ROADMAP.md,
  // item 1). Not on the wire.
  static constexpr uint64_t prefetch_hits = 0;
  static constexpr uint64_t coalesced_pages = 0;

  // Write-ahead-log counters (zeros when the WAL is off). Sharded:
  // summed — meaningful as totals, not as one log's position.
  uint64_t wal_segment_bytes = 0;
  uint64_t wal_checkpoint_lsn = 0;
  uint64_t wal_next_lsn = 0;
  uint64_t wal_pending_records = 0;
  uint64_t wal_groups = 0;
  uint64_t wal_fsyncs = 0;
  uint64_t wal_replayed_records = 0;

  // Group-commit queue counters (zeros when group commit is off). Sharded:
  // summed, except wq_max_group which is the max.
  uint64_t wq_ops = 0;
  uint64_t wq_groups = 0;
  uint64_t wq_max_group = 0;

  // Learned-locator model + counters (zeros when the locator is off).
  // Sharded: counters summed; model_present holds iff it holds on every
  // shard; epoch is the max.
  bool locator_model_present = false;
  uint64_t locator_epoch = 0;
  uint64_t locator_leaves = 0;
  uint64_t locator_internal_nodes = 0;
  uint64_t locator_hits = 0;
  uint64_t locator_fallbacks = 0;
  uint64_t locator_stale = 0;
  uint64_t locator_rebuilds = 0;

  // Planner routing counters. Sharded: summed.
  uint64_t planner_planned_knn = 0;
  uint64_t planner_routed_greedy = 0;
  uint64_t planner_routed_incremental = 0;
  uint64_t planner_cutoff_disabled = 0;

  /// Per-shard drill-down (ShardedSpbTree only; one level deep — shard
  /// entries never have sub-shards).
  std::vector<StatsSnapshot> shards;

  /// Folds the striped I/O counters into the plain fields.
  void SetIoStats(const IoStats& io) {
    page_reads = io.page_reads.load(std::memory_order_relaxed);
    page_writes = io.page_writes.load(std::memory_order_relaxed);
    cache_hits = io.cache_hits.load(std::memory_order_relaxed);
    physical_reads = io.physical_reads.load(std::memory_order_relaxed);
    dead_bytes = io.dead_bytes.load(std::memory_order_relaxed);
  }
};

}  // namespace spb

#endif  // SPB_CORE_STATS_SNAPSHOT_H_
