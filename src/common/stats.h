#ifndef SPB_COMMON_STATS_H_
#define SPB_COMMON_STATS_H_

#include <atomic>
#include <cstdint>

#include "common/striped.h"

namespace spb {

/// Page-access accounting shared by every disk-resident structure (B+-tree,
/// RAF, R-tree, M-tree, M-Index). A "page access" (PA in the paper) is a
/// 4 KB page fetched from the page file that was not served by the buffer
/// pool, matching the paper's I/O cost metric.
///
/// Accounting convention (documented in docs/ARCHITECTURE.md §"Cost
/// accounting"): PA == page_reads + page_writes. `cache_hits` (reads absorbed
/// by the buffer pool, including reads served from the RAF's pinned tail
/// page) are counted but deliberately excluded from page_accesses().
///
/// The counters are striped per-thread slabs (StripedU64, PR 8): concurrent
/// readers sharing one structure keep the totals exact without bouncing one
/// cache line between every core on every page touch — writes land on the
/// caller's slab, reads fold the slabs. Like the atomics they replace, the
/// counters carry no synchronization: they are read for reporting only,
/// after the racing work has been joined.
struct IoStats {
  StripedU64 page_reads;
  StripedU64 page_writes;
  StripedU64 cache_hits;
  /// Page reads actually issued to the PageFile: one per buffer-pool miss
  /// whose request led the single-flight fetch. Concurrent misses of one
  /// page collapse to one physical read, so physical_reads <= page_reads
  /// always, with equality when no two requests miss one page at once (any
  /// serial run). Excluded from page_accesses(): the paper's PA metric is
  /// the logical count.
  StripedU64 physical_reads;
  /// Bytes of RAF records orphaned by Delete (or superseded by an in-place
  /// re-insert of an existing id). The lazy-deletion design never reclaims
  /// RAF space in place (records are unlinked from the B+-tree only), so
  /// this counter is the compaction debt that SpbTree::Compact() recovers.
  /// It is *state*, not a measurement: Reset() leaves it alone (only a
  /// compaction zeroes it, and Save/Open persist it), unlike every other
  /// counter here. Excluded from page_accesses(); surfaced per shard and in
  /// aggregate by ShardedSpbTree::io_stats() and `spb_cli stats`.
  StripedU64 dead_bytes;

  IoStats() = default;
  IoStats(const IoStats& other) { *this = other; }
  IoStats& operator=(const IoStats& other) {
    page_reads.store(other.page_reads.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    page_writes.store(other.page_writes.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    cache_hits.store(other.cache_hits.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    physical_reads.store(other.physical_reads.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    dead_bytes.store(other.dead_bytes.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    return *this;
  }

  uint64_t page_accesses() const {
    return page_reads.load(std::memory_order_relaxed) +
           page_writes.load(std::memory_order_relaxed);
  }

  void Reset() {
    page_reads.store(0, std::memory_order_relaxed);
    page_writes.store(0, std::memory_order_relaxed);
    cache_hits.store(0, std::memory_order_relaxed);
    physical_reads.store(0, std::memory_order_relaxed);
    // dead_bytes deliberately NOT reset: it is compaction debt, not a
    // per-measurement counter.
  }

  IoStats& operator+=(const IoStats& other) {
    page_reads.fetch_add(other.page_reads.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    page_writes.fetch_add(other.page_writes.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    cache_hits.fetch_add(other.cache_hits.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    physical_reads.fetch_add(
        other.physical_reads.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    dead_bytes.fetch_add(other.dead_bytes.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    return *this;
  }
};

/// Per-query (or per-operation) cost record in the paper's three metrics:
/// page accesses (PA), distance computations (compdists) and wall time.
/// Plain (non-atomic) snapshot values: a QueryStats is always owned by one
/// thread. Under concurrent execution, per-query PA deltas are not
/// attributable (the shared counters interleave); QueryExecutor reports the
/// exact aggregate instead (see src/exec/query_executor.h).
struct QueryStats {
  uint64_t page_accesses = 0;
  uint64_t distance_computations = 0;
  double elapsed_seconds = 0.0;

  void Reset() {
    page_accesses = 0;
    distance_computations = 0;
    elapsed_seconds = 0.0;
  }

  QueryStats& operator+=(const QueryStats& other) {
    page_accesses += other.page_accesses;
    distance_computations += other.distance_computations;
    elapsed_seconds += other.elapsed_seconds;
    return *this;
  }
};

}  // namespace spb

#endif  // SPB_COMMON_STATS_H_
