#ifndef SPB_EXEC_QUERY_EXECUTOR_H_
#define SPB_EXEC_QUERY_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "common/blob.h"
#include "common/contention.h"
#include "common/stats.h"
#include "common/status.h"
#include "core/metric_index.h"
#include "exec/request.h"
#include "exec/task_arena.h"

namespace spb {

/// Aggregate outcome of one batch run. Throughput and latency percentiles
/// come from per-query wall clocks measured inside the workers; PA and
/// compdists totals come from the index's cumulative counters (exact in
/// aggregate — per-query attribution is impossible once queries overlap,
/// see docs/ARCHITECTURE.md §"Cost accounting").
struct BatchStats {
  size_t num_queries = 0;
  size_t num_threads = 0;
  /// End-to-end wall time of the batch (submission to last completion).
  double wall_seconds = 0.0;
  /// num_queries / wall_seconds.
  double qps = 0.0;
  /// Per-query latency percentiles (seconds).
  double p50_seconds = 0.0;
  double p99_seconds = 0.0;
  /// Exact aggregate PA + compdists over the batch; elapsed_seconds is the
  /// sum of per-query latencies (i.e. total busy time across workers).
  QueryStats totals;
  /// Aggregate I/O counter delta over the batch (logical and physical
  /// reads) from MetricIndex::io_stats(). The logical/physical gap is what
  /// single-flight sharing across these concurrent queries saved.
  IoStats io_totals;
  /// Times a write op observed Status::Busy and was retried by the
  /// executor's backoff loop (multi-writer indexes only; 0 for read-only
  /// batches and for group-commit indexes, whose writers queue instead of
  /// colliding).
  uint64_t busy_retries = 0;
};

/// Everything one Submit() call produced: per-op outcomes in submission
/// order, the first per-op error (Status::OK() when every op succeeded —
/// the remaining ops still ran either way), and the batch-level aggregates.
struct BatchResult {
  std::vector<OpResult> results;
  Status first_error;
  BatchStats stats;
};

/// Fans batches of operations over one MetricIndex, driving every MAM
/// purely through the MetricIndex interface (no downcasts — baselines that
/// lack an operation report Status::Unimplemented per op). Read-only
/// batches rely on the concurrent-reader guarantees of
/// SpbTree/BPlusTree/Raf/BufferPool; mixed batches additionally rely on the
/// index's epoch-based snapshot protocol (docs/ARCHITECTURE.md
/// §"Epoch-based snapshots"): queries pin a snapshot and never block, while
/// the executor's own writer mutex admits writers one at a time so the
/// index's single-writer try-lock (Status::Busy) never trips from inside a
/// batch.
///
/// Scheduling is delegated to an owned TaskArena (PR 8): each batch is one
/// task group, each op one task, and the arena's lock-free ticket ring +
/// per-worker parking replace the old mutex/condvar hand-off. Because the
/// arena is shared, a query task may itself fan out — ShardedSpbTree
/// dispatches per-shard subqueries onto TaskArena::Current(), i.e. this
/// same pool, with help-first waiting so batch tasks and subqueries
/// interleave deadlock-free at any pool size.
///
/// Submit blocks the calling thread until the batch drains; the calling
/// thread does not execute tasks (num_threads() worker threads do the
/// work). Workers claim op indices from the group's atomic cursor, so skew
/// between query costs self-balances.
///
/// Each worker thread implicitly owns a per-thread query arena
/// (SpbTree::ThreadArena): all transient traversal state — FIFO/heap
/// buffers, decode scratch, the zero-copy BlobView — is reused across the
/// queries that worker runs, so a warm batch allocates nothing per query.
/// Arenas are thread-local, never shared, and a worker runs one query at a
/// time, which is exactly the contract the arena requires.
///
/// While a batch is in flight the executor assumes exclusive use of the
/// index's cumulative counters; interleaving other queries on the same
/// index from outside the executor corrupts the reported totals (not the
/// results).
class QueryExecutor {
 public:
  /// `index` must outlive the executor. `num_threads` is clamped to >= 1.
  QueryExecutor(MetricIndex* index, size_t num_threads);
  ~QueryExecutor() = default;

  QueryExecutor(const QueryExecutor&) = delete;
  QueryExecutor& operator=(const QueryExecutor&) = delete;

  /// The one submission entry point: runs any mix of read/write ops —
  /// the same tagged Request the wire protocol decodes — across the pool in
  /// an arbitrary interleaving, queries running concurrently against pinned
  /// snapshots. Writes adapt to index_->writer_concurrency(): against a
  /// single-writer index they serialize through the executor's writer
  /// mutex (so the index's try-lock never fails against a sibling op);
  /// against a multi-writer index (writer_concurrency() > 1, e.g. the
  /// sharded SPB-tree) they dispatch concurrently and retry on the
  /// transient per-shard Status::Busy, so writes to different shards
  /// overlap. The returned BatchResult holds one OpResult per request in
  /// submission order (per-op errors land in results[i].status as well as
  /// first_error). An op the index does not support fails with
  /// Status::Unimplemented; the rest of the batch still runs.
  /// Range results come back sorted ascending, so the output is
  /// deterministic regardless of thread interleaving; kNN neighbours by
  /// ascending distance. BatchResult::stats comes from the per-op latencies
  /// and the index's counter delta over the batch.
  BatchResult Submit(std::span<const Request> requests);

  size_t num_threads() const { return arena_.num_threads(); }
  MetricIndex* index() { return index_; }
  /// The executor's scheduling pool. Exposed for observability
  /// (queue_stats() in bench JSON) and for tests that drive nested fan-out
  /// directly.
  TaskArena* arena() { return &arena_; }

 private:
  /// One write op under the policy Submit documents: mutex when the index
  /// is single-writer; lock-free dispatch with BOUNDED retry-on-Busy
  /// (capped exponential backoff, kBusy surfaced if the budget drains) when
  /// it supports concurrent writers. Retries are added to `*busy_retries`,
  /// the calling batch's own counter, so overlapping Submit calls never
  /// mix their counts.
  Status ExecuteWrite(const std::function<Status()>& op,
                      std::atomic<uint64_t>* busy_retries);

  MetricIndex* index_;
  TaskArena arena_;

  /// Serializes write ops within mixed batches against single-writer
  /// indexes (writer_concurrency() == 1) so the index's try-lock never
  /// fails against a sibling op from the same batch. Unused for
  /// multi-writer indexes — see ExecuteWrite().
  InstrumentedMutex write_mu_{"exec.write_mu"};
};

}  // namespace spb

#endif  // SPB_EXEC_QUERY_EXECUTOR_H_
