#include "exec/query_executor.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace spb {

namespace {

double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t idx = static_cast<size_t>(p * double(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

IoStats IoDelta(const IoStats& after, const IoStats& before) {
  const auto delta = [](const StripedU64& a, const StripedU64& b) {
    return a.load(std::memory_order_relaxed) -
           b.load(std::memory_order_relaxed);
  };
  IoStats d;
  d.page_reads.store(delta(after.page_reads, before.page_reads));
  d.page_writes.store(delta(after.page_writes, before.page_writes));
  d.cache_hits.store(delta(after.cache_hits, before.cache_hits));
  d.physical_reads.store(delta(after.physical_reads, before.physical_reads));
  return d;
}

}  // namespace

QueryExecutor::QueryExecutor(MetricIndex* index, size_t num_threads)
    : index_(index), arena_(std::max<size_t>(1, num_threads)) {}

Status QueryExecutor::ExecuteWrite(const std::function<Status()>& op,
                                   std::atomic<uint64_t>* busy_retries) {
  if (index_->writer_concurrency() <= 1) {
    // Single-writer index: serialize batch siblings up front so its writer
    // try-lock never fails against one of our own ops.
    std::lock_guard<InstrumentedMutex> lock(write_mu_);
    return op();
  }
  // Multi-writer index (sharded): dispatch concurrently — writes to
  // different shards proceed in parallel — and absorb same-shard collisions
  // here. A Busy from inside a mixed batch is transient by construction
  // (the lock holder is a sibling op that will drain), so retry with capped
  // exponential backoff: a handful of free spins first (sibling ops are
  // usually microseconds), then sleeps doubling from 1us to a 1ms cap.
  // The retry budget is bounded — if the shard stays busy past the whole
  // schedule (~1s: an external writer or a manual Compact() is holding the
  // writer lock, which the batch contract forbids), kBusy is surfaced to
  // the caller instead of spinning forever.
  constexpr int kSpinRetries = 8;
  constexpr int kMaxRetries = 1024;
  constexpr auto kMaxSleep = std::chrono::microseconds(1000);
  std::chrono::microseconds sleep(1);
  Status s = op();
  for (int attempt = 0; s.code() == Status::Code::kBusy; ++attempt) {
    if (attempt >= kMaxRetries) return s;
    busy_retries->fetch_add(1, std::memory_order_relaxed);
    if (attempt < kSpinRetries) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(sleep);
      sleep = std::min(sleep * 2, kMaxSleep);
    }
    s = op();
  }
  return s;
}

BatchResult QueryExecutor::Submit(std::span<const Request> requests) {
  const size_t n = requests.size();
  BatchResult batch;
  batch.results.assign(n, OpResult{});
  BatchStats& stats = batch.stats;
  stats.num_queries = n;
  stats.num_threads = arena_.num_threads();
  if (n == 0) return batch;

  const QueryStats before = index_->cumulative_stats();
  const IoStats io_before = index_->io_stats();
  const auto start = std::chrono::steady_clock::now();

  std::vector<double> latencies(n, 0.0);
  std::atomic<uint64_t> busy_retries{0};
  std::mutex error_mu;
  const std::function<void(size_t)> task = [&](size_t i) {
    const auto t0 = std::chrono::steady_clock::now();
    const Request& op = requests[i];
    OpResult& out = batch.results[i];
    switch (op.kind) {
      case Request::Kind::kRange:
        out.status = index_->RangeQuery(op.obj, op.radius, &out.range_ids,
                                        nullptr);
        std::sort(out.range_ids.begin(), out.range_ids.end());
        break;
      case Request::Kind::kKnn:
        out.status = index_->KnnQuery(op.obj, op.k, &out.neighbors, nullptr);
        break;
      case Request::Kind::kInsert:
        out.status = ExecuteWrite(
            [&] { return index_->Insert(op.obj, op.id); }, &busy_retries);
        break;
      case Request::Kind::kDelete:
        out.status = ExecuteWrite(
            [&] { return index_->Delete(op.obj, op.id, &out.found); },
            &busy_retries);
        break;
      default:
        // A kind outside the enum can only come from a hand-built Request
        // (the wire decoder rejects unknown kinds before they get here).
        out.status = Status::InvalidArgument("Submit: unknown request kind");
        break;
    }
    latencies[i] =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (!out.status.ok()) {
      std::lock_guard<std::mutex> lock(error_mu);
      if (batch.first_error.ok()) batch.first_error = out.status;
    }
  };
  // help=false: the calling thread waits, so exactly num_threads() workers
  // run the ops, the contract the bench numbers are calibrated against.
  arena_.RunGroup(n, task, /*help=*/false);

  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  stats.qps = stats.wall_seconds > 0.0 ? double(n) / stats.wall_seconds : 0.0;
  const QueryStats after = index_->cumulative_stats();
  stats.totals.page_accesses = after.page_accesses - before.page_accesses;
  stats.totals.distance_computations =
      after.distance_computations - before.distance_computations;
  stats.io_totals = IoDelta(index_->io_stats(), io_before);
  for (double l : latencies) stats.totals.elapsed_seconds += l;
  std::sort(latencies.begin(), latencies.end());
  stats.p50_seconds = PercentileSorted(latencies, 0.50);
  stats.p99_seconds = PercentileSorted(latencies, 0.99);
  stats.busy_retries = busy_retries.load(std::memory_order_relaxed);
  return batch;
}

}  // namespace spb
