// Durable write-path engine sweep (BENCH_PR7.json).
//
// A disk-backed tree with WAL + group commit + one fsync per commit group
// runs 50/50 mixed batches (per 4-op block: 1 range, 1 kNN, 1 insert,
// 1 delete) through the QueryExecutor: a writer sweep (W in {1,2,4,8} at
// G=64) and a group-size sweep (G in {1,4,16,64} at W=4), then a churn +
// compaction experiment that compares cold range QPS before churn, after
// it and after Compact(). The bench aborts if the best durable write
// throughput misses 2x the BENCH_PR6 S=1 baseline, if a queued writer ever
// sees kBusy, if a delete misses its target or if an integrity check
// fails. Writes BENCH_PR7.json into the working directory (schema in
// docs/OPERATIONS.md). Its trees live in directories under the system temp
// directory, removed on return.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench/bench_common.h"
#include "exec/query_executor.h"

namespace spb {
namespace bench {
namespace {

// An index directory under the system temp directory, emptied on creation
// and removed when it goes out of scope: declare it before the tree that
// uses it, so the tree closes its files first.
class TempIndexDir {
 public:
  explicit TempIndexDir(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               (name + "_" + std::to_string(::getpid())))
                  .string()) {
    std::filesystem::remove_all(path_);
  }
  ~TempIndexDir() { std::filesystem::remove_all(path_); }
  TempIndexDir(const TempIndexDir&) = delete;
  TempIndexDir& operator=(const TempIndexDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

double Median3(double a, double b, double c) {
  double v[3] = {a, b, c};
  std::sort(v, v + 3);
  return v[1];
}

// One cell of the write-heavy sweep: a 50/50 mixed batch (per 4-op block:
// 1 range, 1 kNN, 1 insert, 1 delete) through the executor on a
// disk-backed tree with full durability on (WAL + group commit + one fsync
// per commit group).
struct WalCell {
  size_t threads = 0;
  size_t group_max = 0;
  double write_ops_s = 0.0;
  double mixed_qps = 0.0;
  double fsyncs_per_write = 0.0;  // the group-commit amortization
  double p50_ms = 0.0, p99_ms = 0.0;
  uint64_t busy_retries = 0;  // must be 0: queued writers never see kBusy
};

void PrintWalCell(const WalCell& c) {
  std::printf("W=%-3zu G=%-4zu | %9.1f | %9.1f | %8.3f | %9.3f %9.3f | %4llu\n",
              c.threads, c.group_max, c.write_ops_s, c.mixed_qps,
              c.fsyncs_per_write, c.p50_ms, c.p99_ms,
              (unsigned long long)c.busy_retries);
  std::printf(
      "JSON {\"bench\":\"write_engine\",\"threads\":%zu,\"group_max\":%zu,"
      "\"write_ops_s\":%.1f,\"mixed_qps\":%.1f,\"fsyncs_per_write\":%.3f,"
      "\"p50_ms\":%.3f,\"p99_ms\":%.3f,\"busy_retries\":%llu}\n",
      c.threads, c.group_max, c.write_ops_s, c.mixed_qps, c.fsyncs_per_write,
      c.p50_ms, c.p99_ms, (unsigned long long)c.busy_retries);
}

// Measures one (writers, group_max) cell. `prev_ids`/`next_id` thread the
// steady-cardinality chain across cells: each batch inserts fresh ids and
// deletes what the previous batch inserted (dataset ids on the first
// batch), so every delete provably finds its target and the tree's size is
// flat across the sweep.
WalCell MeasureWalCell(SpbTree* tree, const Dataset& ds,
                       const std::vector<Blob>& queries, double r, size_t k,
                       size_t threads, size_t group_max,
                       std::vector<ObjectId>* prev_ids, ObjectId* next_id) {
  TuningOptions tn = tree->tuning();
  tn.wal_group_max = group_max;
  if (!tree->ApplyTuning(tn).ok()) std::abort();
  // Checkpoint between cells so the WAL segment stays bounded and every
  // cell pays the same per-fsync cost.
  if (!tree->Save().ok()) std::abort();

  const size_t blocks = queries.size();
  std::vector<Request> ops;
  std::vector<ObjectId> new_ids;
  for (size_t b = 0; b < blocks; ++b) {
    Request rq;
    rq.kind = Request::Kind::kRange;
    rq.obj = queries[b % queries.size()];
    rq.radius = r;
    ops.push_back(std::move(rq));
    Request kq;
    kq.kind = Request::Kind::kKnn;
    kq.obj = queries[(b + 3) % queries.size()];
    kq.k = k;
    ops.push_back(std::move(kq));
    Request ins;
    ins.kind = Request::Kind::kInsert;
    ins.obj = ds.objects[b % ds.objects.size()];
    ins.id = (*next_id)++;
    new_ids.push_back(ins.id);
    ops.push_back(std::move(ins));
    Request del;
    del.kind = Request::Kind::kDelete;
    if (prev_ids->empty()) {
      del.obj = ds.objects[b];  // dataset ids: present on the fresh tree
      del.id = ObjectId(b);
    } else {
      del.obj = ds.objects[b % ds.objects.size()];
      del.id = (*prev_ids)[b % prev_ids->size()];
    }
    ops.push_back(std::move(del));
  }
  *prev_ids = std::move(new_ids);

  QueryExecutor exec(tree, threads);
  const uint64_t fsyncs_before = tree->CollectStats().wal_fsyncs;
  BatchResult batch = exec.Submit(ops);
  if (!batch.first_error.ok()) std::abort();
  const std::vector<OpResult>& results = batch.results;
  const BatchStats& stats = batch.stats;
  size_t writes = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!results[i].status.ok()) std::abort();
    if (ops[i].kind == Request::Kind::kDelete && !results[i].found) {
      std::printf("FAIL: delete missed its target at W=%zu G=%zu\n", threads,
                  group_max);
      std::abort();
    }
    if (ops[i].kind == Request::Kind::kInsert ||
        ops[i].kind == Request::Kind::kDelete) {
      ++writes;
    }
  }
  const uint64_t fsyncs = tree->CollectStats().wal_fsyncs - fsyncs_before;

  WalCell c;
  c.threads = threads;
  c.group_max = group_max;
  c.mixed_qps = stats.qps;
  c.write_ops_s = stats.qps * double(writes) / double(ops.size());
  c.fsyncs_per_write = writes > 0 ? double(fsyncs) / double(writes) : 0.0;
  c.p50_ms = stats.p50_seconds * 1e3;
  c.p99_ms = stats.p99_seconds * 1e3;
  c.busy_retries = stats.busy_retries;
  return c;
}

// One cold range pass under the paper's protocol; returns QPS.
double ColdRangeQps(SpbTree& tree, const std::vector<Blob>& queries,
                    double r) {
  std::vector<ObjectId> out;
  const auto start = std::chrono::steady_clock::now();
  for (const Blob& q : queries) {
    tree.FlushCaches();
    if (!tree.RangeQuery(q, r, &out, nullptr).ok()) std::abort();
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return wall > 0.0 ? double(queries.size()) / wall : 0.0;
}

// Churn + compaction: delete and re-insert >= 30% of the tree (so a third
// of the RAF is dead bytes and the survivors are interleaved with garbage),
// then Compact() — the same rewrite the background worker runs — and
// compare cold range QPS at each state against a freshly built twin.
struct ChurnResult {
  size_t churned = 0, total = 0;
  uint64_t dead_before = 0, dead_after = 0;
  double fresh_qps = 0.0, churned_qps = 0.0, compacted_qps = 0.0;
  double compacted_vs_fresh = 0.0;
};

ChurnResult RunChurnCompaction(const BenchConfig& config, const Dataset& ds,
                               const std::vector<Blob>& queries, double r) {
  const TempIndexDir dir("spb_bench_wal_churn");
  SpbTreeOptions opts;
  opts.seed = config.seed;
  opts.storage_dir = dir.path();
  std::unique_ptr<SpbTree> tree;
  if (!SpbTree::Build(ds.objects, ds.metric.get(), opts, &tree).ok()) {
    std::abort();
  }
  if (!tree->Save().ok()) std::abort();

  ChurnResult out;
  out.total = ds.objects.size();
  out.fresh_qps = Median3(ColdRangeQps(*tree, queries, r),
                          ColdRangeQps(*tree, queries, r),
                          ColdRangeQps(*tree, queries, r));

  // Churn every third object: delete, then re-insert the same payload
  // under a fresh id. Cardinality is unchanged; a third of the RAF records
  // are orphaned and the replacements land appended out of SFC order.
  std::vector<Blob> payloads;
  std::vector<ObjectId> fresh_ids;
  ObjectId next_id = ObjectId(ds.objects.size());
  for (size_t i = 0; i < ds.objects.size(); i += 3) {
    bool found = false;
    if (!tree->Delete(ds.objects[i], ObjectId(i), &found).ok() || !found) {
      std::abort();
    }
    payloads.push_back(ds.objects[i]);
    fresh_ids.push_back(next_id++);
  }
  if (!tree->BatchInsert(payloads, fresh_ids).ok()) std::abort();
  out.churned = payloads.size();
  out.dead_before = tree->io_stats().dead_bytes.load();
  out.churned_qps = Median3(ColdRangeQps(*tree, queries, r),
                            ColdRangeQps(*tree, queries, r),
                            ColdRangeQps(*tree, queries, r));

  if (!tree->Compact().ok()) std::abort();
  out.dead_after = tree->io_stats().dead_bytes.load();
  if (out.dead_after != 0) {
    std::printf("FAIL: compaction left %llu dead bytes\n",
                (unsigned long long)out.dead_after);
    std::abort();
  }
  if (!tree->CheckIntegrity().ok()) {
    std::printf("FAIL: integrity check after compaction\n");
    std::abort();
  }
  out.compacted_qps = Median3(ColdRangeQps(*tree, queries, r),
                              ColdRangeQps(*tree, queries, r),
                              ColdRangeQps(*tree, queries, r));
  out.compacted_vs_fresh =
      out.fresh_qps > 0.0 ? out.compacted_qps / out.fresh_qps : 0.0;
  return out;
}

// The write-path engine sweep (PR 7): disk-backed S=1 tree with WAL +
// group commit + fsync-per-group, a writer sweep (W in {1,2,4,8} at
// G=64) and a group-size sweep (G in {1,4,16,64} at W=4), then the churn +
// compaction experiment. Reports write ops/s, fsyncs/write, p50/p99 and
// busy_retries per cell and emits BENCH_PR7.json (schema in
// EXPERIMENTS.md). Acceptance gate: the best S=1 write ops/s must reach
// 2x the BENCH_PR6 S=1 mixed write baseline (244.9 ops/s, measured with
// no durability at all) — the bench aborts when missed.
void RunWriteEngine(const BenchConfig& config, const Dataset& ds,
                    const std::vector<Blob>& queries, double r, size_t k) {
  // BENCH_PR6.json, cells[shards=1].write_ops_s.
  constexpr double kPr6BaselineWriteOpsS = 244.9;

  const TempIndexDir dir("spb_bench_wal");
  SpbTreeOptions opts;
  opts.seed = config.seed;
  opts.storage_dir = dir.path();
  opts.enable_wal = true;
  opts.enable_group_commit = true;
  opts.wal_fsync = true;
  opts.wal_group_max = 64;
  std::unique_ptr<SpbTree> tree;
  if (!SpbTree::Build(ds.objects, ds.metric.get(), opts, &tree).ok()) {
    std::abort();
  }
  if (!tree->Save().ok()) std::abort();  // recovery base: checkpoint LSN 0

  std::printf("\n[write-path engine: disk-backed, WAL + group commit + "
              "fsync per group, 50/50 mix]\n");
  PrintRule(96);
  std::printf("%-11s | %9s | %9s | %8s | %9s %9s | %4s\n", "writersxgrp",
              "write/s", "mixed QPS", "fsync/wr", "p50(ms)", "p99(ms)",
              "busy");
  PrintRule(96);

  std::vector<ObjectId> prev_ids;
  ObjectId next_id = ObjectId(ds.objects.size());
  std::vector<WalCell> writer_cells, group_cells;
  for (size_t W : {size_t(1), size_t(2), size_t(4), size_t(8)}) {
    writer_cells.push_back(MeasureWalCell(tree.get(), ds, queries, r, k, W,
                                          64, &prev_ids, &next_id));
    PrintWalCell(writer_cells.back());
  }
  PrintRule(96);
  for (size_t G : {size_t(1), size_t(4), size_t(16), size_t(64)}) {
    group_cells.push_back(MeasureWalCell(tree.get(), ds, queries, r, k, 4, G,
                                         &prev_ids, &next_id));
    PrintWalCell(group_cells.back());
  }
  PrintRule(96);
  for (const WalCell& c : writer_cells) {
    if (c.busy_retries != 0) {
      std::printf("FAIL: group-commit writers saw kBusy (W=%zu)\n",
                  c.threads);
      std::abort();
    }
  }
  if (!tree->CheckIntegrity().ok()) {
    std::printf("FAIL: integrity check after write sweep\n");
    std::abort();
  }
  double best = 0.0;
  for (const WalCell& c : writer_cells) best = std::max(best, c.write_ops_s);
  for (const WalCell& c : group_cells) best = std::max(best, c.write_ops_s);
  const double speedup = best / kPr6BaselineWriteOpsS;
  std::printf("best durable write throughput: %.1f ops/s = %.2fx the "
              "BENCH_PR6 S=1 baseline (%.1f, no durability)\n",
              best, speedup, kPr6BaselineWriteOpsS);
  if (speedup < 2.0) {
    std::printf("FAIL: durable write throughput below the 2x acceptance "
                "gate\n");
    std::abort();
  }

  std::printf("\n[churn + compaction: delete/re-insert 1/3 of the tree, "
              "compact, cold range QPS]\n");
  const ChurnResult churn = RunChurnCompaction(config, ds, queries, r);
  std::printf("churned %zu/%zu objects; dead bytes %llu -> %llu; cold "
              "range QPS fresh %.1f / churned %.1f / compacted %.1f "
              "(%.2fx of fresh)\n",
              churn.churned, churn.total,
              (unsigned long long)churn.dead_before,
              (unsigned long long)churn.dead_after, churn.fresh_qps,
              churn.churned_qps, churn.compacted_qps,
              churn.compacted_vs_fresh);
  if (churn.compacted_vs_fresh < 0.9) {
    std::printf("WARN: compacted cold QPS below 90%% of the fresh tree\n");
  }

  FILE* json = std::fopen("BENCH_PR7.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n");
    WriteHostJson(json);
    std::fprintf(json, ",\n");
    std::fprintf(
        json,
        "  \"bench\": \"write_path_engine\",\n"
        "  \"dataset\": \"synthetic\",\n  \"scale\": %zu,\n"
        "  \"queries\": %zu,\n  \"shards\": 1,\n"
        "  \"durability\": \"wal + group commit + one fsync per group\",\n"
        "  \"mix\": \"per 4 ops: 1 range, 1 knn, 1 insert, 1 delete\",\n"
        "  \"baseline_pr6_s1_write_ops_s\": %.1f,\n"
        "  \"best_write_ops_s\": %.1f,\n"
        "  \"speedup_vs_pr6_baseline\": %.2f,\n"
        "  \"acceptance\": \"best durable write_ops_s >= 2x the PR6 "
        "baseline; busy_retries == 0 in every cell (asserted)\",\n"
        "  \"writer_sweep\": [\n",
        config.scale, queries.size(), kPr6BaselineWriteOpsS, best, speedup);
    auto emit = [&](const std::vector<WalCell>& cells) {
      for (size_t i = 0; i < cells.size(); ++i) {
        const WalCell& c = cells[i];
        std::fprintf(json,
                     "    {\"threads\": %zu, \"group_max\": %zu, "
                     "\"write_ops_s\": %.1f, \"mixed_qps\": %.1f, "
                     "\"fsyncs_per_write\": %.3f, \"p50_ms\": %.3f, "
                     "\"p99_ms\": %.3f, \"busy_retries\": %llu}%s\n",
                     c.threads, c.group_max, c.write_ops_s, c.mixed_qps,
                     c.fsyncs_per_write, c.p50_ms, c.p99_ms,
                     (unsigned long long)c.busy_retries,
                     i + 1 < cells.size() ? "," : "");
      }
    };
    emit(writer_cells);
    std::fprintf(json, "  ],\n  \"group_sweep\": [\n");
    emit(group_cells);
    std::fprintf(
        json,
        "  ],\n  \"churn_compaction\": {\n"
        "    \"churned\": %zu, \"total\": %zu,\n"
        "    \"dead_bytes_before\": %llu, \"dead_bytes_after\": %llu,\n"
        "    \"cold_range_qps_fresh\": %.1f,\n"
        "    \"cold_range_qps_churned\": %.1f,\n"
        "    \"cold_range_qps_compacted\": %.1f,\n"
        "    \"compacted_vs_fresh\": %.3f\n  }\n}\n",
        churn.churned, churn.total, (unsigned long long)churn.dead_before,
        (unsigned long long)churn.dead_after, churn.fresh_qps,
        churn.churned_qps, churn.compacted_qps, churn.compacted_vs_fresh);
    std::fclose(json);
    std::printf("wrote BENCH_PR7.json\n");
  }
  PrintRule(96);
}

void Run(const BenchConfig& config) {
  std::printf("Write-path engine sweep\n");
  std::printf("scale=%zu queries=%zu\n", config.scale, config.queries);
  Dataset ds = MakeDatasetByName("synthetic", config.scale, config.seed);
  const auto queries = QueryWorkload(ds, config.queries);
  const double r = 0.08 * ds.metric->max_distance();
  RunWriteEngine(config, ds, queries, r, /*k=*/8);
}

}  // namespace
}  // namespace bench
}  // namespace spb

int main(int argc, char** argv) {
  spb::bench::Run(spb::bench::ParseArgs(argc, argv, /*default_scale=*/20000,
                                        /*default_queries=*/256));
  return 0;
}
