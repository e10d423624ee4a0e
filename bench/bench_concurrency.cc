// Concurrent batch-query throughput plus cold-path I/O engine sweeps.
//
// Two regimes per buffer-pool capacity (server-sized 256 pages and a
// capacity-constrained 64 pages):
//
//   cold  — the paper's protocol (flush caches before every query), run at
//           T=1 because FlushCaches() is a single-writer operation, on a
//           disk-backed tree (only a tree with files does readahead). Each
//           workload runs twice, prefetch off then on; the off run is the
//           demand-path baseline, the on run must produce byte-identical
//           results and identical logical PA (the I/O engine's
//           claim-on-touch contract), and the reported speedup is the
//           engine's cold-path win.
//   warm  — sweeps the QueryExecutor's thread count T over {1, 2, 4, 8}
//           with a shared warm pool on an in-memory tree, the production
//           regime the ROADMAP targets. Result sets are checked to be
//           identical across all T.
//
// Later sections ride along: the warm-path decode engine A/B
// (BENCH_PR4.json; with the cold rows also standalone via --warmab-only),
// the mixed 90/10 read/write sweep (BENCH_PR5.json), the sharded
// scatter-gather sweep (BENCH_PR6.json, also standalone via
// --shards-only), the durable write-path engine sweep (BENCH_PR7.json,
// standalone via --wal-only) and the parallel fan-out sweep
// (BENCH_PR8.json, standalone via --fanout-only). Disk-backed trees live
// in directories under the system temp directory, removed on return.
//
// Every row reports logical PA (the paper's reproduction metric, invariant
// under prefetch) alongside the engine's physical counters: physical_reads
// (actual PageFile read calls), prefetch_issued/prefetch_hits (pages staged
// / staged pages actually claimed) and coalesced_pages (pages that rode a
// multi-page span read). Emits one JSON line per configuration alongside
// the table so results can be scraped like the other bench targets'
// outputs.
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>

#include "bench/bench_common.h"
#include "core/sharded_spb_tree.h"
#include "exec/query_executor.h"

namespace spb {
namespace bench {
namespace {

// One measured configuration, shared by the cold (hand-rolled loop) and
// warm (QueryExecutor) paths.
struct RunResult {
  size_t queries = 0;
  double qps = 0.0;
  double p50_ms = 0.0;  // warm only (cold rows report 0)
  double p99_ms = 0.0;
  QueryStats totals;
  IoStats io;
};

void PrintJson(const char* mode, const char* workload, size_t cache_pages,
               bool prefetch, size_t threads, const RunResult& s,
               double speedup) {
  std::printf(
      "JSON {\"bench\":\"concurrency\",\"mode\":\"%s\",\"workload\":\"%s\","
      "\"cache_pages\":%zu,\"prefetch\":%d,\"threads\":%zu,\"queries\":%zu,"
      "\"qps\":%.1f,\"p50_ms\":%.3f,\"p99_ms\":%.3f,\"pa\":%llu,"
      "\"compdists\":%llu,\"physical_reads\":%llu,\"prefetch_issued\":%llu,"
      "\"prefetch_hits\":%llu,\"coalesced_pages\":%llu,\"speedup\":%.2f}\n",
      mode, workload, cache_pages, prefetch ? 1 : 0, threads, s.queries,
      s.qps, s.p50_ms, s.p99_ms, (unsigned long long)s.totals.page_accesses,
      (unsigned long long)s.totals.distance_computations,
      (unsigned long long)s.io.physical_reads.load(),
      (unsigned long long)s.io.prefetch_issued.load(),
      (unsigned long long)s.io.prefetch_hits.load(),
      (unsigned long long)s.io.coalesced_pages.load(), speedup);
}

void PrintRow(const char* mode, const char* workload, const char* variant,
              const RunResult& s, double speedup) {
  std::printf(
      "%-5s %-6s %-9s | %8.1f | %9.1f %9.1f | %9llu %9llu %9llu | %6.2fx\n",
      mode, workload, variant, s.qps,
      double(s.totals.page_accesses) / double(s.queries),
      double(s.io.physical_reads.load()) / double(s.queries),
      (unsigned long long)s.io.prefetch_issued.load(),
      (unsigned long long)s.io.prefetch_hits.load(),
      (unsigned long long)s.io.coalesced_pages.load(), speedup);
}

IoStats IoDelta(const IoStats& after, const IoStats& before) {
  IoStats d;
  d.page_reads = after.page_reads.load() - before.page_reads.load();
  d.page_writes = after.page_writes.load() - before.page_writes.load();
  d.cache_hits = after.cache_hits.load() - before.cache_hits.load();
  d.physical_reads =
      after.physical_reads.load() - before.physical_reads.load();
  d.prefetch_issued =
      after.prefetch_issued.load() - before.prefetch_issued.load();
  d.prefetch_hits = after.prefetch_hits.load() - before.prefetch_hits.load();
  d.coalesced_pages =
      after.coalesced_pages.load() - before.coalesced_pages.load();
  return d;
}

// Runs one cold (flush-per-query) pass at T=1 and fills a RunResult from
// the cumulative-counter deltas.
template <typename QueryFn>
RunResult RunCold(SpbTree& tree, size_t n, const QueryFn& one_query) {
  RunResult out;
  out.queries = n;
  const QueryStats before = tree.cumulative_stats();
  const IoStats io_before = tree.io_stats();
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < n; ++i) {
    tree.FlushCaches();
    one_query(i);
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const QueryStats after = tree.cumulative_stats();
  out.qps = wall > 0.0 ? double(n) / wall : 0.0;
  out.totals.page_accesses = after.page_accesses - before.page_accesses;
  out.totals.distance_computations =
      after.distance_computations - before.distance_computations;
  out.io = IoDelta(tree.io_stats(), io_before);
  return out;
}

RunResult FromBatchStats(const BatchStats& s) {
  RunResult out;
  out.queries = s.num_queries;
  out.qps = s.qps;
  out.p50_ms = s.p50_seconds * 1e3;
  out.p99_ms = s.p99_seconds * 1e3;
  out.totals = s.totals;
  out.io = s.io_totals;
  return out;
}

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

void PrintCapacityHeader(const char* regime, size_t cache_pages, size_t k) {
  std::printf("\n[%s, cache=%zu pages, range r=8%% of d+, kNN k=%zu]\n",
              regime, cache_pages, k);
  PrintRule(96);
  std::printf("%-5s %-6s %-9s | %8s | %9s %9s | %9s %9s %9s | %7s\n", "mode",
              "work", "variant", "QPS", "pa/q", "phys/q", "issued", "hits",
              "coalesced", "speedup");
  PrintRule(96);
}

// Cold regime: flush-per-query at T=1 (FlushCaches is single-writer),
// prefetch off (demand baseline) then on. The on run must match the off
// run's results and logical PA exactly. Disk-backed: only a tree with files
// has a readahead fetcher.
void RunColdPrefetchAb(const BenchConfig& config, const Dataset& ds,
                       const std::vector<Blob>& queries, double r, size_t k,
                       size_t cache_pages) {
  const TempIndexDir dir("spb_bench_cold");
  SpbTreeOptions opts;
  opts.seed = config.seed;
  opts.btree_cache_pages = cache_pages;
  opts.raf_cache_pages = cache_pages;
  opts.storage_dir = dir.path();
  std::unique_ptr<SpbTree> tree;
  if (!SpbTree::Build(ds.objects, ds.metric.get(), opts, &tree).ok()) {
    std::abort();
  }
  PrintCapacityHeader("cold, disk-backed", cache_pages, k);

  std::vector<std::vector<ObjectId>> cold_range(queries.size());
  std::vector<std::vector<Neighbor>> cold_knn(queries.size());
  std::vector<std::vector<ObjectId>> base_range;
  std::vector<std::vector<Neighbor>> base_knn;
  RunResult base_cr, base_ck;
  for (const bool prefetch : {false, true}) {
    TuningOptions tn = tree->tuning();
    tn.enable_prefetch = prefetch;
    if (!tree->ApplyTuning(tn).ok()) std::abort();
    const RunResult cr = RunCold(*tree, queries.size(), [&](size_t i) {
      if (!tree->RangeQuery(queries[i], r, &cold_range[i], nullptr).ok()) {
        std::abort();
      }
      std::sort(cold_range[i].begin(), cold_range[i].end());
    });
    const RunResult ck = RunCold(*tree, queries.size(), [&](size_t i) {
      if (!tree->KnnQuery(queries[i], k, &cold_knn[i], nullptr).ok()) {
        std::abort();
      }
    });
    if (!prefetch) {
      base_range = cold_range;
      base_knn = cold_knn;
      base_cr = cr;
      base_ck = ck;
      PrintRow("cold", "range", "demand", cr, 1.0);
      PrintJson("cold", "range", cache_pages, false, 1, cr, 1.0);
      PrintRow("cold", "knn", "demand", ck, 1.0);
      PrintJson("cold", "knn", cache_pages, false, 1, ck, 1.0);
      continue;
    }
    if (cold_range != base_range || cold_knn != base_knn) {
      std::printf("FAIL: prefetch changed result sets (cache=%zu)\n",
                  cache_pages);
      std::abort();
    }
    if (cr.totals.page_accesses != base_cr.totals.page_accesses ||
        ck.totals.page_accesses != base_ck.totals.page_accesses) {
      std::printf("FAIL: prefetch changed logical PA (cache=%zu)\n",
                  cache_pages);
      std::abort();
    }
    const double r_speed = base_cr.qps > 0 ? cr.qps / base_cr.qps : 0.0;
    const double k_speed = base_ck.qps > 0 ? ck.qps / base_ck.qps : 0.0;
    PrintRow("cold", "range", "prefetch", cr, r_speed);
    PrintJson("cold", "range", cache_pages, true, 1, cr, r_speed);
    PrintRow("cold", "knn", "prefetch", ck, k_speed);
    PrintJson("cold", "knn", cache_pages, true, 1, ck, k_speed);
  }
  PrintRule(96);
  std::printf("cold: prefetch results and logical PA identical to demand "
              "path\n");
}

// Warm regime: executor thread sweep on an in-memory tree. Result sets must
// be identical across all T.
void RunWarmThreadSweep(const BenchConfig& config, const Dataset& ds,
                        const std::vector<Blob>& queries, double r, size_t k,
                        size_t cache_pages) {
  SpbTreeOptions opts;
  opts.seed = config.seed;
  opts.btree_cache_pages = cache_pages;
  opts.raf_cache_pages = cache_pages;
  std::unique_ptr<SpbTree> tree;
  if (!SpbTree::Build(ds.objects, ds.metric.get(), opts, &tree).ok()) {
    std::abort();
  }
  PrintCapacityHeader("warm, in-memory", cache_pages, k);

  const size_t thread_counts[] = {1, 2, 4, 8};
  std::vector<std::vector<ObjectId>> range_baseline;
  std::vector<std::vector<Neighbor>> knn_baseline;
  double range_qps_t1 = 0.0, knn_qps_t1 = 0.0;
  for (size_t threads : thread_counts) {
    QueryExecutor exec(tree.get(), threads);

    std::vector<std::vector<ObjectId>> range_results;
    BatchStats rs;
    // Warm-up pass so every T sees the same warm cache, then the measured
    // pass.
    if (!exec.RunRangeBatch(queries, r, &range_results, nullptr).ok() ||
        !exec.RunRangeBatch(queries, r, &range_results, &rs).ok()) {
      std::abort();
    }
    if (threads == 1) {
      range_baseline = range_results;
      range_qps_t1 = rs.qps;
    } else if (range_results != range_baseline) {
      std::printf("FAIL: range results differ at T=%zu\n", threads);
      std::abort();
    }
    const double rspeed = range_qps_t1 > 0 ? rs.qps / range_qps_t1 : 0.0;
    char variant[16];
    std::snprintf(variant, sizeof(variant), "T=%zu", threads);
    PrintRow("warm", "range", variant, FromBatchStats(rs), rspeed);
    PrintJson("warm", "range", cache_pages, true, threads,
              FromBatchStats(rs), rspeed);

    std::vector<std::vector<Neighbor>> knn_results;
    BatchStats ks;
    if (!exec.RunKnnBatch(queries, k, &knn_results, nullptr).ok() ||
        !exec.RunKnnBatch(queries, k, &knn_results, &ks).ok()) {
      std::abort();
    }
    if (threads == 1) {
      knn_baseline = knn_results;
      knn_qps_t1 = ks.qps;
    } else if (knn_results != knn_baseline) {
      std::printf("FAIL: kNN results differ at T=%zu\n", threads);
      std::abort();
    }
    const double kspeed = knn_qps_t1 > 0 ? ks.qps / knn_qps_t1 : 0.0;
    PrintRow("warm", "knn", variant, FromBatchStats(ks), kspeed);
    PrintJson("warm", "knn", cache_pages, true, threads, FromBatchStats(ks),
              kspeed);
  }
  PrintRule(96);
}

// ---------------------------------------------- warm-path decode engine A/B

// One measured pass of the decode-engine A/B: every query once, T=1. For
// the warm regime an unmeasured sweep first brings the buffer pool (and,
// when enabled, the node cache) to steady state; for the cold regime every
// query is preceded by FlushCaches(), the paper's protocol.
struct AbPass {
  double qps = 0.0;
  uint64_t pa = 0;    // logical page accesses
  uint64_t hits = 0;  // buffer-pool cache hits
  uint64_t cd = 0;    // distance computations
};

template <typename QueryFn>
AbPass MeasureAbPass(SpbTree& tree, size_t n, bool cold,
                     const QueryFn& one_query) {
  if (!cold) {
    for (size_t i = 0; i < n; ++i) one_query(i);  // warm-up sweep
  }
  const QueryStats before = tree.cumulative_stats();
  const IoStats io_before = tree.io_stats();
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < n; ++i) {
    if (cold) tree.FlushCaches();
    one_query(i);
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const QueryStats after = tree.cumulative_stats();
  AbPass p;
  p.qps = wall > 0.0 ? double(n) / wall : 0.0;
  p.pa = after.page_accesses - before.page_accesses;
  p.cd = after.distance_computations - before.distance_computations;
  p.hits = tree.io_stats().cache_hits.load() - io_before.cache_hits.load();
  return p;
}

double Median3(double a, double b, double c) {
  double v[3] = {a, b, c};
  std::sort(v, v + 3);
  return v[1];
}

// Aggregated A/B medians for one (regime, workload) cell.
struct AbCell {
  double qps_on = 0.0, qps_off = 0.0;
  AbPass sample_on, sample_off;  // counters (identical across trials/configs)
  double speedup() const {
    return qps_off > 0.0 ? qps_on / qps_off : 0.0;
  }
};

void PrintAbCell(FILE* json, const char* regime, const char* workload,
                 size_t queries, const AbCell& c, bool last) {
  std::printf("%-5s %-6s | on %8.1f QPS | off %8.1f QPS | %6.2fx | "
              "pa/q %.1f cd/q %.1f\n",
              regime, workload, c.qps_on, c.qps_off, c.speedup(),
              double(c.sample_on.pa) / double(queries),
              double(c.sample_on.cd) / double(queries));
  std::printf("JSON {\"bench\":\"warm_engine_ab\",\"regime\":\"%s\","
              "\"workload\":\"%s\",\"qps_on\":%.1f,\"qps_off\":%.1f,"
              "\"speedup\":%.2f,\"pa\":%llu,\"cache_hits\":%llu,"
              "\"compdists\":%llu}\n",
              regime, workload, c.qps_on, c.qps_off, c.speedup(),
              (unsigned long long)c.sample_on.pa,
              (unsigned long long)c.sample_on.hits,
              (unsigned long long)c.sample_on.cd);
  if (json != nullptr) {
    std::fprintf(json,
                 "    {\"regime\": \"%s\", \"workload\": \"%s\", "
                 "\"qps_on_median\": %.1f, \"qps_off_median\": %.1f, "
                 "\"speedup\": %.3f, \"pa\": %llu, \"cache_hits\": %llu, "
                 "\"compdists\": %llu}%s\n",
                 regime, workload, c.qps_on, c.qps_off, c.speedup(),
                 (unsigned long long)c.sample_on.pa,
                 (unsigned long long)c.sample_on.hits,
                 (unsigned long long)c.sample_on.cd, last ? "" : ",");
  }
}

// Interleaved A/B of the warm-path decode engine (decoded-node cache +
// zero-copy reads) vs both toggles off, T=1, medians of 3 trials. Each
// trial runs the on pass and the off pass back to back so environmental
// drift lands on both configs equally. The off pass must reproduce the on
// pass byte-for-byte — result sets, logical PA, buffer-pool cache hits and
// compdists — or the bench aborts (the accounting-parity rule). Writes
// BENCH_PR4.json into the working directory (schema: EXPERIMENTS.md).
void RunEngineAb(const BenchConfig& config, const Dataset& ds,
                 const std::vector<Blob>& queries, double r, size_t k) {
  SpbTreeOptions opts;
  opts.seed = config.seed;
  std::unique_ptr<SpbTree> tree;
  if (!SpbTree::Build(ds.objects, ds.metric.get(), opts, &tree).ok()) {
    std::abort();
  }
  const size_t n = queries.size();
  std::printf("\n[warm-path decode engine A/B: node cache + zero-copy vs "
              "off, T=1, median of 3]\n");
  PrintRule(96);

  auto set_engine = [&](bool on) {
    TuningOptions tn = tree->tuning();
    tn.node_cache_entries = on ? opts.node_cache_entries : 0;
    tn.enable_zero_copy = on;
    if (!tree->ApplyTuning(tn).ok()) std::abort();
  };

  std::vector<std::vector<ObjectId>> range_on(n), range_off(n);
  std::vector<std::vector<Neighbor>> knn_on(n), knn_off(n);
  auto run_range = [&](std::vector<std::vector<ObjectId>>* out, bool cold,
                       AbPass* p) {
    *p = MeasureAbPass(*tree, n, cold, [&](size_t i) {
      if (!tree->RangeQuery(queries[i], r, &(*out)[i], nullptr).ok()) {
        std::abort();
      }
    });
  };
  auto run_knn = [&](std::vector<std::vector<Neighbor>>* out, bool cold,
                     AbPass* p) {
    *p = MeasureAbPass(*tree, n, cold, [&](size_t i) {
      if (!tree->KnnQuery(queries[i], k, &(*out)[i], nullptr).ok()) {
        std::abort();
      }
    });
  };
  auto check_identical = [&](const AbPass& on, const AbPass& off,
                             bool results_equal, const char* what) {
    if (!results_equal) {
      std::printf("FAIL: decode engine changed %s result sets\n", what);
      std::abort();
    }
    if (on.pa != off.pa || on.hits != off.hits || on.cd != off.cd) {
      std::printf("FAIL: decode engine changed %s counters "
                  "(pa %llu/%llu hits %llu/%llu cd %llu/%llu)\n",
                  what, (unsigned long long)on.pa, (unsigned long long)off.pa,
                  (unsigned long long)on.hits, (unsigned long long)off.hits,
                  (unsigned long long)on.cd, (unsigned long long)off.cd);
      std::abort();
    }
  };

  AbCell cells[2][2];  // [regime: 0=warm,1=cold][workload: 0=range,1=knn]
  for (int regime = 0; regime < 2; ++regime) {
    const bool cold = regime == 1;
    double rq_on[3], rq_off[3], kq_on[3], kq_off[3];
    AbPass rp_on, rp_off, kp_on, kp_off;
    for (int trial = 0; trial < 3; ++trial) {
      set_engine(true);
      run_range(&range_on, cold, &rp_on);
      run_knn(&knn_on, cold, &kp_on);
      set_engine(false);
      run_range(&range_off, cold, &rp_off);
      run_knn(&knn_off, cold, &kp_off);
      check_identical(rp_on, rp_off, range_on == range_off, "range");
      check_identical(kp_on, kp_off, knn_on == knn_off, "knn");
      rq_on[trial] = rp_on.qps;
      rq_off[trial] = rp_off.qps;
      kq_on[trial] = kp_on.qps;
      kq_off[trial] = kp_off.qps;
    }
    AbCell& rc = cells[regime][0];
    rc.qps_on = Median3(rq_on[0], rq_on[1], rq_on[2]);
    rc.qps_off = Median3(rq_off[0], rq_off[1], rq_off[2]);
    rc.sample_on = rp_on;
    rc.sample_off = rp_off;
    AbCell& kc = cells[regime][1];
    kc.qps_on = Median3(kq_on[0], kq_on[1], kq_on[2]);
    kc.qps_off = Median3(kq_off[0], kq_off[1], kq_off[2]);
    kc.sample_on = kp_on;
    kc.sample_off = kp_off;
  }

  FILE* json = std::fopen("BENCH_PR4.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n");
    WriteHostJson(json);
    std::fprintf(json, ",\n");
    std::fprintf(json,
                 "  \"bench\": \"warm_path_decode_engine\",\n"
                 "  \"dataset\": \"synthetic\",\n  \"scale\": %zu,\n"
                 "  \"queries\": %zu,\n  \"threads\": 1,\n"
                 "  \"trials\": 3,\n  \"node_cache_entries\": %zu,\n"
                 "  \"identity\": \"results, logical PA, cache_hits and "
                 "compdists byte-identical engine on vs off (asserted)\",\n"
                 "  \"cells\": [\n",
                 config.scale, n, opts.node_cache_entries);
  }
  PrintAbCell(json, "warm", "range", n, cells[0][0], false);
  PrintAbCell(json, "warm", "knn", n, cells[0][1], false);
  PrintAbCell(json, "cold", "range", n, cells[1][0], false);
  PrintAbCell(json, "cold", "knn", n, cells[1][1], true);
  if (json != nullptr) {
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("wrote BENCH_PR4.json\n");
  }
  PrintRule(96);
  std::printf("warm A/B: results and counters identical engine on vs off\n");
}

// ------------------------------------------- mixed read/write sweep (PR 5)

// The update engine's throughput claim: a 90/10 read/write mix (sized in
// blocks of 20 ops: 9 range + 9 kNN + 1 insert + 1 delete) runs through
// Submit at the same thread counts as the read-only warm sweep, on a
// warm tree, with writers serialized by the executor and queries pinning
// snapshots. Each batch inserts fresh ids and deletes the ids the previous
// batch inserted, so the tree's cardinality is steady across the sweep and
// every delete provably finds its target. Emits BENCH_PR5.json (schema in
// EXPERIMENTS.md).
void RunMixedSweep(const BenchConfig& config, const Dataset& ds,
                   const std::vector<Blob>& queries, double r, size_t k) {
  SpbTreeOptions opts;
  opts.seed = config.seed;
  std::unique_ptr<SpbTree> tree;
  if (!SpbTree::Build(ds.objects, ds.metric.get(), opts, &tree).ok()) {
    std::abort();
  }
  const size_t blocks = queries.size();  // 20 ops per block
  const size_t n_ops = blocks * 20;

  std::printf("\n[mixed 90/10 read/write sweep: %zu ops/batch "
              "(18 queries : 1 insert : 1 delete per block)]\n",
              n_ops);
  PrintRule(96);
  std::printf("%-7s | %10s | %12s | %7s | %9s %9s\n", "threads", "mixed QPS",
              "read-only QPS", "ratio", "p50(ms)", "p99(ms)");
  PrintRule(96);

  // Ids inserted by the previous batch; the next batch deletes them.
  std::vector<ObjectId> prev_ids;
  ObjectId next_id = ObjectId(ds.objects.size());
  auto make_batch = [&](std::vector<Request>* ops) {
    ops->clear();
    std::vector<ObjectId> new_ids;
    for (size_t b = 0; b < blocks; ++b) {
      for (size_t j = 0; j < 9; ++j) {
        Request op;
        op.kind = Request::Kind::kRange;
        op.obj = queries[(b + j) % queries.size()];
        op.radius = r;
        ops->push_back(std::move(op));
      }
      for (size_t j = 0; j < 9; ++j) {
        Request op;
        op.kind = Request::Kind::kKnn;
        op.obj = queries[(b + j + 3) % queries.size()];
        op.k = k;
        ops->push_back(std::move(op));
      }
      Request ins;
      ins.kind = Request::Kind::kInsert;
      ins.obj = ds.objects[b % ds.objects.size()];
      ins.id = next_id++;
      new_ids.push_back(ins.id);
      ops->push_back(std::move(ins));
      Request del;
      del.kind = Request::Kind::kDelete;
      if (prev_ids.empty()) {
        // First batch: nothing to delete yet; delete the id this batch
        // inserts (the executor's write serialization publishes the insert
        // before the delete can run only by luck, so target a dataset
        // object instead — always present).
        del.obj = ds.objects[b];
        del.id = ObjectId(b);
      } else {
        // prev_ids[b] was inserted by block b of the previous batch, whose
        // payload was ds.objects[b % size] — the same payload this block
        // inserts under a fresh id.
        del.obj = ds.objects[b % ds.objects.size()];
        del.id = prev_ids[b % prev_ids.size()];
      }
      ops->push_back(std::move(del));
    }
    prev_ids = std::move(new_ids);
  };

  // Seed pass (also warms the caches): restores cardinality by re-inserting
  // what the first batch's deletes removed is unnecessary — deleted dataset
  // ids stay deleted for the whole sweep, the same workload for every T.
  struct Cell {
    size_t threads;
    double mixed_qps, read_qps, p50_ms, p99_ms;
  };
  std::vector<Cell> cells;
  for (size_t threads : {size_t(1), size_t(2), size_t(4), size_t(8)}) {
    QueryExecutor exec(tree.get(), threads);

    std::vector<Blob> read_queries = queries;
    std::vector<std::vector<ObjectId>> read_results;
    BatchStats read_stats;
    if (!exec.RunRangeBatch(read_queries, r, &read_results, nullptr).ok() ||
        !exec.RunRangeBatch(read_queries, r, &read_results, &read_stats)
             .ok()) {
      std::abort();
    }

    std::vector<Request> ops;
    make_batch(&ops);
    BatchResult batch = exec.Submit(ops);
    if (!batch.first_error.ok()) {
      std::printf("FAIL: mixed batch reported an error at T=%zu\n", threads);
      std::abort();
    }
    const std::vector<OpResult>& results = batch.results;
    const BatchStats& stats = batch.stats;
    size_t deletes_found = 0, deletes = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
      if (!results[i].status.ok()) std::abort();
      if (ops[i].kind == Request::Kind::kDelete) {
        ++deletes;
        deletes_found += results[i].found ? 1 : 0;
      }
    }
    if (deletes_found != deletes) {
      std::printf("FAIL: %zu/%zu deletes missed their target at T=%zu\n",
                  deletes - deletes_found, deletes, threads);
      std::abort();
    }

    const double ratio =
        read_stats.qps > 0 ? stats.qps / read_stats.qps : 0.0;
    std::printf("T=%-5zu | %10.1f | %12.1f | %6.2fx | %9.3f %9.3f\n",
                threads, stats.qps, read_stats.qps, ratio,
                stats.p50_seconds * 1e3, stats.p99_seconds * 1e3);
    std::printf(
        "JSON {\"bench\":\"mixed\",\"threads\":%zu,\"ops\":%zu,"
        "\"mixed_qps\":%.1f,\"read_only_qps\":%.1f,\"ratio\":%.3f,"
        "\"p50_ms\":%.3f,\"p99_ms\":%.3f}\n",
        threads, n_ops, stats.qps, read_stats.qps, ratio,
        stats.p50_seconds * 1e3, stats.p99_seconds * 1e3);
    cells.push_back(Cell{threads, stats.qps, read_stats.qps,
                         stats.p50_seconds * 1e3, stats.p99_seconds * 1e3});
  }
  PrintRule(96);
  if (!tree->CheckIntegrity().ok()) {
    std::printf("FAIL: integrity check after mixed sweep\n");
    std::abort();
  }
  std::printf("mixed sweep: all ops OK, every delete found its target, "
              "integrity intact\n");

  FILE* json = std::fopen("BENCH_PR5.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n");
    WriteHostJson(json);
    std::fprintf(json, ",\n");
    std::fprintf(json,
                 "  \"bench\": \"mixed_read_write\",\n"
                 "  \"dataset\": \"synthetic\",\n  \"scale\": %zu,\n"
                 "  \"ops_per_batch\": %zu,\n  \"read_fraction\": 0.9,\n"
                 "  \"mix\": \"per 20 ops: 9 range, 9 knn, 1 insert, "
                 "1 delete\",\n"
                 "  \"invariants\": \"all op statuses OK; every delete "
                 "found its target; CheckIntegrity after sweep "
                 "(asserted)\",\n  \"cells\": [\n",
                 config.scale, n_ops);
    for (size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      std::fprintf(json,
                   "    {\"threads\": %zu, \"mixed_qps\": %.1f, "
                   "\"read_only_qps\": %.1f, \"ratio\": %.3f, "
                   "\"p50_ms\": %.3f, \"p99_ms\": %.3f}%s\n",
                   c.threads, c.mixed_qps, c.read_qps,
                   c.read_qps > 0 ? c.mixed_qps / c.read_qps : 0.0, c.p50_ms,
                   c.p99_ms, i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("wrote BENCH_PR5.json\n");
  }
}

// --------------------------------------------- sharded scatter-gather (PR 6)

// The sharded SPB-tree's S sweep: for S in {1, 2, 4, 8}, build a sharded
// tree over the same dataset, gate S=1 on byte-identity with the unsharded
// tree (cold per-query results, PA and compdists), then measure on a warm
// tree at T=4: read-only QPS, the 90/10 mixed QPS (and the write ops/s
// inside it) and a pure-insert batch throughput. All trees are driven
// through MetricIndex — the executor never downcasts. Emits BENCH_PR6.json
// (schema in EXPERIMENTS.md).
void RunShardSweep(const BenchConfig& config, const Dataset& ds,
                   const std::vector<Blob>& queries, double r, size_t k) {
  SpbTreeOptions base_opts;
  base_opts.seed = config.seed;
  std::unique_ptr<SpbTree> flat;
  if (!SpbTree::Build(ds.objects, ds.metric.get(), base_opts, &flat).ok()) {
    std::abort();
  }
  const size_t n = queries.size();

  // Cold unsharded baseline: the identity reference for S=1.
  std::vector<std::vector<ObjectId>> flat_range(n);
  std::vector<std::vector<Neighbor>> flat_knn(n);
  std::vector<uint64_t> flat_pa(n), flat_cd(n);
  for (size_t i = 0; i < n; ++i) {
    QueryStats rs, ks;
    flat->FlushCaches();
    if (!flat->RangeQuery(queries[i], r, &flat_range[i], &rs).ok()) {
      std::abort();
    }
    std::sort(flat_range[i].begin(), flat_range[i].end());
    flat->FlushCaches();
    if (!flat->KnnQuery(queries[i], k, &flat_knn[i], &ks).ok()) std::abort();
    flat_pa[i] = rs.page_accesses + ks.page_accesses;
    flat_cd[i] = rs.distance_computations + ks.distance_computations;
  }

  std::printf("\n[sharded scatter-gather sweep: S in {1,2,4,8}, T=4, "
              "90/10 mix as in the PR 5 sweep]\n");
  PrintRule(96);
  std::printf("%-5s | %8s | %9s | %9s | %10s | %10s | %s\n", "S", "build(s)",
              "read QPS", "mixed QPS", "write/s", "insert/s", "shard sizes");
  PrintRule(96);

  struct Cell {
    size_t shards;
    double build_s, read_qps, mixed_qps, write_ops_s, insert_qps;
    std::string sizes;
  };
  std::vector<Cell> cells;
  const size_t blocks = n;
  for (size_t S : {size_t(1), size_t(2), size_t(4), size_t(8)}) {
    SpbTreeOptions opts = base_opts;
    opts.num_shards = S;
    std::unique_ptr<ShardedSpbTree> tree;
    const auto b0 = std::chrono::steady_clock::now();
    if (!ShardedSpbTree::Build(ds.objects, ds.metric.get(), opts, &tree)
             .ok()) {
      std::abort();
    }
    const double build_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - b0)
            .count();

    if (S == 1) {
      // Identity gate: the S=1 router is pure delegation, so cold results,
      // logical PA and compdists must match the unsharded tree exactly.
      for (size_t i = 0; i < n; ++i) {
        QueryStats rs, ks;
        std::vector<ObjectId> ids;
        std::vector<Neighbor> nn;
        tree->FlushCaches();
        if (!tree->RangeQuery(queries[i], r, &ids, &rs).ok()) std::abort();
        std::sort(ids.begin(), ids.end());
        tree->FlushCaches();
        if (!tree->KnnQuery(queries[i], k, &nn, &ks).ok()) std::abort();
        if (ids != flat_range[i] || nn != flat_knn[i]) {
          std::printf("FAIL: S=1 results differ from unsharded at q%zu\n", i);
          std::abort();
        }
        if (rs.page_accesses + ks.page_accesses != flat_pa[i] ||
            rs.distance_computations + ks.distance_computations !=
                flat_cd[i]) {
          std::printf("FAIL: S=1 PA/compdists differ from unsharded at "
                      "q%zu\n",
                      i);
          std::abort();
        }
      }
      std::printf("S=1: cold results, PA and compdists byte-identical to "
                  "the unsharded tree (%zu queries)\n",
                  n);
    }

    QueryExecutor exec(tree.get(), 4);

    // Warm read-only throughput (warm-up pass, then measured range + kNN).
    std::vector<std::vector<ObjectId>> rr;
    std::vector<std::vector<Neighbor>> kr;
    BatchStats rstats, kstats;
    if (!exec.RunRangeBatch(queries, r, &rr, nullptr).ok() ||
        !exec.RunRangeBatch(queries, r, &rr, &rstats).ok() ||
        !exec.RunKnnBatch(queries, k, &kr, &kstats).ok()) {
      std::abort();
    }
    const double read_qps =
        rstats.qps > 0 && kstats.qps > 0
            ? double(2 * n) / (double(n) / rstats.qps + double(n) / kstats.qps)
            : 0.0;

    // Mixed 90/10 batch (blocks of 20: 9 range, 9 kNN, 1 insert, 1 delete;
    // deletes target distinct dataset ids — always present on this fresh
    // tree).
    std::vector<Request> ops;
    ObjectId next_id = ObjectId(ds.objects.size());
    for (size_t b = 0; b < blocks; ++b) {
      for (size_t j = 0; j < 9; ++j) {
        Request op;
        op.kind = Request::Kind::kRange;
        op.obj = queries[(b + j) % n];
        op.radius = r;
        ops.push_back(std::move(op));
      }
      for (size_t j = 0; j < 9; ++j) {
        Request op;
        op.kind = Request::Kind::kKnn;
        op.obj = queries[(b + j + 3) % n];
        op.k = k;
        ops.push_back(std::move(op));
      }
      Request ins;
      ins.kind = Request::Kind::kInsert;
      ins.obj = ds.objects[b % ds.objects.size()];
      ins.id = next_id++;
      ops.push_back(std::move(ins));
      Request del;
      del.kind = Request::Kind::kDelete;
      del.obj = ds.objects[b];
      del.id = ObjectId(b);
      ops.push_back(std::move(del));
    }
    BatchResult mixed = exec.Submit(ops);
    if (!mixed.first_error.ok()) std::abort();
    for (size_t i = 0; i < ops.size(); ++i) {
      if (!mixed.results[i].status.ok()) std::abort();
      if (ops[i].kind == Request::Kind::kDelete && !mixed.results[i].found) {
        std::printf("FAIL: delete missed its target at S=%zu\n", S);
        std::abort();
      }
    }
    const double mixed_qps = mixed.stats.qps;
    // 2 writes per 20-op block; write ops/s inside the mixed batch.
    const double write_ops_s = mixed_qps * 2.0 / 20.0;

    // Pure-insert batch: fresh ids, payloads cycled from the dataset. The
    // per-shard win here is structural — shallower COW spines — not
    // parallelism (writes still serialize on one core).
    const size_t n_inserts = 512;
    std::vector<Request> ins_ops(n_inserts);
    for (size_t i = 0; i < n_inserts; ++i) {
      ins_ops[i].kind = Request::Kind::kInsert;
      ins_ops[i].obj = ds.objects[(7 * i) % ds.objects.size()];
      ins_ops[i].id = next_id++;
    }
    BatchResult ins_batch = exec.Submit(ins_ops);
    if (!ins_batch.first_error.ok()) std::abort();
    for (const OpResult& res : ins_batch.results) {
      if (!res.status.ok()) std::abort();
    }
    if (!tree->CheckIntegrity().ok()) {
      std::printf("FAIL: integrity check after shard sweep at S=%zu\n", S);
      std::abort();
    }

    std::string sizes;
    for (size_t s = 0; s < tree->num_shards(); ++s) {
      if (s > 0) sizes += "/";
      sizes += std::to_string(tree->shard(s).size());
    }
    std::printf("S=%-3zu | %8.2f | %9.1f | %9.1f | %10.1f | %10.1f | %s\n", S,
                build_s, read_qps, mixed_qps, write_ops_s, ins_batch.stats.qps,
                sizes.c_str());
    std::printf(
        "JSON {\"bench\":\"sharded\",\"shards\":%zu,\"build_s\":%.3f,"
        "\"read_qps\":%.1f,\"mixed_qps\":%.1f,\"write_ops_s\":%.1f,"
        "\"insert_qps\":%.1f,\"shard_sizes\":\"%s\"}\n",
        S, build_s, read_qps, mixed_qps, write_ops_s, ins_batch.stats.qps,
        sizes.c_str());
    cells.push_back(
        Cell{S, build_s, read_qps, mixed_qps, write_ops_s, ins_batch.stats.qps, sizes});
  }
  PrintRule(96);
  const Cell& s1 = cells[0];
  const Cell* s4 = nullptr;
  for (const Cell& c : cells) {
    if (c.shards == 4) s4 = &c;
  }
  if (s4 != nullptr) {
    std::printf("S=4 vs S=1: mixed write throughput %.1f vs %.1f ops/s "
                "(%.2fx), insert batch %.1f vs %.1f ops/s (%.2fx)\n",
                s4->write_ops_s, s1.write_ops_s,
                s1.write_ops_s > 0 ? s4->write_ops_s / s1.write_ops_s : 0.0,
                s4->insert_qps, s1.insert_qps,
                s1.insert_qps > 0 ? s4->insert_qps / s1.insert_qps : 0.0);
  }

  FILE* json = std::fopen("BENCH_PR6.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n");
    WriteHostJson(json);
    std::fprintf(json, ",\n");
    std::fprintf(json,
                 "  \"bench\": \"sharded_scatter_gather\",\n"
                 "  \"dataset\": \"synthetic\",\n  \"scale\": %zu,\n"
                 "  \"queries\": %zu,\n  \"threads\": 4,\n"
                 "  \"mix\": \"per 20 ops: 9 range, 9 knn, 1 insert, "
                 "1 delete\",\n"
                 "  \"identity\": \"S=1 cold results, PA and compdists "
                 "byte-identical to the unsharded tree (asserted)\",\n"
                 "  \"cells\": [\n",
                 config.scale, n);
    for (size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      std::fprintf(json,
                   "    {\"shards\": %zu, \"build_s\": %.3f, "
                   "\"read_qps\": %.1f, \"mixed_qps\": %.1f, "
                   "\"write_ops_s\": %.1f, \"insert_qps\": %.1f, "
                   "\"shard_sizes\": \"%s\"}%s\n",
                   c.shards, c.build_s, c.read_qps, c.mixed_qps,
                   c.write_ops_s, c.insert_qps, c.sizes.c_str(),
                   i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("wrote BENCH_PR6.json\n");
  }
}

// ------------------------------------------ write-path engine sweep (PR 7)

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

// ------------------------------------- parallel fan-out sweep (PR 8)

double MedianOf(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// The PR 8 sweep (BENCH_PR8.json, schema in docs/OPERATIONS.md):
/// S in {1,4} x T in {1,8}, serial vs parallel cross-shard scatter.
///
/// Per cell, the A/B runs are *interleaved* (serial, parallel, serial, ...)
/// so drift — cache warm-up, frequency scaling — lands on both sides
/// equally, and medians are reported. Every parallel rep's results are
/// compared against the serial rep's byte-for-byte; a mismatch aborts the
/// bench. Per-query PA/compdist identity is gated separately through
/// single-query batches (one query alone on the tree at a time — the only
/// regime where cumulative-counter deltas attribute per query — with the
/// query's own shard fan-out still parallel).
///
/// A mixed 90/10 cell at T=8 on S=4 then reports median QPS, p99 and
/// busy_retries, the arena's queue counters and the contention-registry
/// counters accumulated during the measured phase.
void RunFanoutSweep(const BenchConfig& config, const Dataset& ds,
                    const std::vector<Blob>& queries, double r, size_t k) {
  const size_t n = queries.size();
  constexpr int kReps = 5;

  std::printf("\n[parallel fan-out sweep: S in {1,4} x T in {1,8}, "
              "interleaved serial/parallel A/B, median of %d]\n",
              kReps);
  PrintRule(96);
  std::printf("%-9s | %10s | %10s | %8s | %10s | %10s\n", "cell",
              "ser QPS", "par QPS", "par/ser", "ser p99ms", "par p99ms");
  PrintRule(96);

  struct Cell {
    size_t shards, threads;
    double serial_qps, parallel_qps, serial_p99_ms, parallel_p99_ms;
  };
  std::vector<Cell> cells;

  for (size_t S : {size_t(1), size_t(4)}) {
    SpbTreeOptions opts;
    opts.seed = config.seed;
    opts.num_shards = S;
    std::unique_ptr<ShardedSpbTree> tree;
    if (!ShardedSpbTree::Build(ds.objects, ds.metric.get(), opts, &tree)
             .ok()) {
      std::abort();
    }

    // Per-query identity gate: serial baseline on this thread, parallel
    // rerun through single-query groups on a T=8 pool.
    {
      tree->set_parallel_scatter(false);
      std::vector<std::vector<ObjectId>> want_ids(n);
      std::vector<uint64_t> want_pa(n), want_cd(n);
      for (size_t i = 0; i < n; ++i) {
        QueryStats rs, ks;
        std::vector<Neighbor> nn;
        // Cold per query on both sides of the gate: logical PA depends on
        // what the decoded-node cache absorbs, so identity is asserted
        // cold-vs-cold (same discipline as the PR 6 S=1 gate).
        tree->FlushCaches();
        if (!tree->RangeQuery(queries[i], r, &want_ids[i], &rs).ok()) {
          std::abort();
        }
        tree->FlushCaches();
        if (!tree->KnnQuery(queries[i], k, &nn, &ks).ok()) std::abort();
        want_pa[i] = rs.page_accesses + ks.page_accesses;
        want_cd[i] = rs.distance_computations + ks.distance_computations;
      }
      tree->set_parallel_scatter(true);
      QueryExecutor exec(tree.get(), 8);
      for (size_t i = 0; i < n; ++i) {
        QueryStats rs, ks;
        std::vector<ObjectId> ids;
        std::vector<Neighbor> nn;
        bool ok = true;
        const std::function<void(size_t)> one = [&](size_t) {
          ok = tree->RangeQuery(queries[i], r, &ids, &rs).ok();
        };
        const std::function<void(size_t)> two = [&](size_t) {
          ok = ok && tree->KnnQuery(queries[i], k, &nn, &ks).ok();
        };
        tree->FlushCaches();
        exec.arena()->RunGroup(1, one, /*help=*/false);
        tree->FlushCaches();
        exec.arena()->RunGroup(1, two, /*help=*/false);
        if (!ok) std::abort();
        if (ids != want_ids[i] ||
            rs.page_accesses + ks.page_accesses != want_pa[i] ||
            rs.distance_computations + ks.distance_computations !=
                want_cd[i]) {
          std::printf("FAIL: parallel scatter not identical to serial at "
                      "S=%zu q%zu (ids %zu vs %zu, pa %llu vs %llu, cd "
                      "%llu vs %llu)\n",
                      S, i, ids.size(), want_ids[i].size(),
                      (unsigned long long)(rs.page_accesses +
                                           ks.page_accesses),
                      (unsigned long long)want_pa[i],
                      (unsigned long long)(rs.distance_computations +
                                           ks.distance_computations),
                      (unsigned long long)want_cd[i]);
          std::abort();
        }
      }
    }

    for (size_t T : {size_t(1), size_t(8)}) {
      QueryExecutor exec(tree.get(), T);
      // Warm-up pass (also the identity reference for the batch reps).
      tree->set_parallel_scatter(false);
      std::vector<std::vector<ObjectId>> want_rr;
      std::vector<std::vector<Neighbor>> want_kr;
      if (!exec.RunRangeBatch(queries, r, &want_rr, nullptr).ok() ||
          !exec.RunKnnBatch(queries, k, &want_kr, nullptr).ok()) {
        std::abort();
      }

      std::vector<double> ser_qps, par_qps, ser_p99, par_p99;
      for (int rep = 0; rep < kReps; ++rep) {
        for (bool parallel : {false, true}) {
          tree->set_parallel_scatter(parallel);
          std::vector<std::vector<ObjectId>> rr;
          std::vector<std::vector<Neighbor>> kr;
          BatchStats rstats, kstats;
          if (!exec.RunRangeBatch(queries, r, &rr, &rstats).ok() ||
              !exec.RunKnnBatch(queries, k, &kr, &kstats).ok()) {
            std::abort();
          }
          if (rr != want_rr || kr.size() != want_kr.size()) {
            std::printf("FAIL: A/B results diverged at S=%zu T=%zu "
                        "parallel=%d\n",
                        S, T, int(parallel));
            std::abort();
          }
          for (size_t i = 0; i < kr.size(); ++i) {
            if (kr[i].size() != want_kr[i].size()) std::abort();
            for (size_t j = 0; j < kr[i].size(); ++j) {
              if (kr[i][j].id != want_kr[i][j].id ||
                  kr[i][j].distance != want_kr[i][j].distance) {
                std::printf("FAIL: kNN A/B diverged at S=%zu T=%zu\n", S, T);
                std::abort();
              }
            }
          }
          const double qps =
              rstats.qps > 0 && kstats.qps > 0
                  ? double(2 * n) /
                        (double(n) / rstats.qps + double(n) / kstats.qps)
                  : 0.0;
          const double p99 =
              std::max(rstats.p99_seconds, kstats.p99_seconds) * 1e3;
          (parallel ? par_qps : ser_qps).push_back(qps);
          (parallel ? par_p99 : ser_p99).push_back(p99);
        }
      }
      Cell c;
      c.shards = S;
      c.threads = T;
      c.serial_qps = MedianOf(ser_qps);
      c.parallel_qps = MedianOf(par_qps);
      c.serial_p99_ms = MedianOf(ser_p99);
      c.parallel_p99_ms = MedianOf(par_p99);
      cells.push_back(c);
      std::printf("S=%zu T=%-3zu | %10.1f | %10.1f | %7.2fx | %10.3f | "
                  "%10.3f\n",
                  S, T, c.serial_qps, c.parallel_qps,
                  c.serial_qps > 0 ? c.parallel_qps / c.serial_qps : 0.0,
                  c.serial_p99_ms, c.parallel_p99_ms);
    }
  }
  PrintRule(96);

  // Mixed 90/10 at T=8 on S=4, with the contention registry accumulating
  // over the measured phase.
  struct MixedCell {
    double qps = 0.0, p99_ms = 0.0;
    uint64_t busy_retries = 0;
    ArenaQueueStats queue;
    std::vector<LockStatsSnapshot> locks;
  };
  MixedCell mc;
  {
    SpbTreeOptions opts;
    opts.seed = config.seed;
    opts.num_shards = 4;
    std::unique_ptr<ShardedSpbTree> tree;
    if (!ShardedSpbTree::Build(ds.objects, ds.metric.get(), opts, &tree)
             .ok()) {
      std::abort();
    }
    QueryExecutor exec(tree.get(), 8);

    std::vector<Request> ops;
    ObjectId next_id = ObjectId(ds.objects.size());
    for (size_t b = 0; b < n; ++b) {
      for (size_t j = 0; j < 9; ++j) {
        Request op;
        op.kind = Request::Kind::kRange;
        op.obj = queries[(b + j) % n];
        op.radius = r;
        ops.push_back(std::move(op));
      }
      for (size_t j = 0; j < 9; ++j) {
        Request op;
        op.kind = Request::Kind::kKnn;
        op.obj = queries[(b + j + 3) % n];
        op.k = k;
        ops.push_back(std::move(op));
      }
      Request ins;
      ins.kind = Request::Kind::kInsert;
      ins.obj = ds.objects[b % ds.objects.size()];
      ins.id = next_id++;
      ops.push_back(std::move(ins));
      Request del;
      del.kind = Request::Kind::kDelete;
      del.obj = ds.objects[b];
      del.id = ObjectId(b);
      ops.push_back(std::move(del));
    }

    BatchResult warm = exec.Submit(ops);
    if (!warm.first_error.ok()) std::abort();

    ContentionReset();
    std::vector<double> qps, p99;
    uint64_t busy = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      // Re-target the per-rep writes: each insert gets a fresh id (payload
      // keyed off the id so insert/delete pairs agree), each delete targets
      // the previous round's insert from the same block — always present.
      for (Request& op : ops) {
        if (op.kind == Request::Kind::kInsert) {
          op.id = next_id++;
          op.obj = ds.objects[size_t(op.id) % ds.objects.size()];
        }
        if (op.kind == Request::Kind::kDelete) {
          op.id = ObjectId(uint64_t(next_id) - 1 - n);
          op.obj = ds.objects[size_t(op.id) % ds.objects.size()];
        }
      }
      BatchResult rep_batch = exec.Submit(ops);
      if (!rep_batch.first_error.ok()) std::abort();
      for (size_t i = 0; i < ops.size(); ++i) {
        if (ops[i].kind == Request::Kind::kDelete &&
            !rep_batch.results[i].found) {
          std::printf("FAIL: mixed-rep delete missed its target\n");
          std::abort();
        }
      }
      qps.push_back(rep_batch.stats.qps);
      p99.push_back(rep_batch.stats.p99_seconds * 1e3);
      busy += rep_batch.stats.busy_retries;
    }
    mc.qps = MedianOf(qps);
    mc.p99_ms = MedianOf(p99);
    mc.busy_retries = busy;
    mc.queue = exec.arena()->queue_stats();
    mc.locks = ContentionSnapshot();
  }
  std::printf("mixed 90/10 T=8 S=4: %10.1f QPS, p99 %.3f ms, %llu busy "
              "retries\n",
              mc.qps, mc.p99_ms, (unsigned long long)mc.busy_retries);

  FILE* json = std::fopen("BENCH_PR8.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n");
    WriteHostJson(json);
    std::fprintf(json, ",\n");
    std::fprintf(
        json,
        "  \"bench\": \"parallel_fanout\",\n"
        "  \"dataset\": \"synthetic\",\n  \"scale\": %zu,\n"
        "  \"queries\": %zu,\n  \"reps\": %d,\n"
        "  \"identity\": \"parallel scatter byte-identical to serial per "
        "query (results, PA, compdists) and per batch (asserted, abort on "
        "mismatch)\",\n"
        "  \"cells\": [\n",
        config.scale, n, kReps);
    for (size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      std::fprintf(json,
                   "    {\"shards\": %zu, \"threads\": %zu, "
                   "\"serial_qps\": %.1f, \"parallel_qps\": %.1f, "
                   "\"serial_p99_ms\": %.3f, \"parallel_p99_ms\": %.3f}%s\n",
                   c.shards, c.threads, c.serial_qps, c.parallel_qps,
                   c.serial_p99_ms, c.parallel_p99_ms,
                   i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(
        json,
        "  ],\n  \"mixed_t8_s4\": {\"qps\": %.1f, \"p99_ms\": %.3f, "
        "\"busy_retries\": %llu,\n"
        "    \"queue\": {\"tickets_pushed\": %llu, \"tickets_popped\": "
        "%llu, \"stale_tickets\": %llu, \"inline_drains\": %llu, "
        "\"parks\": %llu, \"unparks\": %llu},\n"
        "    \"locks\": [",
        mc.qps, mc.p99_ms, (unsigned long long)mc.busy_retries,
        (unsigned long long)mc.queue.tickets_pushed,
        (unsigned long long)mc.queue.tickets_popped,
        (unsigned long long)mc.queue.stale_tickets,
        (unsigned long long)mc.queue.inline_drains,
        (unsigned long long)mc.queue.parks,
        (unsigned long long)mc.queue.unparks);
    bool first = true;
    for (const LockStatsSnapshot& l : mc.locks) {
      if (l.acquires == 0) continue;
      std::fprintf(json,
                   "%s\n      {\"name\": \"%s\", \"acquires\": %llu, "
                   "\"contended\": %llu, \"wait_ms\": %.3f}",
                   first ? "" : ",", l.name.c_str(),
                   (unsigned long long)l.acquires,
                   (unsigned long long)l.contended, l.wait_ns / 1e6);
      first = false;
    }
    std::fprintf(json, "\n    ]}\n}\n");
    std::fclose(json);
    std::printf("wrote BENCH_PR8.json\n");
  }
}

void Run(const BenchConfig& config) {
  std::printf("Concurrency + cold-path I/O engine: throughput sweeps\n");
  std::printf("scale=%zu queries=%zu\n", config.scale, config.queries);
  Dataset ds = MakeDatasetByName("synthetic", config.scale, config.seed);
  const auto queries = QueryWorkload(ds, config.queries);
  const double r = 0.08 * ds.metric->max_distance();
  constexpr size_t kK = 8;

  // Server-sized pool, then a capacity-constrained one (64 pages holds a
  // fraction of the working set, so every query faults pages back in even
  // without an explicit flush).
  for (size_t cache_pages : {size_t(256), size_t(64)}) {
    RunColdPrefetchAb(config, ds, queries, r, kK, cache_pages);
    RunWarmThreadSweep(config, ds, queries, r, kK, cache_pages);
  }

  // Warm-path decode engine A/B (PR 4): default pool sizes, T=1.
  RunEngineAb(config, ds, queries, r, kK);

  // Mixed 90/10 read/write sweep (PR 5): snapshot-pinned queries
  // interleaved with serialized writers, fresh tree.
  RunMixedSweep(config, ds, queries, r, kK);

  // Sharded scatter-gather sweep (PR 6): S in {1,2,4,8}, S=1 identity-gated
  // against the unsharded tree.
  RunShardSweep(config, ds, queries, r, kK);

  // Write-path engine sweep (PR 7): durable group-commit writes + churn /
  // compaction, disk-backed.
  RunWriteEngine(config, ds, queries, r, kK);

  // Parallel fan-out sweep (PR 8): serial vs parallel cross-shard scatter,
  // identity-gated, plus a mixed 90/10 cell.
  RunFanoutSweep(config, ds, queries, r, kK);

  std::printf(
      "\nCold rows: prefetch vs demand is the I/O engine's win (speedup "
      "column); logical PA is invariant by construction. Warm rows: QPS "
      "scales with T up to the machine's core count, p99 grows with T as "
      "workers queue on memory bandwidth.\n\n");
}

// Runs only the sharded sweep (ctest / check.sh entry point: the S=1
// identity gate and the S sweep at a small scale without the full bench).
void RunShardsOnly(const BenchConfig& config) {
  std::printf("Sharded scatter-gather sweep (standalone)\n");
  std::printf("scale=%zu queries=%zu\n", config.scale, config.queries);
  Dataset ds = MakeDatasetByName("synthetic", config.scale, config.seed);
  const auto queries = QueryWorkload(ds, config.queries);
  const double r = 0.08 * ds.metric->max_distance();
  RunShardSweep(config, ds, queries, r, /*k=*/8);
}

// Runs only the parallel fan-out sweep (ctest / check.sh entry point:
// identity gates plus BENCH_PR8.json at a small scale).
void RunFanoutOnly(const BenchConfig& config) {
  std::printf("Parallel fan-out sweep (standalone)\n");
  std::printf("scale=%zu queries=%zu\n", config.scale, config.queries);
  Dataset ds = MakeDatasetByName("synthetic", config.scale, config.seed);
  const auto queries = QueryWorkload(ds, config.queries);
  const double r = 0.08 * ds.metric->max_distance();
  RunFanoutSweep(config, ds, queries, r, /*k=*/8);
}

// Runs only the two identity A/Bs of the read path (check.sh --warmab entry
// point): cold prefetch on vs off at both pool sizes, and the warm-path
// decode engine on vs off. Either aborts on a result or counter mismatch.
void RunWarmAbOnly(const BenchConfig& config) {
  std::printf("Prefetch and decode-engine identity A/Bs (standalone)\n");
  std::printf("scale=%zu queries=%zu\n", config.scale, config.queries);
  Dataset ds = MakeDatasetByName("synthetic", config.scale, config.seed);
  const auto queries = QueryWorkload(ds, config.queries);
  const double r = 0.08 * ds.metric->max_distance();
  for (size_t cache_pages : {size_t(256), size_t(64)}) {
    RunColdPrefetchAb(config, ds, queries, r, /*k=*/8, cache_pages);
  }
  RunEngineAb(config, ds, queries, r, /*k=*/8);
}

// Runs only the write-path engine sweep (produces BENCH_PR7.json in the
// working directory without touching the other bench JSONs).
void RunWalOnly(const BenchConfig& config) {
  std::printf("Write-path engine sweep (standalone)\n");
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
  // ParseArgs ignores flags it does not know, so --shards-only composes
  // with --scale/--queries/--seed.
  bool shards_only = false;
  bool wal_only = false;
  bool fanout_only = false;
  bool warmab_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--shards-only") == 0) shards_only = true;
    if (std::strcmp(argv[i], "--wal-only") == 0) wal_only = true;
    if (std::strcmp(argv[i], "--fanout-only") == 0) fanout_only = true;
    if (std::strcmp(argv[i], "--warmab-only") == 0) warmab_only = true;
  }
  const spb::bench::BenchConfig config = spb::bench::ParseArgs(
      argc, argv, /*default_scale=*/20000, /*default_queries=*/256);
  if (shards_only) {
    spb::bench::RunShardsOnly(config);
  } else if (fanout_only) {
    spb::bench::RunFanoutOnly(config);
  } else if (wal_only) {
    spb::bench::RunWalOnly(config);
  } else if (warmab_only) {
    spb::bench::RunWarmAbOnly(config);
  } else {
    spb::bench::Run(config);
  }
  return 0;
}
