#ifndef SPB_BENCH_BENCH_COMMON_H_
#define SPB_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/metric_index.h"
#include "core/spb_tree.h"
#include "data/datasets.h"

namespace spb {
namespace bench {

/// Shared experiment configuration. Every bench binary accepts
///   --scale=N     dataset cardinality (default per-bench, paper uses
///                 112K-1M; defaults here are laptop-sized so the full
///                 harness finishes in minutes)
///   --queries=N   number of query objects (paper: 500; default 50)
///   --seed=N
/// following the paper's protocol: queries are the first N objects of each
/// dataset and every reported number is the average over those queries with
/// caches flushed before each query.
///
/// Cost accounting (docs/ARCHITECTURE.md §"Cost accounting"): PA counts
/// buffer-pool misses only (page_reads + page_writes; cache_hits excluded,
/// including RAF dirty-tail reads), compdists counts calls through each
/// index's CountingDistance wrapper. Per-query numbers come from QueryStats
/// deltas, which are valid here because bench queries run serially.
struct BenchConfig {
  size_t scale;
  size_t queries;
  uint64_t seed = 20150415;
};

inline BenchConfig ParseArgs(int argc, char** argv, size_t default_scale,
                             size_t default_queries = 50) {
  BenchConfig config{default_scale, default_queries, 20150415};
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--scale=", 8) == 0) {
      config.scale = size_t(std::atoll(arg + 8));
    } else if (std::strncmp(arg, "--queries=", 10) == 0) {
      config.queries = size_t(std::atoll(arg + 10));
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      config.seed = uint64_t(std::atoll(arg + 7));
    } else if (std::strcmp(arg, "--help") == 0) {
      std::printf("usage: %s [--scale=N] [--queries=N] [--seed=N]\n",
                  argv[0]);
      std::exit(0);
    }
  }
  return config;
}

/// Average per-query costs in the paper's three metrics.
struct AvgCost {
  double page_accesses = 0.0;
  double distance_computations = 0.0;
  double seconds = 0.0;

  void Accumulate(const QueryStats& s) {
    page_accesses += double(s.page_accesses);
    distance_computations += double(s.distance_computations);
    seconds += s.elapsed_seconds;
  }
  void Finish(size_t n) {
    if (n == 0) return;
    page_accesses /= double(n);
    distance_computations /= double(n);
    seconds /= double(n);
  }
};

/// Runs kNN queries under the paper's protocol (flush caches before each
/// query, average costs). An SPB-tree runs best-first NNA, the traversal the
/// paper's kNN figures measure, rather than its greedy default.
inline AvgCost RunKnnQueries(MetricIndex& index,
                             const std::vector<Blob>& queries, size_t k) {
  AvgCost avg;
  std::vector<Neighbor> result;
  SpbTree* const spb = dynamic_cast<SpbTree*>(&index);
  for (const Blob& q : queries) {
    index.FlushCaches();
    QueryStats stats;
    const Status s =
        spb != nullptr ? spb->KnnQuery(q, k, &result, &stats,
                                       KnnTraversal::kIncremental)
                       : index.KnnQuery(q, k, &result, &stats);
    if (!s.ok()) std::abort();
    avg.Accumulate(stats);
  }
  avg.Finish(queries.size());
  return avg;
}

/// Same for range queries with radius r.
inline AvgCost RunRangeQueries(MetricIndex& index,
                               const std::vector<Blob>& queries, double r) {
  AvgCost avg;
  std::vector<ObjectId> result;
  for (const Blob& q : queries) {
    index.FlushCaches();
    QueryStats stats;
    if (!index.RangeQuery(q, r, &result, &stats).ok()) std::abort();
    avg.Accumulate(stats);
  }
  avg.Finish(queries.size());
  return avg;
}

/// First `n` objects of the dataset, the paper's query workload.
inline std::vector<Blob> QueryWorkload(const Dataset& ds, size_t n) {
  n = std::min(n, ds.objects.size());
  return std::vector<Blob>(ds.objects.begin(), ds.objects.begin() + n);
}

inline void PrintRule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// Host provenance stamped into every bench JSON so numbers from different
/// machines are never compared blind: hardware thread count, the CPU model
/// string, and whether the run happened inside a container (throughput
/// numbers from shared/cgroup-limited hosts are directional only).
struct HostInfo {
  unsigned hardware_threads = 0;
  std::string cpu_model;  // "unknown" when /proc/cpuinfo has no model name
  bool container = false;
};

inline HostInfo QueryHostInfo() {
  HostInfo h;
  h.hardware_threads = std::thread::hardware_concurrency();
  h.cpu_model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(" \t", colon + 1);
        if (start != std::string::npos) h.cpu_model = line.substr(start);
      }
      break;
    }
  }
  // Containers either mount /.dockerenv or run pid 1 in a non-root cgroup.
  if (std::ifstream("/.dockerenv").good()) {
    h.container = true;
  } else {
    std::ifstream cg("/proc/1/cgroup");
    for (std::string line; std::getline(cg, line);) {
      if (line.find("docker") != std::string::npos ||
          line.find("containerd") != std::string::npos ||
          line.find("kubepods") != std::string::npos ||
          line.find("lxc") != std::string::npos) {
        h.container = true;
        break;
      }
    }
  }
  return h;
}

/// Escapes a string for embedding in a JSON literal (quotes + backslashes;
/// CPU model strings never need more).
inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

/// Emits the host block: `"host": {...}` (no trailing comma) on `f`.
inline void WriteHostJson(std::FILE* f) {
  const HostInfo h = QueryHostInfo();
  std::fprintf(f,
               "  \"host\": {\"hardware_threads\": %u, \"cpu_model\": "
               "\"%s\", \"container\": %s}",
               h.hardware_threads, JsonEscape(h.cpu_model).c_str(),
               h.container ? "true" : "false");
}

}  // namespace bench
}  // namespace spb

#endif  // SPB_BENCH_BENCH_COMMON_H_
