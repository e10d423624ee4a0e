// Concurrent search: build an SPB-tree once, then serve a batch of range
// and kNN queries from a fixed pool of worker threads with the
// QueryExecutor. This is the runnable twin of the snippet in docs/API.md.
//
//   ./concurrent_search
#include <cstdio>

#include "core/spb_tree.h"
#include "data/datasets.h"
#include "exec/query_executor.h"

int main() {
  using namespace spb;

  // 1. Build the index (bulk-load). After Build returns, the tree is
  //    immutable and its whole read path — B+-tree traversal, RAF lookups,
  //    striped buffer pools — is safe for any number of concurrent readers.
  Dataset ds = MakeSynthetic(20000, /*seed=*/42);
  SpbTreeOptions options;
  options.btree_cache_pages = 256;  // large caches stripe the LRU 8 ways
  options.raf_cache_pages = 256;
  std::unique_ptr<SpbTree> index;
  Status s = SpbTree::Build(ds.objects, ds.metric.get(), options, &index);
  if (!s.ok()) {
    std::fprintf(stderr, "build failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("indexed %llu vectors under %s\n",
              (unsigned long long)index->size(),
              ds.metric->name().c_str());

  // 2. A batch of range queries and one of kNN queries (here: on the first
  //    128 data objects).
  const double r = 0.08 * ds.metric->max_distance();
  std::vector<Request> range_ops, knn_ops;
  for (size_t i = 0; i < 128; ++i) {
    range_ops.push_back(Request::Range(ds.objects[i], r));
    knn_ops.push_back(Request::Knn(ds.objects[i], /*k=*/8));
  }

  // 3. Fan the batch over 4 worker threads. The executor owns the threads
  //    for its whole lifetime; batches run back-to-back without respawning.
  QueryExecutor executor(index.get(), /*num_threads=*/4);

  const BatchResult range = executor.Submit(range_ops);
  if (!range.first_error.ok()) return 1;
  const BatchStats& stats = range.stats;
  std::printf(
      "range batch: %zu queries on %zu threads -> %.0f QPS "
      "(p50 %.2f ms, p99 %.2f ms), %llu page accesses, %llu compdists\n",
      stats.num_queries, stats.num_threads, stats.qps,
      stats.p50_seconds * 1e3, stats.p99_seconds * 1e3,
      (unsigned long long)stats.totals.page_accesses,
      (unsigned long long)stats.totals.distance_computations);

  const BatchResult knn = executor.Submit(knn_ops);
  if (!knn.first_error.ok()) return 1;
  std::printf(
      "kNN batch:   %zu queries on %zu threads -> %.0f QPS "
      "(p50 %.2f ms, p99 %.2f ms)\n",
      knn.stats.num_queries, knn.stats.num_threads, knn.stats.qps,
      knn.stats.p50_seconds * 1e3, knn.stats.p99_seconds * 1e3);

  // 4. Per-op results land in order: slot i answers request i.
  const std::vector<Neighbor>& nn = knn.results[0].neighbors;
  std::printf("query 0: %zu objects in range, nearest neighbor d=%.3f\n",
              range.results[0].range_ids.size(),
              nn.empty() ? -1.0 : nn[0].distance);
  return 0;
}
