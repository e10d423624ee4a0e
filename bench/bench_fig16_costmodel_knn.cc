// Reproduces Fig. 16: accuracy of the kNN cost model — actual vs estimated
// PA and compdists as functions of k.
#include "bench/bench_common.h"

namespace spb {
namespace bench {
namespace {

double Accuracy(double actual, double estimated) {
  if (actual <= 0.0) return estimated <= 0.0 ? 1.0 : 0.0;
  return 1.0 - std::abs(actual - estimated) / actual;
}

void Run(const BenchConfig& config) {
  std::printf("Fig. 16: kNN cost model vs k\n");
  std::printf("scale=%zu queries=%zu\n", config.scale, config.queries);
  for (const char* name : {"words", "color", "synthetic"}) {
    Dataset ds = MakeDatasetByName(name, config.scale, config.seed);
    const auto queries = QueryWorkload(ds, config.queries);
    SpbTreeOptions opts;
    opts.seed = config.seed;
    std::unique_ptr<SpbTree> tree;
    if (!SpbTree::Build(ds.objects, ds.metric.get(), opts, &tree).ok()) {
      std::abort();
    }
    std::printf("\n[%s]\n", name);
    PrintRule();
    std::printf("%4s | %10s %10s %6s | %10s %10s %6s\n", "k", "act.cd",
                "est.cd", "acc", "act.PA", "est.PA", "acc");
    PrintRule();
    for (size_t k : {1u, 2u, 4u, 8u, 16u, 32u}) {
      AvgCost actual;
      double est_cd = 0.0, est_pa = 0.0;
      std::vector<Neighbor> result;
      for (const Blob& q : queries) {
        const CostEstimate est = tree->EstimateKnnCost(q, k);
        est_cd += est.distance_computations;
        est_pa += est.page_accesses;
        tree->FlushCaches();
        QueryStats stats;
        if (!tree->KnnQuery(q, k, &result, &stats,
                            KnnTraversal::kIncremental)
                 .ok()) {
          std::abort();
        }
        actual.Accumulate(stats);
      }
      actual.Finish(queries.size());
      est_cd /= double(queries.size());
      est_pa /= double(queries.size());
      std::printf("%4zu | %10.1f %10.1f %6.2f | %10.1f %10.1f %6.2f\n", k,
                  actual.distance_computations, est_cd,
                  Accuracy(actual.distance_computations, est_cd),
                  actual.page_accesses, est_pa,
                  Accuracy(actual.page_accesses, est_pa));
    }
    PrintRule();
  }
  std::printf(
      "\nExpected shape (paper): estimated curves track the actual ones with "
      "average accuracy above ~0.8; both costs grow mildly with k.\n\n");
}

}  // namespace
}  // namespace bench
}  // namespace spb

int main(int argc, char** argv) {
  spb::bench::Run(spb::bench::ParseArgs(argc, argv, /*default_scale=*/20000,
                                        /*default_queries=*/40));
  return 0;
}
