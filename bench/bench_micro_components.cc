// Micro-benchmarks (google-benchmark) of the SPB-tree's inner loops:
// space-filling-curve coding, metric distance kernels, discretizer bounds,
// and B+-tree point operations. Complements the paper-level benches with
// component-level numbers for regression tracking.
#include <benchmark/benchmark.h>

#include "bptree/bptree.h"
#include "common/rng.h"
#include "data/datasets.h"
#include "metrics/discretizer.h"
#include "sfc/sfc.h"

namespace spb {
namespace {

void BM_HilbertEncode(benchmark::State& state) {
  const size_t dims = size_t(state.range(0));
  const int bits = int(64 / dims);
  auto curve = SpaceFillingCurve::Create(CurveType::kHilbert, dims, bits);
  Rng rng(1);
  std::vector<uint32_t> coords(dims);
  for (auto& c : coords) c = uint32_t(rng.Uniform(1u << bits));
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve->Encode(coords));
  }
}
BENCHMARK(BM_HilbertEncode)->Arg(2)->Arg(5)->Arg(9);

void BM_HilbertDecode(benchmark::State& state) {
  const size_t dims = size_t(state.range(0));
  const int bits = int(64 / dims);
  auto curve = SpaceFillingCurve::Create(CurveType::kHilbert, dims, bits);
  std::vector<uint32_t> coords;
  uint64_t key = 0xDEADBEEF;
  for (auto _ : state) {
    curve->Decode(key, &coords);
    benchmark::DoNotOptimize(coords);
    ++key;
  }
}
BENCHMARK(BM_HilbertDecode)->Arg(2)->Arg(5)->Arg(9);

void BM_ZOrderEncode(benchmark::State& state) {
  const size_t dims = size_t(state.range(0));
  const int bits = int(64 / dims);
  auto curve = SpaceFillingCurve::Create(CurveType::kZOrder, dims, bits);
  Rng rng(1);
  std::vector<uint32_t> coords(dims);
  for (auto& c : coords) c = uint32_t(rng.Uniform(1u << bits));
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve->Encode(coords));
  }
}
BENCHMARK(BM_ZOrderEncode)->Arg(2)->Arg(5)->Arg(9);

void BM_EditDistance(benchmark::State& state) {
  Dataset ds = MakeWords(1000, 3);
  Rng rng(4);
  for (auto _ : state) {
    const Blob& a = ds.objects[rng.Uniform(ds.objects.size())];
    const Blob& b = ds.objects[rng.Uniform(ds.objects.size())];
    benchmark::DoNotOptimize(ds.metric->Distance(a, b));
  }
}
BENCHMARK(BM_EditDistance);

void BM_TrigramCosine(benchmark::State& state) {
  Dataset ds = MakeDna(500, 3);
  Rng rng(4);
  for (auto _ : state) {
    const Blob& a = ds.objects[rng.Uniform(ds.objects.size())];
    const Blob& b = ds.objects[rng.Uniform(ds.objects.size())];
    benchmark::DoNotOptimize(ds.metric->Distance(a, b));
  }
}
BENCHMARK(BM_TrigramCosine);

void BM_L5Norm(benchmark::State& state) {
  Dataset ds = MakeColor(1000, 3);
  Rng rng(4);
  for (auto _ : state) {
    const Blob& a = ds.objects[rng.Uniform(ds.objects.size())];
    const Blob& b = ds.objects[rng.Uniform(ds.objects.size())];
    benchmark::DoNotOptimize(ds.metric->Distance(a, b));
  }
}
BENCHMARK(BM_L5Norm);

void BM_BptreeInsert(benchmark::State& state) {
  auto curve = SpaceFillingCurve::Create(CurveType::kHilbert, 2, 16);
  std::unique_ptr<BPlusTree> tree;
  if (!BPlusTree::Create(PageFile::CreateInMemory(), 64, curve.get(), &tree)
           .ok()) {
    state.SkipWithError("create failed");
    return;
  }
  Rng rng(5);
  uint64_t ptr = 0;
  TreeVersion version;
  std::vector<PageId> superseded;
  for (auto _ : state) {
    // No snapshots: adopt each version at once and recycle its pages.
    superseded.clear();
    if (!tree->InsertCow(rng.Uniform(1ull << 32), ptr++, &version,
                         &superseded)
             .ok()) {
      state.SkipWithError("insert failed");
      return;
    }
    tree->AdoptVersion(version);
    tree->AddFreePages(superseded);
  }
}
BENCHMARK(BM_BptreeInsert);

void BM_BptreeSeek(benchmark::State& state) {
  auto curve = SpaceFillingCurve::Create(CurveType::kHilbert, 2, 16);
  std::unique_ptr<BPlusTree> tree;
  if (!BPlusTree::Create(PageFile::CreateInMemory(), 64, curve.get(), &tree)
           .ok()) {
    state.SkipWithError("create failed");
    return;
  }
  std::vector<LeafEntry> entries;
  for (uint64_t k = 0; k < 100000; ++k) entries.push_back({k * 3, k});
  if (!tree->BulkLoad(entries).ok()) {
    state.SkipWithError("bulk load failed");
    return;
  }
  Rng rng(6);
  BPlusTree::LeafCursor cur(tree.get(), tree->version());
  for (auto _ : state) {
    if (!cur.Seek(rng.Uniform(300000)).ok()) {
      state.SkipWithError("seek failed");
      return;
    }
    benchmark::DoNotOptimize(cur.valid());
  }
}
BENCHMARK(BM_BptreeSeek);

void BM_DiscretizerCellRange(benchmark::State& state) {
  Discretizer disc(1.0, false, 0.005);
  Rng rng(7);
  uint32_t lo, hi;
  for (auto _ : state) {
    const double q = rng.NextDouble();
    benchmark::DoNotOptimize(disc.CellRange(q - 0.05, q + 0.05, &lo, &hi));
  }
}
BENCHMARK(BM_DiscretizerCellRange);

}  // namespace
}  // namespace spb

BENCHMARK_MAIN();
