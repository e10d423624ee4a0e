#include "pivots/selection.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>

#include "common/rng.h"

namespace spb {

namespace {

// Uniform sample of `n` distinct indices from [0, size).
std::vector<size_t> SampleIndices(size_t size, size_t n, Rng* rng) {
  n = std::min(n, size);
  if (n * 3 >= size) {
    std::vector<size_t> all(size);
    std::iota(all.begin(), all.end(), size_t{0});
    std::shuffle(all.begin(), all.end(), rng->engine());
    all.resize(n);
    return all;
  }
  std::set<size_t> picked;
  while (picked.size() < n) picked.insert(rng->Uniform(size));
  return std::vector<size_t>(picked.begin(), picked.end());
}

std::vector<Blob> TakeByIndex(const std::vector<Blob>& objects,
                              const std::vector<size_t>& idx) {
  std::vector<Blob> out;
  out.reserve(idx.size());
  for (size_t i : idx) out.push_back(objects[i]);
  return out;
}

std::vector<Blob> SelectRandom(const std::vector<Blob>& objects, size_t k,
                               Rng* rng) {
  return TakeByIndex(objects, SampleIndices(objects.size(), k, rng));
}

// Omni-family HF ("Hull of Foci"): f1 = farthest from a random seed, f2 =
// farthest from f1; each further focus minimizes the error of being at
// distance `edge` (= d(f1,f2)) from all chosen foci. Runs on a sample.
std::vector<Blob> SelectHf(const std::vector<Blob>& objects,
                           const DistanceFunction& metric, size_t k,
                           size_t sample_size, Rng* rng) {
  const std::vector<Blob> sample = TakeByIndex(
      objects, SampleIndices(objects.size(), std::max<size_t>(sample_size, 64),
                             rng));
  std::vector<Blob> foci;
  if (sample.empty() || k == 0) return foci;

  const Blob& seed = sample[rng->Uniform(sample.size())];
  auto farthest_from = [&](const Blob& from) -> size_t {
    size_t best = 0;
    double best_dist = -1.0;
    for (size_t i = 0; i < sample.size(); ++i) {
      const double d = metric.Distance(sample[i], from);
      if (d > best_dist) {
        best_dist = d;
        best = i;
      }
    }
    return best;
  };

  const size_t f1 = farthest_from(seed);
  foci.push_back(sample[f1]);
  if (k == 1) return foci;
  const size_t f2 = farthest_from(sample[f1]);
  const double edge = metric.Distance(sample[f1], sample[f2]);
  if (edge <= 0.0) return foci;
  foci.push_back(sample[f2]);

  std::set<size_t> used = {f1, f2};
  // err[i] accumulates sum_f |d(sample_i, f) - edge| over chosen foci, so
  // each added focus costs one distance per sample object (HF stays O(|O|)).
  std::vector<double> err(sample.size(), 0.0);
  for (size_t i = 0; i < sample.size(); ++i) {
    err[i] = std::fabs(metric.Distance(sample[i], sample[f1]) - edge) +
             std::fabs(metric.Distance(sample[i], sample[f2]) - edge);
  }
  while (foci.size() < k) {
    size_t best = SIZE_MAX;
    double best_err = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < sample.size(); ++i) {
      if (used.count(i)) continue;
      if (err[i] < best_err) {
        best_err = err[i];
        best = i;
      }
    }
    if (best == SIZE_MAX) break;
    used.insert(best);
    foci.push_back(sample[best]);
    for (size_t i = 0; i < sample.size(); ++i) {
      err[i] += std::fabs(metric.Distance(sample[i], sample[best]) - edge);
    }
  }
  return foci;
}

// Distance matrix: rows = candidates, cols = sample objects.
std::vector<std::vector<double>> DistanceMatrix(
    const std::vector<Blob>& candidates, const std::vector<Blob>& sample,
    const DistanceFunction& metric) {
  std::vector<std::vector<double>> m(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    m[i].resize(sample.size());
    for (size_t j = 0; j < sample.size(); ++j) {
      m[i][j] = metric.Distance(candidates[i], sample[j]);
    }
  }
  return m;
}

double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b) {
  const size_t n = a.size();
  if (n == 0) return 0.0;
  double ma = std::accumulate(a.begin(), a.end(), 0.0) / n;
  double mb = std::accumulate(b.begin(), b.end(), 0.0) / n;
  double cov = 0.0, va = 0.0, vb = 0.0;
  for (size_t i = 0; i < n; ++i) {
    cov += (a[i] - ma) * (b[i] - mb);
    va += (a[i] - ma) * (a[i] - ma);
    vb += (b[i] - mb) * (b[i] - mb);
  }
  if (va <= 0.0 || vb <= 0.0) return 1.0;  // constant vector: maximally bad
  return cov / std::sqrt(va * vb);
}

// Leuken & Veltkamp spacing/vantage selection: greedily pick candidates with
// minimum absolute correlation against already-selected pivots' distance
// vectors, so objects spread evenly in the mapped space.
std::vector<Blob> SelectSpacing(const std::vector<Blob>& objects,
                                const DistanceFunction& metric, size_t k,
                                const PivotSelectionOptions& options,
                                Rng* rng) {
  const auto cand_idx =
      SampleIndices(objects.size(), options.num_candidates, rng);
  const auto sample_idx =
      SampleIndices(objects.size(), options.sample_size, rng);
  const std::vector<Blob> candidates = TakeByIndex(objects, cand_idx);
  const std::vector<Blob> sample = TakeByIndex(objects, sample_idx);
  const auto dist = DistanceMatrix(candidates, sample, metric);

  std::vector<size_t> chosen;
  std::vector<bool> used(candidates.size(), false);
  // First pivot: largest variance of its distance vector.
  size_t first = 0;
  double best_var = -1.0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    double mean =
        std::accumulate(dist[i].begin(), dist[i].end(), 0.0) / sample.size();
    double var = 0.0;
    for (double d : dist[i]) var += (d - mean) * (d - mean);
    if (var > best_var) {
      best_var = var;
      first = i;
    }
  }
  chosen.push_back(first);
  used[first] = true;

  while (chosen.size() < k && chosen.size() < candidates.size()) {
    size_t best = SIZE_MAX;
    double best_score = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (used[i]) continue;
      double max_corr = 0.0;
      for (size_t c : chosen) {
        max_corr =
            std::max(max_corr, std::fabs(PearsonCorrelation(dist[i], dist[c])));
      }
      if (max_corr < best_score) {
        best_score = max_corr;
        best = i;
      }
    }
    if (best == SIZE_MAX) break;
    used[best] = true;
    chosen.push_back(best);
  }
  return TakeByIndex(candidates, chosen);
}

// PCA-style selection (Mao et al.): greedily pick the candidate whose
// distance vector retains the largest variance after Gram-Schmidt
// orthogonalization against the already-selected pivots' vectors — i.e. the
// pivot axes approximate the principal components of the pivot space.
std::vector<Blob> SelectPca(const std::vector<Blob>& objects,
                            const DistanceFunction& metric, size_t k,
                            const PivotSelectionOptions& options, Rng* rng) {
  const auto cand_idx =
      SampleIndices(objects.size(), options.num_candidates, rng);
  const auto sample_idx =
      SampleIndices(objects.size(), options.sample_size, rng);
  const std::vector<Blob> candidates = TakeByIndex(objects, cand_idx);
  const std::vector<Blob> sample = TakeByIndex(objects, sample_idx);
  auto dist = DistanceMatrix(candidates, sample, metric);
  const size_t n = sample.size();
  if (n == 0 || candidates.empty()) return {};

  // Center each row.
  for (auto& row : dist) {
    const double mean = std::accumulate(row.begin(), row.end(), 0.0) / n;
    for (double& d : row) d -= mean;
  }
  auto dot = [n](const std::vector<double>& a, const std::vector<double>& b) {
    double s = 0.0;
    for (size_t i = 0; i < n; ++i) s += a[i] * b[i];
    return s;
  };

  std::vector<size_t> chosen;
  std::vector<bool> used(candidates.size(), false);
  std::vector<std::vector<double>> basis;  // orthonormal residual directions
  while (chosen.size() < k && chosen.size() < candidates.size()) {
    size_t best = SIZE_MAX;
    double best_var = -1.0;
    std::vector<double> best_residual;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (used[i]) continue;
      std::vector<double> r = dist[i];
      for (const auto& b : basis) {
        const double proj = dot(r, b);
        for (size_t j = 0; j < n; ++j) r[j] -= proj * b[j];
      }
      const double var = dot(r, r);
      if (var > best_var) {
        best_var = var;
        best = i;
        best_residual = std::move(r);
      }
    }
    if (best == SIZE_MAX || best_var <= 1e-12) break;
    const double norm = std::sqrt(best_var);
    for (double& x : best_residual) x /= norm;
    basis.push_back(std::move(best_residual));
    used[best] = true;
    chosen.push_back(best);
  }
  return TakeByIndex(candidates, chosen);
}

// The paper's HFI (Section 3.2): HF produces |CP| outlier candidates; pivots
// are then selected incrementally from CP, each step adding the candidate
// that maximizes precision(P) over sampled object pairs.
std::vector<Blob> SelectHfi(const std::vector<Blob>& objects,
                            const DistanceFunction& metric, size_t k,
                            const PivotSelectionOptions& options, Rng* rng) {
  std::vector<Blob> candidates =
      SelectHf(objects, metric, options.num_candidates, options.sample_size,
               rng);
  if (candidates.empty()) return candidates;

  // Sample object pairs and their true distances.
  const auto sample_idx =
      SampleIndices(objects.size(),
                    std::min(objects.size(), options.sample_size), rng);
  const std::vector<Blob> sample = TakeByIndex(objects, sample_idx);
  struct Pair {
    size_t i, j;
    double d;
  };
  std::vector<Pair> pairs;
  pairs.reserve(options.num_pairs);
  for (size_t t = 0; t < options.num_pairs && sample.size() >= 2; ++t) {
    size_t i = rng->Uniform(sample.size());
    size_t j = rng->Uniform(sample.size());
    if (i == j) continue;
    const double d = metric.Distance(sample[i], sample[j]);
    if (d <= 0.0) continue;
    pairs.push_back({i, j, d});
  }
  if (pairs.empty()) {
    candidates.resize(std::min(k, candidates.size()));
    return candidates;
  }

  // Candidate-to-sample distances.
  const auto dist = DistanceMatrix(candidates, sample, metric);

  // cur[t] = max over chosen pivots of |d(o_i,p) - d(o_j,p)| for pair t.
  std::vector<double> cur(pairs.size(), 0.0);
  std::vector<bool> used(candidates.size(), false);
  std::vector<Blob> result;
  while (result.size() < k && result.size() < candidates.size()) {
    size_t best = SIZE_MAX;
    double best_precision = -1.0;
    for (size_t c = 0; c < candidates.size(); ++c) {
      if (used[c]) continue;
      double total = 0.0;
      for (size_t t = 0; t < pairs.size(); ++t) {
        const double lb =
            std::fabs(dist[c][pairs[t].i] - dist[c][pairs[t].j]);
        total += std::max(cur[t], lb) / pairs[t].d;
      }
      if (total > best_precision) {
        best_precision = total;
        best = c;
      }
    }
    if (best == SIZE_MAX) break;
    used[best] = true;
    for (size_t t = 0; t < pairs.size(); ++t) {
      cur[t] = std::max(cur[t],
                        std::fabs(dist[best][pairs[t].i] -
                                  dist[best][pairs[t].j]));
    }
    result.push_back(candidates[best]);
  }
  return result;
}

}  // namespace

const char* PivotSelectorName(PivotSelectorType type) {
  switch (type) {
    case PivotSelectorType::kRandom:
      return "Random";
    case PivotSelectorType::kHf:
      return "HF";
    case PivotSelectorType::kSpacing:
      return "Spacing";
    case PivotSelectorType::kPca:
      return "PCA";
    case PivotSelectorType::kHfi:
      return "HFI";
  }
  return "Unknown";
}

std::vector<Blob> SelectPivots(PivotSelectorType type,
                               const std::vector<Blob>& objects,
                               const DistanceFunction& metric,
                               const PivotSelectionOptions& options) {
  Rng rng(options.seed);
  const size_t k = std::min(options.num_pivots, objects.size());
  switch (type) {
    case PivotSelectorType::kRandom:
      return SelectRandom(objects, k, &rng);
    case PivotSelectorType::kHf:
      return SelectHf(objects, metric, k, options.sample_size, &rng);
    case PivotSelectorType::kSpacing:
      return SelectSpacing(objects, metric, k, options, &rng);
    case PivotSelectorType::kPca:
      return SelectPca(objects, metric, k, options, &rng);
    case PivotSelectorType::kHfi:
      return SelectHfi(objects, metric, k, options, &rng);
  }
  return {};
}

double PivotSetPrecision(const PivotTable& pivots,
                         const std::vector<Blob>& objects,
                         const DistanceFunction& metric, size_t num_pairs,
                         uint64_t seed) {
  if (pivots.empty() || objects.size() < 2) return 0.0;
  Rng rng(seed);
  double total = 0.0;
  size_t counted = 0;
  for (size_t t = 0; t < num_pairs; ++t) {
    const size_t i = rng.Uniform(objects.size());
    const size_t j = rng.Uniform(objects.size());
    if (i == j) continue;
    const double d = metric.Distance(objects[i], objects[j]);
    if (d <= 0.0) continue;
    const auto phi_i = pivots.Map(objects[i], metric);
    const auto phi_j = pivots.Map(objects[j], metric);
    double lb = 0.0;
    for (size_t p = 0; p < phi_i.size(); ++p) {
      lb = std::max(lb, std::fabs(phi_i[p] - phi_j[p]));
    }
    total += lb / d;
    ++counted;
  }
  return counted == 0 ? 0.0 : total / counted;
}

double IntrinsicDimensionality(const std::vector<Blob>& objects,
                               const DistanceFunction& metric,
                               size_t num_pairs, uint64_t seed) {
  if (objects.size() < 2) return 0.0;
  Rng rng(seed);
  std::vector<double> dists;
  dists.reserve(num_pairs);
  for (size_t t = 0; t < num_pairs; ++t) {
    const size_t i = rng.Uniform(objects.size());
    const size_t j = rng.Uniform(objects.size());
    if (i == j) continue;
    dists.push_back(metric.Distance(objects[i], objects[j]));
  }
  if (dists.size() < 2) return 0.0;
  const double mean =
      std::accumulate(dists.begin(), dists.end(), 0.0) / dists.size();
  double var = 0.0;
  for (double d : dists) var += (d - mean) * (d - mean);
  var /= dists.size();
  if (var <= 0.0) return 0.0;
  return mean * mean / (2.0 * var);
}

}  // namespace spb
