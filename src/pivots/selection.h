#ifndef SPB_PIVOTS_SELECTION_H_
#define SPB_PIVOTS_SELECTION_H_

#include <cstdint>
#include <vector>

#include "common/blob.h"
#include "metrics/distance.h"
#include "pivots/pivot_table.h"

namespace spb {

/// Pivot selection algorithms evaluated by the paper (Fig. 9). HFI is the
/// paper's contribution; the others are the baselines it compares against.
enum class PivotSelectorType : uint8_t {
  kRandom = 0,   // uniform sample (the M-Index's default policy)
  kHf = 2,       // Omni-family "Hull of Foci" [6]
  kSpacing = 3,  // minimum-correlation vantage objects [36]
  kPca = 4,      // PCA-style dimension-reduction selection [37]
  kHfi = 5,      // the paper's HF-based Incremental selection (Sec. 3.2)
};

const char* PivotSelectorName(PivotSelectorType type);

struct PivotSelectionOptions {
  /// |P| — how many pivots to select.
  size_t num_pivots = 5;
  /// |CP| for HFI — size of the HF candidate (outlier) pool. The paper fixes
  /// it at 40.
  size_t num_candidates = 40;
  /// Objects sampled for quality evaluation (precision, correlation,
  /// variance criteria).
  size_t sample_size = 500;
  /// Object pairs sampled when evaluating precision(P).
  size_t num_pairs = 500;
  uint64_t seed = 20150415;
};

/// Selects `options.num_pivots` pivots from `objects` using `type`.
/// Distances are evaluated through `metric` (wrap it in a CountingDistance
/// to measure selection cost).
std::vector<Blob> SelectPivots(PivotSelectorType type,
                               const std::vector<Blob>& objects,
                               const DistanceFunction& metric,
                               const PivotSelectionOptions& options);

/// The paper's Definition 1: the average ratio between mapped-space and
/// metric-space distances over sampled object pairs, in [0, 1]. Higher is
/// better (1 = the mapping preserves all distances).
double PivotSetPrecision(const PivotTable& pivots,
                         const std::vector<Blob>& objects,
                         const DistanceFunction& metric, size_t num_pairs,
                         uint64_t seed);

/// rho = mu^2 / (2 sigma^2) over sampled pairwise distances — the intrinsic
/// dimensionality estimate of Chavez et al. the paper uses to choose |P|.
double IntrinsicDimensionality(const std::vector<Blob>& objects,
                               const DistanceFunction& metric,
                               size_t num_pairs, uint64_t seed);

}  // namespace spb

#endif  // SPB_PIVOTS_SELECTION_H_
