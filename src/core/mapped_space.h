#ifndef SPB_CORE_MAPPED_SPACE_H_
#define SPB_CORE_MAPPED_SPACE_H_

#include <memory>
#include <vector>

#include "common/blob.h"
#include "metrics/discretizer.h"
#include "metrics/distance.h"
#include "pivots/pivot_table.h"
#include "sfc/sfc.h"

namespace spb {

/// The geometry of the SPB-tree's two-stage mapping (Fig. 1): pivot table
/// (metric space -> vector space), delta-discretizer (vector space -> cell
/// grid) and space-filling curve (cell grid -> SFC keys). All pruning
/// arithmetic used by the query, join and cost-model code lives here so that
/// every lemma is implemented exactly once.
class MappedSpace {
 public:
  /// Builds the mapping for `pivots` over `metric`. `delta` is the paper's
  /// delta parameter for continuous metrics (ignored for discrete ones).
  /// Bits per SFC dimension are auto-derived from d+/delta and clamped so
  /// keys fit 64 bits; if clamped, delta is coarsened accordingly (the grid
  /// only ever gets coarser — pruning stays safe, collisions just rise).
  MappedSpace(PivotTable pivots, const DistanceFunction& metric, double delta,
              CurveType curve_type);

  const PivotTable& pivots() const { return pivots_; }
  const Discretizer& discretizer() const { return disc_; }
  const SpaceFillingCurve& curve() const { return *curve_; }
  size_t dims() const { return pivots_.size(); }

  /// phi(o): exact distances to the pivots (costs dims() distance calls).
  std::vector<double> Phi(const Blob& o, const DistanceFunction& metric) const {
    return pivots_.Map(o, metric);
  }

  /// Cell coordinates of a mapped vector.
  std::vector<uint32_t> ToCells(const std::vector<double>& phi) const {
    std::vector<uint32_t> cells(phi.size());
    for (size_t i = 0; i < phi.size(); ++i) cells[i] = disc_.ToCell(phi[i]);
    return cells;
  }

  /// SFC key of an object (the B+-tree key).
  uint64_t KeyFor(const std::vector<double>& phi) const {
    return KeyFor(phi.data());
  }

  /// Same, from a raw row of dims() distances (a PivotTable::MapBatch() row).
  uint64_t KeyFor(const double* phi) const {
    uint64_t key;
    KeysFor(phi, 1, &key);
    return key;
  }

  /// Keys `count` row-major mapped vectors (PivotTable::MapBatch() layout)
  /// into keys[0..count): cells are staged dim-major in a stack block and
  /// encoded by SpaceFillingCurve::EncodeBatch, so no call allocates.
  /// Bit-identical to per-row KeyFor.
  void KeysFor(const double* phis, size_t count, uint64_t* keys) const;

  /// A batch of decoded cells in structure-of-arrays layout: `cells[d *
  /// count + i]` is dimension d of entry i, so the per-dimension sweeps of
  /// the batch lemma checks stream over contiguous memory (and
  /// auto-vectorize). Filled by DecodeKeys(); reuse one instance across
  /// leaves to amortize the allocations.
  struct CellBlock {
    size_t count = 0;
    size_t dims = 0;
    std::vector<uint32_t> cells;    // dims * count entries, dimension-major
    std::vector<uint32_t> scratch;  // count words, batch-decode scratch row

    uint32_t At(size_t d, size_t i) const { return cells[d * count + i]; }
  };

  /// Decodes `count` SFC keys (one leaf's worth) into `block`.
  void DecodeKeys(const uint64_t* keys, size_t count, CellBlock* block) const;

  /// Batch Lemma 1: out[i] != 0 iff entry i's cell lies in [lo, hi].
  /// Bit-for-bit equivalent to calling CellInBox per entry.
  static void BatchCellInBox(const CellBlock& block,
                             const std::vector<uint32_t>& lo,
                             const std::vector<uint32_t>& hi,
                             std::vector<uint8_t>* out);

  /// Batch MIND(q, cell): out[i] = LowerBoundToCell(phi_q, cell_i), bit-
  /// identical to the scalar loop (the branchless max(lo-q, q-hi, 0) form
  /// evaluates the exact same subtraction in every case).
  void BatchLowerBoundToCell(const CellBlock& block,
                             const std::vector<double>& phi_q,
                             std::vector<double>* out) const;

  /// Batch Lemma 2: out[i] != 0 iff GuaranteedWithin(phi_q, cell_i, r).
  void BatchGuaranteedWithin(const CellBlock& block,
                             const std::vector<double>& phi_q, double r,
                             std::vector<uint8_t>* out) const;

  /// The mapped range region RR(q, r) (Lemma 1) as an inclusive cell box.
  /// Always non-empty for r >= 0.
  void RangeRegion(const std::vector<double>& phi_q, double r,
                   std::vector<uint32_t>* lo, std::vector<uint32_t>* hi) const;

  /// True iff `cell` lies inside the inclusive box [lo, hi].
  static bool CellInBox(const std::vector<uint32_t>& cell,
                        const std::vector<uint32_t>& lo,
                        const std::vector<uint32_t>& hi);

  /// True iff boxes [alo, ahi] and [blo, bhi] intersect.
  static bool BoxesIntersect(const std::vector<uint32_t>& alo,
                             const std::vector<uint32_t>& ahi,
                             const std::vector<uint32_t>& blo,
                             const std::vector<uint32_t>& bhi);

  /// True iff box [ilo, ihi] is contained in box [olo, ohi].
  static bool BoxContains(const std::vector<uint32_t>& olo,
                          const std::vector<uint32_t>& ohi,
                          const std::vector<uint32_t>& ilo,
                          const std::vector<uint32_t>& ihi);

  /// Intersection of two boxes; returns false if empty.
  static bool IntersectBoxes(const std::vector<uint32_t>& alo,
                             const std::vector<uint32_t>& ahi,
                             const std::vector<uint32_t>& blo,
                             const std::vector<uint32_t>& bhi,
                             std::vector<uint32_t>* lo,
                             std::vector<uint32_t>* hi);

  /// MIND(q, cell): lower bound of d(q, o) for an object whose mapped vector
  /// falls in `cell`, given exact phi(q). This is D(phi(q), phi(o)) computed
  /// from cell intervals — never exceeds the true distance.
  double LowerBoundToCell(const std::vector<double>& phi_q,
                          const std::vector<uint32_t>& cell) const;

  /// MIND(q, E): lower bound of d(q, o) over all objects mapped inside the
  /// MBB box [lo, hi] (Lemma 3's pruning distance).
  double LowerBoundToBox(const std::vector<double>& phi_q,
                         const std::vector<uint32_t>& lo,
                         const std::vector<uint32_t>& hi) const;

  /// Lemma 2: true when an object in `cell` is guaranteed to be within
  /// distance r of q — some pivot p_i has d(o,p_i) <= r - d(q,p_i) — so the
  /// distance computation d(q, o) can be skipped entirely.
  bool GuaranteedWithin(const std::vector<double>& phi_q,
                        const std::vector<uint32_t>& cell, double r) const;

  /// Raw-pointer forms of the box predicates (each corner is `dims`
  /// coordinates). The decoded-node cache stores internal-entry MBB corners
  /// entry-major (bptree/node_cache.h), so warm traversals call these
  /// directly on cached corner rows without materializing vectors; the
  /// vector overloads above forward here.
  static bool BoxesIntersect(const uint32_t* alo, const uint32_t* ahi,
                             const uint32_t* blo, const uint32_t* bhi,
                             size_t dims);
  static bool BoxContains(const uint32_t* olo, const uint32_t* ohi,
                          const uint32_t* ilo, const uint32_t* ihi,
                          size_t dims);
  static bool IntersectBoxes(const uint32_t* alo, const uint32_t* ahi,
                             const uint32_t* blo, const uint32_t* bhi,
                             size_t dims, std::vector<uint32_t>* lo,
                             std::vector<uint32_t>* hi);
  double LowerBoundToBox(const std::vector<double>& phi_q, const uint32_t* lo,
                         const uint32_t* hi) const;

 private:
  PivotTable pivots_;
  Discretizer disc_;
  std::unique_ptr<SpaceFillingCurve> curve_;
};

/// Derives the per-dimension SFC bit width for `num_pivots` dimensions and a
/// grid of `num_cells` cells, clamped so num_pivots * bits <= 64.
int SfcBitsFor(size_t num_pivots, uint32_t num_cells);

}  // namespace spb

#endif  // SPB_CORE_MAPPED_SPACE_H_
