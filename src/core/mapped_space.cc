#include "core/mapped_space.h"

#include <algorithm>
#include <cmath>

namespace spb {

int SfcBitsFor(size_t num_pivots, uint32_t num_cells) {
  int bits = 1;
  while ((1ull << bits) < num_cells) ++bits;
  const int avail = static_cast<int>(64 / std::max<size_t>(num_pivots, 1));
  return std::clamp(bits, 1, avail);
}

namespace {

// Builds the discretizer, coarsening delta when the requested grid would not
// fit the per-dimension bit budget.
Discretizer MakeDiscretizer(size_t num_pivots, const DistanceFunction& metric,
                            double delta) {
  const double d_plus = metric.max_distance();
  Discretizer disc(d_plus, metric.is_discrete(), delta);
  const int bits = SfcBitsFor(num_pivots, disc.num_cells());
  const uint32_t limit = 1u << bits;
  if (disc.num_cells() > limit) {
    // Grid too fine for the key width: coarsen (continuous semantics even
    // for discrete metrics — intervals keep every bound safe).
    const double coarse = d_plus / (limit - 1);
    return Discretizer(d_plus, /*discrete=*/false, coarse);
  }
  return disc;
}

}  // namespace

MappedSpace::MappedSpace(PivotTable pivots, const DistanceFunction& metric,
                         double delta, CurveType curve_type)
    : pivots_(std::move(pivots)),
      disc_(MakeDiscretizer(pivots_.size(), metric, delta)) {
  const int bits = SfcBitsFor(pivots_.size(), disc_.num_cells());
  curve_ = SpaceFillingCurve::Create(curve_type, pivots_.size(), bits);
}

void MappedSpace::KeysFor(const double* phis, size_t count,
                          uint64_t* keys) const {
  // dims * bits <= 64 bounds dims by 64, so every block holds >= 64 points.
  constexpr size_t kBlockCells = 4096;
  constexpr size_t kMaxBlock = 256;
  uint32_t cells[kBlockCells];
  uint32_t tmp[kMaxBlock];
  const size_t n = dims();
  const size_t block = std::min(kMaxBlock, kBlockCells / n);
  for (size_t start = 0; start < count; start += block) {
    const size_t m = std::min(block, count - start);
    const double* rows = phis + start * n;
    for (size_t i = 0; i < m; ++i) {
      for (size_t d = 0; d < n; ++d) {
        cells[d * m + i] = disc_.ToCell(rows[i * n + d]);
      }
    }
    curve_->EncodeBatch(cells, m, keys + start, tmp);
  }
}

void MappedSpace::RangeRegion(const std::vector<double>& phi_q, double r,
                              std::vector<uint32_t>* lo,
                              std::vector<uint32_t>* hi) const {
  const size_t n = phi_q.size();
  lo->resize(n);
  hi->resize(n);
  for (size_t i = 0; i < n; ++i) {
    uint32_t gmin = 0, gmax = disc_.max_cell();
    disc_.CellRange(phi_q[i] - r, phi_q[i] + r, &gmin, &gmax);
    (*lo)[i] = gmin;
    (*hi)[i] = gmax;
  }
}

bool MappedSpace::CellInBox(const std::vector<uint32_t>& cell,
                            const std::vector<uint32_t>& lo,
                            const std::vector<uint32_t>& hi) {
  for (size_t i = 0; i < cell.size(); ++i) {
    if (cell[i] < lo[i] || cell[i] > hi[i]) return false;
  }
  return true;
}

bool MappedSpace::BoxesIntersect(const std::vector<uint32_t>& alo,
                                 const std::vector<uint32_t>& ahi,
                                 const std::vector<uint32_t>& blo,
                                 const std::vector<uint32_t>& bhi) {
  return BoxesIntersect(alo.data(), ahi.data(), blo.data(), bhi.data(),
                        alo.size());
}

bool MappedSpace::BoxesIntersect(const uint32_t* alo, const uint32_t* ahi,
                                 const uint32_t* blo, const uint32_t* bhi,
                                 size_t dims) {
  for (size_t i = 0; i < dims; ++i) {
    if (ahi[i] < blo[i] || bhi[i] < alo[i]) return false;
  }
  return true;
}

bool MappedSpace::BoxContains(const std::vector<uint32_t>& olo,
                              const std::vector<uint32_t>& ohi,
                              const std::vector<uint32_t>& ilo,
                              const std::vector<uint32_t>& ihi) {
  return BoxContains(olo.data(), ohi.data(), ilo.data(), ihi.data(),
                     olo.size());
}

bool MappedSpace::BoxContains(const uint32_t* olo, const uint32_t* ohi,
                              const uint32_t* ilo, const uint32_t* ihi,
                              size_t dims) {
  for (size_t i = 0; i < dims; ++i) {
    if (ilo[i] < olo[i] || ihi[i] > ohi[i]) return false;
  }
  return true;
}

bool MappedSpace::IntersectBoxes(const std::vector<uint32_t>& alo,
                                 const std::vector<uint32_t>& ahi,
                                 const std::vector<uint32_t>& blo,
                                 const std::vector<uint32_t>& bhi,
                                 std::vector<uint32_t>* lo,
                                 std::vector<uint32_t>* hi) {
  return IntersectBoxes(alo.data(), ahi.data(), blo.data(), bhi.data(),
                        alo.size(), lo, hi);
}

bool MappedSpace::IntersectBoxes(const uint32_t* alo, const uint32_t* ahi,
                                 const uint32_t* blo, const uint32_t* bhi,
                                 size_t dims, std::vector<uint32_t>* lo,
                                 std::vector<uint32_t>* hi) {
  lo->resize(dims);
  hi->resize(dims);
  for (size_t i = 0; i < dims; ++i) {
    (*lo)[i] = std::max(alo[i], blo[i]);
    (*hi)[i] = std::min(ahi[i], bhi[i]);
    if ((*lo)[i] > (*hi)[i]) return false;
  }
  return true;
}

void MappedSpace::DecodeKeys(const uint64_t* keys, size_t count,
                             CellBlock* block) const {
  block->count = count;
  block->dims = dims();
  block->cells.resize(count * block->dims);
  block->scratch.resize(count);
  // Whole-leaf SoA decode: fills the dimension-major layout directly and
  // runs the Hilbert transform lane-parallel across keys (was the dominant
  // cost of cold leaf verification).
  curve_->DecodeBatch(keys, count, block->cells.data(),
                      block->scratch.data());
}

void MappedSpace::BatchCellInBox(const CellBlock& block,
                                 const std::vector<uint32_t>& lo,
                                 const std::vector<uint32_t>& hi,
                                 std::vector<uint8_t>* out) {
  const size_t n = block.count;
  out->assign(n, 1);
  uint8_t* flags = out->data();
  for (size_t d = 0; d < block.dims; ++d) {
    const uint32_t* c = block.cells.data() + d * n;
    const uint32_t dlo = lo[d];
    const uint32_t dhi = hi[d];
    for (size_t i = 0; i < n; ++i) {
      flags[i] = uint8_t(flags[i] & (c[i] >= dlo) & (c[i] <= dhi));
    }
  }
}

void MappedSpace::BatchLowerBoundToCell(const CellBlock& block,
                                        const std::vector<double>& phi_q,
                                        std::vector<double>* out) const {
  const size_t n = block.count;
  out->assign(n, 0.0);
  double* best = out->data();
  const double delta = disc_.delta();
  const bool discrete = disc_.discrete();
  for (size_t d = 0; d < block.dims; ++d) {
    const uint32_t* c = block.cells.data() + d * n;
    const double q = phi_q[d];
    for (size_t i = 0; i < n; ++i) {
      const double cell_lo = c[i] * delta;
      const double cell_hi =
          discrete ? static_cast<double>(c[i]) : (c[i] + 1) * delta;
      // Branchless form of Discretizer::LowerBound: whichever side q falls
      // on, the selected subtraction is the same one the scalar code
      // performs, and the other operand of max() is <= 0 — bit-identical.
      const double term = std::max(std::max(cell_lo - q, q - cell_hi), 0.0);
      best[i] = std::max(best[i], term);
    }
  }
}

void MappedSpace::BatchGuaranteedWithin(const CellBlock& block,
                                        const std::vector<double>& phi_q,
                                        double r,
                                        std::vector<uint8_t>* out) const {
  const size_t n = block.count;
  out->assign(n, 0);
  uint8_t* flags = out->data();
  const double delta = disc_.delta();
  const bool discrete = disc_.discrete();
  for (size_t d = 0; d < block.dims; ++d) {
    const uint32_t* c = block.cells.data() + d * n;
    const double slack = r - phi_q[d];
    for (size_t i = 0; i < n; ++i) {
      const double upper =
          discrete ? static_cast<double>(c[i]) : (c[i] + 1) * delta;
      flags[i] = uint8_t(flags[i] | (upper <= slack));
    }
  }
}

double MappedSpace::LowerBoundToCell(const std::vector<double>& phi_q,
                                     const std::vector<uint32_t>& cell) const {
  double best = 0.0;
  for (size_t i = 0; i < phi_q.size(); ++i) {
    best = std::max(best, disc_.LowerBound(phi_q[i], cell[i]));
  }
  return best;
}

double MappedSpace::LowerBoundToBox(const std::vector<double>& phi_q,
                                    const std::vector<uint32_t>& lo,
                                    const std::vector<uint32_t>& hi) const {
  return LowerBoundToBox(phi_q, lo.data(), hi.data());
}

double MappedSpace::LowerBoundToBox(const std::vector<double>& phi_q,
                                    const uint32_t* lo,
                                    const uint32_t* hi) const {
  double best = 0.0;
  for (size_t i = 0; i < phi_q.size(); ++i) {
    const double interval_lo = disc_.CellLow(lo[i]);
    const double interval_hi = disc_.CellHigh(hi[i]);
    double d = 0.0;
    if (phi_q[i] < interval_lo) {
      d = interval_lo - phi_q[i];
    } else if (phi_q[i] > interval_hi) {
      d = phi_q[i] - interval_hi;
    }
    best = std::max(best, d);
  }
  return best;
}

bool MappedSpace::GuaranteedWithin(const std::vector<double>& phi_q,
                                   const std::vector<uint32_t>& cell,
                                   double r) const {
  for (size_t i = 0; i < phi_q.size(); ++i) {
    if (disc_.UpperBound(cell[i]) <= r - phi_q[i]) return true;
  }
  return false;
}

}  // namespace spb
