#include "sfc/sfc.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>

#include "kernels/kernels.h"
#include "sfc/sfc_batch.h"

#define SPB_SFC_BATCH_VARIANT portable
#include "sfc/sfc_batch_impl.h"
#undef SPB_SFC_BATCH_VARIANT

namespace spb {

namespace sfc_batch {

// Defined in sfc_batch_avx2.cc; nullptr in portable -DSPB_SIMD=OFF builds
// and on non-x86 targets.
const BatchTable* GetAvx2BatchTable();

namespace {

bool BatchSimdDisabledByEnv() {
  const char* v = std::getenv("SPB_DISABLE_SIMD");
  return v != nullptr && std::strcmp(v, "0") != 0;
}

}  // namespace

const BatchTable& Active() {
  static const BatchTable* table = [] {
#if defined(__x86_64__) || defined(__i386__)
    if (const BatchTable* t = GetAvx2BatchTable();
        t != nullptr && !BatchSimdDisabledByEnv() &&
        __builtin_cpu_supports("avx2")) {
      return t;
    }
#endif
    return &portable::kTable;
  }();
  return *table;
}

}  // namespace sfc_batch

namespace {

// Bit-interleaves the per-dimension words MSB-first into a single key:
// bit q of dimension i lands at key bit (q * n + (n - 1 - i)) from the
// bottom of the used range. Both curves share this packing; Hilbert first
// transforms the coordinates into Skilling's "transpose" form.
//
// The packing is a bit gather/scatter with one fixed mask per dimension, so
// it runs on the dispatched PEXT/PDEP kernels (src/kernels/): one
// instruction per dimension on BMI2 hardware instead of a loop over all
// dims * bits key bits. Decode is the hottest operation of a range query
// (every leaf entry's key is decoded for Lemma 1), which is why this matters.
class BitInterleaver {
 public:
  BitInterleaver(size_t dims, int bits)
      : pext_(kernels::Pext()), pdep_(kernels::Pdep()), masks_(dims, 0) {
    for (size_t i = 0; i < dims; ++i) {
      for (int q = 0; q < bits; ++q) {
        masks_[i] |= uint64_t{1}
                     << (static_cast<size_t>(q) * dims + (dims - 1 - i));
      }
    }
  }

  uint64_t Interleave(const std::vector<uint32_t>& x) const {
    uint64_t key = 0;
    for (size_t i = 0; i < masks_.size(); ++i) {
      key |= pdep_(x[i], masks_[i]);
    }
    return key;
  }

  void Deinterleave(uint64_t key, std::vector<uint32_t>* x) const {
    for (size_t i = 0; i < masks_.size(); ++i) {
      (*x)[i] = static_cast<uint32_t>(pext_(key, masks_[i]));
    }
  }

  const uint64_t* masks() const { return masks_.data(); }
  kernels::BitGatherFn pext() const { return pext_; }
  kernels::BitScatterFn pdep() const { return pdep_; }

 private:
  kernels::BitGatherFn pext_;
  kernels::BitScatterFn pdep_;
  std::vector<uint64_t> masks_;
};

// J. Skilling, "Programming the Hilbert curve", AIP Conf. Proc. 707 (2004).
// Converts coordinates to the transposed Hilbert index, in place.
//
// The per-bit swap/complement step branches on a data bit that is close to
// uniformly random, so the branchful form mispredicts about half the time in
// the leaf decode hot loop. Both transforms compute the identical integer
// arithmetic with masks instead: `on` is all-ones exactly when the original
// then-branch would run, which zeroes the swap term `t` and leaves only the
// complement `p`; keys and coordinates are bit-for-bit unchanged.
void AxesToTranspose(std::vector<uint32_t>& x, int b) {
  const size_t n = x.size();
  uint32_t m = 1u << (b - 1);
  // Inverse undo.
  for (uint32_t q = m; q > 1; q >>= 1) {
    const uint32_t p = q - 1;
    for (size_t i = 0; i < n; ++i) {
      const uint32_t on = 0u - static_cast<uint32_t>((x[i] & q) != 0);
      const uint32_t t = (x[0] ^ x[i]) & p & ~on;
      x[0] ^= (p & on) | t;
      x[i] ^= t;
    }
  }
  // Gray encode.
  for (size_t i = 1; i < n; ++i) x[i] ^= x[i - 1];
  uint32_t t = 0;
  for (uint32_t q = m; q > 1; q >>= 1) {
    t ^= (q - 1) & (0u - static_cast<uint32_t>((x[n - 1] & q) != 0));
  }
  for (size_t i = 0; i < n; ++i) x[i] ^= t;
}

// Inverse of AxesToTranspose.
void TransposeToAxes(std::vector<uint32_t>& x, int b) {
  const size_t n = x.size();
  const uint32_t nbit = 2u << (b - 1);
  // Gray decode by H ^ (H/2).
  uint32_t t = x[n - 1] >> 1;
  for (size_t i = n - 1; i > 0; --i) x[i] ^= x[i - 1];
  x[0] ^= t;
  // Undo excess work.
  for (uint32_t q = 2; q != nbit; q <<= 1) {
    const uint32_t p = q - 1;
    for (size_t i = n; i-- > 0;) {
      const uint32_t on = 0u - static_cast<uint32_t>((x[i] & q) != 0);
      const uint32_t t2 = (x[0] ^ x[i]) & p & ~on;
      x[0] ^= (p & on) | t2;
      x[i] ^= t2;
    }
  }
}

class HilbertCurve final : public SpaceFillingCurve {
 public:
  HilbertCurve(size_t dims, int bits)
      : SpaceFillingCurve(dims, bits), codec_(dims, bits) {}

  uint64_t Encode(const std::vector<uint32_t>& coords) const override {
    std::vector<uint32_t> x = coords;
    AxesToTranspose(x, bits_);
    return codec_.Interleave(x);
  }

  void Decode(uint64_t key, std::vector<uint32_t>* coords) const override {
    coords->resize(dims_);
    codec_.Deinterleave(key, coords);
    TransposeToAxes(*coords, bits_);
  }

  void DecodeBatch(const uint64_t* keys, size_t count,
                   uint32_t* cells_dim_major, uint32_t* tmp) const override {
    sfc_batch::Active().decode_hilbert(keys, count, codec_.masks(), dims_,
                                       bits_, codec_.pext(), cells_dim_major,
                                       tmp);
  }

  void EncodeBatch(uint32_t* cells_dim_major, size_t count, uint64_t* keys,
                   uint32_t* tmp) const override {
    sfc_batch::Active().encode_hilbert(cells_dim_major, count, codec_.masks(),
                                       dims_, bits_, codec_.pdep(), keys, tmp);
  }

  CurveType type() const override { return CurveType::kHilbert; }

 private:
  BitInterleaver codec_;
};

class ZOrderCurve final : public SpaceFillingCurve {
 public:
  ZOrderCurve(size_t dims, int bits)
      : SpaceFillingCurve(dims, bits), codec_(dims, bits) {}

  uint64_t Encode(const std::vector<uint32_t>& coords) const override {
    return codec_.Interleave(coords);
  }

  void Decode(uint64_t key, std::vector<uint32_t>* coords) const override {
    coords->resize(dims_);
    codec_.Deinterleave(key, coords);
  }

  void DecodeBatch(const uint64_t* keys, size_t count,
                   uint32_t* cells_dim_major, uint32_t* tmp) const override {
    (void)tmp;
    sfc_batch::Active().decode_morton(keys, count, codec_.masks(), dims_,
                                      codec_.pext(), cells_dim_major);
  }

  void EncodeBatch(uint32_t* cells_dim_major, size_t count, uint64_t* keys,
                   uint32_t* tmp) const override {
    sfc_batch::Active().encode_morton(cells_dim_major, count, codec_.masks(),
                                      dims_, bits_, codec_.pdep(), keys, tmp);
  }

  CurveType type() const override { return CurveType::kZOrder; }

 private:
  BitInterleaver codec_;
};

}  // namespace

void SpaceFillingCurve::DecodeBatch(const uint64_t* keys, size_t count,
                                    uint32_t* cells_dim_major,
                                    uint32_t* tmp) const {
  (void)tmp;
  std::vector<uint32_t> scratch;
  for (size_t i = 0; i < count; ++i) {
    Decode(keys[i], &scratch);
    for (size_t d = 0; d < dims_; ++d) {
      cells_dim_major[d * count + i] = scratch[d];
    }
  }
}

std::unique_ptr<SpaceFillingCurve> SpaceFillingCurve::Create(CurveType type,
                                                             size_t dims,
                                                             int bits) {
  assert(dims >= 1 && bits >= 1);
  assert(dims * static_cast<size_t>(bits) <= 64);
  switch (type) {
    case CurveType::kHilbert:
      return std::make_unique<HilbertCurve>(dims, bits);
    case CurveType::kZOrder:
      return std::make_unique<ZOrderCurve>(dims, bits);
  }
  return nullptr;
}

uint64_t RegionCellCount(const std::vector<uint32_t>& lo,
                         const std::vector<uint32_t>& hi) {
  uint64_t count = 1;
  for (size_t i = 0; i < lo.size(); ++i) {
    if (hi[i] < lo[i]) return 0;
    const uint64_t side = static_cast<uint64_t>(hi[i]) - lo[i] + 1;
    if (count > UINT64_MAX / side) return UINT64_MAX;
    count *= side;
  }
  return count;
}

void EnumerateRegionKeysInto(const SpaceFillingCurve& curve,
                             const std::vector<uint32_t>& lo,
                             const std::vector<uint32_t>& hi,
                             std::vector<uint64_t>* keys) {
  keys->clear();
  const uint64_t count = RegionCellCount(lo, hi);
  if (count == 0) return;
  keys->reserve(count);

  std::vector<uint32_t> cell = lo;
  const size_t n = lo.size();
  while (true) {
    keys->push_back(curve.Encode(cell));
    // Odometer increment over the box.
    size_t i = 0;
    while (i < n) {
      if (cell[i] < hi[i]) {
        ++cell[i];
        break;
      }
      cell[i] = lo[i];
      ++i;
    }
    if (i == n) break;
  }
  std::sort(keys->begin(), keys->end());
}

std::vector<uint64_t> EnumerateRegionKeys(const SpaceFillingCurve& curve,
                                          const std::vector<uint32_t>& lo,
                                          const std::vector<uint32_t>& hi) {
  std::vector<uint64_t> keys;
  EnumerateRegionKeysInto(curve, lo, hi, &keys);
  return keys;
}

}  // namespace spb
