#ifndef SPB_SFC_SFC_H_
#define SPB_SFC_SFC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace spb {

/// Which space-filling curve maps mapped vectors to B+-tree keys. The paper
/// defaults to Hilbert (better clustering, Table 4) and requires Z-order for
/// similarity joins (Lemma 6 is a Z-order monotonicity property).
enum class CurveType : uint8_t {
  kHilbert = 0,
  kZOrder = 1,
};

/// A bijection between points of the cell grid {0..2^bits-1}^dims and the
/// integer interval [0, 2^(dims*bits)). dims*bits must be <= 64 so keys fit
/// a uint64_t B+-tree key.
class SpaceFillingCurve {
 public:
  virtual ~SpaceFillingCurve() = default;

  /// Maps grid coordinates to the curve position. coords.size() == dims and
  /// every coordinate must be < 2^bits.
  virtual uint64_t Encode(const std::vector<uint32_t>& coords) const = 0;

  /// Inverse of Encode. `coords` is resized to dims.
  virtual void Decode(uint64_t key, std::vector<uint32_t>* coords) const = 0;

  /// Decodes `count` keys at once into a dim-major matrix:
  /// cells_dim_major[d * count + i] is coordinate d of keys[i] (the
  /// CellBlock layout batched leaf pruning consumes). `tmp` must point at
  /// `count` words of scratch. Bit-identical to per-key Decode; the
  /// Hilbert/Z-order implementations run the branch-free transform
  /// lane-parallel across keys (runtime-dispatched AVX2 build), which is
  /// the hot loop of cold leaf verification. The base implementation loops
  /// over Decode.
  virtual void DecodeBatch(const uint64_t* keys, size_t count,
                           uint32_t* cells_dim_major, uint32_t* tmp) const;

  /// Encodes `count` points given as a dim-major matrix (the DecodeBatch
  /// layout: cells_dim_major[d * count + i] is coordinate d of point i) into
  /// keys[0..count). The matrix is overwritten: the Hilbert transform runs
  /// in place. `tmp` must point at `count` words of scratch. Bit-identical
  /// to per-point Encode, lane-parallel across points and runtime-dispatched
  /// like DecodeBatch; the bulk load keys the whole dataset through it, and
  /// a one-point call is the allocation-free single-key encode.
  virtual void EncodeBatch(uint32_t* cells_dim_major, size_t count,
                           uint64_t* keys, uint32_t* tmp) const = 0;

  virtual CurveType type() const = 0;

  size_t dims() const { return dims_; }
  int bits() const { return bits_; }
  /// Exclusive upper bound of valid coordinates: 2^bits.
  uint32_t coord_limit() const { return 1u << bits_; }

  static std::unique_ptr<SpaceFillingCurve> Create(CurveType type,
                                                   size_t dims, int bits);

 protected:
  SpaceFillingCurve(size_t dims, int bits) : dims_(dims), bits_(bits) {}

  size_t dims_;
  int bits_;
};

/// Number of grid cells inside the axis-aligned box [lo[i], hi[i]] (both
/// inclusive, per dimension). Saturates at UINT64_MAX.
uint64_t RegionCellCount(const std::vector<uint32_t>& lo,
                         const std::vector<uint32_t>& hi);

/// Enumerates the SFC keys of every cell in the box [lo, hi], sorted
/// ascending. This is the paper's computeSFC step (Algorithm 1, line 15):
/// when the intersected region holds fewer cells than a leaf holds entries,
/// walking the region's keys beats decoding every entry.
std::vector<uint64_t> EnumerateRegionKeys(const SpaceFillingCurve& curve,
                                          const std::vector<uint32_t>& lo,
                                          const std::vector<uint32_t>& hi);

/// Allocation-reusing form of EnumerateRegionKeys: clears and fills `*keys`
/// (same order). Query arenas pass the same vector every call so the warm
/// path does no per-leaf allocation.
void EnumerateRegionKeysInto(const SpaceFillingCurve& curve,
                             const std::vector<uint32_t>& lo,
                             const std::vector<uint32_t>& hi,
                             std::vector<uint64_t>* keys);

}  // namespace spb

#endif  // SPB_SFC_SFC_H_
