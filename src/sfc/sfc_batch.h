#ifndef SPB_SFC_SFC_BATCH_H_
#define SPB_SFC_SFC_BATCH_H_

#include <cstddef>
#include <cstdint>

#include "kernels/kernels.h"

namespace spb {
namespace sfc_batch {

/// Batched curve decoders and encoders, dispatched at runtime exactly like
/// the distance kernels (src/kernels/): the portable variant is always
/// available; an AVX2-vectorized variant of the same loops is picked on
/// capable x86 CPUs unless SPB_DISABLE_SIMD is set. All variants produce
/// bit-identical coordinates and keys (integer mask arithmetic only).
///
/// Decoder arguments mirror SpaceFillingCurve::DecodeBatch: `out` is
/// dim-major (out[d * count + i] = coordinate d of keys[i]); `tmp` is count
/// words of caller scratch for the Hilbert gray-decode seed.
using HilbertBatchFn = void (*)(const uint64_t* keys, size_t count,
                                const uint64_t* masks, size_t dims, int bits,
                                kernels::BitGatherFn pext, uint32_t* out,
                                uint32_t* tmp);
using MortonBatchFn = void (*)(const uint64_t* keys, size_t count,
                               const uint64_t* masks, size_t dims,
                               kernels::BitGatherFn pext, uint32_t* out);
/// Encoder arguments mirror SpaceFillingCurve::EncodeBatch: `cells` is
/// dim-major and is overwritten (the Hilbert transform runs in place); `tmp`
/// is count words of caller scratch. One signature for both curves.
using EncodeBatchFn = void (*)(uint32_t* cells, size_t count,
                               const uint64_t* masks, size_t dims, int bits,
                               kernels::BitScatterFn pdep, uint64_t* keys,
                               uint32_t* tmp);

/// One variant's batch entry points.
struct BatchTable {
  HilbertBatchFn decode_hilbert;
  MortonBatchFn decode_morton;
  EncodeBatchFn encode_hilbert;
  EncodeBatchFn encode_morton;
};

/// The active (dispatched) variant; resolved once per process.
const BatchTable& Active();

}  // namespace sfc_batch
}  // namespace spb

#endif  // SPB_SFC_SFC_BATCH_H_
