// Shared implementation of the batched SFC decode and encode loops. Included
// (not compiled standalone) by sfc.cc and sfc_batch_avx2.cc with
// SPB_SFC_BATCH_VARIANT set to a distinct namespace, the same per-TU pattern
// as src/kernels/kernels_impl.h: one source of truth, several ISA builds,
// runtime dispatch picks one.
//
// Everything here is pure integer mask arithmetic — identical bit operations
// per element in every loop iteration (the branch-free Skilling transform
// from sfc.cc, restructured from one-key/all-dims to all-keys/one-dim). That
// structure-of-arrays shape is what lets the vectorizer run the transform
// lane-parallel across keys in the -mavx2 TU; results are bit-for-bit the
// same in every variant because no float and no reassociation is involved.
//
// Layout contract: `x`/`out`/`cells` is dim-major, row d at x + d * count,
// so out[d * count + i] is coordinate d of key i (the CellBlock layout used by
// the batched lemma sweeps in core/mapped_space.h).

#ifndef SPB_SFC_BATCH_VARIANT
#error "define SPB_SFC_BATCH_VARIANT before including sfc_batch_impl.h"
#endif

#include <cstdint>

#include "kernels/kernels.h"
#include "sfc/sfc_batch.h"

namespace spb {
namespace sfc_batch {
namespace SPB_SFC_BATCH_VARIANT {

// Splits each key into its per-dimension words: row d gets
// pext(key, masks[d]) for every key. The pext itself is a scalar BMI2 (or
// portable) kernel; the win here is the dim-major store order feeding the
// vector transform below without a transpose.
inline void DeinterleaveBatch(const uint64_t* keys, size_t count,
                              const uint64_t* masks, size_t dims,
                              kernels::BitGatherFn pext,
                              uint32_t* out) {
  for (size_t d = 0; d < dims; ++d) {
    const uint64_t mask = masks[d];
    uint32_t* row = out + d * count;
    for (size_t i = 0; i < count; ++i) {
      row[i] = static_cast<uint32_t>(pext(keys[i], mask));
    }
  }
}

// TransposeToAxes (sfc.cc) applied to `count` transposed Hilbert indices at
// once. Each key's transform is independent, so the scalar loop nest is
// reordered to sweep whole rows: bit-identical per element, vectorizable
// across i. `tmp` holds the per-key gray-decode seed (count words).
inline void TransposeToAxesBatch(uint32_t* x, size_t dims, size_t count,
                                 int b, uint32_t* tmp) {
  const size_t n = dims;
  const uint32_t nbit = 2u << (b - 1);
  // Gray decode by H ^ (H/2).
  {
    const uint32_t* last = x + (n - 1) * count;
    for (size_t i = 0; i < count; ++i) tmp[i] = last[i] >> 1;
    for (size_t d = n - 1; d > 0; --d) {
      uint32_t* __restrict row = x + d * count;
      const uint32_t* __restrict prev = x + (d - 1) * count;
      for (size_t i = 0; i < count; ++i) row[i] ^= prev[i];
    }
    uint32_t* row0 = x;
    for (size_t i = 0; i < count; ++i) row0[i] ^= tmp[i];
  }
  // Undo excess work. The scalar loop runs i = n-1 .. 0 touching only x[i]
  // and x[0]; splitting the i == 0 step off keeps every row loop free of
  // aliasing between `row` and `row0`.
  for (uint32_t q = 2; q != nbit; q <<= 1) {
    const uint32_t p = q - 1;
    for (size_t d = n; d-- > 1;) {
      uint32_t* __restrict row = x + d * count;
      uint32_t* __restrict row0 = x;
      for (size_t i = 0; i < count; ++i) {
        const uint32_t on = 0u - static_cast<uint32_t>((row[i] & q) != 0);
        const uint32_t t2 = (row0[i] ^ row[i]) & p & ~on;
        row0[i] ^= (p & on) | t2;
        row[i] ^= t2;
      }
    }
    // i == 0 of the scalar loop: the swap term (x[0]^x[0]) vanishes and only
    // the conditional complement by p remains.
    uint32_t* row0 = x;
    for (size_t i = 0; i < count; ++i) {
      const uint32_t on = 0u - static_cast<uint32_t>((row0[i] & q) != 0);
      row0[i] ^= (p & on);
    }
  }
}

// AxesToTranspose (sfc.cc) applied to `count` points at once, in place: the
// mirror of TransposeToAxesBatch. The scalar loop runs i = 0 .. n-1, so the
// i == 0 step (a bare conditional complement) comes first here. `tmp` holds
// the per-point gray-encode mask (count words).
inline void AxesToTransposeBatch(uint32_t* x, size_t dims, size_t count,
                                 int b, uint32_t* tmp) {
  const size_t n = dims;
  const uint32_t m = 1u << (b - 1);
  // Inverse undo.
  for (uint32_t q = m; q > 1; q >>= 1) {
    const uint32_t p = q - 1;
    uint32_t* row0 = x;
    for (size_t i = 0; i < count; ++i) {
      const uint32_t on = 0u - static_cast<uint32_t>((row0[i] & q) != 0);
      row0[i] ^= (p & on);
    }
    for (size_t d = 1; d < n; ++d) {
      uint32_t* __restrict row = x + d * count;
      uint32_t* __restrict r0 = x;
      for (size_t i = 0; i < count; ++i) {
        const uint32_t on = 0u - static_cast<uint32_t>((row[i] & q) != 0);
        const uint32_t t = (r0[i] ^ row[i]) & p & ~on;
        r0[i] ^= (p & on) | t;
        row[i] ^= t;
      }
    }
  }
  // Gray encode.
  for (size_t d = 1; d < n; ++d) {
    uint32_t* __restrict row = x + d * count;
    const uint32_t* __restrict prev = x + (d - 1) * count;
    for (size_t i = 0; i < count; ++i) row[i] ^= prev[i];
  }
  const uint32_t* last = x + (n - 1) * count;
  for (size_t i = 0; i < count; ++i) tmp[i] = 0;
  for (uint32_t q = m; q > 1; q >>= 1) {
    for (size_t i = 0; i < count; ++i) {
      tmp[i] ^= (q - 1) & (0u - static_cast<uint32_t>((last[i] & q) != 0));
    }
  }
  for (size_t d = 0; d < n; ++d) {
    uint32_t* __restrict row = x + d * count;
    for (size_t i = 0; i < count; ++i) row[i] ^= tmp[i];
  }
}

// Packs row d of every point into its key with pdep(x, masks[d]): the
// inverse of DeinterleaveBatch.
inline void InterleaveBatch(const uint32_t* x, size_t count,
                            const uint64_t* masks, size_t dims,
                            kernels::BitScatterFn pdep, uint64_t* keys) {
  for (size_t i = 0; i < count; ++i) keys[i] = 0;
  for (size_t d = 0; d < dims; ++d) {
    const uint64_t mask = masks[d];
    const uint32_t* row = x + d * count;
    for (size_t i = 0; i < count; ++i) keys[i] |= pdep(row[i], mask);
  }
}

inline void DecodeHilbertBatch(const uint64_t* keys, size_t count,
                               const uint64_t* masks, size_t dims, int bits,
                               kernels::BitGatherFn pext, uint32_t* out,
                               uint32_t* tmp) {
  DeinterleaveBatch(keys, count, masks, dims, pext, out);
  TransposeToAxesBatch(out, dims, count, bits, tmp);
}

inline void DecodeMortonBatch(const uint64_t* keys, size_t count,
                              const uint64_t* masks, size_t dims,
                              kernels::BitGatherFn pext, uint32_t* out) {
  DeinterleaveBatch(keys, count, masks, dims, pext, out);
}

inline void EncodeHilbertBatch(uint32_t* cells, size_t count,
                               const uint64_t* masks, size_t dims, int bits,
                               kernels::BitScatterFn pdep, uint64_t* keys,
                               uint32_t* tmp) {
  AxesToTransposeBatch(cells, dims, count, bits, tmp);
  InterleaveBatch(cells, count, masks, dims, pdep, keys);
}

inline void EncodeMortonBatch(uint32_t* cells, size_t count,
                              const uint64_t* masks, size_t dims, int bits,
                              kernels::BitScatterFn pdep, uint64_t* keys,
                              uint32_t* tmp) {
  (void)bits;
  (void)tmp;
  InterleaveBatch(cells, count, masks, dims, pdep, keys);
}

// This variant's entry points, in the layout of sfc_batch::BatchTable.
inline constexpr BatchTable kTable = {&DecodeHilbertBatch, &DecodeMortonBatch,
                                      &EncodeHilbertBatch, &EncodeMortonBatch};

}  // namespace SPB_SFC_BATCH_VARIANT
}  // namespace sfc_batch
}  // namespace spb
