// AVX2 build of the batched SFC decode and encode loops. The loops are
// plain integer mask arithmetic compiled with -mavx2 -ftree-vectorize (see
// src/CMakeLists.txt), so the compiler vectorizes them lane-parallel across
// keys; runtime dispatch in sfc.cc keeps this TU unreachable on CPUs
// without AVX2 and in SPB_DISABLE_SIMD runs.

#include "sfc/sfc_batch.h"

#if (defined(__x86_64__) || defined(__i386__)) && !defined(SPB_NO_SIMD_TU)

#define SPB_SFC_BATCH_VARIANT avx2
#include "sfc/sfc_batch_impl.h"

namespace spb {
namespace sfc_batch {

const BatchTable* GetAvx2BatchTable() { return &avx2::kTable; }

}  // namespace sfc_batch
}  // namespace spb

#else

namespace spb {
namespace sfc_batch {

const BatchTable* GetAvx2BatchTable() { return nullptr; }

}  // namespace sfc_batch
}  // namespace spb

#endif
