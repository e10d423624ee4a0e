#ifndef SPB_COMMON_PARALLEL_H_
#define SPB_COMMON_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <vector>

namespace spb {

/// Splits [0, n) into contiguous chunks, one per thread, and runs
/// `fn(begin, end)` on each: min(hardware threads, n / min_chunk) chunks (at
/// least one) whose sizes differ by at most one. The calling thread runs
/// the first chunk and joins the rest before returning; an exception `fn`
/// throws reaches the caller once every chunk is done. A call from inside
/// another ParallelFor chunk runs its whole range inline on the calling
/// thread, so nesting never puts more threads on the machine than it has.
///
/// Returns the chunk boundaries used: chunk i is [bounds[i], bounds[i+1]).
/// Callers that combine per-chunk results (a merge of sorted runs) must
/// make the combination independent of them, since the count varies with
/// the host.
std::vector<size_t> ParallelFor(
    size_t n, size_t min_chunk,
    const std::function<void(size_t begin, size_t end)>& fn);

}  // namespace spb

#endif  // SPB_COMMON_PARALLEL_H_
