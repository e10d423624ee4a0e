#include "common/parallel.h"

#include <algorithm>
#include <exception>
#include <system_error>
#include <thread>

namespace spb {

namespace {
thread_local bool in_parallel_chunk = false;
}  // namespace

std::vector<size_t> ParallelFor(
    size_t n, size_t min_chunk,
    const std::function<void(size_t begin, size_t end)>& fn) {
  size_t chunks = 1;
  if (!in_parallel_chunk) {
    const size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
    chunks = std::clamp<size_t>(n / std::max<size_t>(min_chunk, 1), 1, hw);
  }
  std::vector<size_t> bounds(chunks + 1);
  for (size_t i = 0; i <= chunks; ++i) bounds[i] = n * i / chunks;
  if (chunks == 1) {
    if (n > 0) fn(0, n);
    return bounds;
  }
  // An exception in a chunk is carried to the caller, after every thread
  // has joined.
  std::vector<std::exception_ptr> errors(chunks);
  auto run = [&](size_t i) {
    in_parallel_chunk = true;
    try {
      fn(bounds[i], bounds[i + 1]);
    } catch (...) {
      errors[i] = std::current_exception();
    }
    in_parallel_chunk = false;
  };
  std::vector<std::thread> threads;
  threads.reserve(chunks - 1);
  for (size_t i = 1; i < chunks; ++i) {
    try {
      threads.emplace_back(run, i);
    } catch (const std::system_error&) {
      run(i);  // no thread to be had: this thread runs the chunk
    }
  }
  run(0);
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return bounds;
}

}  // namespace spb
