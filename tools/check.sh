#!/usr/bin/env bash
# CI entry point: tier-1 build + full test suite, then a ThreadSanitizer
# build that runs the concurrency and storage tests (the concurrent read
# path — single-flight fetches, the prefetch pipeline's background span
# reads and staged-page claims — must be data-race-free, not just
# correct-by-luck) and the parallel bulk-load tests, then an
# Address/UB-sanitizer build that runs the kernel parity, metric and SFC
# batch-decode/encode tests — once with the dispatched SIMD variants and
# once with SPB_DISABLE_SIMD=1 — so out-of-bounds lane loads or UB in any
# dispatch table fail loudly on every path, plus the bulk load's span-write
# and parallel-build tests and the concurrency tests (pins on memory-file
# frames must outlive the writer's frame swaps). Finally an io_uring
# configure check: -DSPB_IOURING=ON must degrade gracefully (warning + the
# portable pread backend) on machines without liburing.
#
#   tools/check.sh            # everything
#   tools/check.sh --tsan     # only the TSan stage (incl. parallel build)
#   tools/check.sh --asan     # only the ASan/UBSan kernel, bulk-load and
#                             # concurrency stage
#   tools/check.sh --iouring  # only the io_uring configure/build check
#   tools/check.sh --warmab   # only the warm A/B identity sweep (ASan+TSan)
#   tools/check.sh --updates  # only the update-engine stage (TSan+ASan)
#   tools/check.sh --sharded  # only the sharded-tree stage (TSan+ASan)
#   tools/check.sh --wal      # only the write-path engine stage (TSan+ASan)
#   tools/check.sh --fanout   # only the fan-out/contention stage (TSan+ASan)
#   tools/check.sh --learned  # only the learned locator/planner stage (TSan+ASan)
#   tools/check.sh --net      # only the network serving stage (TSan+ASan)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"

run_tier1() {
  echo "==> tier-1: build + ctest"
  cmake -B build -S . >/dev/null
  cmake --build build -j "${JOBS}"
  ctest --test-dir build --output-on-failure -j "${JOBS}"
}

run_tsan() {
  echo "==> tsan: concurrency + storage (prefetch pipeline) tests under TSan"
  cmake -B build-tsan -S . -DSPB_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "${JOBS}" --target concurrency_test storage_test \
    common_test persistence_test
  ./build-tsan/tests/concurrency_test
  ./build-tsan/tests/storage_test
  # The parallel bulk load: worker threads share the tree's striped
  # distance counter and each metric's thread-local scratch.
  echo "==> tsan: parallel bulk-load tests under TSan"
  ./build-tsan/tests/common_test
  ./build-tsan/tests/persistence_test
}

run_asan() {
  echo "==> asan: kernel/SFC parity + metric tests under ASan/UBSan"
  cmake -B build-asan -S . -DSPB_SANITIZE=address >/dev/null
  cmake --build build-asan -j "${JOBS}" --target kernels_test metrics_test \
    sfc_test storage_test common_test persistence_test concurrency_test
  ./build-asan/tests/kernels_test
  ./build-asan/tests/metrics_test
  ./build-asan/tests/sfc_test
  echo "==> asan: same tests with SPB_DISABLE_SIMD=1 (scalar dispatch path)"
  SPB_DISABLE_SIMD=1 ./build-asan/tests/kernels_test
  SPB_DISABLE_SIMD=1 ./build-asan/tests/metrics_test
  SPB_DISABLE_SIMD=1 ./build-asan/tests/sfc_test
  # The parallel bulk load and its span writes: staged runs, page spans and
  # the staging buffer of the payload gather.
  echo "==> asan: parallel bulk-load and span-write tests under ASan/UBSan"
  ./build-asan/tests/storage_test
  ./build-asan/tests/common_test
  ./build-asan/tests/persistence_test
  # Pins on shared memory-file frames across concurrent rewrites, the
  # single-flight hand-off and readahead staging lifetimes.
  echo "==> asan: concurrency tests under ASan/UBSan"
  ./build-asan/tests/concurrency_test
}

run_warmab() {
  # The warm-path decode engine's A/B identity sweep (bench_concurrency
  # aborts if the node cache or zero-copy reads change results, logical PA,
  # cache_hits or compdists), run at a small scale under both ASan (pin
  # lifetimes: a BlobView must keep evicted frames alive) and TSan (node
  # cache sharding + pin hand-off under the concurrent executor).
  echo "==> warmab: decode-engine A/B identity sweep under ASan"
  cmake -B build-asan -S . -DSPB_SANITIZE=address >/dev/null
  cmake --build build-asan -j "${JOBS}" --target bench_concurrency \
    node_cache_test
  ./build-asan/tests/node_cache_test
  (cd build-asan && ./bench/bench_concurrency --scale=3000 --queries=48)
  echo "==> warmab: decode-engine A/B identity sweep under TSan"
  cmake -B build-tsan -S . -DSPB_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "${JOBS}" --target bench_concurrency
  (cd build-tsan && ./bench/bench_concurrency --scale=3000 --queries=48)
}

run_updates() {
  # The update engine's correctness stage: epoch-based snapshot publication
  # (interleaved insert/delete + query identity, COW page retirement, writer
  # kBusy taxonomy, mixed executor batches) under TSan — the interleaved
  # tests are exactly the read/write races the snapshot protocol must make
  # benign — and under ASan (COW page recycling and retire callbacks must
  # never free pages a pinned snapshot still reads).
  echo "==> updates: snapshot/update-engine tests under TSan"
  cmake -B build-tsan -S . -DSPB_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "${JOBS}" --target updates_test
  ./build-tsan/tests/updates_test
  echo "==> updates: snapshot/update-engine tests under ASan"
  cmake -B build-asan -S . -DSPB_SANITIZE=address >/dev/null
  cmake --build build-asan -j "${JOBS}" --target updates_test
  ./build-asan/tests/updates_test
}

run_sharded() {
  # The sharded-tree stage: scatter-gather identity vs the single tree,
  # cross-shard kNN under the shared NDk bound, per-shard writer isolation
  # and concurrent mixed executor batches. TSan catches races in the
  # shared-bound CAS loop, the per-shard box growth and the retry-on-Busy
  # dispatch; ASan covers the pre-mapped insert paths' pointer lifetimes
  # (MappedInsert borrows the caller's phi rows).
  echo "==> sharded: sharded SPB-tree tests under TSan"
  cmake -B build-tsan -S . -DSPB_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "${JOBS}" --target sharded_test
  ./build-tsan/tests/sharded_test
  echo "==> sharded: sharded SPB-tree tests under ASan"
  cmake -B build-asan -S . -DSPB_SANITIZE=address >/dev/null
  cmake --build build-asan -j "${JOBS}" --target sharded_test
  ./build-asan/tests/sharded_test
}

run_wal() {
  # The write-path engine stage: group-commit WAL, writer queueing and
  # epoch-safe compaction under both sanitizers. TSan covers the leader
  # hand-off in the commit queue (concurrent Submit/SubmitBatch callers
  # electing a drain leader), the background compactor thread racing
  # pinned-snapshot readers, and the checkpoint-gated page recycling; ASan
  # covers WAL replay buffers, the RAF rewrite's fresh-page staging and the
  # retire-callback lifetimes across the compaction swap. The kill-point
  # matrix re-execs the test binary with SPB_CRASH_POINT set, which works
  # unchanged under either sanitizer (children _exit at the kill point).
  echo "==> wal: write-path engine tests under TSan"
  cmake -B build-tsan -S . -DSPB_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "${JOBS}" --target wal_test
  ./build-tsan/tests/wal_test
  echo "==> wal: write-path engine tests under ASan"
  cmake -B build-asan -S . -DSPB_SANITIZE=address >/dev/null
  cmake --build build-asan -j "${JOBS}" --target wal_test
  ./build-asan/tests/wal_test
}

run_fanout() {
  # The multi-core query engine stage: TaskArena ticket ring + per-worker
  # parking, nested fan-out from workers (pool-size-1 deadlock regression),
  # the mutex-free snapshot Acquire/Release fast path racing publish/retire
  # churn (the zero-mutex claim is only credible TSan-clean), striped
  # counters, and parallel-scatter byte-identity. The small --fanout-only
  # sweep re-runs the serial-vs-parallel identity gates at batch scale
  # under both sanitizers.
  echo "==> fanout: task arena + snapshot fast path tests under TSan"
  cmake -B build-tsan -S . -DSPB_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "${JOBS}" --target fanout_test bench_concurrency
  ./build-tsan/tests/fanout_test
  (cd build-tsan && ./bench/bench_concurrency --fanout-only --scale=1200 --queries=12)
  echo "==> fanout: task arena + snapshot fast path tests under ASan"
  cmake -B build-asan -S . -DSPB_SANITIZE=address >/dev/null
  cmake --build build-asan -j "${JOBS}" --target fanout_test bench_concurrency
  ./build-asan/tests/fanout_test
  (cd build-asan && ./bench/bench_concurrency --fanout-only --scale=1200 --queries=12)
}

run_learned() {
  # The learned-layer stage: leaf-locator property tests (SeekRank exactness
  # at any epsilon, COW-churn invalidation and threshold rebuild) and the
  # planner identity tests, plus the bench's 2x2 locator x planner identity
  # sweep. TSan covers the model swap under MaybeRefreshLocatorLocked racing
  # readers that hold the previous shared_ptr, and the planner's cost_mu_
  # feedback path racing concurrent queries; ASan covers the borrowed
  # internal-node image lifetimes (NodeHandle::SetBorrowed must never
  # outlive the model that owns the DecodedNode).
  echo "==> learned: locator/planner tests under TSan"
  cmake -B build-tsan -S . -DSPB_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "${JOBS}" --target learned_test bench_learned
  ./build-tsan/tests/learned_test
  (cd build-tsan && ./bench/bench_learned --identity-only --scale=2000 --queries=20)
  echo "==> learned: locator/planner tests under ASan"
  cmake -B build-asan -S . -DSPB_SANITIZE=address >/dev/null
  cmake --build build-asan -j "${JOBS}" --target learned_test bench_learned
  ./build-asan/tests/learned_test
  (cd build-asan && ./bench/bench_learned --identity-only --scale=2000 --queries=20)
}

run_net() {
  # The network serving stage: frame assembly/protocol robustness, the
  # epoll I/O thread handing sockets' outboxes to dispatcher threads (the
  # per-conn mutex + eventfd wake protocol is only credible TSan-clean),
  # admission-control CAS on the in-flight op counter, concurrent clients,
  # and mid-frame disconnects. ASan covers the shared_ptr<Conn> lifecycle
  # across I/O-thread close vs in-flight dispatcher replies, torn-frame
  # reassembly buffers, and decode bounds on hostile payloads. The
  # --identity-only sweep re-runs the wire identity gate under both.
  echo "==> net: serving layer tests under TSan"
  cmake -B build-tsan -S . -DSPB_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "${JOBS}" --target net_test bench_serving
  ./build-tsan/tests/net_test
  (cd build-tsan && ./bench/bench_serving --identity-only --scale=1500 --queries=16)
  echo "==> net: serving layer tests under ASan"
  cmake -B build-asan -S . -DSPB_SANITIZE=address >/dev/null
  cmake --build build-asan -j "${JOBS}" --target net_test bench_serving
  ./build-asan/tests/net_test
  (cd build-asan && ./bench/bench_serving --identity-only --scale=1500 --queries=16)
}

run_iouring() {
  echo "==> iouring: -DSPB_IOURING=ON must build (falls back to pread"
  echo "    with a warning when liburing is absent)"
  cmake -B build-iouring -S . -DSPB_IOURING=ON >/dev/null
  cmake --build build-iouring -j "${JOBS}" --target storage_test
  ./build-iouring/tests/storage_test
}

case "${1:-}" in
  --tsan) run_tsan ;;
  --asan) run_asan ;;
  --iouring) run_iouring ;;
  --warmab) run_warmab ;;
  --updates) run_updates ;;
  --sharded) run_sharded ;;
  --wal) run_wal ;;
  --fanout) run_fanout ;;
  --learned) run_learned ;;
  --net) run_net ;;
  *)
    run_tier1
    run_tsan
    run_asan
    run_warmab
    run_updates
    run_sharded
    run_wal
    run_fanout
    run_learned
    run_net
    run_iouring
    ;;
esac
echo "==> all checks passed"
