#!/usr/bin/env bash
# CI entry point: tier-1 build + full test suite, then a ThreadSanitizer
# build that runs the concurrency, storage and node-cache tests (the
# concurrent read path — single-flight fetches, reads through an evicting
# pool, readers racing the RAF appender, node-cache sharding and pin
# hand-off — must be data-race-free, not just correct-by-luck) and the
# parallel bulk-load tests, then an Address/UB-sanitizer build that runs
# the kernel parity, metric and SFC batch-decode/encode tests — once with
# the dispatched SIMD variants and once with SPB_DISABLE_SIMD=1 — so
# out-of-bounds lane loads or UB in any dispatch table fail loudly on every
# path, plus the bulk load's span-write and parallel-build tests, the
# SPB-tree query tests (the default range and kNN paths over every dataset
# and curve), the concurrency tests (pins on memory-file frames must outlive
# the writer's frame swaps) and the B+-tree, node-cache and baseline tests
# (cursor frames and node-cache handles held across copy-on-write writes and
# page recycling). The staged runs below repeat one layer's tests under both
# sanitizers.
#
#   tools/check.sh            # everything
#   tools/check.sh --tsan     # only the TSan stage (incl. parallel build)
#   tools/check.sh --asan     # only the ASan/UBSan kernel, bulk-load,
#                             # query-core, concurrency and B+-tree stage
#   tools/check.sh --writes   # only the write-path stage: update engine,
#                             # sharded tree and WAL tests (TSan+ASan)
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
  echo "==> tsan: concurrency + storage (single-flight read path) tests under TSan"
  cmake -B build-tsan -S . -DSPB_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "${JOBS}" --target concurrency_test storage_test \
    node_cache_test common_test persistence_test
  ./build-tsan/tests/concurrency_test
  ./build-tsan/tests/storage_test
  # The decode engine: node-cache shards and the decoded-node handles that
  # concurrent readers pin, and its on/off accounting-parity A/B.
  echo "==> tsan: node-cache tests under TSan"
  ./build-tsan/tests/node_cache_test
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
    sfc_test storage_test common_test persistence_test spb_tree_test \
    concurrency_test bptree_test node_cache_test baselines_test
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
  # The query core: RQA and the default (greedy) NNA over every dataset and
  # curve case, plus explicit best-first and updates.
  echo "==> asan: SPB-tree query tests under ASan/UBSan"
  ./build-asan/tests/spb_tree_test
  # Pins on shared memory-file frames across concurrent rewrites and the
  # single-flight hand-off.
  echo "==> asan: concurrency tests under ASan/UBSan"
  ./build-asan/tests/concurrency_test
  # Cursor frames and decoded-node handles held across copy-on-write writes
  # that recycle pages at once, and the baselines that share the B+-tree.
  echo "==> asan: B+-tree, node-cache and baseline tests under ASan/UBSan"
  ./build-asan/tests/bptree_test
  ./build-asan/tests/node_cache_test
  ./build-asan/tests/baselines_test
}

run_writes() {
  # The write-path stage, one build per sanitizer for three binaries:
  # - updates_test: epoch-based snapshot publication (interleaved
  #   insert/delete + query identity, COW page retirement, writer kBusy
  #   taxonomy, mixed executor batches and their per-batch retry counts);
  # - sharded_test: scatter-gather identity vs the single tree, cross-shard
  #   kNN under the seeded NDk bound, per-shard writer isolation;
  # - wal_test: group-commit WAL, writer queueing, the write front-end
  #   twins, crash recovery and epoch-safe compaction.
  # TSan: the interleaved tests are exactly the read/write races the
  # snapshot protocol must make benign; it also covers per-shard box growth
  # and retry-on-Busy dispatch, the commit
  # queue's leader hand-off, and Compact() racing concurrent queries
  # (CompactionTest.CompactRacesConcurrentQueries). ASan: COW page recycling and retire callbacks must never free
  # pages a pinned snapshot still reads; it also covers the routed request
  # vectors, WAL replay buffers and the compaction swap. The kill-point
  # matrix re-execs wal_test with SPB_CRASH_POINT set, which works
  # unchanged under either sanitizer (children _exit at the kill point).
  local tests=(updates_test sharded_test wal_test)
  echo "==> writes: update engine, sharded tree and WAL tests under TSan"
  cmake -B build-tsan -S . -DSPB_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "${JOBS}" --target "${tests[@]}"
  for t in "${tests[@]}"; do ./build-tsan/tests/"${t}"; done
  echo "==> writes: update engine, sharded tree and WAL tests under ASan"
  cmake -B build-asan -S . -DSPB_SANITIZE=address >/dev/null
  cmake --build build-asan -j "${JOBS}" --target "${tests[@]}"
  for t in "${tests[@]}"; do ./build-asan/tests/"${t}"; done
}

run_fanout() {
  # The multi-core query engine stage: TaskArena ticket ring + per-worker
  # parking, nested fan-out from workers (pool-size-1 deadlock regression),
  # the mutex-free snapshot Acquire/Release fast path racing publish/retire
  # churn (the zero-mutex claim is only credible TSan-clean), striped
  # counters, and parallel-scatter byte-identity (per query and per
  # batch).
  echo "==> fanout: task arena + snapshot fast path tests under TSan"
  cmake -B build-tsan -S . -DSPB_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "${JOBS}" --target fanout_test
  ./build-tsan/tests/fanout_test
  echo "==> fanout: task arena + snapshot fast path tests under ASan"
  cmake -B build-asan -S . -DSPB_SANITIZE=address >/dev/null
  cmake --build build-asan -j "${JOBS}" --target fanout_test
  ./build-asan/tests/fanout_test
}

run_learned() {
  # The learned-layer stage: leaf-locator property tests (SeekRank exactness
  # for any key, COW-churn invalidation and threshold rebuild, flat and
  # sharded) and the locator x planner identity tests. TSan covers the
  # model swap under MaybeRefreshLocatorLocked racing
  # readers that hold the previous shared_ptr, and the planner's cost_mu_
  # arm-cost updates racing concurrent queries; ASan covers the borrowed
  # internal-node image lifetimes (NodeHandle::SetBorrowed must never
  # outlive the model that owns the DecodedNode).
  echo "==> learned: locator/planner tests under TSan"
  cmake -B build-tsan -S . -DSPB_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "${JOBS}" --target learned_test
  ./build-tsan/tests/learned_test
  echo "==> learned: locator/planner tests under ASan"
  cmake -B build-asan -S . -DSPB_SANITIZE=address >/dev/null
  cmake --build build-asan -j "${JOBS}" --target learned_test
  ./build-asan/tests/learned_test
}

run_net() {
  # The network serving stage: frame assembly/protocol robustness, the
  # epoll I/O thread handing sockets' outboxes to dispatcher threads (the
  # per-conn mutex + eventfd wake protocol is only credible TSan-clean),
  # admission-control CAS on the in-flight op counter, concurrent clients,
  # and mid-frame disconnects. ASan covers the shared_ptr<Conn> lifecycle
  # across I/O-thread close vs in-flight dispatcher replies, torn-frame
  # reassembly buffers, and decode bounds on hostile payloads; the wire
  # identity test runs under both.
  echo "==> net: serving layer tests under TSan"
  cmake -B build-tsan -S . -DSPB_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "${JOBS}" --target net_test
  ./build-tsan/tests/net_test
  echo "==> net: serving layer tests under ASan"
  cmake -B build-asan -S . -DSPB_SANITIZE=address >/dev/null
  cmake --build build-asan -j "${JOBS}" --target net_test
  ./build-asan/tests/net_test
}

case "${1:-}" in
  --tsan) run_tsan ;;
  --asan) run_asan ;;
  --writes) run_writes ;;
  --fanout) run_fanout ;;
  --learned) run_learned ;;
  --net) run_net ;;
  *)
    run_tier1
    run_tsan
    run_asan
    run_writes
    run_fanout
    run_learned
    run_net
    ;;
esac
echo "==> all checks passed"
