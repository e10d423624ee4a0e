#ifndef SPB_CORE_TUNING_H_
#define SPB_CORE_TUNING_H_

#include <cstddef>
#include <cstdint>

namespace spb {

/// The runtime-adjustable subset of SpbTreeOptions, applied atomically as a
/// group via SpbTree::ApplyTuning() and read back via SpbTree::tuning().
/// Replaces the grab-bag of one-off setters (set_enable_cutoff,
/// set_enable_prefetch, set_node_cache_entries, set_enable_zero_copy,
/// SetRafCachePages) that benches and the CLI used to poke individually.
///
/// Construction-time parameters (pivots, delta, curve, seed, storage_dir,
/// prefetch_threads, cost_sample_size) are deliberately absent — changing
/// them requires a rebuild, not a tune.
///
/// Write one by reading the current values first, then overriding fields:
///
///   TuningOptions t = tree->tuning();
///   t.enable_prefetch = false;
///   SPB_RETURN_IF_ERROR(tree->ApplyTuning(t));
///
/// ApplyTuning takes the writer lock (Status::Busy if a writer holds it) and
/// flag-only changes are safe under concurrent queries; changes to the three
/// capacity fields rebuild sharded caches and require quiesced readers — see
/// the ApplyTuning contract in core/spb_tree.h.
struct TuningOptions {
  /// Lemma 2 "free inclusion" shortcut (ablation switch).
  bool enable_lemma2 = true;
  /// computeSFC leaf optimization of Algorithm 1 (ablation switch).
  bool enable_compute_sfc = true;
  /// Early-abandoning distance verification (never changes results).
  bool enable_cutoff = true;
  /// RAF readahead sessions (the cold-path I/O engine; disk-backed trees
  /// only).
  bool enable_prefetch = true;
  /// Zero-copy RAF record views from pinned frames.
  bool enable_zero_copy = true;
  /// Decoded-node cache entries (0 disables). Capacity change: quiesce
  /// readers.
  size_t node_cache_entries = 1024;
  /// LRU buffer-pool sizes in pages (0 disables). Capacity changes: quiesce
  /// readers.
  size_t btree_cache_pages = 32;
  size_t raf_cache_pages = 32;
  /// Per-readahead-session bound on pages in flight, in pages (also the max
  /// span-read length; disk-backed trees only).
  size_t max_readahead_pages = 64;
  /// Number of SFC key-range shards (power of two). Read back from
  /// ShardedSpbTree::tuning(); construction-time in practice — ApplyTuning
  /// rejects a change with InvalidArgument (re-partitioning is a rebuild,
  /// not a tune). Plain SpbTree reports and accepts only 1.
  size_t num_shards = 1;
  /// Write-path engine knobs (docs/OPERATIONS.md §"Durability"). Only
  /// meaningful when the corresponding SpbTreeOptions switches enabled the
  /// engine at construction time; ApplyTuning on a tree without the queue /
  /// WAL / compactor simply records the values for tuning() readback.
  /// Max logical records one group commit drains (and fsyncs) at once.
  size_t wal_group_max = 64;
  /// fsync the WAL once per commit group (off trades durability of the
  /// last group for throughput; replay still stops at the torn tail).
  bool wal_fsync = true;
  /// RAF dead-byte debt that wakes the background compactor (0 = never).
  uint64_t compact_dead_bytes_threshold = 0;
  /// Learned leaf locator (see SpbTreeOptions::enable_learned_locator).
  /// Turning it on (or changing ε) builds the model inside ApplyTuning —
  /// one uncounted pass over the leaf level; turning it off drops it.
  /// Flag-safe under concurrent queries either way: readers pick the model
  /// up (or lose it) on their next snapshot acquire.
  bool enable_learned_locator = false;
  size_t locator_epsilon = 16;
  /// Cost-model query planner (see SpbTreeOptions::enable_planner).
  bool enable_planner = false;
  /// Per-observation clamp on the planner's measured/predicted feedback
  /// ratio (the calibration EMA absorbs ratios clamped to
  /// [1/clamp, clamp]). The default 64 protects the EMA from one
  /// pathological query, but synthetic-uniform data underestimates kNN
  /// radii by >= 64x (EXPERIMENTS.md §"learned leaf locator"), pinning
  /// every observation at the clamp and capping what the EMA can learn —
  /// widen it (e.g. 4096) to let the calibration follow such data. A
  /// one-line warning is logged (once per tree) when observations pin at
  /// the clamp. Values < 1 are rejected by ApplyTuning.
  double planner_feedback_clamp = 64.0;
};

}  // namespace spb

#endif  // SPB_CORE_TUNING_H_
