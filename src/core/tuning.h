#ifndef SPB_CORE_TUNING_H_
#define SPB_CORE_TUNING_H_

#include <cstddef>
#include <cstdint>

namespace spb {

/// The runtime-adjustable knobs of an SPB-tree: the base of SpbTreeOptions
/// (which adds the construction-time parameters), applied atomically as a
/// group via SpbTree::ApplyTuning() and read back via SpbTree::tuning().
///
/// Write one by reading the current values first, then overriding fields:
///
///   TuningOptions t = tree->tuning();
///   t.enable_prefetch = false;
///   SPB_RETURN_IF_ERROR(tree->ApplyTuning(t));
///
/// ApplyTuning takes the writer lock (Status::Busy if a writer holds it) and
/// requires quiesced readers: queries read these fields without
/// synchronisation. Changes to the three capacity fields also rebuild the
/// sharded caches — see the ApplyTuning contract in core/spb_tree.h.
struct TuningOptions {
  /// Ablation switches (DESIGN.md §5): disable the Lemma 2 "free inclusion"
  /// shortcut or the computeSFC leaf optimization of Algorithm 1 to measure
  /// their contribution. Production defaults: both on.
  bool enable_lemma2 = true;
  bool enable_compute_sfc = true;
  /// Early-abandoning verification: queries pass their pruning threshold to
  /// DistanceWithCutoff (RQA the radius, NNA the current k-th NN distance,
  /// SJA the join radius) so the metric may stop mid-computation once the
  /// object is provably pruned. Never changes results or compdists counts —
  /// only the work done inside each distance call (see
  /// docs/ARCHITECTURE.md §"Distance kernels"). Off = plain Distance(),
  /// for ablation and regression tests.
  bool enable_cutoff = true;
  /// I/O engine (docs/ARCHITECTURE.md §"I/O engine"): when on, each query
  /// opens a readahead session over the RAF and schedules the pages of
  /// Lemma-surviving leaf entries (RQA/NNA) before fetching them, so runs of
  /// SFC-adjacent pages coalesce into span reads. Results, logical PA and
  /// compdists are identical either way — readahead stages bytes outside the
  /// buffer pool and claims them with demand-path accounting on first touch.
  /// This knob, max_readahead_pages and SpbTreeOptions::prefetch_threads act
  /// only on disk-backed trees: an in-memory tree (empty storage_dir) has no
  /// fetcher, because its pool caches the memory file's own pages and a
  /// staged copy would only add one.
  bool enable_prefetch = true;
  /// Warm-path decode engine (docs/ARCHITECTURE.md §"Warm-path decode
  /// engine"): serve RAF records from pinned buffer-pool frames instead of
  /// copying into a fresh Blob. Results, logical PA, cache_hits and
  /// compdists are byte-identical on or off (the accounting-parity rule,
  /// asserted by WarmPathSpbTest in tests/node_cache_test.cc); the toggle
  /// exists for ablation and that test.
  bool enable_zero_copy = true;
  /// Decoded-node cache entries (B+-tree nodes kept parsed, with internal
  /// MBB corners pre-decoded; 0 disables). Same parity rule as
  /// enable_zero_copy.
  size_t node_cache_entries = 1024;
  /// LRU buffer-pool sizes in 4 KB pages (paper default 32; 0 disables).
  size_t btree_cache_pages = 32;
  size_t raf_cache_pages = 32;
  /// Per-readahead-session bound, in pages: caps the pages in flight and the
  /// length of one span read. Staged runs are kept until the query ends, so
  /// it does not bound a session's staging memory.
  size_t max_readahead_pages = 64;
  /// Number of SFC key-range shards (power of two; 1 = a single tree).
  /// Consumed by ShardedSpbTree::Build, which splits the Hilbert key space
  /// into `num_shards` contiguous ranges and builds one independent SpbTree
  /// (own B+-tree + RAF + buffer pools + snapshot manager) per range.
  /// Construction-time in practice: ApplyTuning rejects a change with
  /// InvalidArgument (re-partitioning is a rebuild, not a tune). Plain
  /// SpbTree ignores it at Build, and reports and accepts only 1.
  size_t num_shards = 1;
  /// Write-path engine knobs (docs/OPERATIONS.md §"Durability"), meaningful
  /// when SpbTreeOptions::enable_group_commit / enable_wal (or a nonzero
  /// compaction threshold) enabled the engine at construction time;
  /// ApplyTuning on a tree without the queue / WAL / compactor simply
  /// records the values for tuning() readback.
  /// Max logical records one group commit drains (and fsyncs) at once.
  size_t wal_group_max = 64;
  /// fsync the WAL once per commit group (off trades durability of the
  /// last group for throughput; replay still stops at the torn tail).
  bool wal_fsync = true;
  /// Dead-byte debt at which the background compactor rewrites the RAF back
  /// into SFC order on fresh pages (0 disables the compactor thread). The
  /// swap goes through the snapshot/retire protocol, so in-flight queries
  /// keep reading their pinned version's file.
  uint64_t compact_dead_bytes_threshold = 0;
  /// Learned leaf locator (docs/ARCHITECTURE.md §"Learned locator +
  /// planner"): a per-TreeVersion leaf directory + internal-node image,
  /// built in one uncounted pass at Build/Open/compaction and refreshed per
  /// snapshot epoch. Point lookups, RQA/NNA traversals and SJA leaf scans
  /// then skip inner B+-tree pages entirely (writes always take the classic
  /// descent); any stale (COW-invalidated) model falls back to classic
  /// descent. Results
  /// and compdists are byte-identical either way; B+-tree inner-node page
  /// accesses are NOT — eliding them is the optimization — which is why the
  /// default is off: the paper-protocol figures keep their classic PA
  /// accounting unless a bench opts in (the accounting-parity rule applies
  /// to the default configuration only). Turning it on in ApplyTuning
  /// builds the model there; turning it off drops it.
  bool enable_learned_locator = false;
  /// Cost-model query planner: routes each kAuto kNN query online — greedy
  /// vs best-first NNA by per-arm runtime EMAs, per-query cutoff — and sizes
  /// each query's readahead budget from the cost model. Neighbour distances
  /// are identical for every routing choice; compdists match whichever
  /// static configuration the plan resolves to. Off, kAuto resolves to
  /// kGreedy with the configured cutoff and readahead budget, so compdists
  /// repeat run to run.
  bool enable_planner = false;
};

}  // namespace spb

#endif  // SPB_CORE_TUNING_H_
