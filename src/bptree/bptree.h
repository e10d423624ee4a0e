#ifndef SPB_BPTREE_BPTREE_H_
#define SPB_BPTREE_BPTREE_H_

#include <memory>
#include <mutex>
#include <vector>

#include "bptree/node.h"
#include "bptree/node_cache.h"
#include "common/status.h"
#include "sfc/sfc.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace spb {

/// One immutable state of a B+-tree, as published to readers by the COW
/// write path: the root page id plus the height/count that traversal needs.
/// The pages reachable from `root` are never modified after publication
/// (copy-on-write replaces them with fresh page ids), so a traversal rooted
/// here is consistent no matter how many writes land concurrently.
struct TreeVersion {
  PageId root = kInvalidPageId;
  uint32_t height = 0;
  uint64_t num_entries = 0;
};

/// Disk-based B+-tree over uint64 SFC keys with MBB-augmented non-leaf
/// entries (Section 3.3 of the paper). Supports bulk-loading, insertion and
/// deletion; duplicate keys are allowed (distinct `ptr` values disambiguate).
///
/// Design notes:
///  - Internal entries store the subtree MBB as two corner SFC values
///    (`mbb_min`, `mbb_max`), exactly as the paper describes; the curve
///    passed at construction decodes them back into cell-space boxes.
///  - Separator keys are exact subtree minima after bulk-load and insertion.
///    Deletion leaves separators and MBBs conservative (possibly stale-low /
///    oversized): a seek then lands at most one leaf early and the
///    LeafCursor advances past it, and pruning stays safe. Emptied leaves
///    stay in the tree. This lazy-deletion scheme trades space for the
///    simple, low-cost updates the paper credits the B+-tree with.
///  - Query algorithms (RQA/NNA/SJA) walk nodes themselves via GetNode so
///    they can manage their own heaps and pruning; page accesses are counted
///    by the shared BufferPool. Leaves are scanned in key order with a
///    LeafCursor; there is no leaf sibling chain.
///  - After BulkLoad, every write is copy-on-write (InsertCow/DeleteCow/
///    BulkLoadCow): it builds a new TreeVersion on fresh or recycled page
///    ids and never modifies a page reachable from a published version.
///    Readers traverse one version (the SPB-tree pins it with a Snapshot),
///    so any number of them run alongside the writer; traversal state
///    lives in caller-owned buffers and the buffer pool is internally
///    striped. Writers are single-writer and must
///    be externally excluded from each other; a superseded page returns to
///    the allocator (AddFreePages) only once no reader can reach it
///    (docs/ARCHITECTURE.md §"Threading model").
class BPlusTree {
 public:
  /// Creates an empty tree (a single empty root leaf) in a fresh page file.
  /// `curve` defines key <-> cell decoding for MBB maintenance and must
  /// outlive the tree.
  static Status Create(std::unique_ptr<PageFile> file, size_t cache_pages,
                       const SpaceFillingCurve* curve,
                       std::unique_ptr<BPlusTree>* out);

  /// Opens a previously created (and Sync'ed) tree.
  static Status Open(std::unique_ptr<PageFile> file, size_t cache_pages,
                     const SpaceFillingCurve* curve,
                     std::unique_ptr<BPlusTree>* out);

  /// Replaces the tree contents with `entries`, which must be sorted by
  /// (key, ptr). Builds full nodes bottom-up; the tree must be freshly
  /// created.
  Status BulkLoad(const std::vector<LeafEntry>& entries);

  /// Copy-on-write insert: builds a new tree version that shares every
  /// untouched page with the current one, writing modified nodes under
  /// *fresh* page ids (recycled from the free list when available). The
  /// tree's own published state (root()/height()/num_entries()) is NOT
  /// changed — the caller adopts the result with AdoptVersion() and
  /// publishes it to readers (via SnapshotManager) when ready, so
  /// concurrent traversals of the old version never observe a
  /// half-applied write.
  ///
  /// `*superseded` collects the page ids the COW walk replaced; they stay
  /// valid for readers of older versions and must be retired (and their ids
  /// recycled via AddFreePages) only after the last snapshot pinning them
  /// drains; an owner without snapshots may recycle them as soon as it has
  /// adopted the result. Exact separator keys and MBBs are maintained along
  /// the path.
  Status InsertCow(uint64_t key, uint64_t ptr, TreeVersion* out,
                   std::vector<PageId>* superseded);

  /// Copy-on-write delete of the entry matching (key, ptr). Lazy: no
  /// merging; ancestors keep conservative separators and MBBs, only child
  /// ids are rewritten. `*found` reports whether the entry existed; when
  /// false, no version is produced and `*out` is the current version.
  Status DeleteCow(uint64_t key, uint64_t ptr, bool* found, TreeVersion* out,
                   std::vector<PageId>* superseded);

  /// Writer-side adoption of a COW result: subsequent InsertCow/DeleteCow
  /// calls and version() reflect `v`. Does not touch storage.
  void AdoptVersion(const TreeVersion& v);

  /// Collects every page id reachable from `version` (root and all
  /// descendants) via raw, *uncounted* file reads — no buffer-pool traffic,
  /// no IoStats. Compaction uses this to retire a whole superseded version
  /// through the snapshot protocol.
  Status CollectVersionPages(const TreeVersion& version,
                             std::vector<PageId>* pages);

  /// Collects the live leaf entries of `version` in ascending (key, ptr)
  /// order via raw, uncounted file reads. Maintenance-path counterpart of
  /// LeafCursor: identical output, zero accounting footprint.
  Status CollectLeafEntriesRaw(const TreeVersion& version,
                               std::vector<LeafEntry>* out);

  /// Builds a complete fresh tree version from sorted `entries` (by
  /// (key, ptr)) bottom-up — full nodes, exact separators and MBBs, like
  /// BulkLoad — but on COW-allocated page ids (recycled when available) and
  /// through raw, uncounted node writes, leaving the published state
  /// untouched. The caller adopts and publishes `*out` like any COW result,
  /// retiring the old version's pages (CollectVersionPages) once readers
  /// drain. Empty input yields a version with one empty leaf.
  Status BulkLoadCow(const std::vector<LeafEntry>& entries, TreeVersion* out);

  /// The current version (writer-side view; readers get theirs from a
  /// Snapshot).
  TreeVersion version() const {
    return TreeVersion{root_, height_, num_entries_};
  }

  /// Returns retired page ids to the allocator: the next COW writes reuse
  /// them instead of growing the file. Call only after the pages are
  /// unreachable from every live snapshot (the snapshot manager's retire
  /// callback). Thread-safe (any thread may run the retire callback).
  void AddFreePages(const std::vector<PageId>& ids);
  /// Free-listed page ids not yet reused. Test hook.
  size_t free_pages() const;

  /// Forward iterator over the leaf entries of one TreeVersion in ascending
  /// (key, ptr) order, maintained as a root-to-leaf stack of parent
  /// positions. It is the tree's one leaf scan: it sees exactly the pages of
  /// its version, never data written after it. Node reads go through
  /// GetNode, so every leaf costs one page access and each ancestor is read
  /// once as the cursor crosses into it.
  ///
  /// Invalidation: the cursor borrows `tree` and must not outlive it; the
  /// version's pages must stay un-retired while the cursor lives (hold the
  /// Snapshot that produced the version, or be the writer).
  class LeafCursor {
   public:
    LeafCursor(BPlusTree* tree, const TreeVersion& version)
        : tree_(tree), version_(version) {}

    /// Positions at the first entry of the version (invalid if empty).
    Status SeekFirst();
    /// Positions at the first entry with entry.key >= key.
    Status Seek(uint64_t key);
    /// Advances one entry, crossing leaves (and skipping empty ones).
    Status Next();

    bool valid() const { return valid_; }
    const BptNode& leaf() const { return frames_.back().handle->node; }
    size_t pos() const { return frames_.back().idx; }
    const LeafEntry& entry() const { return leaf().leaf_entries[pos()]; }

   private:
    friend class BPlusTree;
    struct Frame {
      NodeHandle handle;
      size_t idx = 0;
      // Per-frame decode target for the cache-off path: handles at
      // different levels are live simultaneously, so they cannot share one
      // scratch node.
      std::unique_ptr<DecodedNode> scratch;
    };

    Status LoadFrame(size_t level, PageId id);
    /// Descends leftmost from frames_[level]'s current child down to a leaf.
    Status DescendLeftmost(size_t level);
    /// Moves to the next non-empty leaf, or invalidates at the end.
    Status AdvanceLeaf();

    BPlusTree* tree_;
    TreeVersion version_;
    std::vector<Frame> frames_;
    bool valid_ = false;
  };

  /// Reads any node by page id (through the buffer pool, so PA-counted).
  Status ReadNode(PageId id, BptNode* node);

  /// Warm-path node read: hands out a decoded node (parsed entries + decoded
  /// internal MBB corners) via the decoded-node cache when it is enabled,
  /// decoding into caller-owned `scratch` otherwise. `scratch` must outlive
  /// `*out` (the handle borrows it on the uncached path) and must not be
  /// shared between simultaneously live handles.
  ///
  /// Accounting parity with ReadNode is exact by construction: a node-cache
  /// hit runs BufferPool::Touch (the full demand path minus the copy), a
  /// miss runs ReadPinned + decode + Insert — either way the pool sees
  /// exactly one read request for the page, so PA, cache_hits and the pool's
  /// LRU evolve byte-identically whether the node cache is on, off, hit or
  /// missed. Readers only; writers use ReadNode/WriteNode (WriteNode
  /// invalidates the cached node).
  Status GetNode(PageId id, DecodedNode* scratch, NodeHandle* out);

  /// Raw, *uncounted* decode of any node: direct file read (no buffer pool,
  /// no IoStats, no node cache) into `out`, internal MBB corners included.
  /// Maintenance-path sibling of GetNode, same zero-footprint contract as
  /// CollectVersionPages — the learned leaf locator builds its per-version
  /// model image through this, so model construction never perturbs the
  /// paper's PA/cache_hits accounting. Safe concurrently with readers (the
  /// pool is write-through, so every published page's bytes are in the
  /// file); callers must only decode pages reachable from a live version.
  Status DecodeNodeUncounted(PageId id, DecodedNode* out);

  /// Resizes the decoded-node cache (0 disables it). Single-writer only,
  /// like BufferPool::set_capacity; drops contents.
  Status SetNodeCacheEntries(size_t entries) {
    node_cache_.set_capacity(entries);
    return Status::OK();
  }
  NodeCache& node_cache() { return node_cache_; }

  /// Persists meta (root, height, count) and flushes the file.
  Status Sync();

  PageId root() const { return root_; }
  uint32_t height() const { return height_; }
  uint64_t num_entries() const { return num_entries_; }
  const SpaceFillingCurve* curve() const { return curve_; }

  /// Decodes an internal entry's MBB into inclusive per-dimension cell
  /// bounds.
  void DecodeBox(uint64_t mbb_min, uint64_t mbb_max,
                 std::vector<uint32_t>* lo, std::vector<uint32_t>* hi) const {
    curve_->Decode(mbb_min, lo);
    curve_->Decode(mbb_max, hi);
  }

  BufferPool& pool() { return pool_; }
  const IoStats& stats() const { return pool_.stats(); }
  uint64_t file_bytes() const {
    return static_cast<uint64_t>(owned_file_->num_pages()) * kPageSize;
  }

  /// Verifies structural invariants (sorted keys, exact-or-conservative
  /// separators, MBB containment, and a cursor scan in key order that
  /// counts num_entries()). Test hook.
  Status CheckInvariants();

 private:
  BPlusTree(std::unique_ptr<PageFile> file, size_t cache_pages,
            const SpaceFillingCurve* curve)
      : owned_file_(std::move(file)),
        pool_(owned_file_.get(), cache_pages),
        curve_(curve) {}

  Status WriteNode(const BptNode& node);
  /// Raw sibling of ReadNode/WriteNode: direct file I/O, no pool, no stats.
  /// Safe because the pool is write-through (every published page's bytes
  /// are in the file) and callers only write pages unreachable from every
  /// live version (fresh or retired-and-purged ids).
  Status ReadNodeRaw(PageId id, BptNode* node);
  Status WriteNodeRaw(const BptNode& node);
  Status AllocateNode(bool is_leaf, BptNode* node);
  /// COW page allocation: recycles a retired id when available, else grows
  /// the file.
  Status AllocateCowPage(PageId* id);
  Status WriteMeta();
  Status ReadMeta();

  // Computes a node's MBB corners from its contents.
  void ComputeLeafBox(const BptNode& node, uint64_t* mbb_min,
                      uint64_t* mbb_max) const;
  void ComputeInternalBox(const BptNode& node, uint64_t* mbb_min,
                          uint64_t* mbb_max) const;

  /// What InsertCowRec reports to the parent: the child's id changes on
  /// every write, so the parent must relink as well as refresh key/MBB.
  struct CowUpdate {
    PageId new_child = kInvalidPageId;
    uint64_t min_key = 0;
    uint64_t mbb_min = 0;
    uint64_t mbb_max = 0;
    bool split = false;
    uint64_t split_key = 0;
    PageId split_child = kInvalidPageId;
    uint64_t split_mbb_min = 0;
    uint64_t split_mbb_max = 0;
  };

  Status InsertCowRec(PageId node_id, uint64_t key, uint64_t ptr,
                      CowUpdate* up, std::vector<PageId>* superseded);

  Status CheckInvariantsRec(PageId node_id, bool is_root, uint64_t* min_key,
                            std::vector<uint32_t>* lo,
                            std::vector<uint32_t>* hi, uint32_t* depth);

  std::unique_ptr<PageFile> owned_file_;
  BufferPool pool_;
  const SpaceFillingCurve* curve_;
  /// Decoded-node cache; disabled (capacity 0) until the owner opts in via
  /// set_node_cache_entries — the SPB-tree wires SpbTreeOptions through.
  NodeCache node_cache_{0};

  PageId root_ = kInvalidPageId;
  uint32_t height_ = 0;
  uint64_t num_entries_ = 0;

  /// Retired page ids available for COW reuse. Pushed by the snapshot
  /// manager's retire callback (any thread), popped by the single writer.
  mutable std::mutex free_mu_;
  std::vector<PageId> free_pages_;
};

}  // namespace spb

#endif  // SPB_BPTREE_BPTREE_H_
