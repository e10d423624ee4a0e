#ifndef SPB_BPTREE_LEAF_MODEL_H_
#define SPB_BPTREE_LEAF_MODEL_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bptree/bptree.h"
#include "bptree/node_cache.h"
#include "common/status.h"

namespace spb {

/// Learned leaf-location layer over ONE immutable TreeVersion
/// (docs/ARCHITECTURE.md §"Learned locator + planner").
///
/// The mapped keys are one-dimensional SFC integers and the leaf level of a
/// bulk-loaded B+-tree is a sorted array of (key, ptr) runs, so the owning
/// leaf of a key is a binary search over the leaves' max keys — no inner
/// node descent needed (the LIMS observation, PAPERS.md). A LeafModel holds
/// two things, both derived from one raw (uncounted) pass over the version:
///
///  1. A *leaf directory*: the page ids of every non-empty leaf in key order,
///     with each leaf's min/max key. SeekRank is a lower_bound over the max
///     keys, so ranks into this directory are exact.
///  2. An *internal-node image*: every internal node of the version, fully
///     decoded (parsed entries + MBB corners). Traversals serve inner-node
///     reads from this image instead of the buffer pool — the image covers
///     ALL internal pages of the version, so an image miss proves the page is
///     a leaf and falls through to the counted demand path. Inner-node page
///     accesses drop to zero while the visit *sequence* stays untouched,
///     which is what keeps results and compdists byte-identical.
///
/// Immutable after Build and safe to share across reader threads (lookups
/// are const and touch no mutable state). Validity is tagged, not checked:
/// the owner stamps the snapshot epoch the model was built at, readers use
/// it only when their snapshot's epoch matches, and the writer invalidates
/// its copy on the first COW mutation. A stale model is therefore never
/// consulted — fallback to classic descent is the failure mode, by
/// construction.
class LeafModel {
 public:
  /// Builds the model of `version`, stamped with the snapshot `epoch` the
  /// version is published under. One raw pass: level-order walk decoding
  /// internal nodes into the image, then the leaf level into the directory
  /// (children are visited in entry order, so the directory comes out in
  /// global key order). Zero accounting footprint
  /// (BPlusTree::DecodeNodeUncounted).
  static Status Build(BPlusTree* tree, const TreeVersion& version,
                      uint64_t epoch, std::shared_ptr<const LeafModel>* out);

  /// Rank of the first non-empty leaf whose max key >= `key` — the leaf that
  /// owns `key` — or num_leaves() when every key is smaller. Exact for any
  /// key, with zero page accesses.
  size_t SeekRank(uint64_t key) const;

  /// The decoded internal node for `id`, or nullptr when `id` is not an
  /// internal page of this version (i.e. it is a leaf).
  const DecodedNode* FindInternal(PageId id) const {
    auto it = internal_.find(id);
    return it == internal_.end() ? nullptr : &it->second;
  }

  uint64_t epoch() const { return epoch_; }
  size_t num_leaves() const { return leaf_ids_.size(); }
  size_t num_internal_nodes() const { return internal_.size(); }

  PageId leaf_id(size_t rank) const { return leaf_ids_[rank]; }
  uint64_t min_key(size_t rank) const { return min_keys_[rank]; }
  uint64_t max_key(size_t rank) const { return max_keys_[rank]; }

 private:
  LeafModel() = default;

  uint64_t epoch_ = 0;

  // Leaf directory, global key order. max_keys_ is nondecreasing (the leaf
  // level is globally sorted), which is what makes rank = lower_bound(max
  // keys, key) the owning leaf.
  std::vector<PageId> leaf_ids_;
  std::vector<uint64_t> min_keys_;
  std::vector<uint64_t> max_keys_;

  // node-based map: DecodedNode addresses stay stable, so NodeHandle can
  // borrow straight into the image.
  std::unordered_map<PageId, DecodedNode> internal_;
};

}  // namespace spb

#endif  // SPB_BPTREE_LEAF_MODEL_H_
