#ifndef SPB_BPTREE_NODE_H_
#define SPB_BPTREE_NODE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "storage/page.h"

namespace spb {

/// Leaf entry of the B+-tree: the SFC value of an object and the byte offset
/// of the object's record in the RAF (Fig. 4 of the paper: (key, ptr)).
struct LeafEntry {
  uint64_t key;
  uint64_t ptr;

  bool operator==(const LeafEntry&) const = default;
};

/// Non-leaf entry: minimum key of the subtree, child page pointer, and the
/// subtree's MBB encoded as the SFC values of its low and high corners
/// (Fig. 4: (key, ptr, min, max)).
struct InternalEntry {
  uint64_t key;
  PageId child;
  uint64_t mbb_min;
  uint64_t mbb_max;
};

/// In-memory image of one B+-tree node page.
///
/// On-disk layout (4 KB page):
///   [0]     u8   is_leaf
///   [1]     u8   reserved
///   [2..3]  u16  entry count
///   [4..7]  reserved, written as zero (files from older builds hold a
///           leaf sibling link here, which is ignored)
///   [8..]   entries (16 B leaf entries / 28 B internal entries)
struct BptNode {
  static constexpr size_t kHeaderSize = 8;
  static constexpr size_t kLeafEntrySize = 16;
  static constexpr size_t kInternalEntrySize = 28;
  /// Fan-out limits imposed by the 4 KB page.
  static constexpr size_t kLeafCapacity =
      (kPageSize - kHeaderSize) / kLeafEntrySize;  // 255
  static constexpr size_t kInternalCapacity =
      (kPageSize - kHeaderSize) / kInternalEntrySize;  // 146

  PageId id = kInvalidPageId;
  bool is_leaf = true;
  std::vector<LeafEntry> leaf_entries;
  std::vector<InternalEntry> internal_entries;

  size_t size() const {
    return is_leaf ? leaf_entries.size() : internal_entries.size();
  }
  size_t capacity() const {
    return is_leaf ? kLeafCapacity : kInternalCapacity;
  }

  /// Minimum key in this node (node must be non-empty).
  uint64_t min_key() const {
    return is_leaf ? leaf_entries.front().key : internal_entries.front().key;
  }

  void SerializeTo(Page* page) const;
  Status DeserializeFrom(const Page& page, PageId page_id);
};

}  // namespace spb

#endif  // SPB_BPTREE_NODE_H_
