#include "bptree/leaf_model.h"

#include <algorithm>

namespace spb {

Status LeafModel::Build(BPlusTree* tree, const TreeVersion& version,
                        uint64_t epoch, std::shared_ptr<const LeafModel>* out) {
  auto model = std::shared_ptr<LeafModel>(new LeafModel());
  model->epoch_ = epoch;
  if (version.root == kInvalidPageId) {
    *out = std::move(model);
    return Status::OK();
  }

  // Level-order walk, children in entry order: every level — and therefore
  // the leaf directory — comes out in global key order. Internal levels are
  // decoded straight into the image map (stable addresses; NodeHandle
  // borrows them during traversal); the leaf level only feeds the directory.
  std::vector<PageId> frontier{version.root};
  std::vector<PageId> next;
  DecodedNode probe;
  while (!frontier.empty()) {
    SPB_RETURN_IF_ERROR(tree->DecodeNodeUncounted(frontier[0], &probe));
    if (probe.node.is_leaf) break;
    next.clear();
    for (PageId id : frontier) {
      DecodedNode& dn = model->internal_[id];
      SPB_RETURN_IF_ERROR(tree->DecodeNodeUncounted(id, &dn));
      if (dn.node.is_leaf) {
        return Status::Corruption("LeafModel: mixed-level B+-tree");
      }
      for (const InternalEntry& e : dn.node.internal_entries) {
        next.push_back(e.child);
      }
    }
    frontier.swap(next);
  }
  model->leaf_ids_.reserve(frontier.size());
  model->min_keys_.reserve(frontier.size());
  model->max_keys_.reserve(frontier.size());
  for (PageId id : frontier) {
    SPB_RETURN_IF_ERROR(tree->DecodeNodeUncounted(id, &probe));
    const BptNode& n = probe.node;
    if (!n.is_leaf) {
      return Status::Corruption("LeafModel: mixed-level B+-tree");
    }
    if (n.leaf_entries.empty()) continue;  // lazy deletion leaves these
    model->leaf_ids_.push_back(id);
    model->min_keys_.push_back(n.leaf_entries.front().key);
    model->max_keys_.push_back(n.leaf_entries.back().key);
  }
  // The directory must be sorted for SeekRank; a violation would mean the
  // tree broke its cross-leaf ordering invariant.
  if (!std::is_sorted(model->max_keys_.begin(), model->max_keys_.end()) ||
      !std::is_sorted(model->min_keys_.begin(), model->min_keys_.end())) {
    return Status::Corruption("LeafModel: leaf level out of key order");
  }

  *out = std::move(model);
  return Status::OK();
}

size_t LeafModel::SeekRank(uint64_t key) const {
  return static_cast<size_t>(
      std::lower_bound(max_keys_.begin(), max_keys_.end(), key) -
      max_keys_.begin());
}

}  // namespace spb
