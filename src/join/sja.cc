#include "join/sja.h"

#include <chrono>

namespace spb {

namespace {

// Forward scan over one SPB-tree's leaf level in ascending SFC order,
// against a pinned snapshot. Two drivers, same entry sequence:
//
//  - With a learned-locator model valid for the snapshot, the scan walks the
//    model's leaf directory flat — one counted GetNode per non-empty leaf,
//    zero inner-node reads (the cursor's parent-stack descent is elided
//    entirely; the directory skips empty leaves exactly like the cursor
//    does).
//  - Otherwise the B+-tree's parent-stack LeafCursor drives it.
//
// Each time the scan enters a new leaf, the RAF pages of all its entries are
// handed to the tree's readahead session: leaf entries are SFC-sorted and
// the RAF stores objects in the same order, so the page ids form
// near-contiguous runs that coalesce into span reads.
class JoinLeafScan {
 public:
  JoinLeafScan(SpbTree* tree, const Snapshot& snap, Readahead* ra)
      : tree_(tree),
        model_(tree->LocatorForSnapshot(snap)),
        cur_(&tree->btree(), TreeVersion{snap.version().root,
                                         snap.version().height,
                                         snap.version().num_entries}),
        ra_(ra) {}

  Status Init() {
    if (model_ != nullptr) return LoadLeaf();
    SPB_RETURN_IF_ERROR(cur_.SeekFirst());
    if (cur_.valid()) ScheduleLeaf(cur_.leaf());
    return Status::OK();
  }

  bool done() const {
    return model_ != nullptr ? !leaf_valid_ : !cur_.valid();
  }
  const LeafEntry& current() const {
    return model_ != nullptr ? h_->node.leaf_entries[pos_] : cur_.entry();
  }

  Status Next() {
    if (model_ != nullptr) {
      if (++pos_ < h_->node.leaf_entries.size()) return Status::OK();
      ++rank_;
      return LoadLeaf();
    }
    const PageId before = cur_.leaf().id;
    SPB_RETURN_IF_ERROR(cur_.Next());
    if (cur_.valid() && cur_.leaf().id != before) ScheduleLeaf(cur_.leaf());
    return Status::OK();
  }

 private:
  // Directory mode: fetch the leaf at rank_ (every directory leaf is
  // non-empty by construction). Leaf reads stay counted — only the inner
  // descent differs from cursor mode.
  Status LoadLeaf() {
    leaf_valid_ = false;
    pos_ = 0;
    if (rank_ >= model_->num_leaves()) return Status::OK();
    SPB_RETURN_IF_ERROR(
        tree_->btree().GetNode(model_->leaf_id(rank_), &scratch_, &h_));
    leaf_valid_ = true;
    ScheduleLeaf(h_->node);
    return Status::OK();
  }

  void ScheduleLeaf(const BptNode& leaf) {
    if (ra_ == nullptr) return;
    pages_.clear();
    pages_.reserve(leaf.leaf_entries.size() * 2);
    for (const LeafEntry& e : leaf.leaf_entries) {
      const PageId p = Raf::PageOf(e.ptr);
      pages_.push_back(p);
      pages_.push_back(p + 1);  // records may straddle a page boundary
    }
    ra_->Schedule(pages_);
  }

  SpbTree* tree_;
  std::shared_ptr<const LeafModel> model_;
  BPlusTree::LeafCursor cur_;
  Readahead* ra_;
  std::vector<PageId> pages_;
  // Directory-mode state.
  size_t rank_ = 0;
  size_t pos_ = 0;
  bool leaf_valid_ = false;
  DecodedNode scratch_;
  NodeHandle h_;
};

// A visited object kept in one of SJA's two lists.
struct ListItem {
  ObjectId id;
  Blob obj;
  std::vector<uint32_t> cell;
  uint64_t sfc;
  uint64_t min_rr;  // Z-key of RR(x, eps)'s low corner (Lemma 6)
  uint64_t max_rr;  // Z-key of RR(x, eps)'s high corner
};

// Conservative cell-interval overlap test implementing Lemma 5 from cells
// only: can an object in cell `co` be within eps of an object in cell `cx`?
bool CellsMayQualify(const Discretizer& disc, const std::vector<uint32_t>& cx,
                     const std::vector<uint32_t>& co, double eps) {
  for (size_t i = 0; i < cx.size(); ++i) {
    const double x_lo = disc.CellLow(cx[i]) - eps;
    const double x_hi = disc.CellHigh(cx[i]) + eps;
    if (disc.CellHigh(co[i]) < x_lo || disc.CellLow(co[i]) > x_hi) {
      return false;
    }
  }
  return true;
}

}  // namespace

Status SimilarityJoinSJA(SpbTree& spb_q, SpbTree& spb_o, double epsilon,
                         std::vector<JoinPair>* result, QueryStats* stats) {
  result->clear();
  // ---- Validate the shared-mapping preconditions.
  if (spb_q.space().curve().type() != CurveType::kZOrder ||
      spb_o.space().curve().type() != CurveType::kZOrder) {
    return Status::InvalidArgument(
        "SJA requires both SPB-trees to use the Z-order curve (Lemma 6)");
  }
  if (spb_q.space().pivots().Serialize() !=
      spb_o.space().pivots().Serialize()) {
    return Status::InvalidArgument(
        "SJA requires both SPB-trees to share one pivot table");
  }
  if (spb_q.space().curve().bits() != spb_o.space().curve().bits() ||
      spb_q.space().discretizer().delta() !=
          spb_o.space().discretizer().delta()) {
    return Status::InvalidArgument(
        "SJA requires both SPB-trees to share the same grid");
  }

  const auto start = std::chrono::steady_clock::now();
  const QueryStats before_q = spb_q.cumulative_stats();
  const QueryStats before_o = spb_o.cumulative_stats();

  const MappedSpace& space = spb_q.space();
  const Discretizer& disc = space.discretizer();
  const SpaceFillingCurve& curve = space.curve();
  const double d_plus = disc.d_plus();

  // Builds a ListItem (decode cells, fetch object, derive the Lemma 6
  // interval corners) for a leaf entry of `tree`. `ra` is that tree's
  // readahead session, fed by the LeafCursor.
  BlobView fetch_view;  // reused across all fetches (zero-copy path)
  auto make_item = [&](SpbTree& tree, const LeafEntry& e, Readahead* ra,
                       ListItem* item) -> Status {
    curve.Decode(e.key, &item->cell);
    item->sfc = e.key;
    if (tree.options().enable_zero_copy) {
      // The item outlives the pin (it joins a long-lived list), so copy out
      // of the view; the view itself is reused, and accounting matches Get.
      SPB_RETURN_IF_ERROR(tree.raf().GetView(e.ptr, &item->id, &fetch_view,
                                             ra));
      item->obj.assign(fetch_view.data(), fetch_view.data() + fetch_view.size());
    } else {
      SPB_RETURN_IF_ERROR(tree.raf().Get(e.ptr, &item->id, &item->obj, ra));
    }
    const size_t n = item->cell.size();
    std::vector<uint32_t> lo(n), hi(n);
    for (size_t i = 0; i < n; ++i) {
      const double low = disc.CellLow(item->cell[i]) - epsilon;
      const double high =
          std::min(d_plus, disc.CellHigh(item->cell[i]) + epsilon);
      lo[i] = disc.ToCell(std::max(0.0, low));
      hi[i] = disc.ToCell(high);
    }
    item->min_rr = curve.Encode(lo);
    item->max_rr = curve.Encode(hi);
    return Status::OK();
  };

  // Verify(x, L): probe the opposite list, evicting items whose maxRR lies
  // before x's SFC (no future partner can exist for them either). With the
  // cutoff enabled the join radius is the pruning threshold: d <= epsilon
  // decides membership either way, and the metric may abandon early for
  // non-qualifying pairs.
  const bool use_cutoff = spb_q.options().enable_cutoff;
  auto verify = [&](const ListItem& x, std::vector<ListItem>* list,
                    bool x_is_outer) {
    for (size_t idx = list->size(); idx-- > 0;) {
      const ListItem& o = (*list)[idx];
      if (o.max_rr < x.sfc) {  // Lemma 6 eviction
        list->erase(list->begin() + ptrdiff_t(idx));
        continue;
      }
      if (o.sfc >= x.min_rr && o.sfc <= x.max_rr &&  // Lemma 6
          CellsMayQualify(disc, x.cell, o.cell, epsilon)) {  // Lemma 5
        const double d =
            use_cutoff
                ? spb_q.metric().DistanceWithCutoff(x.obj, o.obj, epsilon)
                : spb_q.metric().Distance(x.obj, o.obj);
        if (d <= epsilon) {
          result->push_back(x_is_outer ? JoinPair{x.id, o.id}
                                       : JoinPair{o.id, x.id});
        }
      }
    }
  };

  // One pinned snapshot and one readahead session per tree: the snapshots
  // hold both versions stable for the whole merge, and each tree's leaf scan
  // visits its RAF in ascending offset order, so the scheduled pages
  // coalesce into span reads.
  const Snapshot snap_q = spb_q.AcquireSnapshot();
  const Snapshot snap_o = spb_o.AcquireSnapshot();
  Readahead ra_q = spb_q.NewReadaheadSession();
  Readahead ra_o = spb_o.NewReadaheadSession();
  JoinLeafScan cq(&spb_q, snap_q, &ra_q), co(&spb_o, snap_o, &ra_o);
  SPB_RETURN_IF_ERROR(cq.Init());
  SPB_RETURN_IF_ERROR(co.Init());
  std::vector<ListItem> list_q, list_o;
  ListItem item;

  while (!cq.done() || !co.done()) {
    const bool take_q =
        co.done() || (!cq.done() && cq.current().key <= co.current().key);
    if (take_q) {
      SPB_RETURN_IF_ERROR(make_item(spb_q, cq.current(), &ra_q, &item));
      verify(item, &list_o, /*x_is_outer=*/true);
      list_q.push_back(std::move(item));
      SPB_RETURN_IF_ERROR(cq.Next());
    } else {
      SPB_RETURN_IF_ERROR(make_item(spb_o, co.current(), &ra_o, &item));
      verify(item, &list_q, /*x_is_outer=*/false);
      list_o.push_back(std::move(item));
      SPB_RETURN_IF_ERROR(co.Next());
    }
  }

  if (stats != nullptr) {
    const QueryStats after_q = spb_q.cumulative_stats();
    const QueryStats after_o = spb_o.cumulative_stats();
    stats->page_accesses = (after_q.page_accesses - before_q.page_accesses) +
                           (after_o.page_accesses - before_o.page_accesses);
    stats->distance_computations =
        (after_q.distance_computations - before_q.distance_computations) +
        (after_o.distance_computations - before_o.distance_computations);
    stats->elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
  }
  return Status::OK();
}

Status RangeJoin(const std::vector<Blob>& q_objects, SpbTree& spb_o,
                 double epsilon, std::vector<JoinPair>* result,
                 QueryStats* stats) {
  result->clear();
  const auto start = std::chrono::steady_clock::now();
  const QueryStats before = spb_o.cumulative_stats();
  std::vector<ObjectId> matches;
  for (size_t i = 0; i < q_objects.size(); ++i) {
    SPB_RETURN_IF_ERROR(spb_o.RangeQuery(q_objects[i], epsilon, &matches));
    for (ObjectId o_id : matches) {
      result->push_back(JoinPair{ObjectId(i), o_id});
    }
  }
  if (stats != nullptr) {
    const QueryStats after = spb_o.cumulative_stats();
    stats->page_accesses = after.page_accesses - before.page_accesses;
    stats->distance_computations =
        after.distance_computations - before.distance_computations;
    stats->elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
  }
  return Status::OK();
}

}  // namespace spb
