#include "mindex/m_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/coding.h"
#include "common/rng.h"
#include "pivots/selection.h"

namespace spb {

uint32_t MIndex::QuantizeDistance(double d) const {
  const double scaled =
      std::clamp(d / d_plus_, 0.0, 1.0) * double((1u << kCellBits) - 1);
  return uint32_t(scaled);
}

Blob MIndex::EncodeRecord(const Blob& obj,
                          const std::vector<double>& dists) const {
  Blob record(4 + obj.size() + dists.size() * 8);
  EncodeFixed32(record.data(), uint32_t(obj.size()));
  if (!obj.empty()) std::memcpy(record.data() + 4, obj.data(), obj.size());
  uint8_t* dst = record.data() + 4 + obj.size();
  for (double d : dists) {
    EncodeDouble(dst, d);
    dst += 8;
  }
  return record;
}

Status MIndex::DecodeRecord(const Blob& record, Blob* obj,
                            std::vector<double>* dists) const {
  if (record.size() < 4) return Status::Corruption("short M-Index record");
  const uint32_t len = DecodeFixed32(record.data());
  if (record.size() < 4 + len) {
    return Status::Corruption("truncated M-Index record");
  }
  obj->assign(record.begin() + 4, record.begin() + 4 + len);
  const size_t n = (record.size() - 4 - len) / 8;
  dists->resize(n);
  const uint8_t* src = record.data() + 4 + len;
  for (size_t i = 0; i < n; ++i) {
    (*dists)[i] = DecodeDouble(src);
    src += 8;
  }
  return Status::OK();
}

Status MIndex::Build(const std::vector<Blob>& objects,
                     const DistanceFunction* metric,
                     const MIndexOptions& options,
                     std::unique_ptr<MIndex>* out) {
  if (options.num_pivots == 0 || options.num_pivots > 63) {
    return Status::InvalidArgument("M-Index supports 1..63 pivots");
  }
  auto index = std::unique_ptr<MIndex>(new MIndex(metric, options));
  index->d_plus_ = metric->max_distance();

  PivotSelectionOptions popts;
  popts.num_pivots = options.num_pivots;
  popts.seed = options.seed;
  index->pivots_ = PivotTable(SelectPivots(PivotSelectorType::kRandom,
                                           objects, index->counting_, popts));
  index->cluster_rmin_.assign(options.num_pivots,
                              std::numeric_limits<double>::infinity());
  index->cluster_rmax_.assign(options.num_pivots, 0.0);

  index->key_curve_ = SpaceFillingCurve::Create(CurveType::kZOrder, 1, 30);
  std::unique_ptr<PageFile> btree_file = PageFile::CreateInMemory();
  SPB_RETURN_IF_ERROR(BPlusTree::Create(std::move(btree_file),
                                        options.cache_pages,
                                        index->key_curve_.get(),
                                        &index->btree_));
  SPB_RETURN_IF_ERROR(Raf::Create(PageFile::CreateInMemory(),
                                  options.cache_pages, &index->raf_));

  struct Mapped {
    uint64_t key;
    ObjectId id;
    std::vector<double> dists;
  };
  std::vector<Mapped> mapped;
  mapped.reserve(objects.size());
  for (size_t i = 0; i < objects.size(); ++i) {
    std::vector<double> dists =
        index->pivots_.Map(objects[i], index->counting_);
    size_t nearest = 0;
    for (size_t p = 1; p < dists.size(); ++p) {
      if (dists[p] < dists[nearest]) nearest = p;
    }
    index->cluster_rmin_[nearest] =
        std::min(index->cluster_rmin_[nearest], dists[nearest]);
    index->cluster_rmax_[nearest] =
        std::max(index->cluster_rmax_[nearest], dists[nearest]);
    mapped.push_back(Mapped{index->MakeKey(nearest, dists[nearest]),
                            ObjectId(i), std::move(dists)});
  }
  std::sort(mapped.begin(), mapped.end(),
            [](const Mapped& a, const Mapped& b) {
              return a.key < b.key || (a.key == b.key && a.id < b.id);
            });

  std::vector<LeafEntry> entries;
  entries.reserve(mapped.size());
  for (const Mapped& m : mapped) {
    uint64_t offset;
    SPB_RETURN_IF_ERROR(index->raf_->Append(
        m.id, index->EncodeRecord(objects[m.id], m.dists), &offset));
    entries.push_back(LeafEntry{m.key, offset});
  }
  SPB_RETURN_IF_ERROR(index->raf_->Sync());
  if (!entries.empty()) {
    SPB_RETURN_IF_ERROR(index->btree_->BulkLoad(entries));
  }
  SPB_RETURN_IF_ERROR(index->btree_->Sync());
  index->num_objects_ = objects.size();
  *out = std::move(index);
  return Status::OK();
}

Status MIndex::Insert(const Blob& obj, ObjectId id) {
  std::vector<double> dists = pivots_.Map(obj, counting_);
  size_t nearest = 0;
  for (size_t p = 1; p < dists.size(); ++p) {
    if (dists[p] < dists[nearest]) nearest = p;
  }
  cluster_rmin_[nearest] = std::min(cluster_rmin_[nearest], dists[nearest]);
  cluster_rmax_[nearest] = std::max(cluster_rmax_[nearest], dists[nearest]);
  uint64_t offset;
  SPB_RETURN_IF_ERROR(raf_->Append(id, EncodeRecord(obj, dists), &offset));
  // No snapshots pin old versions, so superseded pages are recycled at once:
  // the next write rewrites each of them before any reader can reach it.
  TreeVersion version;
  std::vector<PageId> superseded;
  SPB_RETURN_IF_ERROR(btree_->InsertCow(MakeKey(nearest, dists[nearest]),
                                        offset, &version, &superseded));
  btree_->AdoptVersion(version);
  btree_->AddFreePages(superseded);
  ++num_objects_;
  return Status::OK();
}

Status MIndex::RangeWithDistances(const Blob& q, double r,
                                  std::vector<Neighbor>* result) {
  result->clear();
  if (num_objects_ == 0) return Status::OK();
  const std::vector<double> phi_q = pivots_.Map(q, counting_);

  Blob record, obj;
  std::vector<double> dists;
  for (size_t c = 0; c < pivots_.size(); ++c) {
    if (cluster_rmax_[c] < cluster_rmin_[c]) continue;  // empty cluster
    const double lb = std::max(0.0, phi_q[c] - r);
    const double ub = phi_q[c] + r;
    if (lb > cluster_rmax_[c] || ub < cluster_rmin_[c]) continue;
    const uint64_t key_lo = MakeKey(c, lb);
    const uint64_t key_hi = MakeKey(c, std::min(ub, d_plus_));

    BPlusTree::LeafCursor cur(btree_.get(), btree_->version());
    SPB_RETURN_IF_ERROR(cur.Seek(key_lo));
    while (cur.valid() && cur.entry().key <= key_hi) {
      ObjectId id;
      SPB_RETURN_IF_ERROR(raf_->Get(cur.entry().ptr, &id, &record));
      SPB_RETURN_IF_ERROR(DecodeRecord(record, &obj, &dists));
      // Pivot filtering with the stored distance vector.
      bool pruned = false;
      for (size_t p = 0; p < dists.size() && !pruned; ++p) {
        pruned = std::fabs(phi_q[p] - dists[p]) > r;
      }
      if (!pruned) {
        const double d = counting_.Distance(q, obj);
        if (d <= r) result->push_back(Neighbor{id, d});
      }
      SPB_RETURN_IF_ERROR(cur.Next());
    }
  }
  return Status::OK();
}

Status MIndex::RangeQuery(const Blob& q, double r,
                          std::vector<ObjectId>* result, QueryStats* stats) {
  StatScope scope(*this, stats);
  std::vector<Neighbor> with_dist;
  SPB_RETURN_IF_ERROR(RangeWithDistances(q, r, &with_dist));
  result->clear();
  result->reserve(with_dist.size());
  for (const Neighbor& n : with_dist) result->push_back(n.id);
  return Status::OK();
}

Status MIndex::KnnQuery(const Blob& q, size_t k, std::vector<Neighbor>* result,
                        QueryStats* stats) {
  StatScope scope(*this, stats);
  result->clear();
  if (num_objects_ > 0 && k > 0) {
    double r = std::max(1e-9, options_.knn_initial_radius_frac * d_plus_);
    std::vector<Neighbor> found;
    while (true) {
      SPB_RETURN_IF_ERROR(RangeWithDistances(q, r, &found));
      if (found.size() >= k) {
        std::sort(found.begin(), found.end(),
                  [](const Neighbor& a, const Neighbor& b) {
                    return a.distance < b.distance;
                  });
        if (found[k - 1].distance <= r) {
          found.resize(k);
          *result = std::move(found);
          break;
        }
      }
      if (r >= d_plus_) {
        std::sort(found.begin(), found.end(),
                  [](const Neighbor& a, const Neighbor& b) {
                    return a.distance < b.distance;
                  });
        if (found.size() > k) found.resize(k);
        *result = std::move(found);
        break;
      }
      r = std::min(d_plus_, r * 2.0);
    }
  }
  return Status::OK();
}

uint64_t MIndex::storage_bytes() const {
  return btree_->file_bytes() + raf_->file_bytes() +
         pivots_.Serialize().size();
}

QueryStats MIndex::cumulative_stats() const {
  QueryStats s;
  s.page_accesses =
      btree_->stats().page_accesses() + raf_->stats().page_accesses();
  s.distance_computations = counting_.count();
  return s;
}

void MIndex::ResetCounters() {
  btree_->pool().stats().Reset();
  raf_->ResetStats();
  counting_.Reset();
}

void MIndex::FlushCaches() {
  btree_->pool().Flush();
  raf_->FlushCache();
}

}  // namespace spb
