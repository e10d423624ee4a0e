#include "core/sharded_spb_tree.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <thread>

#include "common/parallel.h"
#include "exec/task_arena.h"

namespace spb {

namespace {

constexpr char kManifestName[] = "/shards.spb";
constexpr uint64_t kManifestMagic = 0x5350425348415244ULL;  // "SPBSHARD"

std::string ManifestPath(const std::string& dir) { return dir + kManifestName; }

// Runs sub(i, &slot_i) for i in [0, n) — one shard subquery each — and
// appends the slots to *out in index order. When the caller is an arena
// worker, the subqueries run as one nested task group on the executor's
// own pool (help=true: this thread claims its own subqueries, deadlock-free
// at any pool size); otherwise inline in index order. Subqueries share
// nothing, so results, logical PA and compdists are byte-identical either
// way. Returns the first failed slot's status.
template <typename T, typename Sub>
Status ScatterGather(size_t n, const Sub& sub, std::vector<T>* out) {
  std::vector<std::vector<T>> slots(n);
  std::vector<Status> statuses(n);
  const std::function<void(size_t)> run = [&](size_t i) {
    statuses[i] = sub(i, &slots[i]);
  };
  TaskArena* arena = TaskArena::Current();
  if (n > 1 && arena != nullptr) {
    arena->RunGroup(n, run, /*help=*/true);
  } else {
    for (size_t i = 0; i < n; ++i) run(i);
  }
  for (size_t i = 0; i < n; ++i) {
    SPB_RETURN_IF_ERROR(statuses[i]);
    out->insert(out->end(), slots[i].begin(), slots[i].end());
  }
  return Status::OK();
}

bool IsPowerOfTwo(size_t n) { return n != 0 && (n & (n - 1)) == 0; }

size_t Log2(size_t n) {
  size_t b = 0;
  while ((size_t{1} << b) < n) ++b;
  return b;
}

}  // namespace

SpbTreeOptions ShardedSpbTree::ShardOptions(const SpbTreeOptions& options,
                                            size_t s) {
  SpbTreeOptions o = options;
  o.num_shards = 1;
  if (!options.storage_dir.empty()) {
    o.storage_dir = options.storage_dir + "/shard_" + std::to_string(s);
  }
  return o;
}

Status ShardedSpbTree::Build(const std::vector<Blob>& objects,
                             const DistanceFunction* metric,
                             const SpbTreeOptions& options,
                             std::unique_ptr<ShardedSpbTree>* out) {
  if (!IsPowerOfTwo(options.num_shards)) {
    return Status::InvalidArgument(
        "num_shards must be a power of two (key ranges are a binary split "
        "of the SFC key space)");
  }
  auto t = std::unique_ptr<ShardedSpbTree>(new ShardedSpbTree());
  t->storage_dir_ = options.storage_dir;
  t->base_metric_ = metric;
  t->counting_ = std::make_unique<CountingDistance>(metric);

  if (options.num_shards == 1) {
    // One shard: delegate construction wholesale (pivot selection included)
    // so the backing tree is indistinguishable from an unsharded build.
    t->shards_.resize(1);
    t->boxes_.emplace_back(std::make_unique<ShardBox>());
    SPB_RETURN_IF_ERROR(SpbTree::Build(objects, metric,
                                       ShardOptions(options, 0),
                                       &t->shards_[0]));
    t->space_ = std::make_unique<MappedSpace>(
        PivotTable(t->shards_[0]->space().pivots()), *metric, options.delta,
        options.curve);
    if (!options.storage_dir.empty()) {
      SPB_RETURN_IF_ERROR(t->WriteManifest());
    }
    *out = std::move(t);
    return Status::OK();
  }

  // Select pivots once, over the whole dataset — shards share the mapping.
  CountingDistance selection_counter(metric);
  PivotSelectionOptions popts;
  popts.num_pivots = options.num_pivots;
  popts.seed = options.seed;
  PivotTable pivots(SelectPivots(options.pivot_selector, objects,
                                 selection_counter, popts));
  if (pivots.empty() && !objects.empty()) {
    return Status::InvalidArgument("pivot selection produced no pivots");
  }
  if (pivots.empty()) pivots = PivotTable({Blob{}});
  t->extra_distance_computations_ = selection_counter.count();

  SPB_RETURN_IF_ERROR(
      BuildShards(objects, metric, options, std::move(pivots), t.get()));
  if (!options.storage_dir.empty()) {
    SPB_RETURN_IF_ERROR(t->WriteManifest());
  }
  *out = std::move(t);
  return Status::OK();
}

Status ShardedSpbTree::BuildShards(const std::vector<Blob>& objects,
                                   const DistanceFunction* metric,
                                   const SpbTreeOptions& options,
                                   PivotTable pivots, ShardedSpbTree* t) {
  t->space_ = std::make_unique<MappedSpace>(PivotTable(pivots.pivots()),
                                            *metric, options.delta,
                                            options.curve);
  const size_t dims = t->space_->dims();
  const size_t S = options.num_shards;

  // Map and key the whole dataset once, in parallel chunks like the
  // unsharded bulk load (counted at the router, exactly the distance calls
  // that bulk load spends).
  std::vector<double> phis(objects.size() * dims);
  std::vector<uint64_t> keys(objects.size());
  ParallelFor(objects.size(), SpbTree::kBuildChunkObjects,
              [&](size_t begin, size_t end) {
                double* rows = phis.data() + begin * dims;
                t->space_->pivots().MapBatch(objects.data() + begin,
                                             end - begin, *t->counting_, rows);
                t->space_->KeysFor(rows, end - begin, keys.data() + begin);
              });

  // Range boundaries at the S-quantiles of the mapped keys, so bulk load
  // starts balanced. With no data, fall back to an equal-width split of
  // the occupied-bit key space so later inserts still spread.
  t->boundaries_.clear();
  if (objects.empty()) {
    const size_t total_bits =
        dims * static_cast<size_t>(t->space_->curve().bits());
    const size_t lg = Log2(S);
    for (size_t s = 1; s < S; ++s) {
      // More shards than key bits: route everything to shard 0.
      t->boundaries_.push_back(lg <= total_bits
                                   ? uint64_t(s) << (total_bits - lg)
                                   : UINT64_MAX);
    }
  } else {
    std::vector<uint64_t> sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    for (size_t s = 1; s < S; ++s) {
      t->boundaries_.push_back(sorted[s * sorted.size() / S]);
    }
  }

  // Partition every object by its routed key.
  std::vector<std::vector<Blob>> objs(S);
  std::vector<std::vector<ObjectId>> ids(S);
  std::vector<std::vector<double>> shard_phis(S);
  for (size_t i = 0; i < objects.size(); ++i) {
    const double* row = phis.data() + i * dims;
    const size_t s = t->RouteKey(keys[i]);
    objs[s].push_back(objects[i]);
    ids[s].push_back(static_cast<ObjectId>(i));
    shard_phis[s].insert(shard_phis[s].end(), row, row + dims);
  }

  // Bulk-load the shards on parallel threads (each shard's own build then
  // runs on its thread alone). Every shard gets its own copy of the pivot
  // table (it owns its mapping) and a num_shards=1 option set rooted under
  // shard_<s>/.
  t->shards_.resize(S);
  t->boxes_.clear();
  for (size_t s = 0; s < S; ++s) {
    t->boxes_.emplace_back(std::make_unique<ShardBox>());
  }
  std::vector<Status> results(S, Status::OK());
  ParallelFor(S, 1, [&](size_t begin, size_t end) {
    for (size_t s = begin; s < end; ++s) {
      results[s] = SpbTree::BuildWithPivots(
          objs[s], metric, PivotTable(t->space_->pivots().pivots()),
          ShardOptions(options, s), &t->shards_[s], &ids[s],
          objs[s].empty() ? nullptr : shard_phis[s].data());
    }
  });
  for (const Status& s : results) {
    if (!s.ok()) return s;
  }
  return t->RecomputeBoxes();
}

Status ShardedSpbTree::Open(const std::string& storage_dir,
                            const DistanceFunction* metric,
                            const SpbTreeOptions& options,
                            std::unique_ptr<ShardedSpbTree>* out) {
  std::ifstream in(ManifestPath(storage_dir), std::ios::binary);
  if (!in) {
    return Status::NotFound("no shard manifest in " + storage_dir);
  }
  uint64_t magic = 0, num_shards = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&num_shards), sizeof(num_shards));
  if (!in || magic != kManifestMagic) {
    return Status::Corruption("bad shard manifest in " + storage_dir);
  }
  if (!IsPowerOfTwo(num_shards)) {
    return Status::Corruption("shard manifest: invalid shard count");
  }

  auto t = std::unique_ptr<ShardedSpbTree>(new ShardedSpbTree());
  t->storage_dir_ = storage_dir;
  t->base_metric_ = metric;
  t->counting_ = std::make_unique<CountingDistance>(metric);
  t->boundaries_.resize(num_shards - 1);
  for (uint64_t& b : t->boundaries_) {
    in.read(reinterpret_cast<char*>(&b), sizeof(b));
  }
  if (!in || !std::is_sorted(t->boundaries_.begin(), t->boundaries_.end())) {
    return Status::Corruption("shard manifest: bad range boundaries");
  }
  t->shards_.resize(num_shards);
  SpbTreeOptions sopts = options;
  sopts.num_shards = 1;
  for (size_t s = 0; s < num_shards; ++s) {
    t->boxes_.emplace_back(std::make_unique<ShardBox>());
    SPB_RETURN_IF_ERROR(
        SpbTree::Open(storage_dir + "/shard_" + std::to_string(s), metric,
                      sopts, &t->shards_[s]));
  }
  // The router's mapping is shard 0's restored mapping (every shard was
  // built from one shared pivot table, delta and curve).
  const SpbTree& s0 = *t->shards_[0];
  t->space_ = std::make_unique<MappedSpace>(PivotTable(s0.space().pivots()),
                                            *metric, s0.options().delta,
                                            s0.options().curve);
  if (num_shards > 1) {
    SPB_RETURN_IF_ERROR(t->RecomputeBoxes());
    for (auto& shard : t->shards_) shard->ResetCounters();
  }
  *out = std::move(t);
  return Status::OK();
}

bool ShardedSpbTree::IsShardedDir(const std::string& storage_dir) {
  std::error_code ec;
  return std::filesystem::exists(ManifestPath(storage_dir), ec);
}

Status ShardedSpbTree::WriteManifest() const {
  std::error_code ec;
  std::filesystem::create_directories(storage_dir_, ec);
  std::ofstream outf(ManifestPath(storage_dir_),
                     std::ios::binary | std::ios::trunc);
  if (!outf) {
    return Status::IOError("cannot write shard manifest in " + storage_dir_);
  }
  const uint64_t magic = kManifestMagic;
  const uint64_t n = shards_.size();
  outf.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  outf.write(reinterpret_cast<const char*>(&n), sizeof(n));
  for (const uint64_t b : boundaries_) {
    outf.write(reinterpret_cast<const char*>(&b), sizeof(b));
  }
  outf.flush();
  return outf ? Status::OK()
              : Status::IOError("short write to shard manifest");
}

Status ShardedSpbTree::Save() {
  if (storage_dir_.empty()) {
    return Status::InvalidArgument("Save() needs a disk-backed index");
  }
  for (auto& shard : shards_) {
    SPB_RETURN_IF_ERROR(shard->Save());
  }
  return WriteManifest();
}

Status ShardedSpbTree::Compact() {
  for (auto& shard : shards_) {
    SPB_RETURN_IF_ERROR(shard->Compact());
  }
  return Status::OK();
}

namespace {

/// Allocates a box's cell arrays on its first write. Caller holds box.mu;
/// the plain stores to dims/lo/hi are published to readers by the release
/// store of the first even seq value. (Templates so the private nested
/// ShardBox type is named by deduction only.)
template <typename Box>
void EnsureBoxStorage(Box& box, size_t dims) {
  if (box.lo != nullptr) return;
  box.dims = dims;
  box.lo.reset(new std::atomic<uint32_t>[dims]);
  box.hi.reset(new std::atomic<uint32_t>[dims]);
}

/// Seqlock write section: bump odd, mutate via `fill`, bump even. Caller
/// holds box.mu (writers are serialized, so plain load of seq is fine).
template <typename Box, typename Fill>
void WriteBox(Box& box, Fill fill) {
  const uint32_t s0 = box.seq.load(std::memory_order_relaxed);
  box.seq.store(s0 + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  fill();
  box.seq.store(s0 + 2, std::memory_order_release);
}

}  // namespace

Status ShardedSpbTree::RecomputeBoxes() {
  const size_t dims = space_->dims();
  std::vector<uint64_t> keys;
  MappedSpace::CellBlock block;
  std::vector<uint32_t> lo(dims), hi(dims);
  for (size_t s = 0; s < shards_.size(); ++s) {
    // Compute the extent outside the write section: the leaf scan does real
    // I/O, and seqlock readers spin (not sleep) while seq is odd.
    SpbTree& shard = *shards_[s];
    const Snapshot snap = shard.AcquireSnapshot();
    const IndexVersion& v = snap.version();
    bool has_entries = v.num_entries != 0;
    if (has_entries) {
      keys.clear();
      BPlusTree::LeafCursor cur(&shard.btree(),
                                TreeVersion{v.root, v.height, v.num_entries});
      SPB_RETURN_IF_ERROR(cur.SeekFirst());
      while (cur.valid()) {
        keys.push_back(cur.entry().key);
        SPB_RETURN_IF_ERROR(cur.Next());
      }
      space_->DecodeKeys(keys.data(), keys.size(), &block);
      for (size_t d = 0; d < dims; ++d) {
        uint32_t l = block.At(d, 0), h = block.At(d, 0);
        for (size_t i = 1; i < keys.size(); ++i) {
          l = std::min(l, block.At(d, i));
          h = std::max(h, block.At(d, i));
        }
        lo[d] = l;
        hi[d] = h;
      }
    }
    ShardBox& box = *boxes_[s];
    std::lock_guard<InstrumentedMutex> lock(box.mu);
    EnsureBoxStorage(box, dims);
    WriteBox(box, [&] {
      box.valid.store(has_entries, std::memory_order_relaxed);
      if (has_entries) {
        for (size_t d = 0; d < dims; ++d) {
          box.lo[d].store(lo[d], std::memory_order_relaxed);
          box.hi[d].store(hi[d], std::memory_order_relaxed);
        }
      }
    });
  }
  return Status::OK();
}

void ShardedSpbTree::GrowBox(size_t s, const std::vector<uint32_t>& cells) {
  ShardBox& box = *boxes_[s];
  std::lock_guard<InstrumentedMutex> lock(box.mu);
  EnsureBoxStorage(box, cells.size());
  WriteBox(box, [&] {
    if (!box.valid.load(std::memory_order_relaxed)) {
      for (size_t d = 0; d < cells.size(); ++d) {
        box.lo[d].store(cells[d], std::memory_order_relaxed);
        box.hi[d].store(cells[d], std::memory_order_relaxed);
      }
      box.valid.store(true, std::memory_order_relaxed);
      return;
    }
    for (size_t d = 0; d < cells.size(); ++d) {
      const uint32_t c = cells[d];
      if (c < box.lo[d].load(std::memory_order_relaxed)) {
        box.lo[d].store(c, std::memory_order_relaxed);
      }
      if (c > box.hi[d].load(std::memory_order_relaxed)) {
        box.hi[d].store(c, std::memory_order_relaxed);
      }
    }
  });
}

bool ShardedSpbTree::LoadBox(size_t s, std::vector<uint32_t>* lo,
                             std::vector<uint32_t>* hi) const {
  const ShardBox& box = *boxes_[s];
  for (;;) {
    const uint32_t s0 = box.seq.load(std::memory_order_acquire);
    if (s0 == 0) return false;  // never written: shard still empty
    if (s0 & 1) {
      // Writer in flight; insert-path growth is a few stores, recompute
      // copies precomputed extents — both sub-microsecond windows.
      std::this_thread::yield();
      continue;
    }
    const bool valid = box.valid.load(std::memory_order_relaxed);
    if (valid) {
      lo->resize(box.dims);
      hi->resize(box.dims);
      for (size_t d = 0; d < box.dims; ++d) {
        (*lo)[d] = box.lo[d].load(std::memory_order_relaxed);
        (*hi)[d] = box.hi[d].load(std::memory_order_relaxed);
      }
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (box.seq.load(std::memory_order_relaxed) == s0) return valid;
  }
}

Status ShardedSpbTree::Insert(const Blob& obj, ObjectId id) {
  return BatchInsert({obj}, {id});
}

Status ShardedSpbTree::BatchInsert(const std::vector<Blob>& objs,
                                   const std::vector<ObjectId>& ids) {
  if (objs.size() != ids.size()) {
    return Status::InvalidArgument("BatchInsert: objs/ids size mismatch");
  }
  if (shards_.size() == 1) return shards_[0]->BatchInsert(objs, ids);
  std::vector<std::vector<WriteQueue::Request>> per_shard(shards_.size());
  for (size_t i = 0; i < objs.size(); ++i) {
    WriteQueue::Request r = SpbTree::MapWrite(
        *space_, *counting_, WriteQueue::OpKind::kInsert, objs[i], ids[i]);
    const size_t s = RouteKey(r.key);
    // Grow the box before the shard publishes, so a scatter that sees the
    // new object also sees a box covering it. If the shard turns out Busy
    // the box merely over-covers — conservative, never wrong.
    GrowBox(s, space_->ToCells(r.phi));
    per_shard[s].push_back(std::move(r));
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    SPB_RETURN_IF_ERROR(shards_[s]->Write(&per_shard[s]));
  }
  return Status::OK();
}

Status ShardedSpbTree::Delete(const Blob& obj, ObjectId id, bool* found) {
  if (shards_.size() == 1) return shards_[0]->Delete(obj, id, found);
  std::vector<WriteQueue::Request> reqs;
  reqs.push_back(SpbTree::MapWrite(*space_, *counting_,
                                   WriteQueue::OpKind::kDelete, obj, id));
  const Status s = shards_[RouteKey(reqs[0].key)]->Write(&reqs);
  *found = reqs[0].found;
  return s;
}

Status ShardedSpbTree::RangeQuery(const Blob& q, double r,
                                  std::vector<ObjectId>* result,
                                  QueryStats* stats) {
  if (shards_.size() == 1) return shards_[0]->RangeQuery(q, r, result, stats);
  StatScope scope(*this, stats);
  result->clear();
  if (r < 0) return Status::OK();
  const size_t dims = space_->dims();
  std::vector<double> phi_q(dims);
  space_->pivots().MapBatch(&q, 1, *counting_, phi_q.data());
  std::vector<uint32_t> rr_lo, rr_hi, blo, bhi;
  space_->RangeRegion(phi_q, r, &rr_lo, &rr_hi);
  // Scatter pruning: a shard whose mapped extent misses RR(q, r) cannot
  // hold a Lemma-1 survivor — skip the dispatch entirely.
  std::vector<size_t> survivors;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!LoadBox(s, &blo, &bhi)) continue;
    if (!MappedSpace::BoxesIntersect(rr_lo, rr_hi, blo, bhi)) continue;
    survivors.push_back(s);
  }

  return ScatterGather(
      survivors.size(),
      [&](size_t i, std::vector<ObjectId>* slot) {
        return shards_[survivors[i]]->RangeQueryMapped(q, phi_q, r, slot,
                                                       nullptr);
      },
      result);
}

Status ShardedSpbTree::KnnQuery(const Blob& q, size_t k,
                                std::vector<Neighbor>* result,
                                QueryStats* stats, KnnTraversal traversal) {
  if (shards_.size() == 1) {
    return shards_[0]->KnnQuery(q, k, result, stats, traversal);
  }
  StatScope scope(*this, stats);
  result->clear();
  if (k == 0) return Status::OK();
  const size_t dims = space_->dims();
  std::vector<double> phi_q(dims);
  space_->pivots().MapBatch(&q, 1, *counting_, phi_q.data());

  // Rank shards by (MIND(q, shard box), shard index); empty shards never
  // dispatch. The tie-break on the index makes the rank order — and with
  // it the whole seeding cascade — deterministic.
  struct Scatter {
    double lb;
    size_t s;
  };
  std::vector<Scatter> order;
  std::vector<uint32_t> blo, bhi;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!LoadBox(s, &blo, &bhi)) continue;
    order.push_back(Scatter{space_->LowerBoundToBox(phi_q, blo, bhi), s});
  }
  std::sort(order.begin(), order.end(), [](const Scatter& a,
                                           const Scatter& b) {
    return a.lb < b.lb || (a.lb == b.lb && a.s < b.s);
  });

  // Phase 1 — sequential seeding: visit ranks in order, each unbounded,
  // until one returns k neighbours; its exact k-th distance is the seed
  // (rank 0 alone whenever it holds >= k objects). Always sequential: the
  // seed must be a deterministic function of the snapshot and the query.
  const double kInf = std::numeric_limits<double>::infinity();
  double seed = kInf;
  std::vector<Neighbor> candidates, shard_result;
  size_t next_rank = 0;
  for (; next_rank < order.size() && seed == kInf; ++next_rank) {
    SPB_RETURN_IF_ERROR(shards_[order[next_rank].s]->KnnQueryMapped(
        q, phi_q, k, &shard_result, nullptr, traversal, kInf));
    candidates.insert(candidates.end(), shard_result.begin(),
                      shard_result.end());
    if (shard_result.size() == k) seed = shard_result.back().distance;
  }

  // Phase 2 — fixed-seed wave over the remaining ranks. A shard whose
  // whole extent lies at or beyond the seed cannot improve the result set
  // (Lemma 3 at shard granularity); every other shard runs with its pruning
  // bound starting at exactly `seed`, so its traversal — results, logical
  // PA, compdists — depends only on (snapshot, q, k, seed), never on a
  // sibling's progress. That is what makes parallel and serial execution
  // of the wave byte-identical.
  std::vector<size_t> wave;
  for (; next_rank < order.size(); ++next_rank) {
    if (order[next_rank].lb < seed) wave.push_back(order[next_rank].s);
  }
  SPB_RETURN_IF_ERROR(ScatterGather(
      wave.size(),
      [&](size_t i, std::vector<Neighbor>* slot) {
        return shards_[wave[i]]->KnnQueryMapped(q, phi_q, k, slot, nullptr,
                                                traversal, seed);
      },
      &candidates));
  std::sort(candidates.begin(), candidates.end(),
            [](const Neighbor& a, const Neighbor& b) {
              return a.distance < b.distance ||
                     (a.distance == b.distance && a.id < b.id);
            });
  if (candidates.size() > k) candidates.resize(k);
  *result = std::move(candidates);
  return Status::OK();
}

Status ShardedSpbTree::CheckIntegrity() {
  for (size_t s = 0; s < shards_.size(); ++s) {
    SPB_RETURN_IF_ERROR(shards_[s]->CheckIntegrity());
  }
  if (shards_.size() == 1) return Status::OK();
  // Routing invariant: every leaf key lives in the shard its top bits name.
  for (size_t s = 0; s < shards_.size(); ++s) {
    const Snapshot snap = shards_[s]->AcquireSnapshot();
    const IndexVersion& v = snap.version();
    if (v.num_entries == 0) continue;
    BPlusTree::LeafCursor cur(&shards_[s]->btree(),
                              TreeVersion{v.root, v.height, v.num_entries});
    SPB_RETURN_IF_ERROR(cur.SeekFirst());
    while (cur.valid()) {
      if (RouteKey(cur.entry().key) != s) {
        return Status::Corruption("misrouted key in shard " +
                                  std::to_string(s));
      }
      SPB_RETURN_IF_ERROR(cur.Next());
    }
  }
  return Status::OK();
}

uint64_t ShardedSpbTree::size() const {
  uint64_t n = 0;
  for (const auto& shard : shards_) n += shard->size();
  return n;
}

uint64_t ShardedSpbTree::storage_bytes() const {
  uint64_t n = 0;
  for (const auto& shard : shards_) n += shard->storage_bytes();
  return n;
}

QueryStats ShardedSpbTree::cumulative_stats() const {
  QueryStats total;
  for (const auto& shard : shards_) total += shard->cumulative_stats();
  total.distance_computations +=
      counting_->count() + extra_distance_computations_;
  return total;
}

StatsSnapshot ShardedSpbTree::CollectStats() const {
  StatsSnapshot s;
  s.name = name();
  s.num_objects = size();
  s.storage_bytes = storage_bytes();
  s.num_shards = uint32_t(shards_.size());
  // Top-level PA/compdists come from the router's cumulative_stats(), which
  // folds in the router's own mapping/pivot-selection distance calls on top
  // of the per-shard sums — so construction and update accounting matches
  // what the unsharded tree would report.
  const QueryStats q = cumulative_stats();
  s.page_accesses = q.page_accesses;
  s.distance_computations = q.distance_computations;
  s.SetIoStats(io_stats());
  // Aggregate the subsystem sections from the per-shard snapshots: sums,
  // except wq_max_group and locator_epoch (max) and locator_model_present
  // (AND).
  s.shards.reserve(shards_.size());
  for (const auto& shard : shards_) s.shards.push_back(shard->CollectStats());
  s.locator_model_present = !s.shards.empty();
  for (const StatsSnapshot& c : s.shards) {
    s.wal_segment_bytes += c.wal_segment_bytes;
    s.wal_checkpoint_lsn += c.wal_checkpoint_lsn;
    s.wal_next_lsn += c.wal_next_lsn;
    s.wal_pending_records += c.wal_pending_records;
    s.wal_groups += c.wal_groups;
    s.wal_fsyncs += c.wal_fsyncs;
    s.wal_replayed_records += c.wal_replayed_records;
    s.wq_ops += c.wq_ops;
    s.wq_groups += c.wq_groups;
    s.wq_max_group = std::max(s.wq_max_group, c.wq_max_group);
    s.locator_model_present =
        s.locator_model_present && c.locator_model_present;
    s.locator_epoch = std::max(s.locator_epoch, c.locator_epoch);
    s.locator_leaves += c.locator_leaves;
    s.locator_internal_nodes += c.locator_internal_nodes;
    s.locator_hits += c.locator_hits;
    s.locator_fallbacks += c.locator_fallbacks;
    s.locator_stale += c.locator_stale;
    s.locator_rebuilds += c.locator_rebuilds;
    s.planner_planned_knn += c.planner_planned_knn;
    s.planner_routed_greedy += c.planner_routed_greedy;
    s.planner_routed_incremental += c.planner_routed_incremental;
    s.planner_cutoff_disabled += c.planner_cutoff_disabled;
  }
  return s;
}

void ShardedSpbTree::ResetCounters() {
  for (auto& shard : shards_) shard->ResetCounters();
  counting_->Reset();
  extra_distance_computations_ = 0;
}

IoStats ShardedSpbTree::io_stats() const {
  IoStats total;
  for (const auto& shard : shards_) total += shard->io_stats();
  return total;
}

void ShardedSpbTree::FlushCaches() {
  for (auto& shard : shards_) shard->FlushCaches();
}

std::string ShardedSpbTree::name() const {
  return "Sharded-SPB-tree(S=" + std::to_string(shards_.size()) + ")";
}

Status ShardedSpbTree::ApplyTuning(const TuningOptions& t) {
  if (t.num_shards != shards_.size()) {
    return Status::InvalidArgument(
        "num_shards is a construction-time parameter: re-partitioning is a "
        "rebuild, not a tune");
  }
  TuningOptions per_shard = t;
  per_shard.num_shards = 1;
  for (auto& shard : shards_) {
    SPB_RETURN_IF_ERROR(shard->ApplyTuning(per_shard));
  }
  return Status::OK();
}

TuningOptions ShardedSpbTree::tuning() const {
  TuningOptions t = shards_[0]->tuning();
  t.num_shards = shards_.size();
  return t;
}

}  // namespace spb
