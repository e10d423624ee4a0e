#include "core/spb_tree.h"

#include "common/coding.h"
#include "common/crash_point.h"
#include "common/parallel.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <filesystem>
#include <cstring>
#include <queue>
#include <thread>
#include <unordered_map>

namespace spb {

namespace {

/// Captures the cost counters around one query and writes the delta (plus
/// wall time) into `out` when it goes out of scope.
class StatScope {
 public:
  StatScope(const SpbTree& tree, QueryStats* out)
      : tree_(tree), out_(out), before_(tree.cumulative_stats()),
        start_(std::chrono::steady_clock::now()) {}

  ~StatScope() {
    if (out_ == nullptr) return;
    const QueryStats after = tree_.cumulative_stats();
    out_->page_accesses = after.page_accesses - before_.page_accesses;
    out_->distance_computations =
        after.distance_computations - before_.distance_computations;
    out_->elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
  }

 private:
  const SpbTree& tree_;
  QueryStats* out_;
  QueryStats before_;
  std::chrono::steady_clock::time_point start_;
};

// Merges the consecutive sorted runs [runs[i], runs[i+1]) of `*v` into one
// sorted range, pairwise, the pairs of each level on parallel threads. With
// a strict total order the result is the same for any run boundaries.
template <typename T, typename Less>
void MergeSortedRuns(std::vector<T>* v, std::vector<size_t> runs, Less less) {
  while (runs.size() > 2) {
    const size_t pairs = (runs.size() - 1) / 2;
    ParallelFor(pairs, 1, [&](size_t begin, size_t end) {
      for (size_t p = begin; p < end; ++p) {
        std::inplace_merge(v->begin() + ptrdiff_t(runs[2 * p]),
                           v->begin() + ptrdiff_t(runs[2 * p + 1]),
                           v->begin() + ptrdiff_t(runs[2 * p + 2]), less);
      }
    });
    std::vector<size_t> next;
    for (size_t i = 0; i < runs.size(); i += 2) next.push_back(runs[i]);
    if (next.back() != runs.back()) next.push_back(runs.back());
    runs = std::move(next);
  }
}

}  // namespace

// All transient state of one query traversal, as reusable buffers: once a
// few queries have warmed up the capacities, RangeQuery and KnnQuery run
// with zero heap allocation in the traversal loop (the decoded-node cache —
// or `scratch_node` when it is off — supplies parsed nodes, LeafScratch the
// batch buffers, and the FIFO/heap vectors keep their high-water capacity).
struct SpbTree::QueryArena {
  // Pending subtree of a range traversal. The parent's MBB corners live in
  // `box_buf` (lo at box_off, hi at box_off + dims): the FIFO grows while
  // iterating, so offsets stay valid where pointers would dangle.
  struct RangeTodo {
    PageId id;
    uint32_t box_off;
    bool has_box;
  };
  // kNN frontier element (min-heap on mind via std::push_heap/pop_heap —
  // the standard mandates the same element evolution as the
  // std::priority_queue this replaces).
  struct KnnHeapItem {
    double mind;
    bool is_entry;
    PageId node;      // when !is_entry
    LeafEntry entry;  // when is_entry
  };

  std::vector<double> phi_q;
  std::vector<uint32_t> rr_lo, rr_hi;  // range region RR(q, r)
  std::vector<uint32_t> ilo, ihi;      // RR ∩ MBB(N)
  std::vector<RangeTodo> todo;         // range FIFO (index cursor, no pops)
  std::vector<uint32_t> box_buf;       // flat parent-box storage
  std::vector<uint64_t> region_keys;   // computeSFC enumeration
  std::vector<KnnHeapItem> heap;       // kNN frontier
  std::vector<Neighbor> best;          // current k best (max-heap)
  DecodedNode scratch_node;            // decode target on cache miss/off
  LeafScratch leaf;                    // batched leaf verification buffers
};

SpbTree::QueryArena& SpbTree::ThreadArena() {
  // One arena per thread is safe because a thread runs one query at a time
  // (QueryExecutor workers are distinct threads; SJA's paired cursors own
  // their node scratch separately).
  thread_local QueryArena arena;
  return arena;
}

Status SpbTree::MakeFiles(std::unique_ptr<PageFile>* btree_file,
                          std::unique_ptr<PageFile>* raf_file) const {
  if (options_.storage_dir.empty()) {
    *btree_file = PageFile::CreateInMemory();
    *raf_file = PageFile::CreateInMemory();
    return Status::OK();
  }
  std::error_code ec;
  std::filesystem::create_directories(options_.storage_dir, ec);
  if (ec) return Status::IOError("cannot create " + options_.storage_dir);
  SPB_RETURN_IF_ERROR(PageFile::CreateOnDisk(
      options_.storage_dir + "/btree.spb", btree_file));
  return PageFile::CreateOnDisk(options_.storage_dir + "/raf.spb", raf_file);
}

Status SpbTree::Build(const std::vector<Blob>& objects,
                      const DistanceFunction* metric,
                      const SpbTreeOptions& options,
                      std::unique_ptr<SpbTree>* out) {
  CountingDistance counting(metric);
  PivotSelectionOptions popts;
  popts.num_pivots = options.num_pivots;
  popts.seed = options.seed;
  PivotTable pivots(
      SelectPivots(options.pivot_selector, objects, counting, popts));
  if (pivots.empty() && !objects.empty()) {
    return Status::InvalidArgument("pivot selection produced no pivots");
  }
  Status s = BuildInternal(objects, metric, std::move(pivots), options, out);
  if (s.ok()) {
    // Fold the pivot-selection distance computations into construction cost.
    (*out)->extra_distance_computations_ = counting.count();
  }
  return s;
}

Status SpbTree::BuildWithPivots(const std::vector<Blob>& objects,
                                const DistanceFunction* metric,
                                PivotTable pivots,
                                const SpbTreeOptions& options,
                                std::unique_ptr<SpbTree>* out,
                                const std::vector<ObjectId>* ids,
                                const double* phis) {
  if (ids != nullptr && ids->size() != objects.size()) {
    return Status::InvalidArgument("BuildWithPivots: objects/ids mismatch");
  }
  return BuildInternal(objects, metric, std::move(pivots), options, out, ids,
                       phis);
}

Status SpbTree::BuildInternal(const std::vector<Blob>& objects,
                              const DistanceFunction* metric,
                              PivotTable pivots,
                              const SpbTreeOptions& options,
                              std::unique_ptr<SpbTree>* out,
                              const std::vector<ObjectId>* ids,
                              const double* phis_in) {
  if (options.num_pivots == 0 || (pivots.empty() && !objects.empty())) {
    return Status::InvalidArgument("SPB-tree needs at least one pivot");
  }
  auto tree = std::unique_ptr<SpbTree>(new SpbTree(metric, options));
  tree->sample_rng_ = Rng(options.seed ^ 0x5b5b5b5bULL);

  // Handle the degenerate empty-index case with a single dummy pivot-free
  // mapping: create structures lazily sized for 1 dimension.
  if (pivots.empty()) {
    pivots = PivotTable({Blob{}});
  }
  tree->space_ = std::make_unique<MappedSpace>(std::move(pivots), *metric,
                                               options.delta, options.curve);

  std::unique_ptr<PageFile> btree_file, raf_file;
  SPB_RETURN_IF_ERROR(tree->MakeFiles(&btree_file, &raf_file));
  SPB_RETURN_IF_ERROR(BPlusTree::Create(std::move(btree_file),
                                        options.btree_cache_pages,
                                        &tree->space_->curve(), &tree->btree_));
  SPB_RETURN_IF_ERROR(
      tree->btree_->SetNodeCacheEntries(options.node_cache_entries));
  {
    std::unique_ptr<Raf> raf;
    SPB_RETURN_IF_ERROR(
        Raf::Create(std::move(raf_file), options.raf_cache_pages, &raf));
    tree->raf_ = std::move(raf);
  }

  // ---- Stage 1+2: map every object, key it and sort by SFC value, in
  // contiguous chunks on parallel threads (common/parallel.h). `pos` is the
  // position in `objects` (needed to fetch the payload once ids are explicit
  // and no longer double as positions). The rows of a chunk are mapped by
  // that chunk's thread — unless the caller (a sharding router) already
  // mapped them and passed them in, in which case the distance calls were
  // counted at the router.
  struct Mapped {
    uint64_t key;
    ObjectId id;
    uint32_t pos;
  };
  // (key, id) is the leaf order; `pos` only makes the order total, so the
  // merged result cannot depend on how many chunks the host ran.
  auto leaf_order = [](const Mapped& a, const Mapped& b) {
    if (a.key != b.key) return a.key < b.key;
    if (a.id != b.id) return a.id < b.id;
    return a.pos < b.pos;
  };
  const size_t n = objects.size();
  const size_t dims = tree->space_->dims();
  std::vector<Mapped> mapped(n);
  std::vector<double> phis_own(phis_in == nullptr ? n * dims : 0);
  const double* phis = phis_in != nullptr ? phis_in : phis_own.data();
  const MappedSpace& space = *tree->space_;
  const CountingDistance& counting = tree->counting_;
  const std::vector<size_t> runs =
      ParallelFor(n, kBuildChunkObjects, [&](size_t begin, size_t end) {
        if (phis_in == nullptr) {
          space.pivots().MapBatch(objects.data() + begin, end - begin,
                                  counting, phis_own.data() + begin * dims);
        }
        uint64_t keys[256];
        for (size_t i = begin; i < end; i += 256) {
          const size_t m = std::min<size_t>(256, end - i);
          space.KeysFor(phis + i * dims, m, keys);
          for (size_t j = 0; j < m; ++j) {
            const size_t p = i + j;
            const ObjectId id = ids != nullptr ? (*ids)[p] : ObjectId(p);
            mapped[p] = Mapped{keys[j], id, uint32_t(p)};
          }
        }
        std::sort(mapped.begin() + ptrdiff_t(begin),
                  mapped.begin() + ptrdiff_t(end), leaf_order);
      });
  MergeSortedRuns(&mapped, runs, leaf_order);

  // Reservoir sample for the cost model: a serial pass in object order, so
  // the RNG sequence is the same at any thread count.
  std::vector<std::vector<double>> sample;
  const size_t sample_cap = options.cost_sample_size;
  Rng sample_rng(options.seed ^ 0xc0);
  for (size_t i = 0; sample_cap > 0 && i < n; ++i) {
    const double* phi = phis + i * dims;
    if (sample.size() < sample_cap) {
      sample.emplace_back(phi, phi + dims);
    } else {
      const uint64_t slot = sample_rng.Uniform(i + 1);
      if (slot < sample_cap) sample[slot].assign(phi, phi + dims);
    }
  }
  std::vector<double>().swap(phis_own);

  // ---- RAF in ascending SFC order; B+-tree entries reference offsets.
  // Reading the payloads in SFC order is a random walk over the input, so
  // each block of records first has its payloads gathered into a bounded
  // staging buffer on parallel threads; AppendBatch then copies them in
  // order.
  std::vector<LeafEntry> entries;
  entries.reserve(n);
  {
    constexpr size_t kStageBytes = size_t{1} << 20;
    constexpr size_t kStageRecords = 4 * kBuildChunkObjects;
    std::vector<uint8_t> stage;
    std::vector<size_t> starts;  // payload j of the block at stage[starts[j]]
    std::vector<Raf::Record> records;
    std::vector<uint64_t> offsets;
    for (size_t i = 0; i < n;) {
      // The block: records i.. while they and their payloads fit (at least
      // one).
      size_t end = i, bytes = 0;
      starts.clear();
      do {
        starts.push_back(bytes);
        bytes += objects[mapped[end++].pos].size();
      } while (end < n && end - i < kStageRecords &&
               bytes + objects[mapped[end].pos].size() <= kStageBytes);
      starts.push_back(bytes);
      const size_t m = end - i;
      stage.resize(bytes);
      records.resize(m);
      offsets.resize(m);
      ParallelFor(m, kBuildChunkObjects, [&](size_t b, size_t e) {
        for (size_t j = b; j < e; ++j) {
          const Blob& obj = objects[mapped[i + j].pos];
          uint8_t* dst = stage.data() + starts[j];
          if (!obj.empty()) std::memcpy(dst, obj.data(), obj.size());
          records[j] = Raf::Record{mapped[i + j].id, BlobRef(dst, obj.size())};
        }
      });
      SPB_RETURN_IF_ERROR(tree->raf_->AppendBatch(records, offsets.data()));
      for (size_t j = 0; j < m; ++j) {
        entries.push_back(LeafEntry{mapped[i + j].key, offsets[j]});
      }
      i = end;
    }
  }
  std::vector<Mapped>().swap(mapped);
  SPB_RETURN_IF_ERROR(tree->raf_->Sync());
  SPB_RETURN_IF_ERROR(tree->btree_->BulkLoad(entries));
  SPB_RETURN_IF_ERROR(tree->btree_->Sync());
  tree->num_objects_ = objects.size();
  tree->inserts_seen_ = objects.size();

  // ---- Cost model: union distance distribution sample + node MBB summary.
  std::vector<std::pair<std::vector<uint32_t>, std::vector<uint32_t>>> boxes;
  SPB_RETURN_IF_ERROR(tree->CollectNodeBoxes(&boxes));
  const double data_pages =
      std::max<double>(1.0, double(tree->raf_->file_bytes() / kPageSize) - 1);
  const double f = double(std::max<uint64_t>(tree->num_objects_, 1)) /
                   data_pages;
  uint64_t leaf_pages =
      (tree->num_objects_ + BptNode::kLeafCapacity - 1) /
      std::max<size_t>(BptNode::kLeafCapacity, 1);
  tree->cost_model_ = CostModel(std::move(sample), tree->num_objects_, f,
                                leaf_pages, std::move(boxes));
  if (objects.size() >= 2 && options.cost_sample_size > 0) {
    tree->cost_model_.set_precision(PivotSetPrecision(
        tree->space_->pivots(), objects, tree->counting_,
        /*num_pairs=*/256, options.seed ^ 0xfeed));
    // Overall distance distribution (Eq. 1): sampled pairwise distances for
    // the kNN radius estimate, plus intrinsic dimensionality (rho) for
    // sub-sample quantile extrapolation.
    Rng pair_rng(options.seed ^ 0xd15f);
    std::vector<double> pair_distances;
    pair_distances.reserve(512);
    double mean = 0.0;
    for (int t = 0; t < 512; ++t) {
      const Blob& a = objects[pair_rng.Uniform(objects.size())];
      const Blob& b = objects[pair_rng.Uniform(objects.size())];
      const double d = tree->counting_.Distance(a, b);
      pair_distances.push_back(d);
      mean += d;
    }
    mean /= double(pair_distances.size());
    double var = 0.0;
    for (double d : pair_distances) var += (d - mean) * (d - mean);
    var /= double(pair_distances.size());
    const double rho = var > 0 ? mean * mean / (2.0 * var) : 1.0;
    std::sort(pair_distances.begin(), pair_distances.end());
    tree->cost_model_.set_distance_distribution(std::move(pair_distances),
                                                rho);
  }
  tree->InitFetcher();
  tree->InitSnapshots();
  SPB_RETURN_IF_ERROR(tree->InitEngine());
  // No writer lock needed: the tree is not shared until *out is assigned.
  tree->RebuildLocatorLocked();
  *out = std::move(tree);
  return Status::OK();
}

namespace {

constexpr uint64_t kSpbMetaMagic = 0x5350424D45544131ULL;  // "SPBMETA1"

// Serializes a byte buffer into a page file: page 0 holds magic + length,
// the raw bytes follow across subsequent pages.
Status WriteBufferToPageFile(const std::vector<uint8_t>& buf,
                             PageFile* file) {
  Page page;
  EncodeFixed64(page.bytes(), kSpbMetaMagic);
  EncodeFixed64(page.bytes() + 8, buf.size());
  PageId id;
  if (file->num_pages() == 0) {
    SPB_RETURN_IF_ERROR(file->Allocate(&id));
  }
  SPB_RETURN_IF_ERROR(file->Write(0, page));
  size_t pos = 0;
  PageId next = 1;
  while (pos < buf.size()) {
    Page data;
    const size_t chunk = std::min(kPageSize, buf.size() - pos);
    std::memcpy(data.bytes(), buf.data() + pos, chunk);
    while (file->num_pages() <= next) {
      PageId unused;
      SPB_RETURN_IF_ERROR(file->Allocate(&unused));
    }
    SPB_RETURN_IF_ERROR(file->Write(next, data));
    pos += chunk;
    ++next;
  }
  return file->Sync();
}

Status ReadBufferFromPageFile(PageFile* file, std::vector<uint8_t>* buf) {
  if (file->num_pages() == 0) return Status::Corruption("empty meta file");
  Page page;
  SPB_RETURN_IF_ERROR(file->Read(0, &page));
  if (DecodeFixed64(page.bytes()) != kSpbMetaMagic) {
    return Status::Corruption("bad SPB meta magic");
  }
  const uint64_t len = DecodeFixed64(page.bytes() + 8);
  buf->resize(len);
  size_t pos = 0;
  PageId next = 1;
  while (pos < len) {
    SPB_RETURN_IF_ERROR(file->Read(next, &page));
    const size_t chunk = std::min(kPageSize, size_t(len) - pos);
    std::memcpy(buf->data() + pos, page.bytes(), chunk);
    pos += chunk;
    ++next;
  }
  return Status::OK();
}

// Simple append-only binary writer/reader for the meta blob.
class MetaWriter {
 public:
  void U32(uint32_t v) {
    uint8_t b[4];
    EncodeFixed32(b, v);
    buf_.insert(buf_.end(), b, b + 4);
  }
  void U64(uint64_t v) {
    uint8_t b[8];
    EncodeFixed64(b, v);
    buf_.insert(buf_.end(), b, b + 8);
  }
  void F64(double v) {
    uint8_t b[8];
    EncodeDouble(b, v);
    buf_.insert(buf_.end(), b, b + 8);
  }
  void Bytes(const Blob& b) {
    U32(uint32_t(b.size()));
    buf_.insert(buf_.end(), b.begin(), b.end());
  }
  std::vector<uint8_t>& buf() { return buf_; }

 private:
  std::vector<uint8_t> buf_;
};

class MetaReader {
 public:
  explicit MetaReader(const std::vector<uint8_t>& buf) : buf_(buf) {}

  bool U32(uint32_t* v) {
    if (pos_ + 4 > buf_.size()) return false;
    *v = DecodeFixed32(buf_.data() + pos_);
    pos_ += 4;
    return true;
  }
  bool U64(uint64_t* v) {
    if (pos_ + 8 > buf_.size()) return false;
    *v = DecodeFixed64(buf_.data() + pos_);
    pos_ += 8;
    return true;
  }
  bool F64(double* v) {
    if (pos_ + 8 > buf_.size()) return false;
    *v = DecodeDouble(buf_.data() + pos_);
    pos_ += 8;
    return true;
  }
  bool Bytes(Blob* b) {
    uint32_t len;
    if (!U32(&len) || pos_ + len > buf_.size()) return false;
    b->assign(buf_.begin() + ptrdiff_t(pos_),
              buf_.begin() + ptrdiff_t(pos_ + len));
    pos_ += len;
    return true;
  }

 private:
  const std::vector<uint8_t>& buf_;
  size_t pos_ = 0;
};

}  // namespace

Status SpbTree::Save() {
  // Blocking lock, not try-lock: a checkpoint queues behind in-flight
  // commit groups (and vice versa), so it can never truncate WAL records a
  // group appended but has not applied yet.
  std::lock_guard<std::mutex> wlock(writer_mu_);
  return SaveLocked();
}

Status SpbTree::SaveLocked() {
  if (options_.storage_dir.empty()) {
    return Status::InvalidArgument("Save() requires a disk-backed index");
  }
  SPB_RETURN_IF_ERROR(btree_->Sync());
  SPB_RETURN_IF_ERROR(raf_->Sync());

  MetaWriter w;
  w.U64(num_objects_);
  w.U32(uint32_t(space_->pivots().size()));
  w.F64(options_.delta);
  w.U32(uint32_t(options_.curve));
  w.Bytes(space_->pivots().Serialize());
  // Cost model.
  w.F64(cost_model_.precision());
  w.F64(cost_model_.intrinsic_dim());
  w.F64(cost_model_.objects_per_page());
  w.U64(cost_model_.num_leaf_pages());
  const auto& pairs = cost_model_.pair_distances();
  w.U32(uint32_t(pairs.size()));
  for (double d : pairs) w.F64(d);
  const auto& sample = cost_model_.sample();
  w.U32(uint32_t(sample.size()));
  for (const auto& phi : sample) {
    for (double d : phi) w.F64(d);
  }
  // The RAF generation this checkpoint captured (appended last: MetaReader
  // returns false past EOF, so pre-PR7 meta files read back as 0, matching
  // pre-PR7 RAF headers). A mismatch on Open means a crash separated a
  // compaction's file swap from its checkpoint.
  w.U64(raf_->generation());
  // The dead-byte debt at checkpoint time, so a reopened tree still owes
  // the compactor what it owed before the restart (replayed deletes re-add
  // their own debt on top). Pre-PR7 meta files read back as 0.
  w.U64(raf_->dead_bytes());
  // Planner calibration EMA, so a reopened tree keeps the calibration it
  // learned from live traffic. Appended last: pre-PR9 meta files read back
  // the neutral 1.0.
  {
    std::lock_guard<std::mutex> lock(cost_mu_);
    w.F64(planner_ema_);
  }

  std::unique_ptr<PageFile> meta;
  SPB_RETURN_IF_ERROR(
      PageFile::CreateOnDisk(options_.storage_dir + "/meta.spb", &meta));
  SPB_RETURN_IF_ERROR(WriteBufferToPageFile(w.buf(), meta.get()));

  if (wal_ != nullptr) {
    // Everything the log covers is durable in the tree files now; a crash
    // here replays already-applied records, which is idempotent.
    MaybeCrash("checkpoint_before_truncate");
    SPB_RETURN_IF_ERROR(wal_->Checkpoint());
  }
  // Pages retired since the last checkpoint are now safe to recycle: no
  // remaining WAL record predates the tree state that superseded them, so
  // a replay can never need their old bytes (the pool writes through —
  // recycling earlier could overwrite a page an interrupted epoch still
  // reaches from the checkpointed root).
  std::vector<PageId> recyclable;
  {
    std::lock_guard<std::mutex> lock(recycle_mu_);
    recyclable.swap(pending_recycle_);
  }
  if (!recyclable.empty()) btree_->AddFreePages(recyclable);
  return Status::OK();
}

Status SpbTree::Open(const std::string& storage_dir,
                     const DistanceFunction* metric,
                     const SpbTreeOptions& options,
                     std::unique_ptr<SpbTree>* out) {
  std::unique_ptr<PageFile> meta_file;
  SPB_RETURN_IF_ERROR(
      PageFile::OpenOnDisk(storage_dir + "/meta.spb", &meta_file));
  std::vector<uint8_t> buf;
  SPB_RETURN_IF_ERROR(ReadBufferFromPageFile(meta_file.get(), &buf));
  MetaReader r(buf);

  SpbTreeOptions opts = options;
  opts.storage_dir = storage_dir;
  uint64_t num_objects;
  uint32_t num_pivots, curve_raw;
  Blob pivot_blob;
  if (!r.U64(&num_objects) || !r.U32(&num_pivots) || !r.F64(&opts.delta) ||
      !r.U32(&curve_raw) || !r.Bytes(&pivot_blob)) {
    return Status::Corruption("truncated SPB meta");
  }
  opts.num_pivots = num_pivots;
  opts.curve = CurveType(curve_raw);
  PivotTable pivots;
  SPB_RETURN_IF_ERROR(PivotTable::Deserialize(pivot_blob, &pivots));

  auto tree = std::unique_ptr<SpbTree>(new SpbTree(metric, opts));
  tree->sample_rng_ = Rng(opts.seed ^ 0x5b5b5b5bULL);
  tree->space_ = std::make_unique<MappedSpace>(std::move(pivots), *metric,
                                               opts.delta, opts.curve);

  // A leftover compaction temp file means a crash hit before the atomic
  // rename: the real raf.spb is intact, the temp is garbage.
  {
    std::error_code ec;
    std::filesystem::remove(storage_dir + "/raf.compact.spb", ec);
  }
  std::unique_ptr<PageFile> btree_file, raf_file;
  SPB_RETURN_IF_ERROR(
      PageFile::OpenOnDisk(storage_dir + "/btree.spb", &btree_file));
  SPB_RETURN_IF_ERROR(
      PageFile::OpenOnDisk(storage_dir + "/raf.spb", &raf_file));
  SPB_RETURN_IF_ERROR(BPlusTree::Open(std::move(btree_file),
                                      opts.btree_cache_pages,
                                      &tree->space_->curve(), &tree->btree_));
  SPB_RETURN_IF_ERROR(
      tree->btree_->SetNodeCacheEntries(opts.node_cache_entries));
  {
    std::unique_ptr<Raf> raf;
    SPB_RETURN_IF_ERROR(
        Raf::Open(std::move(raf_file), opts.raf_cache_pages, &raf));
    tree->raf_ = std::move(raf);
  }
  tree->num_objects_ = num_objects;
  tree->inserts_seen_ = num_objects;

  // Cost model: restore the persisted distributions, re-walk node boxes.
  double precision, rho, f;
  uint64_t leaf_pages;
  uint32_t pair_count;
  if (!r.F64(&precision) || !r.F64(&rho) || !r.F64(&f) ||
      !r.U64(&leaf_pages) || !r.U32(&pair_count)) {
    return Status::Corruption("truncated SPB meta (cost model)");
  }
  std::vector<double> pair_distances(pair_count);
  for (auto& d : pair_distances) {
    if (!r.F64(&d)) return Status::Corruption("truncated pair distances");
  }
  uint32_t sample_count;
  if (!r.U32(&sample_count)) return Status::Corruption("truncated sample");
  std::vector<std::vector<double>> sample(sample_count);
  for (auto& phi : sample) {
    phi.resize(num_pivots);
    for (auto& d : phi) {
      if (!r.F64(&d)) return Status::Corruption("truncated sample vector");
    }
  }
  // RAF generation vs. the one the meta checkpoint recorded (absent in
  // pre-PR7 meta files: both read 0). A mismatch means a crash landed
  // between a compaction's rename and its checkpoint — btree.spb still
  // references offsets of the replaced file and is garbage; rebuild it
  // from the surviving (compacted) RAF.
  uint64_t meta_raf_generation = 0;
  r.U64(&meta_raf_generation);
  uint64_t meta_dead_bytes = 0;
  r.U64(&meta_dead_bytes);
  double planner_ema = 1.0;
  r.F64(&planner_ema);  // absent in pre-PR9 meta files: neutral 1.0
  if (tree->raf_->generation() != meta_raf_generation) {
    SPB_RETURN_IF_ERROR(tree->RebuildBtreeFromRaf());
    num_objects = tree->num_objects_.load(std::memory_order_relaxed);
    tree->inserts_seen_ = num_objects;
    // meta_dead_bytes described the replaced pre-compaction file; the
    // rebuild already tallied the new file's own debt.
  } else {
    // Restore the checkpoint's compaction debt (replayed deletes re-add
    // theirs on top during InitEngine's WAL replay).
    tree->raf_->AddDeadBytes(meta_dead_bytes);
  }
  std::vector<std::pair<std::vector<uint32_t>, std::vector<uint32_t>>> boxes;
  SPB_RETURN_IF_ERROR(tree->CollectNodeBoxes(&boxes));
  tree->cost_model_ =
      CostModel(std::move(sample), num_objects, f, leaf_pages,
                std::move(boxes));
  tree->cost_model_.set_precision(precision);
  tree->cost_model_.set_distance_distribution(std::move(pair_distances), rho);
  tree->planner_ema_ = planner_ema;
  tree->InitFetcher();
  tree->InitSnapshots();
  // InitEngine replays WAL records past the checkpoint (idempotently, so a
  // checkpoint that raced the crash is harmless) before counters reset.
  SPB_RETURN_IF_ERROR(tree->InitEngine());
  // Model the replayed (current) version; no writer lock needed, the tree
  // is not shared until *out is assigned.
  tree->RebuildLocatorLocked();
  tree->ResetCounters();
  *out = std::move(tree);
  return Status::OK();
}

Status SpbTree::CollectNodeBoxes(
    std::vector<std::pair<std::vector<uint32_t>, std::vector<uint32_t>>>*
        boxes) {
  boxes->clear();
  // Walk the tree breadth-first collecting every entry's MBB; leaves are
  // summarized by their parents' entries, so this covers all nodes except
  // the root (whose box is the union — irrelevant for counting).
  std::queue<PageId> todo;
  todo.push(btree_->root());
  BptNode node;
  std::vector<uint32_t> lo, hi;
  while (!todo.empty()) {
    const PageId id = todo.front();
    todo.pop();
    SPB_RETURN_IF_ERROR(btree_->ReadNode(id, &node));
    if (node.is_leaf) continue;
    for (const InternalEntry& e : node.internal_entries) {
      btree_->DecodeBox(e.mbb_min, e.mbb_max, &lo, &hi);
      boxes->emplace_back(lo, hi);
      todo.push(e.child);
    }
  }
  return Status::OK();
}

void SpbTree::InitSnapshots() {
  // The retire callback runs on whichever thread drops the last pinning
  // snapshot. Everything it touches is thread-safe: node-cache Erase and
  // pool Retire take striped locks, AddFreePages its own mutex. Purge the
  // caches BEFORE free-listing the ids — once an id is reusable, a COW
  // write may redefine it, and no stale decode/frame must survive that.
  snapshots_ = std::make_unique<SnapshotManager>(
      CurrentVersion(), [this](std::vector<PageId> pages) {
        for (PageId p : pages) btree_->node_cache().Erase(p);
        btree_->pool().Retire(pages);
        if (wal_ != nullptr) {
          // Checkpoint-gated recycling: the pool writes through, so a
          // recycled id would be overwritten on disk while WAL records that
          // replay against the checkpointed tree may still reach the old
          // page. Hold the ids until the next checkpoint truncates the log.
          std::lock_guard<std::mutex> lock(recycle_mu_);
          pending_recycle_.insert(pending_recycle_.end(), pages.begin(),
                                  pages.end());
        } else {
          btree_->AddFreePages(pages);
        }
      });
}

IndexVersion SpbTree::CurrentVersion() const {
  const TreeVersion tv = btree_->version();
  IndexVersion v;
  v.root = tv.root;
  v.height = tv.height;
  v.num_entries = tv.num_entries;
  v.raf = RafPtr();
  v.raf_end_offset = v.raf->end_offset();
  v.num_objects = num_objects_.load(std::memory_order_relaxed);
  return v;
}

void SpbTree::PublishCurrent(std::vector<PageId> superseded) {
  snapshots_->Publish(CurrentVersion(), std::move(superseded));
}

Status SpbTree::InsertOneLocked(const Blob& obj, ObjectId id,
                                std::vector<PageId>* superseded) {
  const std::vector<double> phi = space_->Phi(obj, counting_);
  return InsertOneMappedLocked(obj, id, phi.data(), space_->KeyFor(phi),
                               superseded);
}

Status SpbTree::InsertOneMappedLocked(const Blob& obj, ObjectId id,
                                      const double* phi, uint64_t key,
                                      std::vector<PageId>* superseded) {
  // Upsert: re-inserting an id that already lives at this key replaces the
  // old entry, and the replaced RAF record's bytes join the dead-byte debt
  // (they used to escape the accounting — the record was orphaned but never
  // tallied). This is also what makes WAL replay of an already-applied
  // insert idempotent.
  if (WriterLocatorUsable()) {
    // Locator descent: SeekRank lands on the leaf owning `key` directly, so
    // the probe skips every inner node the cursor's root-to-leaf walk would
    // read. The duplicate run is scanned in the same global key order as the
    // cursor (a run may span leaves), so the RAF probe sequence — and the
    // entry the upsert unlinks — is identical.
    const LeafModel& model = *locator_;
    DecodedNode scratch;
    NodeHandle h;
    ObjectId rid;
    Blob robj;
    bool done = false, past = false;
    for (size_t rank = model.SeekRank(key);
         !done && !past && rank < model.num_leaves() &&
         model.min_key(rank) <= key;
         ++rank) {
      SPB_RETURN_IF_ERROR(btree_->GetNode(model.leaf_id(rank), &scratch, &h));
      const auto& les = h->node.leaf_entries;
      auto it = std::lower_bound(
          les.begin(), les.end(), key,
          [](const LeafEntry& e, uint64_t want) { return e.key < want; });
      for (; it != les.end(); ++it) {
        if (it->key != key) {
          past = true;
          break;
        }
        const uint64_t ptr = it->ptr;
        SPB_RETURN_IF_ERROR(raf_->Get(ptr, &rid, &robj));
        if (rid == id) {
          bool found = false;
          TreeVersion tv;
          SPB_RETURN_IF_ERROR(
              btree_->DeleteCow(key, ptr, &found, &tv, superseded));
          if (found) {
            btree_->AdoptVersion(tv);
            InvalidateLocator();
            raf_->AddDeadBytes(8 + robj.size());
            num_objects_.fetch_sub(1, std::memory_order_relaxed);
          }
          done = true;
          break;
        }
      }
    }
  } else {
    BPlusTree::LeafCursor cur(btree_.get(), btree_->version());
    SPB_RETURN_IF_ERROR(cur.Seek(key));
    ObjectId rid;
    Blob robj;
    while (cur.valid() && cur.entry().key == key) {
      SPB_RETURN_IF_ERROR(raf_->Get(cur.entry().ptr, &rid, &robj));
      if (rid == id) {
        bool found = false;
        TreeVersion tv;
        SPB_RETURN_IF_ERROR(
            btree_->DeleteCow(key, cur.entry().ptr, &found, &tv, superseded));
        if (found) {
          btree_->AdoptVersion(tv);
          InvalidateLocator();
          raf_->AddDeadBytes(8 + robj.size());
          num_objects_.fetch_sub(1, std::memory_order_relaxed);
        }
        break;
      }
      SPB_RETURN_IF_ERROR(cur.Next());
    }
  }
  // RAF first: the new leaf entry references the record's offset, and the
  // appender's release-store of the watermark happens before the version
  // holding this entry can be published.
  uint64_t offset;
  SPB_RETURN_IF_ERROR(raf_->Append(id, obj, &offset));
  TreeVersion tv;
  SPB_RETURN_IF_ERROR(btree_->InsertCow(key, offset, &tv, superseded));
  btree_->AdoptVersion(tv);
  InvalidateLocator();
  const uint64_t n = num_objects_.fetch_add(1, std::memory_order_relaxed) + 1;
  ++inserts_seen_;
  {
    std::lock_guard<std::mutex> lock(cost_mu_);
    cost_model_.set_total_objects(n);
    if (options_.cost_sample_size > 0) {
      cost_model_.AddSample(std::vector<double>(phi, phi + space_->dims()),
                            inserts_seen_, sample_rng_.Uniform(UINT64_MAX));
    }
  }
  return Status::OK();
}

Status SpbTree::Insert(const Blob& obj, ObjectId id) {
  if (write_queue_ != nullptr) {
    // Map outside any lock (the mapped space is immutable, the distance
    // counter atomic); the group-commit leader applies the request.
    WriteQueue::Request req;
    req.kind = WriteQueue::OpKind::kInsert;
    req.obj = obj;
    req.id = id;
    req.phi = space_->Phi(obj, counting_);
    req.key = space_->KeyFor(req.phi);
    return write_queue_->Submit(std::move(req));
  }
  std::unique_lock<std::mutex> wlock(writer_mu_, std::try_to_lock);
  if (!wlock.owns_lock()) {
    return Status::Busy("Insert raced another writer; retry when it drains");
  }
  if (wal_ != nullptr) {
    Wal::Record rec{Wal::RecordType::kInsert, id, obj};
    SPB_RETURN_IF_ERROR(wal_->AppendGroup(
        &rec, 1, wal_fsync_.load(std::memory_order_relaxed)));
  }
  std::vector<PageId> superseded;
  SPB_RETURN_IF_ERROR(InsertOneLocked(obj, id, &superseded));
  PublishCurrent(std::move(superseded));
  MaybeRefreshLocatorLocked();
  return Status::OK();
}

Status SpbTree::BatchInsert(const std::vector<Blob>& objs,
                            const std::vector<ObjectId>& ids) {
  if (objs.size() != ids.size()) {
    return Status::InvalidArgument("BatchInsert: objs/ids size mismatch");
  }
  if (write_queue_ != nullptr) {
    // Map the whole batch up front (same distance-call order as per-object
    // Phi), then enqueue the records individually: they may commit across
    // several groups, interleaved with other writers.
    const size_t dims = space_->dims();
    std::vector<double> phis(objs.size() * dims);
    space_->pivots().MapBatch(objs.data(), objs.size(), counting_,
                              phis.data());
    std::vector<WriteQueue::Request> reqs(objs.size());
    for (size_t i = 0; i < objs.size(); ++i) {
      reqs[i].kind = WriteQueue::OpKind::kInsert;
      reqs[i].obj = objs[i];
      reqs[i].id = ids[i];
      reqs[i].phi.assign(phis.data() + i * dims, phis.data() + (i + 1) * dims);
      reqs[i].key = space_->KeyFor(reqs[i].phi);
    }
    return write_queue_->SubmitBatch(&reqs);
  }
  std::unique_lock<std::mutex> wlock(writer_mu_, std::try_to_lock);
  if (!wlock.owns_lock()) {
    return Status::Busy(
        "BatchInsert raced another writer; retry when it drains");
  }
  if (wal_ != nullptr) {
    std::vector<Wal::Record> recs(objs.size());
    for (size_t i = 0; i < objs.size(); ++i) {
      recs[i] = Wal::Record{Wal::RecordType::kInsert, ids[i], objs[i]};
    }
    SPB_RETURN_IF_ERROR(wal_->AppendGroup(
        recs.data(), recs.size(), wal_fsync_.load(std::memory_order_relaxed)));
  }
  // One publish for the whole batch: readers keep the pre-batch version
  // until every object is in; intermediate versions are adopted privately
  // and never published, so queueing their superseded pages behind the
  // final epoch is conservative and safe.
  std::vector<PageId> superseded;
  for (size_t i = 0; i < objs.size(); ++i) {
    SPB_RETURN_IF_ERROR(InsertOneLocked(objs[i], ids[i], &superseded));
  }
  PublishCurrent(std::move(superseded));
  MaybeRefreshLocatorLocked();
  return Status::OK();
}

Status SpbTree::BatchInsertMapped(const MappedInsert* items, size_t count) {
  if (write_queue_ != nullptr) {
    std::vector<WriteQueue::Request> reqs(count);
    const size_t dims = space_->dims();
    for (size_t i = 0; i < count; ++i) {
      reqs[i].kind = WriteQueue::OpKind::kInsert;
      reqs[i].obj = *items[i].obj;
      reqs[i].id = items[i].id;
      reqs[i].key = items[i].key;
      reqs[i].phi.assign(items[i].phi, items[i].phi + dims);
    }
    return write_queue_->SubmitBatch(&reqs);
  }
  std::unique_lock<std::mutex> wlock(writer_mu_, std::try_to_lock);
  if (!wlock.owns_lock()) {
    return Status::Busy(
        "BatchInsertMapped raced another writer; retry when it drains");
  }
  if (wal_ != nullptr) {
    std::vector<Wal::Record> recs(count);
    for (size_t i = 0; i < count; ++i) {
      recs[i] = Wal::Record{Wal::RecordType::kInsert, items[i].id,
                            *items[i].obj};
    }
    SPB_RETURN_IF_ERROR(wal_->AppendGroup(
        recs.data(), recs.size(), wal_fsync_.load(std::memory_order_relaxed)));
  }
  // Same one-publish-per-batch contract as BatchInsert.
  std::vector<PageId> superseded;
  for (size_t i = 0; i < count; ++i) {
    const MappedInsert& m = items[i];
    SPB_RETURN_IF_ERROR(
        InsertOneMappedLocked(*m.obj, m.id, m.phi, m.key, &superseded));
  }
  PublishCurrent(std::move(superseded));
  MaybeRefreshLocatorLocked();
  return Status::OK();
}

Status SpbTree::Delete(const Blob& obj, ObjectId id, bool* found) {
  // Mapping outside the writer lock is safe: the mapped space is immutable
  // and the distance counter atomic.
  return DeleteMapped(obj, id, space_->KeyFor(space_->Phi(obj, counting_)),
                      found);
}

Status SpbTree::DeleteMapped(const Blob& obj, ObjectId id, uint64_t key,
                             bool* found) {
  *found = false;
  if (write_queue_ != nullptr) {
    WriteQueue::Request req;
    req.kind = WriteQueue::OpKind::kDelete;
    req.obj = obj;
    req.id = id;
    req.key = key;
    return write_queue_->Submit(std::move(req), found);
  }
  std::unique_lock<std::mutex> wlock(writer_mu_, std::try_to_lock);
  if (!wlock.owns_lock()) {
    return Status::Busy("Delete raced another writer; retry when it drains");
  }
  if (wal_ != nullptr) {
    Wal::Record rec{Wal::RecordType::kDelete, id, obj};
    SPB_RETURN_IF_ERROR(wal_->AppendGroup(
        &rec, 1, wal_fsync_.load(std::memory_order_relaxed)));
  }
  std::vector<PageId> superseded;
  SPB_RETURN_IF_ERROR(
      DeleteOneMappedLocked(obj, id, key, found, &superseded));
  PublishCurrent(std::move(superseded));
  MaybeRefreshLocatorLocked();
  return Status::OK();
}

Status SpbTree::DeleteOneMappedLocked(const Blob& obj, ObjectId id,
                                      uint64_t key, bool* found,
                                      std::vector<PageId>* superseded) {
  if (found != nullptr) *found = false;
  // Locate the duplicate whose RAF record matches (id, payload). With a
  // current locator model SeekRank jumps straight to the owning leaf; the
  // fallback is a chain-free cursor (the leaf chain is stale once COW
  // writes happen). Both scan the duplicate run in global key order, so
  // they locate the same entry with the same RAF probe sequence.
  uint64_t ptr = 0;
  bool located = false;
  ObjectId rid;
  Blob robj;
  if (WriterLocatorUsable()) {
    const LeafModel& model = *locator_;
    DecodedNode scratch;
    NodeHandle h;
    bool past = false;
    for (size_t rank = model.SeekRank(key);
         !located && !past && rank < model.num_leaves() &&
         model.min_key(rank) <= key;
         ++rank) {
      SPB_RETURN_IF_ERROR(btree_->GetNode(model.leaf_id(rank), &scratch, &h));
      const auto& les = h->node.leaf_entries;
      auto it = std::lower_bound(
          les.begin(), les.end(), key,
          [](const LeafEntry& e, uint64_t want) { return e.key < want; });
      for (; it != les.end(); ++it) {
        if (it->key != key) {
          past = true;
          break;
        }
        SPB_RETURN_IF_ERROR(raf_->Get(it->ptr, &rid, &robj));
        if (rid == id && robj == obj) {
          ptr = it->ptr;
          located = true;
          break;
        }
      }
    }
  } else {
    BPlusTree::LeafCursor cur(btree_.get(), btree_->version());
    SPB_RETURN_IF_ERROR(cur.Seek(key));
    while (cur.valid() && cur.entry().key == key) {
      SPB_RETURN_IF_ERROR(raf_->Get(cur.entry().ptr, &rid, &robj));
      if (rid == id && robj == obj) {
        ptr = cur.entry().ptr;
        located = true;
        break;
      }
      SPB_RETURN_IF_ERROR(cur.Next());
    }
  }
  // Missing record: not-found, kOk — which is exactly what makes WAL replay
  // of an already-applied delete idempotent.
  if (!located) return Status::OK();
  TreeVersion tv;
  bool removed = false;
  SPB_RETURN_IF_ERROR(btree_->DeleteCow(key, ptr, &removed, &tv, superseded));
  if (!removed) return Status::OK();
  if (found != nullptr) *found = true;
  // The unlinked RAF record (u32 id + u32 len header plus the payload) is
  // garbage until a rebuild/compaction: tally it as compaction debt.
  raf_->AddDeadBytes(8 + robj.size());
  btree_->AdoptVersion(tv);
  InvalidateLocator();
  const uint64_t n = num_objects_.fetch_sub(1, std::memory_order_relaxed) - 1;
  {
    std::lock_guard<std::mutex> lock(cost_mu_);
    cost_model_.set_total_objects(n);
  }
  return Status::OK();
}

Status SpbTree::VerifyLeafBatch(Raf* raf, const LeafEntry* entries,
                                size_t count, const Blob& q,
                                const std::vector<double>& phi_q, double r,
                                bool check_region, bool use_cutoff,
                                const std::vector<uint32_t>& rr_lo,
                                const std::vector<uint32_t>& rr_hi,
                                LeafScratch* scratch,
                                std::vector<ObjectId>* result,
                                Readahead* ra) {
  if (count == 0) return Status::OK();
  scratch->keys.resize(count);
  for (size_t i = 0; i < count; ++i) scratch->keys[i] = entries[i].key;
  space_->DecodeKeys(scratch->keys.data(), count, &scratch->block);
  if (check_region) {  // batch Lemma 1
    MappedSpace::BatchCellInBox(scratch->block, rr_lo, rr_hi,
                                &scratch->in_box);
  }
  if (options_.enable_lemma2) {  // batch Lemma 2
    space_->BatchGuaranteedWithin(scratch->block, phi_q, r,
                                  &scratch->guaranteed);
  }
  if (ra != nullptr) {
    // The lemma sweeps just fixed the set of entries the fetch loop below
    // will touch; their RAF pages are known now and (entries being in key
    // order) land in ascending SFC page order — hand them all to the
    // readahead session so dense survivor runs become span reads. A record
    // may spill onto the next page, so schedule that too; oversubmitting is
    // safe (unclaimed staged pages never count logical PA).
    scratch->pages.clear();
    for (size_t i = 0; i < count; ++i) {
      if (check_region && !scratch->in_box[i]) continue;
      const PageId first = Raf::PageOf(entries[i].ptr);
      scratch->pages.push_back(first);
      scratch->pages.push_back(first + 1);
    }
    ra->Schedule(scratch->pages);
  }
  // Survivors are fetched and verified in entry order, so the result order,
  // the RAF page-access order and the sequence of distance calls all match
  // the per-entry loop this replaces. Zero-copy fetches serve the object
  // straight from the pinned frame (identical accounting — see
  // Raf::GetView); the view/obj buffers are reused across all entries.
  for (size_t i = 0; i < count; ++i) {
    if (check_region && !scratch->in_box[i]) {
      continue;  // Lemma 1: phi(o) outside RR(q, r)
    }
    ObjectId id;
    BlobRef obj;
    if (options_.enable_zero_copy) {
      SPB_RETURN_IF_ERROR(
          raf->GetView(entries[i].ptr, &id, &scratch->view, ra));
      obj = scratch->view.ref();
    } else {
      SPB_RETURN_IF_ERROR(raf->Get(entries[i].ptr, &id, &scratch->obj, ra));
      obj = scratch->obj;
    }
    if (options_.enable_lemma2 && scratch->guaranteed[i]) {
      // Lemma 2: in the result without computing d(q, o).
      result->push_back(id);
      continue;
    }
    const double d = use_cutoff ? counting_.DistanceWithCutoff(q, obj, r)
                                : counting_.Distance(q, obj);
    if (d <= r) result->push_back(id);
  }
  return Status::OK();
}

Status SpbTree::RangeQuery(const Blob& q, double r,
                           std::vector<ObjectId>* result, QueryStats* stats) {
  StatScope scope(*this, stats);
  result->clear();
  // Pin the published version: the traversal below touches only pages
  // reachable from snap's root, which stay un-retired while snap lives.
  const Snapshot snap = AcquireSnapshot();
  if (snap.version().num_objects == 0) return Status::OK();
  QueryArena& A = ThreadArena();
  A.phi_q.resize(space_->dims());
  // Same distance-call count and values as Phi(), without the allocation.
  space_->pivots().MapBatch(&q, 1, counting_, A.phi_q.data());
  return RangeSearch(q, r, snap, A, result);
}

Status SpbTree::RangeQueryMapped(const Blob& q,
                                 const std::vector<double>& phi_q, double r,
                                 std::vector<ObjectId>* result,
                                 QueryStats* stats) {
  StatScope scope(*this, stats);
  result->clear();
  if (phi_q.size() != space_->dims()) {
    return Status::InvalidArgument("RangeQueryMapped: phi dimensionality");
  }
  const Snapshot snap = AcquireSnapshot();
  if (snap.version().num_objects == 0) return Status::OK();
  QueryArena& A = ThreadArena();
  A.phi_q.assign(phi_q.begin(), phi_q.end());
  return RangeSearch(q, r, snap, A, result);
}

Status SpbTree::RangeSearch(const Blob& q, double r, const Snapshot& snap,
                            QueryArena& A, std::vector<ObjectId>* result) {
  const std::shared_ptr<const LeafModel> model = LocatorForSnapshot(snap);
  const bool use_cutoff = options_.enable_cutoff;

  // Planner: the O(log) selectivity proxy predicts the verification count
  // and sizes the readahead session; the prediction is squared against the
  // measured distance-call delta afterwards (feedback). Zero distance
  // computations — everything works off phi_q and the sampled distribution.
  const bool planned = options_.enable_planner;
  double predicted = 0.0;
  size_t ra_budget = options_.max_readahead_pages;
  uint64_t dist_before = 0;
  if (planned) {
    plan_range_.fetch_add(1, std::memory_order_relaxed);
    double frac, f, ema;
    uint64_t total;
    {
      std::lock_guard<std::mutex> lock(cost_mu_);
      frac = cost_model_.DistanceFractionLE(r);
      f = cost_model_.objects_per_page();
      total = cost_model_.total_objects();
      ema = planner_ema_;
    }
    predicted = std::max(1.0, frac * double(total) * ema);
    ra_budget = PlannedBudget(f > 0.0 ? predicted / f : predicted);
    dist_before = counting_.count();
  }

  // The snapshot's RAF, not the tree's current one: a concurrent compaction
  // may swap raf_ mid-traversal, but this version's offsets only resolve
  // against the file it was published with (which the snapshot co-owns).
  Raf* const sraf = snap.version().raf.get();
  Readahead ra = NewReadaheadSession(*sraf, ra_budget);

  // Point lookup with a valid model: skip the descent entirely (SeekRank →
  // owning leaf → duplicate run). Byte-identical results/compdists to the
  // classic r == 0 traversal; only B+-tree inner-node accesses differ.
  if (r == 0.0 && model != nullptr && model->num_leaves() > 0) {
    const Status s =
        PointSearchWithLocator(q, *model, snap, A, use_cutoff, result, &ra);
    if (planned && s.ok()) {
      UpdatePlannerFeedback(predicted,
                            double(counting_.count() - dist_before));
    }
    return s;
  }

  space_->RangeRegion(A.phi_q, r, &A.rr_lo, &A.rr_hi);

  const size_t dims = space_->dims();
  // Flat FIFO: an index cursor over a growing vector visits nodes in exactly
  // the order of the std::queue this replaces, and both the todo list and
  // the box buffer keep their capacity across queries.
  A.todo.clear();
  A.box_buf.clear();
  A.todo.push_back(QueryArena::RangeTodo{snap.version().root, 0, false});
  NodeHandle h;

  for (size_t cursor = 0; cursor < A.todo.size(); ++cursor) {
    const QueryArena::RangeTodo ref = A.todo[cursor];  // copy: todo may grow
    // Inner nodes come from the model's image when one is valid for this
    // snapshot: the image covers ALL internal pages of the version, so an
    // image miss proves `ref.id` is a leaf and the counted demand path
    // runs. The visit *sequence* is untouched — only where the decoded
    // bytes come from changes — which keeps results and compdists
    // byte-identical while inner-node page accesses drop to zero.
    const DecodedNode* img =
        model != nullptr ? model->FindInternal(ref.id) : nullptr;
    if (img != nullptr) {
      h.SetBorrowed(img);
      loc_hits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      SPB_RETURN_IF_ERROR(btree_->GetNode(ref.id, &A.scratch_node, &h));
    }
    const BptNode& node = h->node;

    if (!node.is_leaf) {
      // Lemma 1 over the cached entry-major MBB corners: no per-entry curve
      // decode on the warm path.
      for (size_t i = 0; i < node.internal_entries.size(); ++i) {
        if (MappedSpace::BoxesIntersect(h->lo(i), h->hi(i), A.rr_lo.data(),
                                        A.rr_hi.data(), dims)) {
          const uint32_t off = static_cast<uint32_t>(A.box_buf.size());
          A.box_buf.insert(A.box_buf.end(), h->lo(i), h->lo(i) + dims);
          A.box_buf.insert(A.box_buf.end(), h->hi(i), h->hi(i) + dims);
          A.todo.push_back(
              QueryArena::RangeTodo{node.internal_entries[i].child, off,
                                    true});
        }
      }
      continue;
    }

    // Leaf node: three verification regimes (Algorithm 1, lines 11-23).
    bool enumerated = false;
    if (ref.has_box) {
      const uint32_t* blo = A.box_buf.data() + ref.box_off;
      const uint32_t* bhi = blo + dims;
      if (MappedSpace::BoxContains(A.rr_lo.data(), A.rr_hi.data(), blo, bhi,
                                   dims)) {
        // MBB(N) fully inside RR: membership is implied.
        SPB_RETURN_IF_ERROR(VerifyLeafBatch(sraf, node.leaf_entries.data(),
                                            node.leaf_entries.size(), q,
                                            A.phi_q, r, false, use_cutoff,
                                            A.rr_lo, A.rr_hi, &A.leaf, result,
                                            &ra));
        continue;
      }
      if (!MappedSpace::IntersectBoxes(blo, bhi, A.rr_lo.data(),
                                       A.rr_hi.data(), dims, &A.ilo,
                                       &A.ihi)) {
        continue;  // race with stale parent box: nothing to do
      }
      const uint64_t cells = RegionCellCount(A.ilo, A.ihi);
      if (options_.enable_compute_sfc && cells < node.leaf_entries.size()) {
        // computeSFC path: enumerate the region's keys, merge-scan the
        // (sorted) leaf entries against them, and batch-verify the matches.
        EnumerateRegionKeysInto(space_->curve(), A.ilo, A.ihi,
                                &A.region_keys);
        A.leaf.matched.clear();
        size_t ei = 0, ki = 0;
        while (ei < node.leaf_entries.size() && ki < A.region_keys.size()) {
          if (node.leaf_entries[ei].key == A.region_keys[ki]) {
            A.leaf.matched.push_back(node.leaf_entries[ei]);
            ++ei;
          } else if (node.leaf_entries[ei].key > A.region_keys[ki]) {
            ++ki;
          } else {
            ++ei;
          }
        }
        SPB_RETURN_IF_ERROR(VerifyLeafBatch(sraf, A.leaf.matched.data(),
                                            A.leaf.matched.size(), q,
                                            A.phi_q, r, false, use_cutoff,
                                            A.rr_lo, A.rr_hi, &A.leaf, result,
                                            &ra));
        enumerated = true;
      }
    }
    if (!enumerated) {
      SPB_RETURN_IF_ERROR(VerifyLeafBatch(sraf, node.leaf_entries.data(),
                                          node.leaf_entries.size(), q,
                                          A.phi_q, r, true, use_cutoff,
                                          A.rr_lo, A.rr_hi, &A.leaf, result,
                                          &ra));
    }
  }
  if (planned) {
    UpdatePlannerFeedback(predicted, double(counting_.count() - dist_before));
  }
  return Status::OK();
}

Status SpbTree::PointSearchWithLocator(const Blob& q, const LeafModel& model,
                                       const Snapshot& snap, QueryArena& A,
                                       bool use_cutoff,
                                       std::vector<ObjectId>* result,
                                       Readahead* ra) {
  // Identity argument (docs/ARCHITECTURE.md §"Learned locator + planner"):
  // at r == 0 the classic traversal verifies exactly the entries whose SFC
  // key equals key(q) — every leaf regime reduces to that set, in entry
  // order — and Lemma 2's batch sweep performs no metric distance calls.
  // This path collects the same run from the same leaves in the same order,
  // so results, RAF accesses and compdists are byte-identical; the elided
  // root-to-leaf descent is the only difference.
  const uint64_t key_q = space_->KeyFor(A.phi_q.data());
  bool miss = false;
  size_t rank = model.SeekRank(key_q, &miss);
  if (miss) loc_seek_misses_.fetch_add(1, std::memory_order_relaxed);
  Raf* const sraf = snap.version().raf.get();
  NodeHandle h;
  bool past = false;
  for (; !past && rank < model.num_leaves() && model.min_key(rank) <= key_q;
       ++rank) {
    SPB_RETURN_IF_ERROR(
        btree_->GetNode(model.leaf_id(rank), &A.scratch_node, &h));
    const auto& les = h->node.leaf_entries;
    A.leaf.matched.clear();
    auto it = std::lower_bound(
        les.begin(), les.end(), key_q,
        [](const LeafEntry& e, uint64_t want) { return e.key < want; });
    for (; it != les.end(); ++it) {
      if (it->key != key_q) {
        past = true;
        break;
      }
      A.leaf.matched.push_back(*it);
    }
    SPB_RETURN_IF_ERROR(VerifyLeafBatch(
        sraf, A.leaf.matched.data(), A.leaf.matched.size(), q, A.phi_q,
        /*r=*/0.0, /*check_region=*/false, use_cutoff, A.rr_lo, A.rr_hi,
        &A.leaf, result, ra));
  }
  return Status::OK();
}

Status SpbTree::KnnQuery(const Blob& q, size_t k, std::vector<Neighbor>* result,
                         QueryStats* stats, KnnTraversal traversal) {
  StatScope scope(*this, stats);
  result->clear();
  // Pin the published version (same reader contract as RangeQuery).
  const Snapshot snap = AcquireSnapshot();
  if (snap.version().num_objects == 0 || k == 0) return Status::OK();
  QueryArena& A = ThreadArena();
  A.phi_q.resize(space_->dims());
  // Same distance-call count and values as Phi(), without the allocation.
  space_->pivots().MapBatch(&q, 1, counting_, A.phi_q.data());
  return KnnSearch(q, k, snap, A, result, traversal, nullptr);
}

Status SpbTree::KnnQueryMapped(const Blob& q, const std::vector<double>& phi_q,
                               size_t k, std::vector<Neighbor>* result,
                               QueryStats* stats, KnnTraversal traversal,
                               SharedKnnBound* shared) {
  StatScope scope(*this, stats);
  result->clear();
  if (phi_q.size() != space_->dims()) {
    return Status::InvalidArgument("KnnQueryMapped: phi dimensionality");
  }
  const Snapshot snap = AcquireSnapshot();
  if (snap.version().num_objects == 0 || k == 0) return Status::OK();
  QueryArena& A = ThreadArena();
  A.phi_q.assign(phi_q.begin(), phi_q.end());
  return KnnSearch(q, k, snap, A, result, traversal, shared);
}

Status SpbTree::KnnSearch(const Blob& q, size_t k, const Snapshot& snap,
                          QueryArena& A, std::vector<Neighbor>* result,
                          KnnTraversal traversal, SharedKnnBound* shared) {
  const std::shared_ptr<const LeafModel> model = LocatorForSnapshot(snap);

  // kAuto resolves here: the planner picks greedy vs best-first, per-query
  // cutoff and the readahead budget from the cost model (zero distance
  // calls); with the planner off it degrades to the kIncremental default.
  // Explicit traversals bypass planning entirely. Every routing choice
  // returns identical results; compdists match whichever static
  // configuration the plan resolves to.
  KnnPlan plan;
  const bool planned =
      traversal == KnnTraversal::kAuto && options_.enable_planner;
  if (traversal == KnnTraversal::kAuto) {
    if (planned) plan = PlanKnn(A.phi_q, k);
    traversal = plan.traversal;
  }
  const bool use_cutoff = options_.enable_cutoff && plan.use_cutoff;
  const size_t ra_budget =
      planned ? plan.readahead_budget : options_.max_readahead_pages;
  const uint64_t dist_before = planned ? counting_.count() : 0;
  const auto time_before = std::chrono::steady_clock::now();

  // Max-heap of current k best over the arena vector (std::push_heap /
  // pop_heap — the standard mandates the same element evolution as a
  // std::priority_queue): front is the current k-th NN distance.
  A.best.clear();
  auto best_cmp = [](const Neighbor& a, const Neighbor& b) {
    return a.distance < b.distance;
  };
  auto cur_ndk = [&]() {
    return A.best.size() < k ? std::numeric_limits<double>::infinity()
                             : A.best.front().distance;
  };
  // The pruning bound: the local NDk, tightened by the cross-shard bound
  // when this traversal is one shard of a scatter-gather kNN. Used for
  // every Lemma 3 decision (frontier cutoff, node pushes, leaf filters) but
  // NOT as the DistanceWithCutoff threshold — see SharedKnnBound.
  auto prune_ndk = [&]() {
    const double local = cur_ndk();
    if (shared == nullptr) return local;
    return std::min(local, shared->load());
  };
  auto offer = [&](ObjectId id, double d) {
    if (A.best.size() < k) {
      A.best.push_back(Neighbor{id, d});
      std::push_heap(A.best.begin(), A.best.end(), best_cmp);
    } else if (d < A.best.front().distance) {
      std::pop_heap(A.best.begin(), A.best.end(), best_cmp);
      A.best.back() = Neighbor{id, d};
      std::push_heap(A.best.begin(), A.best.end(), best_cmp);
    }
    // Publish only exact, heap-full k-th distances: every stored distance
    // is exact (the cutoff threshold is the local NDk), and a partial heap
    // bounds nothing.
    if (shared != nullptr && A.best.size() == k) {
      shared->Offer(A.best.front().distance);
    }
  };
  // With the cutoff enabled, the current k-th NN distance is the pruning
  // threshold: an object at distance >= NDk can never enter `best` (offer()
  // requires d < top), and DistanceWithCutoff returns a value > NDk exactly
  // when d > NDk — so offer() makes the same decision, and any distance that
  // does get stored is the exact one. While the heap is not yet full, NDk is
  // +inf and the computation runs to completion.
  // Snapshot-pinned RAF, same reasoning as RangeSearch.
  Raf* const sraf = snap.version().raf.get();
  Readahead ra = NewReadaheadSession(*sraf, ra_budget);
  auto verify_entry = [&](const LeafEntry& e) -> Status {
    ObjectId id;
    BlobRef obj;
    if (options_.enable_zero_copy) {
      SPB_RETURN_IF_ERROR(sraf->GetView(e.ptr, &id, &A.leaf.view, &ra));
      obj = A.leaf.view.ref();
    } else {
      SPB_RETURN_IF_ERROR(sraf->Get(e.ptr, &id, &A.leaf.obj, &ra));
      obj = A.leaf.obj;
    }
    const double d = use_cutoff
                         ? counting_.DistanceWithCutoff(q, obj, cur_ndk())
                         : counting_.Distance(q, obj);
    offer(id, d);
    return Status::OK();
  };

  auto heap_cmp = [](const QueryArena::KnnHeapItem& a,
                     const QueryArena::KnnHeapItem& b) {
    return a.mind > b.mind;
  };
  A.heap.clear();
  A.heap.push_back(
      QueryArena::KnnHeapItem{0.0, false, snap.version().root, {}});

  NodeHandle h;
  // Decodes one leaf's keys and computes all MIND(q, cell) bounds as one
  // SoA batch. The bounds don't depend on the evolving NDk, so hoisting
  // them out of the per-entry loop cannot change any pruning decision.
  auto batch_bounds = [&](const std::vector<LeafEntry>& entries) {
    A.leaf.keys.resize(entries.size());
    for (size_t i = 0; i < entries.size(); ++i) {
      A.leaf.keys[i] = entries[i].key;
    }
    space_->DecodeKeys(A.leaf.keys.data(), entries.size(), &A.leaf.block);
    space_->BatchLowerBoundToCell(A.leaf.block, A.phi_q, &A.leaf.mind);
  };
  while (!A.heap.empty()) {
    const QueryArena::KnnHeapItem item = A.heap.front();
    std::pop_heap(A.heap.begin(), A.heap.end(), heap_cmp);
    A.heap.pop_back();
    if (item.mind >= prune_ndk()) break;  // Lemma 3 early termination

    if (item.is_entry) {
      // Speculative prefetch of the next heap-front entry: it is the most
      // likely next verification, and scheduling is free if Lemma 3
      // terminates first (unclaimed pages never count logical PA).
      if (!A.heap.empty() && A.heap.front().is_entry) {
        const PageId next = Raf::PageOf(A.heap.front().entry.ptr);
        A.leaf.pages.assign({next, next + 1});
        ra.Schedule(A.leaf.pages);
      }
      SPB_RETURN_IF_ERROR(verify_entry(item.entry));
      continue;
    }
    // Same image-serving rule as RangeSearch: inner nodes of a snapshot
    // with a valid model never touch the buffer pool; a miss proves the
    // page is a leaf and the counted demand path runs.
    const DecodedNode* img =
        model != nullptr ? model->FindInternal(item.node) : nullptr;
    if (img != nullptr) {
      h.SetBorrowed(img);
      loc_hits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      SPB_RETURN_IF_ERROR(btree_->GetNode(item.node, &A.scratch_node, &h));
    }
    const BptNode& node = h->node;
    if (!node.is_leaf) {
      // Lemma 3 over the cached entry-major MBB corners: no per-entry curve
      // decode on the warm path.
      for (size_t i = 0; i < node.internal_entries.size(); ++i) {
        const double mind =
            space_->LowerBoundToBox(A.phi_q, h->lo(i), h->hi(i));
        if (mind < prune_ndk()) {
          A.heap.push_back(QueryArena::KnnHeapItem{
              mind, false, node.internal_entries[i].child, {}});
          std::push_heap(A.heap.begin(), A.heap.end(), heap_cmp);
        }
      }
      continue;
    }
    batch_bounds(node.leaf_entries);
    // All entries the traversal may verify from this leaf are known now
    // (mind below the current NDk); schedule their RAF pages as one sorted
    // batch. NDk only tightens afterwards, so this over-approximates —
    // harmless, unclaimed pages never count.
    A.leaf.pages.clear();
    for (size_t i = 0; i < node.leaf_entries.size(); ++i) {
      if (A.leaf.mind[i] < prune_ndk()) {
        const PageId first = Raf::PageOf(node.leaf_entries[i].ptr);
        A.leaf.pages.push_back(first);
        A.leaf.pages.push_back(first + 1);
      }
    }
    ra.Schedule(A.leaf.pages);
    if (traversal == KnnTraversal::kGreedy) {
      // Greedy: evaluate the whole leaf now — no RAF page revisits later,
      // at the price of possibly unnecessary distance computations. The
      // NDk comparison stays inside the loop (it tightens as entries are
      // verified); only the bound computation was hoisted.
      for (size_t i = 0; i < node.leaf_entries.size(); ++i) {
        if (A.leaf.mind[i] < prune_ndk()) {
          SPB_RETURN_IF_ERROR(verify_entry(node.leaf_entries[i]));
        }
      }
    } else {
      for (size_t i = 0; i < node.leaf_entries.size(); ++i) {
        if (A.leaf.mind[i] < prune_ndk()) {
          A.heap.push_back(QueryArena::KnnHeapItem{
              A.leaf.mind[i], true, kInvalidPageId, node.leaf_entries[i]});
          std::push_heap(A.heap.begin(), A.heap.end(), heap_cmp);
        }
      }
    }
  }

  result->resize(A.best.size());
  for (size_t i = A.best.size(); i-- > 0;) {
    (*result)[i] = A.best.front();
    std::pop_heap(A.best.begin(), A.best.end(), best_cmp);
    A.best.pop_back();
  }
  if (planned) {
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - time_before)
                               .count();
    UpdateKnnPlannerFeedback(plan.predicted_verifications,
                             double(counting_.count() - dist_before),
                             traversal, elapsed);
  }
  return Status::OK();
}

CostEstimate SpbTree::EstimateRangeCost(const Blob& q, double r) const {
  const std::vector<double> phi_q = space_->Phi(q, counting_);
  // cost_mu_: the writer mutates the sample reservoir concurrently.
  std::lock_guard<std::mutex> lock(cost_mu_);
  return cost_model_.EstimateRange(*space_, phi_q, r);
}

CostEstimate SpbTree::EstimateKnnCost(const Blob& q, size_t k) const {
  const std::vector<double> phi_q = space_->Phi(q, counting_);
  std::lock_guard<std::mutex> lock(cost_mu_);
  return cost_model_.EstimateKnn(*space_, phi_q, k);
}

CostEstimate SpbTree::EstimateRangeCostMapped(
    const std::vector<double>& phi_q, double r) const {
  std::lock_guard<std::mutex> lock(cost_mu_);
  return cost_model_.EstimateRange(*space_, phi_q, r);
}

CostEstimate SpbTree::EstimateKnnCostMapped(const std::vector<double>& phi_q,
                                            size_t k) const {
  std::lock_guard<std::mutex> lock(cost_mu_);
  return cost_model_.EstimateKnn(*space_, phi_q, k);
}

// ---------------------------------------------------------------------------
// Learned leaf locator + cost-model query planner.
// ---------------------------------------------------------------------------

std::shared_ptr<const LeafModel> SpbTree::LocatorForSnapshot(
    const Snapshot& snap) const {
  if (!options_.enable_learned_locator) return nullptr;
  std::shared_ptr<const LeafModel> m;
  {
    std::lock_guard<InstrumentedMutex> lock(locator_mu_);
    m = locator_;
  }
  if (m == nullptr) {
    loc_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  // Validity is tagged, not checked: the model is only good for the exact
  // epoch it was built at. Any COW publish since then bumped the epoch, so
  // a stale model can never be consulted — this comparison IS the
  // correctness argument for concurrent writes.
  if (m->epoch() != snap.epoch()) {
    loc_stale_.fetch_add(1, std::memory_order_relaxed);
    loc_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  return m;
}

void SpbTree::RebuildLocatorLocked() {
  std::shared_ptr<const LeafModel> m;
  if (options_.enable_learned_locator) {
    const Status s = LeafModel::Build(btree_.get(), btree_->version(),
                                      options_.locator_epsilon,
                                      snapshots_->current_epoch(), &m);
    if (!s.ok()) {
      m = nullptr;  // best-effort: every query falls back to classic descent
    } else {
      loc_rebuilds_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  {
    std::lock_guard<InstrumentedMutex> lock(locator_mu_);
    locator_ = m;
  }
  locator_current_ = (m != nullptr);
  locator_stale_writes_ = 0;
}

void SpbTree::MaybeRefreshLocatorLocked() {
  if (!options_.enable_learned_locator || locator_current_) return;
  if (locator_stale_writes_ < kLocatorRefreshWrites) return;
  RebuildLocatorLocked();
}

void SpbTree::InvalidateLocator() {
  if (!options_.enable_learned_locator) return;
  locator_current_ = false;
  ++locator_stale_writes_;
}

LocatorStats SpbTree::locator_stats() const {
  LocatorStats s;
  std::shared_ptr<const LeafModel> m;
  {
    std::lock_guard<InstrumentedMutex> lock(locator_mu_);
    m = locator_;
  }
  if (m != nullptr) {
    s.model_present = true;
    s.pla_ok = m->pla_ok();
    s.epoch = m->epoch();
    s.leaves = m->num_leaves();
    s.internal_nodes = m->num_internal_nodes();
    s.segments = m->num_segments();
    s.epsilon = m->epsilon();
  } else {
    s.epsilon = options_.locator_epsilon;
  }
  s.hits = loc_hits_.load(std::memory_order_relaxed);
  s.fallbacks = loc_fallbacks_.load(std::memory_order_relaxed);
  s.stale = loc_stale_.load(std::memory_order_relaxed);
  s.seek_misses = loc_seek_misses_.load(std::memory_order_relaxed);
  s.rebuilds = loc_rebuilds_.load(std::memory_order_relaxed);
  return s;
}

PlannerStats SpbTree::planner_stats() const {
  PlannerStats s;
  s.planned_range = plan_range_.load(std::memory_order_relaxed);
  s.planned_knn = plan_knn_.load(std::memory_order_relaxed);
  s.routed_greedy = plan_greedy_.load(std::memory_order_relaxed);
  s.routed_incremental = plan_incremental_.load(std::memory_order_relaxed);
  s.cutoff_disabled = plan_cutoff_off_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(cost_mu_);
    s.calibration = planner_ema_;
  }
  s.drift = std::abs(std::log(std::max(s.calibration, 1e-12)));
  return s;
}

namespace {

// Route to greedy when the predicted candidate set exceeds this fraction of
// the data: the regime (the paper's low-precision datasets, Table 5) where
// best-first's per-entry heap churn and repeated RAF page visits cost more
// than the extra verifications greedy spends.
constexpr double kGreedyCandidateFraction = 0.05;
// Disable the per-distance early-abandon check when nearly everything is
// predicted inside the radius anyway — the cutoff then never fires and is
// pure per-call overhead. Never changes results or compdists counts.
constexpr double kCutoffOffFraction = 0.75;

}  // namespace

SpbTree::KnnPlan SpbTree::PlanKnn(const std::vector<double>& phi_q,
                                  size_t k) const {
  KnnPlan plan;
  const uint64_t seq = plan_knn_.fetch_add(1, std::memory_order_relaxed);
  double radius, frac, ema, f;
  uint64_t total;
  double cost_inc, cost_grd;
  uint64_t obs_inc, obs_grd;
  {
    std::lock_guard<std::mutex> lock(cost_mu_);
    radius = cost_model_.EstimateKnnRadius(phi_q, k);
    frac = cost_model_.DistanceFractionLE(radius);
    ema = planner_ema_;
    total = cost_model_.total_objects();
    f = cost_model_.objects_per_page();
    cost_inc = arm_cost_[0];
    cost_grd = arm_cost_[1];
    obs_inc = arm_obs_[0];
    obs_grd = arm_obs_[1];
  }
  const double candidates =
      std::max(double(k), frac * double(total) * ema);
  plan.predicted_verifications = std::max(1.0, candidates);
  const double cand_frac = total > 0 ? candidates / double(total) : 0.0;
  // Routing, in preference order: measured per-arm runtime once both arms
  // have observations; an unobserved arm first (one forced probe each at
  // startup); the selectivity prior while completely cold. A fixed-cadence
  // probe of the losing arm keeps its EMA honest under workload drift.
  if (obs_inc > 0 && obs_grd > 0) {
    plan.traversal = cost_grd < cost_inc ? KnnTraversal::kGreedy
                                         : KnnTraversal::kIncremental;
    // Probe the losing arm less often the further behind it is: the probe
    // overhead is (gap-1)/cadence of total throughput, so a hopeless arm
    // is re-checked rarely and a closely-contested one often.
    const double lo = std::min(cost_inc, cost_grd);
    const double gap = lo > 0.0 ? std::max(cost_inc, cost_grd) / lo : 1.0;
    const uint64_t cadence = gap < 2.0   ? kPlannerExploreEvery
                             : gap < 8.0 ? kPlannerExploreEvery * 4
                                         : kPlannerExploreEvery * 16;
    if (seq % cadence == cadence - 1) {
      plan.traversal = plan.traversal == KnnTraversal::kGreedy
                           ? KnnTraversal::kIncremental
                           : KnnTraversal::kGreedy;
    }
  } else if (obs_inc > 0 || obs_grd > 0) {
    plan.traversal =
        obs_grd == 0 ? KnnTraversal::kGreedy : KnnTraversal::kIncremental;
  } else {
    plan.traversal = cand_frac > kGreedyCandidateFraction
                         ? KnnTraversal::kGreedy
                         : KnnTraversal::kIncremental;
  }
  if (plan.traversal == KnnTraversal::kGreedy) {
    plan_greedy_.fetch_add(1, std::memory_order_relaxed);
  } else {
    plan_incremental_.fetch_add(1, std::memory_order_relaxed);
  }
  plan.use_cutoff = frac <= kCutoffOffFraction;
  if (!plan.use_cutoff) {
    plan_cutoff_off_.fetch_add(1, std::memory_order_relaxed);
  }
  plan.readahead_budget =
      PlannedBudget(f > 0.0 ? candidates / f : candidates);
  return plan;
}

size_t SpbTree::PlannedBudget(double predicted_pages) const {
  // Only ever shrinks the configured budget (physical I/O shaping; logical
  // PA is untouched), with slack for record spill and estimate error.
  const size_t cap = std::max<size_t>(1, options_.max_readahead_pages);
  if (!(predicted_pages > 0.0)) return std::min<size_t>(8, cap);
  const double want = std::min(predicted_pages + 8.0, double(cap));
  return std::max<size_t>(std::min<size_t>(size_t(want), cap), 1);
}

void SpbTree::UpdateKnnPlannerFeedback(double predicted, double measured,
                                       KnnTraversal used,
                                       double elapsed_seconds) {
  if (predicted > 0.0 && elapsed_seconds > 0.0) {
    const size_t arm = used == KnnTraversal::kGreedy ? 1 : 0;
    const double unit = elapsed_seconds / predicted;
    std::lock_guard<std::mutex> lock(cost_mu_);
    arm_cost_[arm] = arm_obs_[arm] == 0
                         ? unit
                         : 0.8 * arm_cost_[arm] + 0.2 * unit;
    ++arm_obs_[arm];
  }
  UpdatePlannerFeedback(predicted, measured);
}

void SpbTree::UpdatePlannerFeedback(double predicted, double measured) {
  if (!(predicted > 0.0)) return;
  // Clamp so one pathological query cannot wreck the calibration. The
  // clamp is tunable (planner_feedback_clamp): on datasets where the
  // radius/selectivity estimate is off by more than the clamp on EVERY
  // query (synthetic-uniform kNN underestimates >= 64x), the default pins
  // each observation and the EMA saturates below the true ratio — warn
  // once so such runs are diagnosable, and let operators widen it.
  const double clamp =
      std::max(1.0, planner_clamp_.load(std::memory_order_relaxed));
  const double raw = measured / predicted;
  const double ratio = std::clamp(raw, 1.0 / clamp, clamp);
  if (ratio != raw &&
      !planner_clamp_warned_.exchange(true, std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "[spb] planner feedback pinned at its %gx clamp "
                 "(measured/predicted = %.3g); calibration can no longer "
                 "follow this workload — consider raising "
                 "TuningOptions::planner_feedback_clamp\n",
                 clamp, raw);
  }
  std::lock_guard<std::mutex> lock(cost_mu_);
  planner_ema_ = 0.9 * planner_ema_ + 0.1 * ratio;
  // Nudge the pivot-set precision (Definition 1) the same direction, gently
  // and clamped: measured > predicted means the radius/selectivity estimate
  // ran hot, i.e. the mapped lower bounds are looser than the recorded
  // precision claims.
  const double p = cost_model_.precision();
  cost_model_.set_precision(
      std::clamp(p * std::pow(ratio, -0.05), 0.02, 1.0));
}

uint64_t SpbTree::storage_bytes() const {
  return btree_->file_bytes() + RafPtr()->file_bytes() +
         space_->pivots().Serialize().size();
}

void SpbTree::InitFetcher() {
  // An in-memory tree's pool caches the file's own pages on a miss, so
  // staging copies ahead of the query would only add a copy: its readahead
  // sessions get no fetcher and schedule nothing.
  if (options_.storage_dir.empty()) return;
  size_t threads = options_.prefetch_threads;
  if (threads == SIZE_MAX) {
    // Background threads only pay off when there is a core to run them on.
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw > 1 ? 2 : 0;
  }
  fetcher_ = std::make_unique<PageFetcher>(threads);
}

IoStats SpbTree::io_stats() const {
  IoStats s;
  s += btree_->stats();
  s += RafPtr()->stats();
  return s;
}

QueryStats SpbTree::cumulative_stats() const {
  QueryStats s;
  s.page_accesses =
      btree_->stats().page_accesses() + RafPtr()->stats().page_accesses();
  s.distance_computations = counting_.count() + extra_distance_computations_;
  return s;
}

void SpbTree::ResetCounters() {
  btree_->pool().stats().Reset();
  RafPtr()->ResetStats();
  counting_.Reset();
  extra_distance_computations_ = 0;
  // Locator/planner counters are counters; the calibration EMA is model
  // state and deliberately survives (same rule as the cost model itself).
  loc_hits_.store(0, std::memory_order_relaxed);
  loc_fallbacks_.store(0, std::memory_order_relaxed);
  loc_stale_.store(0, std::memory_order_relaxed);
  loc_seek_misses_.store(0, std::memory_order_relaxed);
  loc_rebuilds_.store(0, std::memory_order_relaxed);
  plan_range_.store(0, std::memory_order_relaxed);
  plan_knn_.store(0, std::memory_order_relaxed);
  plan_greedy_.store(0, std::memory_order_relaxed);
  plan_incremental_.store(0, std::memory_order_relaxed);
  plan_cutoff_off_.store(0, std::memory_order_relaxed);
}

void SpbTree::FlushCaches() {
  btree_->pool().Flush();
  btree_->node_cache().Clear();
  RafPtr()->FlushCache();
}

Status SpbTree::ApplyTuning(const TuningOptions& t) {
  if (t.num_shards != 1) {
    return Status::InvalidArgument(
        "num_shards is a construction-time parameter: a plain SPB-tree has "
        "exactly one shard (re-partitioning is a ShardedSpbTree rebuild)");
  }
  if (!(t.planner_feedback_clamp >= 1.0)) {
    return Status::InvalidArgument(
        "planner_feedback_clamp must be >= 1 (the ratio is clamped to "
        "[1/clamp, clamp])");
  }
  std::unique_lock<std::mutex> wlock(writer_mu_, std::try_to_lock);
  if (!wlock.owns_lock()) {
    return Status::Busy(
        "ApplyTuning raced a writer; retry when it drains");
  }
  options_.enable_lemma2 = t.enable_lemma2;
  options_.enable_compute_sfc = t.enable_compute_sfc;
  options_.enable_cutoff = t.enable_cutoff;
  options_.enable_prefetch = t.enable_prefetch;
  options_.enable_zero_copy = t.enable_zero_copy;
  options_.max_readahead_pages = t.max_readahead_pages;
  // Capacity changes rebuild sharded caches — the caller quiesces readers
  // for these (see the ApplyTuning contract). Skipped when unchanged so a
  // read-modify-write of the flags never drops a warm cache.
  if (t.node_cache_entries != options_.node_cache_entries) {
    options_.node_cache_entries = t.node_cache_entries;
    SPB_RETURN_IF_ERROR(btree_->SetNodeCacheEntries(t.node_cache_entries));
  }
  if (t.btree_cache_pages != options_.btree_cache_pages) {
    options_.btree_cache_pages = t.btree_cache_pages;
    btree_->pool().set_capacity(t.btree_cache_pages);
  }
  if (t.raf_cache_pages != options_.raf_cache_pages) {
    options_.raf_cache_pages = t.raf_cache_pages;
    SPB_RETURN_IF_ERROR(raf_->SetCachePages(t.raf_cache_pages));
  }
  // Write-path engine knobs: the group-commit leader and the compactor read
  // these through atomics / the queue's own lock, so they retune live.
  options_.wal_group_max = t.wal_group_max;
  options_.wal_fsync = t.wal_fsync;
  options_.compact_dead_bytes_threshold = t.compact_dead_bytes_threshold;
  wal_fsync_.store(t.wal_fsync, std::memory_order_relaxed);
  compact_threshold_.store(t.compact_dead_bytes_threshold,
                           std::memory_order_relaxed);
  if (write_queue_ != nullptr) {
    write_queue_->set_group_max(std::max<size_t>(1, t.wal_group_max));
  }
  // Locator/planner knobs. Toggling the locator on (or changing ε) builds
  // the model here, under the writer lock; toggling it off drops it. Both
  // are flag-safe under concurrent queries — readers copy the shared_ptr
  // per query and validate by epoch.
  const bool locator_was = options_.enable_learned_locator;
  const size_t epsilon_was = options_.locator_epsilon;
  options_.enable_learned_locator = t.enable_learned_locator;
  options_.locator_epsilon = t.locator_epsilon;
  options_.enable_planner = t.enable_planner;
  if (t.planner_feedback_clamp != options_.planner_feedback_clamp) {
    options_.planner_feedback_clamp = t.planner_feedback_clamp;
    planner_clamp_.store(t.planner_feedback_clamp,
                         std::memory_order_relaxed);
    // A widened clamp gives the EMA new headroom — re-arm the pinned
    // warning so it fires again if the new bound saturates too.
    planner_clamp_warned_.store(false, std::memory_order_relaxed);
  }
  if (t.enable_learned_locator != locator_was ||
      (t.enable_learned_locator && t.locator_epsilon != epsilon_was)) {
    RebuildLocatorLocked();
  }
  return Status::OK();
}

TuningOptions SpbTree::tuning() const {
  TuningOptions t;
  t.enable_lemma2 = options_.enable_lemma2;
  t.enable_compute_sfc = options_.enable_compute_sfc;
  t.enable_cutoff = options_.enable_cutoff;
  t.enable_prefetch = options_.enable_prefetch;
  t.enable_zero_copy = options_.enable_zero_copy;
  t.node_cache_entries = options_.node_cache_entries;
  t.btree_cache_pages = options_.btree_cache_pages;
  t.raf_cache_pages = options_.raf_cache_pages;
  t.max_readahead_pages = options_.max_readahead_pages;
  t.wal_group_max = options_.wal_group_max;
  t.wal_fsync = wal_fsync_.load(std::memory_order_relaxed);
  t.compact_dead_bytes_threshold =
      compact_threshold_.load(std::memory_order_relaxed);
  t.enable_learned_locator = options_.enable_learned_locator;
  t.locator_epsilon = options_.locator_epsilon;
  t.enable_planner = options_.enable_planner;
  t.planner_feedback_clamp = planner_clamp_.load(std::memory_order_relaxed);
  return t;
}

// ---------------------------------------------------------------------------
// Write-path engine: group-commit WAL, writer queueing, recovery, compaction.
// ---------------------------------------------------------------------------

SpbTree::~SpbTree() {
  // Stop the queue's compactor thread before members tear down: its hooks
  // touch btree_/raf_/snapshots_.
  if (write_queue_ != nullptr) write_queue_->Stop();
}

Status SpbTree::InitEngine() {
  wal_fsync_.store(options_.wal_fsync, std::memory_order_relaxed);
  compact_threshold_.store(options_.compact_dead_bytes_threshold,
                           std::memory_order_relaxed);
  planner_clamp_.store(options_.planner_feedback_clamp,
                       std::memory_order_relaxed);
  if (options_.enable_wal) {
    if (options_.storage_dir.empty()) {
      return Status::InvalidArgument(
          "enable_wal requires a disk-backed index (storage_dir)");
    }
    SPB_RETURN_IF_ERROR(Wal::Open(options_.storage_dir + "/wal.spb", &wal_));
    SPB_RETURN_IF_ERROR(ReplayWal());
  }
  // The queue exists for group commit AND for the background compactor (it
  // owns the worker thread); a compactor-only tree still routes its writes
  // through it, which only upgrades kBusy into queueing.
  if (options_.enable_group_commit ||
      options_.compact_dead_bytes_threshold > 0) {
    write_queue_ = std::make_unique<WriteQueue>(
        [this](std::vector<WriteQueue::Request*>& group) {
          CommitGroup(group);
        },
        std::max<size_t>(1, options_.wal_group_max));
    if (options_.compact_dead_bytes_threshold > 0) {
      write_queue_->StartCompactor([this] { return NeedsCompaction(); },
                                   [this] { Compact(); });
    }
  }
  return Status::OK();
}

void SpbTree::CommitGroup(std::vector<WriteQueue::Request*>& group) {
  // Blocking lock — the leader queues behind a checkpoint/compaction rather
  // than failing, and holding it across append+fsync+apply+publish is what
  // guarantees a concurrent Save can never truncate WAL records that are
  // appended but not yet applied.
  std::lock_guard<std::mutex> wlock(writer_mu_);
  if (wal_ != nullptr) {
    std::vector<Wal::Record> recs(group.size());
    for (size_t i = 0; i < group.size(); ++i) {
      recs[i].type = group[i]->kind == WriteQueue::OpKind::kInsert
                         ? Wal::RecordType::kInsert
                         : Wal::RecordType::kDelete;
      recs[i].id = group[i]->id;
      recs[i].payload = group[i]->obj;
    }
    // ONE segment write + ONE fsync for the whole group.
    const Status ws = wal_->AppendGroup(
        recs.data(), recs.size(), wal_fsync_.load(std::memory_order_relaxed));
    if (!ws.ok()) {
      for (WriteQueue::Request* r : group) r->status = ws;
      return;
    }
  }
  std::vector<PageId> superseded;
  for (WriteQueue::Request* r : group) {
    if (r->kind == WriteQueue::OpKind::kInsert) {
      r->status = InsertOneMappedLocked(r->obj, r->id, r->phi.data(), r->key,
                                        &superseded);
    } else {
      r->status =
          DeleteOneMappedLocked(r->obj, r->id, r->key, &r->found, &superseded);
    }
  }
  // ONE snapshot epoch for the whole group.
  PublishCurrent(std::move(superseded));
  MaybeRefreshLocatorLocked();
}

Status SpbTree::ReplayWal() {
  std::vector<Wal::Record> records;
  SPB_RETURN_IF_ERROR(wal_->ReadAll(&records));
  if (records.empty()) return Status::OK();
  // Records below the checkpoint LSN are already captured by the tree files
  // (the checkpoint truncates, so normally none exist — a crash between the
  // meta write and the truncate leaves some, and replaying them is a no-op
  // thanks to upsert/missing-delete idempotence; skipping the provably
  // captured ones just saves the work).
  const uint64_t checkpoint_lsn = wal_->stats().checkpoint_lsn;
  std::lock_guard<std::mutex> wlock(writer_mu_);
  std::vector<PageId> superseded;
  for (const Wal::Record& rec : records) {
    if (rec.lsn < checkpoint_lsn) continue;
    if (rec.type == Wal::RecordType::kInsert) {
      const std::vector<double> phi = space_->Phi(rec.payload, counting_);
      SPB_RETURN_IF_ERROR(InsertOneMappedLocked(
          rec.payload, rec.id, phi.data(), space_->KeyFor(phi), &superseded));
    } else {
      bool found = false;
      SPB_RETURN_IF_ERROR(DeleteOneMappedLocked(
          rec.payload, rec.id,
          space_->KeyFor(space_->Phi(rec.payload, counting_)), &found,
          &superseded));
    }
  }
  PublishCurrent(std::move(superseded));
  MaybeRefreshLocatorLocked();
  return Status::OK();
}

Status SpbTree::RebuildBtreeFromRaf() {
  // The B+-tree references offsets of a RAF file that no longer exists (a
  // crash split a compaction's rename from its checkpoint). Every record in
  // the surviving file is authoritative; keep the LAST occurrence per id (a
  // post-swap re-insert supersedes earlier records) and bulk-load a fresh
  // tree over them. Raw reads: recovery I/O never enters the accounting.
  struct Rec {
    uint64_t key;
    uint64_t ptr;
    ObjectId id;
    uint32_t len;
  };
  std::vector<Rec> recs;
  std::unordered_map<ObjectId, size_t> by_id;
  Raf::RawReadCache cache;
  uint64_t dead = 0;
  const uint64_t end = raf_->end_offset();
  uint64_t off = kPageSize;
  ObjectId id;
  Blob obj;
  while (off < end) {
    SPB_RETURN_IF_ERROR(raf_->GetRaw(off, &id, &obj, &cache));
    const uint64_t key = space_->KeyFor(space_->Phi(obj, counting_));
    const auto [it, inserted] = by_id.try_emplace(id, recs.size());
    if (inserted) {
      recs.push_back(Rec{key, off, id, uint32_t(obj.size())});
    } else {
      Rec& old = recs[it->second];
      dead += 8 + old.len;
      old = Rec{key, off, id, uint32_t(obj.size())};
    }
    off += 8 + obj.size();
  }
  // (key, ptr) order reproduces the compacted file's leaf order exactly.
  std::sort(recs.begin(), recs.end(), [](const Rec& a, const Rec& b) {
    return a.key < b.key || (a.key == b.key && a.ptr < b.ptr);
  });
  std::vector<LeafEntry> entries;
  entries.reserve(recs.size());
  for (const Rec& rc : recs) entries.push_back(LeafEntry{rc.key, rc.ptr});

  btree_.reset();
  std::unique_ptr<PageFile> bf;
  SPB_RETURN_IF_ERROR(
      PageFile::CreateOnDisk(options_.storage_dir + "/btree.spb", &bf));
  SPB_RETURN_IF_ERROR(BPlusTree::Create(
      std::move(bf), options_.btree_cache_pages, &space_->curve(), &btree_));
  SPB_RETURN_IF_ERROR(
      btree_->SetNodeCacheEntries(options_.node_cache_entries));
  SPB_RETURN_IF_ERROR(btree_->BulkLoad(entries));
  SPB_RETURN_IF_ERROR(btree_->Sync());
  raf_->AddDeadBytes(dead);
  num_objects_.store(recs.size(), std::memory_order_relaxed);
  return Status::OK();
}

Status SpbTree::Compact() {
  // Blocking lock: compaction queues behind in-flight commit groups.
  std::lock_guard<std::mutex> wlock(writer_mu_);
  return CompactLocked();
}

Status SpbTree::CompactLocked() {
  const TreeVersion tv = btree_->version();
  // Live entries of the current version, ascending key order (raw reads —
  // the walk stays out of the accounting).
  std::vector<LeafEntry> entries;
  SPB_RETURN_IF_ERROR(btree_->CollectLeafEntriesRaw(tv, &entries));

  const bool on_disk = !options_.storage_dir.empty();
  const std::string tmp_path = options_.storage_dir + "/raf.compact.spb";
  std::unique_ptr<PageFile> file;
  if (on_disk) {
    SPB_RETURN_IF_ERROR(PageFile::CreateOnDisk(tmp_path, &file));
  } else {
    file = PageFile::CreateInMemory();
  }
  std::unique_ptr<Raf> fresh;
  SPB_RETURN_IF_ERROR(Raf::Create(std::move(file), options_.raf_cache_pages,
                                  &fresh, raf_->generation() + 1));
  // Copy the live records in SFC order: the new file is dense and restored
  // to bulk-load locality, and every orphaned record is left behind. A
  // block of records at a time goes through the bulk load's span path.
  Raf::RawReadCache cache;
  constexpr size_t kBlock = 1024;
  std::vector<Blob> objs(std::min(entries.size(), kBlock));
  std::vector<Raf::Record> records(objs.size());
  std::vector<LeafEntry> new_entries(entries.size());
  for (size_t i = 0; i < entries.size(); i += kBlock) {
    const size_t m = std::min(kBlock, entries.size() - i);
    for (size_t j = 0; j < m; ++j) {
      SPB_RETURN_IF_ERROR(
          raf_->GetRaw(entries[i + j].ptr, &records[j].id, &objs[j], &cache));
      records[j].payload = objs[j];
      new_entries[i + j].key = entries[i + j].key;
    }
    uint64_t offsets[kBlock];
    SPB_RETURN_IF_ERROR(fresh->AppendBatch(
        std::span<const Raf::Record>(records.data(), m), offsets));
    for (size_t j = 0; j < m; ++j) new_entries[i + j].ptr = offsets[j];
  }
  SPB_RETURN_IF_ERROR(fresh->Sync());
  // Cumulative counters carry across the swap (compaction is invisible to
  // PA accounting — its own writes are overwritten here); dead debt resets.
  fresh->CarryStatsFrom(*raf_);

  // The whole outgoing tree version is superseded, exactly like a COW
  // write's page set: retired once the last pinning snapshot drains.
  std::vector<PageId> old_pages;
  SPB_RETURN_IF_ERROR(btree_->CollectVersionPages(tv, &old_pages));
  TreeVersion new_tv;
  SPB_RETURN_IF_ERROR(btree_->BulkLoadCow(new_entries, &new_tv));

  MaybeCrash("compact_before_rename");
  if (on_disk) {
    // Atomic swap on disk. The old Raf's fd survives the rename-over
    // (POSIX), so snapshots pinned to pre-swap versions keep reading the
    // unlinked inode until they drain.
    std::error_code ec;
    std::filesystem::rename(tmp_path, options_.storage_dir + "/raf.spb", ec);
    if (ec) {
      return Status::IOError("compaction rename failed: " + ec.message());
    }
  }
  MaybeCrash("compact_after_rename");
  {
    std::lock_guard<std::mutex> lock(raf_mu_);
    raf_ = std::shared_ptr<Raf>(std::move(fresh));
  }
  btree_->AdoptVersion(new_tv);
  PublishCurrent(std::move(old_pages));
  // The whole tree was rebuilt: model the fresh version immediately (the
  // compaction swap is exactly the "refresh per snapshot epoch" moment).
  RebuildLocatorLocked();
  // Checkpoint immediately: the meta must record the new generation (a
  // crash before this line is the rebuild-on-open case the kill-point tests
  // exercise).
  if (on_disk) SPB_RETURN_IF_ERROR(SaveLocked());
  return Status::OK();
}

bool SpbTree::NeedsCompaction() const {
  const uint64_t threshold =
      compact_threshold_.load(std::memory_order_relaxed);
  if (threshold == 0) return false;
  return RafPtr()->dead_bytes() >= threshold;
}

Wal::Stats SpbTree::wal_stats() const {
  return wal_ != nullptr ? wal_->stats() : Wal::Stats{};
}

WriteQueue::Stats SpbTree::write_queue_stats() const {
  return write_queue_ != nullptr ? write_queue_->stats()
                                 : WriteQueue::Stats{};
}

StatsSnapshot SpbTree::CollectStats() const {
  StatsSnapshot s;
  s.name = name();
  s.num_objects = size();
  s.storage_bytes = storage_bytes();
  const QueryStats q = cumulative_stats();
  s.page_accesses = q.page_accesses;
  s.distance_computations = q.distance_computations;
  s.SetIoStats(io_stats());
  const Wal::Stats w = wal_stats();
  s.wal_segment_bytes = w.segment_bytes;
  s.wal_checkpoint_lsn = w.checkpoint_lsn;
  s.wal_next_lsn = w.next_lsn;
  s.wal_pending_records = w.pending_records;
  s.wal_groups = w.groups;
  s.wal_fsyncs = w.fsyncs;
  s.wal_replayed_records = w.replayed_records;
  const WriteQueue::Stats wq = write_queue_stats();
  s.wq_ops = wq.ops;
  s.wq_groups = wq.groups;
  s.wq_max_group = wq.max_group;
  s.wq_compactions = wq.compactions;
  const LocatorStats ls = locator_stats();
  s.locator_model_present = ls.model_present;
  s.locator_pla_ok = ls.pla_ok;
  s.locator_epoch = ls.epoch;
  s.locator_leaves = ls.leaves;
  s.locator_internal_nodes = ls.internal_nodes;
  s.locator_segments = ls.segments;
  s.locator_epsilon = ls.epsilon;
  s.locator_hits = ls.hits;
  s.locator_fallbacks = ls.fallbacks;
  s.locator_stale = ls.stale;
  s.locator_seek_misses = ls.seek_misses;
  s.locator_rebuilds = ls.rebuilds;
  const PlannerStats ps = planner_stats();
  s.planner_planned_range = ps.planned_range;
  s.planner_planned_knn = ps.planned_knn;
  s.planner_routed_greedy = ps.routed_greedy;
  s.planner_routed_incremental = ps.routed_incremental;
  s.planner_cutoff_disabled = ps.cutoff_disabled;
  s.planner_calibration = ps.calibration;
  s.planner_drift = ps.drift;
  return s;
}

size_t SpbTree::writer_concurrency() const {
  // With the commit queue, any number of writers make progress (they
  // group-commit instead of failing with kBusy); report a width that tells
  // QueryExecutor not to serialize them behind its own mutex.
  return write_queue_ != nullptr ? 64 : 1;
}

Status SpbTree::CheckIntegrity() {
  SPB_RETURN_IF_ERROR(btree_->CheckInvariants());
  // Every leaf entry's key must equal the recomputed key of its RAF object.
  // Chain-free cursor scan: valid on COW'd trees, identical coverage on
  // never-updated ones.
  BPlusTree::LeafCursor cur(btree_.get(), btree_->version());
  SPB_RETURN_IF_ERROR(cur.SeekFirst());
  uint64_t count = 0;
  ObjectId id;
  Blob obj;
  while (cur.valid()) {
    const LeafEntry e = cur.entry();
    SPB_RETURN_IF_ERROR(raf_->Get(e.ptr, &id, &obj));
    const uint64_t key = space_->KeyFor(space_->Phi(obj, counting_));
    if (key != e.key) {
      return Status::Corruption("leaf key does not match object mapping");
    }
    ++count;
    SPB_RETURN_IF_ERROR(cur.Next());
  }
  if (count != num_objects_.load(std::memory_order_relaxed)) {
    return Status::Corruption("entry count mismatch");
  }
  return Status::OK();
}

}  // namespace spb
