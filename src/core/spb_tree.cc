#include "core/spb_tree.h"

#include "common/coding.h"
#include "common/crash_point.h"
#include "common/parallel.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <filesystem>
#include <cstring>
#include <queue>
#include <string>
#include <unordered_map>

namespace spb {

namespace {

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

// A version is a tree, so no query visits more nodes than the B+-tree file
// has pages; one that does has met a child pointer leading back up the
// tree, and would otherwise loop for as long as its frontier grows.
Status NodeCycleError(PageId id) {
  return Status::Corruption(
      "B+-tree node graph is not a tree: the traversal passed the file's "
      "page count at page " +
      std::to_string(id));
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

  const size_t n = objects.size();
  const size_t dims = tree->space_->dims();

  // Reservoir sample for the cost model. Which rows it keeps depends only
  // on the RNG sequence, not on the rows, so a serial pass fixes every
  // (position, slot) pair up front and the mapping threads copy out just
  // those rows: no n x |P| matrix is ever held.
  const size_t sample_cap = options.cost_sample_size;
  const size_t sample_size = std::min(sample_cap, n);
  std::vector<std::pair<size_t, size_t>> kept(sample_size);  // (pos, slot)
  for (size_t s = 0; s < sample_size; ++s) kept[s] = {s, s};
  Rng sample_rng(options.seed ^ 0xc0);
  for (size_t i = sample_size; sample_cap > 0 && i < n; ++i) {
    const uint64_t slot = sample_rng.Uniform(i + 1);
    if (slot < sample_cap) kept[slot].first = i;
  }
  // Position order; a position fills at most one slot.
  std::sort(kept.begin(), kept.end());
  std::vector<std::vector<double>> sample(sample_size,
                                          std::vector<double>(dims));

  // ---- Stage 1+2: map every object, key it and sort by SFC value, in
  // contiguous chunks on parallel threads (common/parallel.h). `pos` is the
  // position in `objects` (needed to fetch the payload once ids are explicit
  // and no longer double as positions). A chunk maps its rows 256 at a time
  // into a buffer of its own — unless the caller (a sharding router) already
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
  std::vector<Mapped> mapped(n);
  const MappedSpace& space = *tree->space_;
  const CountingDistance& counting = tree->counting_;
  const std::vector<size_t> runs =
      ParallelFor(n, kBuildChunkObjects, [&](size_t begin, size_t end) {
        constexpr size_t kBlock = 256;
        std::vector<double> block(kBlock * dims);
        auto next_kept = std::lower_bound(
            kept.begin(), kept.end(), std::make_pair(begin, size_t{0}));
        uint64_t keys[kBlock];
        for (size_t i = begin; i < end; i += kBlock) {
          const size_t m = std::min(kBlock, end - i);
          const double* rows = block.data();
          if (phis_in != nullptr) {
            rows = phis_in + i * dims;
          } else {
            space.pivots().MapBatch(objects.data() + i, m, counting,
                                    block.data());
          }
          space.KeysFor(rows, m, keys);
          for (; next_kept != kept.end() && next_kept->first < i + m;
               ++next_kept) {
            const double* row = rows + (next_kept->first - i) * dims;
            std::copy(row, row + dims, sample[next_kept->second].begin());
          }
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
  // The dead-byte debt at checkpoint time, so a reopened tree still reports
  // the debt Compact() would recover (replayed deletes re-add their own
  // debt on top). Meta files written before this field read back as 0.
  w.U64(raf_->dead_bytes());

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
  // Older meta files end with one more F64 (a retired planner field);
  // trailing bytes are never read, so those files still open.
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

WriteQueue::Request SpbTree::MapWrite(const MappedSpace& space,
                                      const DistanceFunction& metric,
                                      WriteQueue::OpKind kind, const Blob& obj,
                                      ObjectId id) {
  WriteQueue::Request r;
  r.kind = kind;
  r.obj = obj;
  r.id = id;
  r.phi = space.Phi(obj, metric);
  r.key = space.KeyFor(r.phi);
  return r;
}

Status SpbTree::Insert(const Blob& obj, ObjectId id) {
  return BatchInsert({obj}, {id});
}

Status SpbTree::BatchInsert(const std::vector<Blob>& objs,
                            const std::vector<ObjectId>& ids) {
  if (objs.size() != ids.size()) {
    return Status::InvalidArgument("BatchInsert: objs/ids size mismatch");
  }
  std::vector<WriteQueue::Request> reqs;
  reqs.reserve(objs.size());
  for (size_t i = 0; i < objs.size(); ++i) {
    reqs.push_back(MapWrite(*space_, counting_, WriteQueue::OpKind::kInsert,
                            objs[i], ids[i]));
  }
  return Write(&reqs);
}

Status SpbTree::Delete(const Blob& obj, ObjectId id, bool* found) {
  std::vector<WriteQueue::Request> reqs;
  reqs.push_back(
      MapWrite(*space_, counting_, WriteQueue::OpKind::kDelete, obj, id));
  const Status s = Write(&reqs);
  *found = reqs[0].found;
  return s;
}

Status SpbTree::Write(std::vector<WriteQueue::Request>* reqs) {
  if (reqs->empty()) return Status::OK();
  if (write_queue_ != nullptr) return write_queue_->SubmitBatch(reqs);
  std::unique_lock<std::mutex> wlock(writer_mu_, std::try_to_lock);
  if (!wlock.owns_lock()) {
    return Status::Busy("write raced another writer; retry when it drains");
  }
  std::vector<WriteQueue::Request*> group;
  group.reserve(reqs->size());
  for (WriteQueue::Request& r : *reqs) group.push_back(&r);
  return CommitLocked(group, /*log=*/true);
}

Status SpbTree::CommitLocked(const std::vector<WriteQueue::Request*>& group,
                             bool log) {
  if (log && wal_ != nullptr) {
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
      return ws;
    }
  }
  // Intermediate versions are adopted privately and never published, so
  // queueing their superseded pages behind the one final epoch is safe.
  std::vector<PageId> superseded;
  Status first_error;
  for (WriteQueue::Request* r : group) {
    r->status = ApplyLocked(r, &superseded);
    if (first_error.ok() && !r->status.ok()) first_error = r->status;
  }
  // ONE snapshot epoch for the whole group.
  PublishCurrent(std::move(superseded));
  MaybeRefreshLocatorLocked();
  return first_error;
}

Status SpbTree::ApplyLocked(WriteQueue::Request* r,
                            std::vector<PageId>* superseded) {
  if (r->kind == WriteQueue::OpKind::kDelete) {
    return UnlinkLocked(r->key, r->id, &r->obj, superseded, &r->found);
  }
  // Upsert: an entry at this key with the same id is replaced.
  bool replaced = false;
  SPB_RETURN_IF_ERROR(
      UnlinkLocked(r->key, r->id, nullptr, superseded, &replaced));
  // RAF first: the new leaf entry references the record's offset, and the
  // appender's release-store of the watermark happens before the version
  // holding this entry can be published.
  uint64_t offset;
  SPB_RETURN_IF_ERROR(raf_->Append(r->id, r->obj, &offset));
  TreeVersion tv;
  SPB_RETURN_IF_ERROR(btree_->InsertCow(r->key, offset, &tv, superseded));
  btree_->AdoptVersion(tv);
  InvalidateLocator();
  const uint64_t n = num_objects_.fetch_add(1, std::memory_order_relaxed) + 1;
  ++inserts_seen_;
  std::lock_guard<std::mutex> lock(cost_mu_);
  cost_model_.set_total_objects(n);
  if (options_.cost_sample_size > 0) {
    cost_model_.AddSample(r->phi, inserts_seen_,
                          sample_rng_.Uniform(UINT64_MAX));
  }
  return Status::OK();
}

Status SpbTree::UnlinkLocked(uint64_t key, ObjectId id, const Blob* obj,
                             std::vector<PageId>* superseded, bool* removed) {
  *removed = false;
  BPlusTree::LeafCursor cur(btree_.get(), btree_->version());
  SPB_RETURN_IF_ERROR(cur.Seek(key));
  ObjectId rid;
  Blob robj;
  for (;;) {
    if (!cur.valid() || cur.entry().key != key) return Status::OK();
    SPB_RETURN_IF_ERROR(raf_->Get(cur.entry().ptr, &rid, &robj));
    if (rid == id && (obj == nullptr || robj == *obj)) break;
    SPB_RETURN_IF_ERROR(cur.Next());
  }
  TreeVersion tv;
  SPB_RETURN_IF_ERROR(
      btree_->DeleteCow(key, cur.entry().ptr, removed, &tv, superseded));
  if (!*removed) return Status::OK();
  btree_->AdoptVersion(tv);
  InvalidateLocator();
  // The unlinked RAF record (u32 id + u32 len header plus the payload) is
  // garbage until a rebuild/compaction: tally it as compaction debt.
  raf_->AddDeadBytes(8 + robj.size());
  const uint64_t n = num_objects_.fetch_sub(1, std::memory_order_relaxed) - 1;
  std::lock_guard<std::mutex> lock(cost_mu_);
  cost_model_.set_total_objects(n);
  return Status::OK();
}

Status SpbTree::VerifyLeafBatch(Raf* raf, const LeafEntry* entries,
                                size_t count, const Blob& q,
                                const std::vector<double>& phi_q, double r,
                                bool check_region, bool use_cutoff,
                                const std::vector<uint32_t>& rr_lo,
                                const std::vector<uint32_t>& rr_hi,
                                LeafScratch* scratch,
                                std::vector<ObjectId>* result) {
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
  // Survivors are fetched and verified in entry order, so the result order,
  // the RAF page-access order and the sequence of distance calls all match
  // the per-entry loop this replaces. Each fetch serves the object
  // straight from the pinned frame (the same accounting as Raf::Get — see
  // Raf::GetView); the view buffer is reused across all entries.
  for (size_t i = 0; i < count; ++i) {
    if (check_region && !scratch->in_box[i]) {
      continue;  // Lemma 1: phi(o) outside RR(q, r)
    }
    ObjectId id;
    SPB_RETURN_IF_ERROR(raf->GetView(entries[i].ptr, &id, &scratch->view));
    const BlobRef obj = scratch->view.ref();
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

  // The snapshot's RAF, not the tree's current one: a concurrent compaction
  // may swap raf_ mid-traversal, but this version's offsets only resolve
  // against the file it was published with (which the snapshot co-owns).
  Raf* const sraf = snap.version().raf.get();

  // Point lookup with a valid model: skip the descent entirely (SeekRank →
  // owning leaf → duplicate run). Byte-identical results/compdists to the
  // classic r == 0 traversal; only B+-tree inner-node accesses differ.
  if (r == 0.0 && model != nullptr && model->num_leaves() > 0) {
    return PointSearchWithLocator(q, *model, snap, A, use_cutoff, result);
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

  const uint64_t max_visits = btree_->file_bytes() / kPageSize;
  for (size_t cursor = 0; cursor < A.todo.size(); ++cursor) {
    const QueryArena::RangeTodo ref = A.todo[cursor];  // copy: todo may grow
    if (cursor >= max_visits) return NodeCycleError(ref.id);
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
                                            A.rr_lo, A.rr_hi, &A.leaf,
                                            result));
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
                                            A.rr_lo, A.rr_hi, &A.leaf,
                                            result));
        enumerated = true;
      }
    }
    if (!enumerated) {
      SPB_RETURN_IF_ERROR(VerifyLeafBatch(sraf, node.leaf_entries.data(),
                                          node.leaf_entries.size(), q,
                                          A.phi_q, r, true, use_cutoff,
                                          A.rr_lo, A.rr_hi, &A.leaf,
                                          result));
    }
  }
  return Status::OK();
}

Status SpbTree::PointSearchWithLocator(const Blob& q, const LeafModel& model,
                                       const Snapshot& snap, QueryArena& A,
                                       bool use_cutoff,
                                       std::vector<ObjectId>* result) {
  // Identity argument (docs/ARCHITECTURE.md §"Learned locator + planner"):
  // at r == 0 the classic traversal verifies exactly the entries whose SFC
  // key equals key(q) — every leaf regime reduces to that set, in entry
  // order — and Lemma 2's batch sweep performs no metric distance calls.
  // This path collects the same run from the same leaves in the same order,
  // so results, RAF accesses and compdists are byte-identical; the elided
  // root-to-leaf descent is the only difference.
  const uint64_t key_q = space_->KeyFor(A.phi_q.data());
  size_t rank = model.SeekRank(key_q);
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
        &A.leaf, result));
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
  return KnnSearch(q, k, snap, A, result, traversal,
                   std::numeric_limits<double>::infinity());
}

Status SpbTree::KnnQueryMapped(const Blob& q, const std::vector<double>& phi_q,
                               size_t k, std::vector<Neighbor>* result,
                               QueryStats* stats, KnnTraversal traversal,
                               double bound) {
  StatScope scope(*this, stats);
  result->clear();
  if (phi_q.size() != space_->dims()) {
    return Status::InvalidArgument("KnnQueryMapped: phi dimensionality");
  }
  const Snapshot snap = AcquireSnapshot();
  if (snap.version().num_objects == 0 || k == 0) return Status::OK();
  QueryArena& A = ThreadArena();
  A.phi_q.assign(phi_q.begin(), phi_q.end());
  return KnnSearch(q, k, snap, A, result, traversal, bound);
}

Status SpbTree::KnnSearch(const Blob& q, size_t k, const Snapshot& snap,
                          QueryArena& A, std::vector<Neighbor>* result,
                          KnnTraversal traversal, double bound) {
  const std::shared_ptr<const LeafModel> model = LocatorForSnapshot(snap);

  // kAuto resolves here: the planner picks greedy vs best-first and the
  // per-query cutoff from the cost model (zero distance calls); with the
  // planner off it degrades to the kGreedy default.
  // Explicit traversals bypass planning entirely. Every routing choice
  // returns the same neighbour distances (ids may differ among ties at the
  // k-th distance); compdists match whichever static configuration the plan
  // resolves to.
  KnnPlan plan;
  const bool planned =
      traversal == KnnTraversal::kAuto && options_.enable_planner;
  if (traversal == KnnTraversal::kAuto) {
    if (planned) plan = PlanKnn(A.phi_q, k);
    traversal = plan.traversal;
  }
  const bool use_cutoff = options_.enable_cutoff && plan.use_cutoff;
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
  // The pruning bound: the local NDk, tightened by the caller's bound when
  // this traversal is one shard of a scatter-gather kNN. Used for every
  // Lemma 3 decision (frontier cutoff, node pushes, leaf filters) but NOT as
  // the DistanceWithCutoff threshold — see KnnQueryMapped.
  auto prune_ndk = [&]() { return std::min(cur_ndk(), bound); };
  auto offer = [&](ObjectId id, double d) {
    if (A.best.size() < k) {
      A.best.push_back(Neighbor{id, d});
      std::push_heap(A.best.begin(), A.best.end(), best_cmp);
    } else if (d < A.best.front().distance) {
      std::pop_heap(A.best.begin(), A.best.end(), best_cmp);
      A.best.back() = Neighbor{id, d};
      std::push_heap(A.best.begin(), A.best.end(), best_cmp);
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
  auto verify_entry = [&](const LeafEntry& e) -> Status {
    ObjectId id;
    SPB_RETURN_IF_ERROR(sraf->GetView(e.ptr, &id, &A.leaf.view));
    const BlobRef obj = A.leaf.view.ref();
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
  const uint64_t max_visits = btree_->file_bytes() / kPageSize;
  uint64_t visits = 0;
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
      SPB_RETURN_IF_ERROR(verify_entry(item.entry));
      continue;
    }
    if (++visits > max_visits) return NodeCycleError(item.node);
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
    UpdateKnnPlannerFeedback(plan.predicted_verifications, traversal,
                             elapsed);
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
  double radius, frac;
  uint64_t total;
  double cost_inc, cost_grd;
  uint64_t obs_inc, obs_grd;
  {
    std::lock_guard<std::mutex> lock(cost_mu_);
    radius = cost_model_.EstimateKnnRadius(phi_q, k);
    frac = cost_model_.DistanceFractionLE(radius);
    total = cost_model_.total_objects();
    cost_inc = arm_cost_[0];
    cost_grd = arm_cost_[1];
    obs_inc = arm_obs_[0];
    obs_grd = arm_obs_[1];
  }
  const double candidates = std::max(double(k), frac * double(total));
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
  return plan;
}

void SpbTree::UpdateKnnPlannerFeedback(double predicted, KnnTraversal used,
                                       double elapsed_seconds) {
  if (!(predicted > 0.0) || !(elapsed_seconds > 0.0)) return;
  const size_t arm = used == KnnTraversal::kGreedy ? 1 : 0;
  const double unit = elapsed_seconds / predicted;
  std::lock_guard<std::mutex> lock(cost_mu_);
  arm_cost_[arm] =
      arm_obs_[arm] == 0 ? unit : 0.8 * arm_cost_[arm] + 0.2 * unit;
  ++arm_obs_[arm];
}

uint64_t SpbTree::storage_bytes() const {
  return btree_->file_bytes() + RafPtr()->file_bytes() +
         space_->pivots().Serialize().size();
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
  loc_hits_.store(0, std::memory_order_relaxed);
  loc_fallbacks_.store(0, std::memory_order_relaxed);
  loc_stale_.store(0, std::memory_order_relaxed);
  loc_rebuilds_.store(0, std::memory_order_relaxed);
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
  std::unique_lock<std::mutex> wlock(writer_mu_, std::try_to_lock);
  if (!wlock.owns_lock()) {
    return Status::Busy(
        "ApplyTuning raced a writer; retry when it drains");
  }
  const TuningOptions was = options_;
  static_cast<TuningOptions&>(options_) = t;
  // Capacity changes rebuild sharded caches (the caller has quiesced
  // readers: see the ApplyTuning contract). Skipped when unchanged so a
  // read-modify-write of the flags never drops a warm cache.
  if (t.node_cache_entries != was.node_cache_entries) {
    SPB_RETURN_IF_ERROR(btree_->SetNodeCacheEntries(t.node_cache_entries));
  }
  if (t.btree_cache_pages != was.btree_cache_pages) {
    btree_->pool().set_capacity(t.btree_cache_pages);
  }
  if (t.raf_cache_pages != was.raf_cache_pages) {
    SPB_RETURN_IF_ERROR(raf_->SetCachePages(t.raf_cache_pages));
  }
  // Write-path engine knobs: the group-commit leader reads these through
  // an atomic / the queue's own lock.
  wal_fsync_.store(t.wal_fsync, std::memory_order_relaxed);
  if (write_queue_ != nullptr) {
    write_queue_->set_group_max(std::max<size_t>(1, t.wal_group_max));
  }
  // Toggling the locator on builds the model here, under the writer lock;
  // toggling it off drops it.
  if (t.enable_learned_locator != was.enable_learned_locator) {
    RebuildLocatorLocked();
  }
  return Status::OK();
}

TuningOptions SpbTree::tuning() const {
  TuningOptions t = options_;
  t.num_shards = 1;
  t.wal_fsync = wal_fsync_.load(std::memory_order_relaxed);
  return t;
}

// ---------------------------------------------------------------------------
// Write-path engine: group-commit WAL, writer queueing, recovery, compaction.
// ---------------------------------------------------------------------------

Status SpbTree::InitEngine() {
  wal_fsync_.store(options_.wal_fsync, std::memory_order_relaxed);
  if (options_.enable_wal) {
    if (options_.storage_dir.empty()) {
      return Status::InvalidArgument(
          "enable_wal requires a disk-backed index (storage_dir)");
    }
    SPB_RETURN_IF_ERROR(Wal::Open(options_.storage_dir + "/wal.spb", &wal_));
    SPB_RETURN_IF_ERROR(ReplayWal());
  }
  if (options_.enable_group_commit) {
    write_queue_ = std::make_unique<WriteQueue>(
        [this](std::vector<WriteQueue::Request*>& group) {
          // Blocking lock: the leader queues behind a checkpoint or a
          // compaction rather than failing, and holding it across
          // append+fsync+apply+publish is what guarantees a concurrent Save
          // can never truncate WAL records appended but not yet applied.
          std::lock_guard<std::mutex> wlock(writer_mu_);
          CommitLocked(group, /*log=*/true);
        },
        std::max<size_t>(1, options_.wal_group_max));
  }
  return Status::OK();
}

Status SpbTree::ReplayWal() {
  std::vector<Wal::Record> records;
  SPB_RETURN_IF_ERROR(wal_->ReadAll(&records));
  // Records below the checkpoint LSN are already captured by the tree files
  // (the checkpoint truncates, so normally none exist — a crash between the
  // meta write and the truncate leaves some, and replaying them is a no-op
  // thanks to upsert/missing-delete idempotence; skipping the provably
  // captured ones just saves the work).
  const uint64_t checkpoint_lsn = wal_->stats().checkpoint_lsn;
  std::vector<WriteQueue::Request> reqs;
  for (const Wal::Record& rec : records) {
    if (rec.lsn < checkpoint_lsn) continue;
    reqs.push_back(MapWrite(*space_, counting_,
                            rec.type == Wal::RecordType::kInsert
                                ? WriteQueue::OpKind::kInsert
                                : WriteQueue::OpKind::kDelete,
                            rec.payload, rec.id));
  }
  if (reqs.empty()) return Status::OK();
  std::vector<WriteQueue::Request*> group;
  for (WriteQueue::Request& r : reqs) group.push_back(&r);
  std::lock_guard<std::mutex> wlock(writer_mu_);
  return CommitLocked(group, /*log=*/false);
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

StatsSnapshot SpbTree::CollectStats() const {
  StatsSnapshot s;
  s.name = name();
  s.num_objects = size();
  s.storage_bytes = storage_bytes();
  const QueryStats q = cumulative_stats();
  s.page_accesses = q.page_accesses;
  s.distance_computations = q.distance_computations;
  s.SetIoStats(io_stats());
  if (wal_ != nullptr) {
    const Wal::Stats w = wal_->stats();
    s.wal_segment_bytes = w.segment_bytes;
    s.wal_checkpoint_lsn = w.checkpoint_lsn;
    s.wal_next_lsn = w.next_lsn;
    s.wal_pending_records = w.pending_records;
    s.wal_groups = w.groups;
    s.wal_fsyncs = w.fsyncs;
    s.wal_replayed_records = w.replayed_records;
  }
  if (write_queue_ != nullptr) {
    const WriteQueue::Stats wq = write_queue_->stats();
    s.wq_ops = wq.ops;
    s.wq_groups = wq.groups;
    s.wq_max_group = wq.max_group;
  }
  std::shared_ptr<const LeafModel> m;
  {
    std::lock_guard<InstrumentedMutex> lock(locator_mu_);
    m = locator_;
  }
  if (m != nullptr) {
    s.locator_model_present = true;
    s.locator_epoch = m->epoch();
    s.locator_leaves = m->num_leaves();
    s.locator_internal_nodes = m->num_internal_nodes();
  }
  s.locator_hits = loc_hits_.load(std::memory_order_relaxed);
  s.locator_fallbacks = loc_fallbacks_.load(std::memory_order_relaxed);
  s.locator_stale = loc_stale_.load(std::memory_order_relaxed);
  s.locator_rebuilds = loc_rebuilds_.load(std::memory_order_relaxed);
  s.planner_planned_knn = plan_knn_.load(std::memory_order_relaxed);
  s.planner_routed_greedy = plan_greedy_.load(std::memory_order_relaxed);
  s.planner_routed_incremental =
      plan_incremental_.load(std::memory_order_relaxed);
  s.planner_cutoff_disabled = plan_cutoff_off_.load(std::memory_order_relaxed);
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
