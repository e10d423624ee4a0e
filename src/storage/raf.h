#ifndef SPB_STORAGE_RAF_H_
#define SPB_STORAGE_RAF_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/blob.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace spb {

class Readahead;

/// The result of a zero-copy RAF read (Raf::GetView): a pointer/length pair
/// for the record's payload plus whatever keeps those bytes alive — a
/// BufferPool::PagePin into the cache frame when the record does not span
/// pages, or a reusable owned Blob that the copy fallback (page-spanning
/// records, dirty-tail reads) filled. Callers treat both cases uniformly
/// through data()/size()/ref(); reusing one BlobView across many GetView
/// calls makes the fallback allocation-free at steady state.
///
/// Lifetime: the view (and any BlobRef taken from it) is valid until the
/// next GetView into the same view or the view's destruction. The pin keeps
/// the frame's bytes valid even if the pool evicts or overwrites the entry
/// (see BufferPool::PagePin).
class BlobView {
 public:
  BlobView() = default;

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  BlobRef ref() const { return BlobRef(data_, size_); }
  operator BlobRef() const { return ref(); }
  Blob ToBlob() const { return Blob(data_, data_ + size_); }
  /// True when the view points into a pinned cache frame (diagnostics).
  bool pinned() const { return pin_ != nullptr; }

 private:
  friend class Raf;

  void SetPinned(BufferPool::PagePin pin, const uint8_t* data, size_t size) {
    pin_ = std::move(pin);
    data_ = data;
    size_ = size;
  }
  void SetOwned(size_t size) {
    pin_.reset();
    data_ = owned_.data();
    size_ = size;
  }

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  BufferPool::PagePin pin_;
  Blob owned_;
};

/// The paper's Random Access File: object payloads stored separately from the
/// index, in ascending SFC order at bulk-load time. Each record is
/// `(id: u32, len: u32, obj: len bytes)` and is addressed by the byte offset
/// of its first byte. Records may span page boundaries; a Get counts one page
/// access per distinct uncached page touched.
///
/// Page 0 is a header page (magic, end offset, record count); data starts at
/// byte offset kPageSize.
///
/// Thread safety: Get()/GetView()/ScanAll() are safe from any number of
/// reader threads *concurrently with one appender*, under the snapshot
/// protocol (docs/ARCHITECTURE.md §"Threading model"): a reader only
/// dereferences offsets below the `end_offset()` watermark its snapshot
/// captured, and every such byte is either in a fully flushed page (served
/// by the thread-safe buffer pool) or still inside the in-memory tail page,
/// whose buffer is guarded by `tail_mu_` — the appender only ever writes
/// tail bytes *at or above* any published watermark, so the bytes a reader
/// copies out are immutable. The lock-free `dirty_tail_id_` probe routes
/// readers to the tail path; it is release-published by the appender before
/// the writer's snapshot Publish(), and re-checked under the lock (a stale
/// hit falls back to the pool, where the flushed bytes already are).
/// AppendBatch()/Sync()/FlushCache()/SetCachePages() remain single-writer
/// (mutually excluded among themselves; SpbTree's writer lock provides
/// this); SetCachePages additionally requires quiesced readers, like
/// BufferPool::set_capacity. Reads served from the dirty in-memory tail
/// page count as cache hits (not page accesses): the tail is a pinned
/// buffer, so serving from it is a cache hit under the paper's PA
/// definition.
class Raf {
 public:
  /// Creates an empty RAF over a fresh page file. `cache_pages` sizes the LRU
  /// buffer pool used for reads. `generation` stamps the header: compaction
  /// writes its replacement file with the old generation + 1, and the index
  /// meta records which generation it was checkpointed against — a mismatch
  /// on open means a crash landed between the compaction swap and its
  /// checkpoint, and the B+-tree must be rebuilt from the RAF. Pre-existing
  /// files (header bytes 24..31 zero) read back as generation 0.
  static Status Create(std::unique_ptr<PageFile> file, size_t cache_pages,
                       std::unique_ptr<Raf>* out, uint64_t generation = 0);

  /// Opens an existing RAF (header page must be valid).
  static Status Open(std::unique_ptr<PageFile> file, size_t cache_pages,
                     std::unique_ptr<Raf>* out);

  /// One record of an AppendBatch: the payload bytes must stay valid for
  /// the call.
  struct Record {
    ObjectId id;
    BlobRef payload;
  };

  /// Largest run of completed pages AppendBatch stages before writing it
  /// with one BufferPool::AppendSpan, which bounds its memory at 256 KiB.
  static constexpr size_t kAppendRunPages = 64;

  /// Appends `records` in order; offsets[i] receives the byte offset of
  /// records[i]. Bytes go into the in-memory tail page; each page the tail
  /// leaves joins a staged run, written when the run holds kAppendRunPages
  /// pages and at the end of the call, so the last, partial page stays the
  /// dirty tail. Files, page_writes and cache contents are byte-identical to
  /// appending the records one at a time: every completed page is written
  /// once, in ascending order, and the tail only on Sync() or when left.
  /// The end_offset() watermark is published once, after the bytes land.
  Status AppendBatch(std::span<const Record> records, uint64_t* offsets);

  /// Appends one record (the one-record AppendBatch); returns its byte
  /// offset in `*offset`.
  Status Append(ObjectId id, BlobRef obj, uint64_t* offset) {
    const Record r{id, obj};
    return AppendBatch(std::span<const Record>(&r, 1), offset);
  }

  /// Reads the record at `offset`. If `ra` is non-null, pages this record
  /// covers are served from that readahead session's staged buffers when
  /// prefetched (identical accounting either way; see storage/io_engine.h).
  Status Get(uint64_t offset, ObjectId* id, Blob* obj,
             Readahead* ra = nullptr);

  /// Zero-copy variant of Get: serves a record that fits in one (clean)
  /// page directly from the pinned cache frame; falls back to an internal
  /// copy (into the view's reusable buffer) for page-spanning records,
  /// header reads that straddle a page boundary, and dirty-tail pages.
  ///
  /// Accounting is identical to Get in every case. Non-spanning records pay
  /// the same two pool touches Get's header + payload reads pay (pin +
  /// Touch; empty records only the header touch); the fallback runs Get's
  /// own byte loop. So PA, cache_hits and LRU state are byte-identical
  /// whether callers use Get or GetView — the invariant WarmPathSpbTest
  /// (tests/node_cache_test.cc) asserts.
  Status GetView(uint64_t offset, ObjectId* id, BlobView* view,
                 Readahead* ra = nullptr);

  /// Visits every record in file order. The callback receives
  /// (offset, id, obj). With a readahead session the scan schedules data
  /// pages in windows ahead of the cursor, so a cold scan runs on coalesced
  /// span reads instead of one fetch per page.
  Status ScanAll(
      const std::function<void(uint64_t, ObjectId, const Blob&)>& fn,
      Readahead* ra = nullptr);

  /// One-page cache a caller threads through consecutive GetRaw calls so a
  /// run of same-page records costs one file read, not one per record.
  struct RawReadCache {
    PageId id = kInvalidPageId;
    Page page;
  };

  /// Maintenance-path read of the record at `offset`: direct file I/O (plus
  /// the dirty-tail buffer), completely outside the buffer pool — no PA, no
  /// cache hits, no LRU perturbation. Compaction and crash recovery use
  /// this so their internal I/O never shows up in the paper's query-cost
  /// accounting. Single concurrent appender allowed (same tail protocol as
  /// Get); `cache` may be null.
  Status GetRaw(uint64_t offset, ObjectId* id, Blob* obj,
                RawReadCache* cache) const;

  /// Overwrites this RAF's IoStats with `other`'s, zeroing dead_bytes.
  /// Compaction calls this on the replacement RAF so the tree's cumulative
  /// counters continue seamlessly across the swap — compaction is invisible
  /// to PA accounting — while the dead-byte debt resets to zero (every
  /// surviving record is live). Requires quiesced stats readers (the
  /// compactor holds the writer lock; stats races are benign counters).
  void CarryStatsFrom(const Raf& other) {
    pool_.stats() = other.stats();
    pool_.stats().dead_bytes.store(0, std::memory_order_relaxed);
  }

  uint64_t generation() const { return generation_; }

  /// Page holding byte `offset` (records may span onto the next page too).
  static PageId PageOf(uint64_t offset) {
    return static_cast<PageId>(offset / kPageSize);
  }

  /// Flushes the partial tail page and the header to the page file.
  Status Sync();

  uint64_t num_records() const {
    return num_records_.load(std::memory_order_relaxed);
  }
  /// One past the last valid record byte — the snapshot watermark an index
  /// version captures at publish time. Release-published by Append().
  uint64_t end_offset() const {
    return end_offset_.load(std::memory_order_acquire);
  }
  /// Total bytes of record data written (excludes the header page).
  uint64_t data_bytes() const { return end_offset() - kPageSize; }
  /// Index storage footprint in bytes (whole pages, header included).
  uint64_t file_bytes() const {
    return static_cast<uint64_t>(file_->num_pages()) * kPageSize;
  }

  BufferPool& pool() { return pool_; }
  const IoStats& stats() const { return pool_.stats(); }
  void ResetStats() { pool_.stats().Reset(); }
  /// Records `n` bytes of record data orphaned by a delete (the record
  /// header plus payload stay in the file until a rebuild/compaction).
  /// Called by the index's delete path under its writer lock; the counter
  /// itself is atomic, so readers may report it concurrently.
  void AddDeadBytes(uint64_t n) {
    pool_.stats().dead_bytes.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t dead_bytes() const {
    return stats().dead_bytes.load(std::memory_order_relaxed);
  }
  /// Drops the LRU cache. Never touches the tail, so it cannot lose data;
  /// Status-returning for uniformity with the other mutators (always OK
  /// today).
  Status FlushCache() {
    pool_.Flush();
    return Status::OK();
  }
  /// Resizes the LRU cache (drops contents). Requires quiesced readers —
  /// the pool's shard array is rebuilt.
  Status SetCachePages(size_t n) {
    pool_.set_capacity(n);
    return Status::OK();
  }

 private:
  Raf(std::unique_ptr<PageFile> file, size_t cache_pages)
      : owned_file_(std::move(file)),
        file_(owned_file_.get()),
        pool_(file_, cache_pages) {}

  /// Copies `n` bytes to the tail at `*offset` and advances it; requires
  /// `tail_mu_`.
  Status StageBytesLocked(uint64_t* offset, const uint8_t* src, size_t n);
  /// Makes `page` the tail: a dirty tail joins the staged run first.
  Status MoveTailLocked(PageId page);
  /// Writes the staged run through the pool and empties it.
  Status WriteRunLocked();
  Status ReadBytes(uint64_t offset, uint8_t* dst, size_t n, Readahead* ra);
  Status ReadBytesRaw(uint64_t offset, uint8_t* dst, size_t n,
                      RawReadCache* cache) const;
  /// GetView's copy fallback: a plain Get into the view's owned buffer.
  Status GetIntoOwned(uint64_t offset, ObjectId* id, BlobView* view,
                      Readahead* ra);
  Status WriteHeader();

  std::unique_ptr<PageFile> owned_file_;
  PageFile* file_;
  BufferPool pool_;

  // Next free byte offset; starts at kPageSize (data begins after header).
  // Atomic: the appender release-stores after the record's bytes land, so a
  // reader that observes an offset also observes the bytes behind it.
  std::atomic<uint64_t> end_offset_{kPageSize};
  std::atomic<uint64_t> num_records_{0};
  uint64_t generation_ = 0;

  // In-memory tail page: the last, possibly partial, data page. Kept out of
  // the buffer pool until full so appends don't inflate write counts.
  // `tail_mu_` guards the tail fields (appender mutations, reader copies)
  // and the staged run. `dirty_tail_id_` names the lowest page whose bytes
  // are not in the pool yet — the dirty tail, or while AppendBatch stages a
  // run, the run's first page (kInvalidPageId if none) — so readers probe
  // "must I take the lock?" without taking it on the overwhelmingly common
  // clean page.
  mutable std::mutex tail_mu_;
  Page tail_;
  PageId tail_id_ = kInvalidPageId;
  bool tail_dirty_ = false;
  std::atomic<PageId> dirty_tail_id_{kInvalidPageId};
  // Completed pages run_first_, run_first_ + 1, ... awaiting their span
  // write; empty (and unallocated) between AppendBatch calls, so readers
  // never need it.
  std::vector<Page> run_;
  PageId run_first_ = kInvalidPageId;
};

}  // namespace spb

#endif  // SPB_STORAGE_RAF_H_
