#ifndef SPB_STORAGE_BUFFER_POOL_H_
#define SPB_STORAGE_BUFFER_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/contention.h"
#include "common/stats.h"
#include "common/status.h"
#include "storage/page.h"
#include "storage/page_file.h"

namespace spb {

/// An LRU page cache in front of one PageFile. All page traffic of an access
/// method flows through a BufferPool so that the paper's PA metric (page
/// accesses not absorbed by the cache) is counted uniformly for the SPB-tree
/// and every competitor.
///
/// Writes are write-through: the page is stored in the cache (so subsequent
/// reads hit) and written to the file immediately. A write counts as one page
/// access; a cached read counts as a hit, an uncached read as one page
/// access. `capacity == 0` disables caching entirely (the paper's "cache size
/// 0" configuration).
///
/// Frames come from the file when it can share them (PageFile::SharedPage,
/// i.e. a memory-backed file): a miss or a write then caches the file's own
/// immutable page, not a 4 KB copy, so a memory-backed index holds each page
/// once and `capacity` bounds only which pages count as cached. Other files
/// (disk) are read into, and written through, private frames. Accounting,
/// single-flight and LRU order are the same either way.
///
/// Thread safety: Read() and Write() are safe to call concurrently. The LRU
/// is striped — pages hash to one of up to kMaxShards independent shards,
/// each with its own mutex, list and map, so concurrent readers touching
/// different pages do not contend. IoStats counters are atomic, keeping the
/// PA totals exact under concurrency.
///
/// Misses are *single-flight*: each shard keeps a pending-fetch table, and
/// concurrent readers missing on the same page elect one leader that performs
/// the file read while the rest wait on the shared result. Every caller still
/// counts one logical page_read (the paper's PA is per-request, and the
/// cache-size-0 experiments depend on it), but only the leader counts a
/// physical_read — duplicate disk fetches of one page collapse to one. The
/// leader erases the pending entry and inserts the page into the cache under
/// one shard-lock hold, so there is no window where a page is in neither
/// table. A failed read is propagated to all waiters and the pending entry
/// is removed; the next request simply retries. Small pools (fewer than
/// 2 * kMinShardPages pages) collapse to a single shard so the eviction
/// order stays exactly the classic global-LRU order the unit tests and the
/// paper's small-cache experiments rely on. set_capacity() is NOT
/// thread-safe: it rebuilds the shard array (destroying the per-shard
/// mutexes out from under any reader), so the caller must externally exclude
/// it from *all* concurrent Read()/Write() calls. Flush() takes each shard
/// lock and is memory-safe, but treat both as single-writer operations
/// (reconfigure the pool only between query batches) — the same contract the
/// SPB-tree and RAF layers follow.
class BufferPool {
 public:
  /// Number of LRU shards used for large pools.
  static constexpr size_t kMaxShards = 8;
  /// Minimum pages per shard; below 2*this the pool is unsharded.
  static constexpr size_t kMinShardPages = 16;

  /// A pin on a cache frame: while the pin is held the pointed-to Page stays
  /// valid and immutable, even if the entry is evicted or overwritten (frames
  /// are shared_ptr-held; Write()/InsertLocked replace the pointer rather
  /// than mutating the frame in place, and eviction only drops the cache's
  /// reference). A pin does NOT keep the *cache entry* alive — it keeps the
  /// *bytes* alive. Holding pins does not block eviction or writes; a pinned
  /// frame can therefore be stale with respect to a concurrent Write() to
  /// the same page, which is fine under the repo's immutable-after-bulk-load
  /// reader contract (docs/ARCHITECTURE.md §"Threading model").
  using PagePin = std::shared_ptr<const Page>;

  /// `file` must outlive the pool. `capacity` is in pages (total across all
  /// shards).
  BufferPool(PageFile* file, size_t capacity) : file_(file) {
    Resize(capacity);
  }

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Reads page `id` (through the cache) into `*out`.
  Status Read(PageId id, Page* out);

  /// Copies `n` bytes starting at byte `offset` of page `id` into `dst`,
  /// through the cache, without materializing the full page in the caller —
  /// the RAF uses this to fetch an object record without a 4 KiB copy per
  /// access. Accounting is identical to Read(): a cached page counts one
  /// cache hit, an uncached page one page read (and the fetched page is
  /// inserted). Requires offset + n <= kPageSize.
  Status ReadInto(PageId id, size_t offset, size_t n, uint8_t* dst);

  /// Serves a read whose bytes were already fetched by a readahead session.
  /// If the page is cached this behaves exactly like ReadInto (one cache
  /// hit, LRU promoted, `staged` ignored); otherwise the pre-fetched copy in
  /// `staged` is inserted into the cache and counted as one logical
  /// page_read plus one prefetch_hit — no physical read happens here (the
  /// readahead session already counted the span read that produced
  /// `staged`). Serially this reproduces the demand path's exact PA,
  /// cache_hits and LRU evolution, which is what keeps paper-facing figures
  /// identical with prefetch on or off.
  Status ReadIntoStaged(PageId id, size_t offset, size_t n, uint8_t* dst,
                        const Page& staged);

  /// Zero-copy variant of Read(): returns a pin on the cache frame instead
  /// of copying the page out. Accounting is identical to Read() — a cached
  /// page counts one cache hit (LRU promoted), an uncached page one logical
  /// page read (single-flight; leader also counts the physical read) — so
  /// swapping Read() for ReadPinned() is invisible to the paper's PA
  /// figures. On a capacity-0 pool the fetched frame is returned pinned but
  /// not cached, preserving the "cache size 0" accounting.
  Status ReadPinned(PageId id, PagePin* out);

  /// Zero-copy variant of ReadIntoStaged (same claim-on-touch accounting:
  /// hit => cache_hit, miss => page_read + prefetch_hit + insert), returning
  /// a pin instead of copying bytes out.
  Status ReadPinnedStaged(PageId id, const Page& staged, PagePin* out);

  /// Runs the full demand read path for `id` — cache-hit bookkeeping and LRU
  /// promotion on a hit, a single-flight fetch + insert + page_read on a
  /// miss — without copying any bytes to the caller. The decoded-node cache
  /// calls this on a node-cache hit so the buffer pool's counters and LRU
  /// state evolve exactly as if the page had been re-read and re-decoded:
  /// that equivalence is the accounting-parity rule that keeps PA and
  /// cache_hits byte-identical with the node cache on or off.
  Status Touch(PageId id);

  /// True if page `id` is currently cached. Does not promote the entry or
  /// touch any counter — used by readahead scheduling to skip pages that
  /// would be cache hits anyway.
  bool Contains(PageId id);

  /// Writes page `id` through the cache to the file.
  Status Write(PageId id, const Page& page);

  /// Writes the run `pages[0..count)` to ids first, first+1, ... through the
  /// cache with one PageFile::AppendSpan (the file grows as needed; `first`
  /// must be <= its page count). Accounting and cache contents are exactly
  /// those of `count` Write() calls in ascending id order: page_writes grows
  /// by `count`, and every shard ends with the frames those writes would
  /// leave. A page that later pages of the same span would evict from its
  /// shard is never copied into the cache.
  Status AppendSpan(PageId first, size_t count, const Page* pages);

  /// Allocates a fresh page in the underlying file.
  Status Allocate(PageId* id) { return file_->Allocate(id); }

  /// Drops all cached pages (the paper flushes the cache before each query).
  void Flush();

  /// Drops the cached frames of retired pages (epoch reclamation: the ids
  /// were superseded by a COW write and the last snapshot that could reach
  /// them has drained). Uncached ids are ignored; outstanding PagePins keep
  /// their bytes alive as usual. Safe under concurrent readers (per-shard
  /// locks) and may run on any thread — the snapshot manager invokes it from
  /// whichever thread releases the last pinning snapshot.
  void Retire(const PageId* ids, size_t count);
  void Retire(const std::vector<PageId>& ids) { Retire(ids.data(), ids.size()); }

  /// Changes the cache capacity; drops contents.
  void set_capacity(size_t capacity) { Resize(capacity); }
  size_t capacity() const { return capacity_; }
  size_t num_shards() const { return shards_.size(); }

  IoStats& stats() { return stats_; }
  const IoStats& stats() const { return stats_; }

  PageFile* file() { return file_; }

 private:
  /// Frames are shared_ptr-held so ReadPinned can hand them out as PagePins:
  /// eviction and overwrite drop or replace the pointer, never mutate the
  /// pointed-to Page, so outstanding pins stay valid.
  struct Entry {
    PageId id;
    std::shared_ptr<const Page> page;
  };

  /// Shared state of one in-flight page fetch. The leader fills `page` and
  /// `status`, then flips `done` under `mu` and notifies; waiters block on
  /// `cv`. Held by shared_ptr so a waiter can keep it alive after the leader
  /// has erased the pending-table entry.
  struct PendingFetch {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status status = Status::OK();
    std::shared_ptr<const Page> page;
  };

  /// One independent LRU slice. Most-recently-used at the front of `lru`.
  /// The stripe mutex is instrumented ("pool.shard"): its contended count is
  /// the direct measure of hot-page stripe collisions under concurrency.
  struct Shard {
    InstrumentedMutex mu{"pool.shard"};
    size_t capacity = 0;
    std::list<Entry> lru;
    std::unordered_map<PageId, std::list<Entry>::iterator> index;
    /// Misses currently being fetched from the file (single-flight table).
    std::unordered_map<PageId, std::shared_ptr<PendingFetch>> pending;

    void InsertLocked(PageId id, std::shared_ptr<const Page> page);
  };

  Shard& ShardFor(PageId id) {
    // Consecutive page ids round-robin across shards, so the sequential
    // leaf/RAF locality of one query spreads over all stripe mutexes.
    return *shards_[id % shards_.size()];
  }

  void Resize(size_t capacity);

  /// The frame to cache for page `id` just written with `page`: the file's
  /// own frame when it shares pages (PageFile::SharedPage), else a copy.
  std::shared_ptr<const Page> FrameAfterWrite(PageId id, const Page& page);

  /// Common miss-capable read path: cache hit, join of an in-flight fetch,
  /// or leader fetch, copying bytes [offset, offset+n) of the page to `dst`.
  Status FetchShared(PageId id, size_t offset, size_t n, uint8_t* dst);

  PageFile* file_;
  size_t capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  IoStats stats_;
};

}  // namespace spb

#endif  // SPB_STORAGE_BUFFER_POOL_H_
