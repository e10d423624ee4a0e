#ifndef SPB_STORAGE_IO_ENGINE_H_
#define SPB_STORAGE_IO_ENGINE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "storage/page_file.h"

namespace spb {

/// A small pool of background I/O threads issuing multi-page span reads
/// (PageFile::ReadSpan). With zero threads every Submit() runs inline in the
/// caller — the coalescing benefit of span reads is kept, only the
/// compute/I/O overlap is lost — which is also the fallback used on
/// single-core machines. One fetcher is shared by all queries of an index;
/// Submit() and Wait() are thread-safe.
class PageFetcher {
 public:
  /// Completion handle for one submitted span read.
  struct Ticket {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status status = Status::OK();
  };

  explicit PageFetcher(size_t num_threads);
  ~PageFetcher();

  PageFetcher(const PageFetcher&) = delete;
  PageFetcher& operator=(const PageFetcher&) = delete;

  /// Queues a read of pages [first, first+count) of `file` into
  /// dst[0..count). `dst` must stay alive until Wait() returns — the
  /// Readahead session that owns the buffers guarantees this by draining
  /// every ticket in its destructor. With zero worker threads the read runs
  /// before Submit returns.
  std::shared_ptr<Ticket> Submit(PageFile* file, PageId first, size_t count,
                                 Page* dst);

  /// Blocks until the ticket's read finished; returns its status.
  static Status Wait(Ticket& ticket);

  size_t num_threads() const { return workers_.size(); }

 private:
  struct Job {
    PageFile* file;
    PageId first;
    size_t count;
    Page* dst;
    std::shared_ptr<Ticket> ticket;
  };

  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job> jobs_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

struct ReadaheadOptions {
  /// Upper bound on pages in flight (submitted, not yet waited on). Also
  /// caps the length of a single coalesced run. Scheduling past the budget
  /// blocks on the oldest outstanding run first.
  size_t max_pages = 64;
};

/// A query-local readahead session over one BufferPool. The query hands it
/// sorted candidate pages (the RAF keeps objects in ascending SFC order, so
/// the survivors of Lemma-1/2 pruning land on a sorted, heavily clustered
/// page list); the session merges consecutive ids into runs, reads each run
/// with one span read (through the PageFetcher), and parks the bytes in
/// private staging buffers — NOT in the buffer pool.
///
/// Pages enter the pool only when the query actually touches them, via
/// BufferPool::ReadIntoStaged, which claims the staged copy and performs the
/// exact insert the demand path would have performed. Consequences:
///  * logical PA, cache_hits and the LRU eviction sequence are identical
///    with readahead on or off (over-scheduled pages are never claimed and
///    never count);
///  * physical_reads counts one per run (at completion), so the
///    physical-vs-logical gap directly measures coalescing + sharing wins.
///
/// Not thread-safe: one session belongs to one query thread. Concurrent
/// queries each open their own session; the staging buffers are private, so
/// the only shared state they touch is the pool (thread-safe) and the
/// fetcher (thread-safe). The destructor drains all outstanding tickets, so
/// staging buffers never outlive an in-flight background read.
class Readahead {
 public:
  /// A null `fetcher` makes Schedule() a no-op, so every read takes the
  /// pool's demand path (prefetch off, or an in-memory tree).
  Readahead(BufferPool* pool, PageFetcher* fetcher,
            ReadaheadOptions options = {});
  ~Readahead();

  Readahead(const Readahead&) = delete;
  Readahead& operator=(const Readahead&) = delete;

  /// Schedules candidate pages for prefetch. Ids need not be sorted or
  /// unique and may point past the end of the file (records near the file
  /// tail schedule a speculative next page) — out-of-range, already-staged
  /// and already-cached ids are dropped. Cheap to call with pages that are
  /// never read afterwards: unclaimed staging costs memory, not stats.
  void Schedule(const PageId* pages, size_t count);
  void Schedule(const std::vector<PageId>& pages) {
    Schedule(pages.data(), pages.size());
  }

  /// Reads bytes [offset, offset+n) of page `id`: from the staged copy if
  /// this session prefetched it (waiting for the run to land if needed),
  /// otherwise through the pool's demand path. Accounting matches the
  /// demand path one-for-one; see ReadIntoStaged.
  Status ReadInto(PageId id, size_t offset, size_t n, uint8_t* dst);

  /// Zero-copy variant of ReadInto: pins the page's cache frame instead of
  /// copying bytes out. A staged page is claimed into the pool
  /// (BufferPool::ReadPinnedStaged) and the resulting frame pinned;
  /// otherwise the pool's demand path (ReadPinned) runs. Accounting matches
  /// ReadInto one-for-one.
  Status ReadPinned(PageId id, BufferPool::PagePin* out);

  /// Runs the full accounting path of a read of page `id` (staged claim or
  /// demand fetch) without handing out bytes — the readahead-aware
  /// counterpart of BufferPool::Touch, used by node-cache hits inside a
  /// readahead session.
  Status Touch(PageId id);

 private:
  struct Run {
    PageId first = 0;
    size_t count = 0;
    std::unique_ptr<Page[]> pages;
    std::shared_ptr<PageFetcher::Ticket> ticket;
    bool waited = false;
    Status status = Status::OK();
  };

  /// Blocks until `run` landed (idempotent); updates stats and the
  /// in-flight budget.
  void WaitRun(Run* run);

  BufferPool* pool_;
  PageFetcher* fetcher_;
  ReadaheadOptions options_;
  /// All runs of the session; deque keeps Run* stable for staged_.
  std::deque<Run> runs_;
  /// Page id -> (owning run, index within the run) for staged pages.
  std::unordered_map<PageId, std::pair<Run*, size_t>> staged_;
  /// Oldest run index not yet waited on (budget bookkeeping).
  size_t oldest_unwaited_ = 0;
  size_t inflight_pages_ = 0;
};

}  // namespace spb

#endif  // SPB_STORAGE_IO_ENGINE_H_
