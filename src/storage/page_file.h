#ifndef SPB_STORAGE_PAGE_FILE_H_
#define SPB_STORAGE_PAGE_FILE_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/page.h"

namespace spb {

/// A growable array of 4 KB pages. Two implementations: file-backed (the
/// normal disk-based mode the paper evaluates) and memory-backed (in-memory
/// indexes, unit tests and quick experiments). Raw reads/writes are not
/// counted here; the BufferPool layered on top does the PA accounting so
/// that cache hits are excluded, exactly as the paper measures I/O.
class PageFile {
 public:
  virtual ~PageFile() = default;

  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  /// Number of pages currently in the file.
  virtual PageId num_pages() const = 0;

  /// Appends a zeroed page and returns its id.
  virtual Status Allocate(PageId* id) = 0;

  /// Reads page `id` into `*out`.
  virtual Status Read(PageId id, Page* out) = 0;

  /// Overwrites page `id`.
  virtual Status Write(PageId id, const Page& page) = 0;

  /// Writes `count` consecutive pages `pages[0..count)` starting at `first`,
  /// growing the file where the span runs past its end. `first` must be <=
  /// num_pages(), so the file never gets a hole. The append paths (RAF
  /// records, B+-tree bulk load) write runs of fresh pages through this:
  /// file-backed implementations issue one positional write per span and no
  /// zero-fill of the new pages. The default implementation loops over
  /// Allocate() and Write().
  virtual Status AppendSpan(PageId first, size_t count, const Page* pages);

  /// Flushes buffered data to stable storage (no-op for memory files).
  virtual Status Sync() = 0;

  /// The file's own immutable bytes of page `id`, shared instead of copied,
  /// or null when the file cannot share them (disk files, and any file that
  /// does not override this). A memory-backed file keeps every page as an
  /// immutable frame and replaces the pointer on Write/AppendSpan/Allocate,
  /// so the returned frame never changes under its holder. BufferPool caches
  /// it as-is, which keeps a memory-backed index at one copy of its pages.
  /// Null also for an out-of-range `id`; Read() reports that error.
  virtual std::shared_ptr<const Page> SharedPage(PageId /*id*/) {
    return nullptr;
  }

  /// Creates a memory-backed page file.
  static std::unique_ptr<PageFile> CreateInMemory();

  /// Creates or truncates a file-backed page file at `path`.
  static Status CreateOnDisk(const std::string& path,
                             std::unique_ptr<PageFile>* out);

  /// Opens an existing file-backed page file at `path`.
  static Status OpenOnDisk(const std::string& path,
                           std::unique_ptr<PageFile>* out);

 protected:
  PageFile() = default;
};

}  // namespace spb

#endif  // SPB_STORAGE_PAGE_FILE_H_
