#include "storage/page_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>

#ifdef SPB_HAVE_IOURING
#include <liburing.h>
#endif

namespace spb {

namespace {

// Every page is an immutable shared frame. Write/AppendSpan/Allocate build
// the new frame outside the lock and then swap the pointer (copy-on-write),
// so the buffer pool can cache the file's own frame (SharedPage) instead of
// a copy, and a pin on it never sees a later write. Freshly allocated pages
// share one zero frame. Safe for concurrent readers with one mutating
// thread (the epoch-based snapshot protocol's writer,
// docs/ARCHITECTURE.md §"Threading model"): `count_` is an atomic watermark
// released after the page exists, and `mu_` guards only the pointer vector
// (a copy or swap of one shared_ptr, or the vector's growth).
class MemoryPageFile final : public PageFile {
 public:
  PageId num_pages() const override {
    return count_.load(std::memory_order_acquire);
  }

  Status Allocate(PageId* id) override {
    std::lock_guard<std::mutex> lock(mu_);
    *id = static_cast<PageId>(pages_.size());
    pages_.push_back(zero_);
    count_.store(static_cast<PageId>(pages_.size()),
                 std::memory_order_release);
    return Status::OK();
  }

  Status Read(PageId id, Page* out) override {
    const std::shared_ptr<const Page> page = SharedPage(id);
    if (page == nullptr) {
      return Status::InvalidArgument("page id out of range");
    }
    *out = *page;
    return Status::OK();
  }

  Status Write(PageId id, const Page& page) override {
    if (id >= num_pages()) {
      return Status::InvalidArgument("page id out of range");
    }
    // The old frame is released after the lock, by `fresh`'s destructor.
    std::shared_ptr<const Page> fresh = std::make_shared<const Page>(page);
    std::lock_guard<std::mutex> lock(mu_);
    pages_[id].swap(fresh);
    return Status::OK();
  }

  Status AppendSpan(PageId first, size_t count, const Page* pages) override {
    std::vector<std::shared_ptr<const Page>> fresh;
    fresh.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      fresh.push_back(std::make_shared<const Page>(pages[i]));
    }
    // As in Write, overwritten frames die with `fresh`, after the lock.
    std::lock_guard<std::mutex> lock(mu_);
    if (first > pages_.size()) {
      return Status::InvalidArgument("page span starts past the end");
    }
    for (size_t i = 0; i < count; ++i) {
      const size_t id = first + i;
      if (id < pages_.size()) {
        pages_[id].swap(fresh[i]);
      } else {
        pages_.push_back(std::move(fresh[i]));
      }
    }
    count_.store(static_cast<PageId>(pages_.size()),
                 std::memory_order_release);
    return Status::OK();
  }

  Status Sync() override { return Status::OK(); }

  std::shared_ptr<const Page> SharedPage(PageId id) override {
    if (id >= num_pages()) return nullptr;
    std::lock_guard<std::mutex> lock(mu_);
    return pages_[id];
  }

 private:
  const std::shared_ptr<const Page> zero_ = std::make_shared<const Page>();
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<const Page>> pages_;
  std::atomic<PageId> count_{0};
};

/// File-backed pages over a raw file descriptor. Reads and writes use
/// positional I/O (pread/pwrite), so concurrent readers never race on a
/// shared file offset — unlike FILE*-based stdio, whose fseek+fread pairs
/// are unusable from multiple threads.
class DiskPageFile final : public PageFile {
 public:
  DiskPageFile(int fd, PageId num_pages) : fd_(fd), num_pages_(num_pages) {}

  ~DiskPageFile() override {
#ifdef SPB_HAVE_IOURING
    if (ring_state_ == RingState::kReady) io_uring_queue_exit(&ring_);
#endif
    if (fd_ >= 0) ::close(fd_);
  }

  PageId num_pages() const override {
    return num_pages_.load(std::memory_order_relaxed);
  }

  Status Allocate(PageId* id) override {
    Page zero;
    const PageId next = num_pages_.load(std::memory_order_relaxed);
    if (!WriteFull(next, &zero, 1)) {
      return Status::IOError("short write in Allocate");
    }
    *id = next;
    num_pages_.store(next + 1, std::memory_order_relaxed);
    return Status::OK();
  }

  Status Read(PageId id, Page* out) override {
    if (id >= num_pages()) {
      return Status::InvalidArgument("page id out of range");
    }
    size_t done = 0;
    while (done < kPageSize) {
      const ssize_t n =
          ::pread(fd_, out->bytes() + done, kPageSize - done,
                  static_cast<off_t>(id) * static_cast<off_t>(kPageSize) +
                      static_cast<off_t>(done));
      if (n <= 0) return Status::IOError("short read");
      done += static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status Write(PageId id, const Page& page) override {
    if (id >= num_pages()) {
      return Status::InvalidArgument("page id out of range");
    }
    if (!WriteFull(id, &page, 1)) return Status::IOError("short write");
    return Status::OK();
  }

  Status AppendSpan(PageId first, size_t count, const Page* pages) override {
    const PageId n = num_pages();
    if (first > n) {
      return Status::InvalidArgument("page span starts past the end");
    }
    if (count == 0) return Status::OK();
    if (!WriteFull(first, pages, count)) {
      return Status::IOError("short write in AppendSpan");
    }
    num_pages_.store(std::max<PageId>(n, first + static_cast<PageId>(count)),
                     std::memory_order_relaxed);
    return Status::OK();
  }

  // One positional read for the whole span. Page is a bare 4 KB byte array,
  // so a Page[] is a contiguous byte range the kernel can fill directly.
  Status ReadSpan(PageId first, size_t count, Page* out) override {
    if (count == 0) return Status::OK();
    if (first >= num_pages() || count > num_pages() - first) {
      return Status::InvalidArgument("page span out of range");
    }
#ifdef SPB_HAVE_IOURING
    if (EnsureRing()) return ReadSpanUring(first, count, out);
#endif
    uint8_t* dst = reinterpret_cast<uint8_t*>(out);
    const size_t total = count * kPageSize;
    size_t done = 0;
    while (done < total) {
      const ssize_t n =
          ::pread(fd_, dst + done, total - done,
                  static_cast<off_t>(first) * static_cast<off_t>(kPageSize) +
                      static_cast<off_t>(done));
      if (n <= 0) return Status::IOError("short read in ReadSpan");
      done += static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status Sync() override {
#if defined(__APPLE__)
    // macOS has no fdatasync; F_FULLFSYNC is the real durability barrier.
    if (::fcntl(fd_, F_FULLFSYNC) != 0 && ::fsync(fd_) != 0) {
      return Status::IOError("fsync failed");
    }
#elif defined(_POSIX_SYNCHRONIZED_IO) && _POSIX_SYNCHRONIZED_IO > 0
    if (::fdatasync(fd_) != 0) return Status::IOError("fdatasync failed");
#else
    if (::fsync(fd_) != 0) return Status::IOError("fsync failed");
#endif
    return Status::OK();
  }

 private:
  // Writes pages[0..count) at page `first` on, looping over short writes;
  // a Page[] is one contiguous byte range, so this is one pwrite.
  bool WriteFull(PageId first, const Page* pages, size_t count) {
    const uint8_t* src = pages[0].bytes();
    const size_t total = count * kPageSize;
    size_t done = 0;
    while (done < total) {
      const ssize_t n =
          ::pwrite(fd_, src + done, total - done,
                   static_cast<off_t>(first) * static_cast<off_t>(kPageSize) +
                       static_cast<off_t>(done));
      if (n <= 0) return false;
      done += static_cast<size_t>(n);
    }
    return true;
  }

#ifdef SPB_HAVE_IOURING
  // Lazily set up a small ring; on any setup failure (old kernel, seccomp,
  // RLIMIT_MEMLOCK) fall back to pread permanently for this file.
  bool EnsureRing() {
    std::lock_guard<std::mutex> lock(ring_mu_);
    if (ring_state_ == RingState::kUnavailable) return false;
    if (ring_state_ == RingState::kReady) return true;
    if (io_uring_queue_init(8, &ring_, 0) != 0) {
      ring_state_ = RingState::kUnavailable;
      return false;
    }
    ring_state_ = RingState::kReady;
    return true;
  }

  Status ReadSpanUring(PageId first, size_t count, Page* out) {
    std::lock_guard<std::mutex> lock(ring_mu_);
    uint8_t* dst = reinterpret_cast<uint8_t*>(out);
    size_t total = count * kPageSize;
    off_t off =
        static_cast<off_t>(first) * static_cast<off_t>(kPageSize);
    // A single queued read may complete short; loop like pread would.
    while (total > 0) {
      struct io_uring_sqe* sqe = io_uring_get_sqe(&ring_);
      if (sqe == nullptr) return Status::IOError("io_uring sqe exhausted");
      io_uring_prep_read(sqe, fd_, dst, static_cast<unsigned>(total), off);
      if (io_uring_submit_and_wait(&ring_, 1) < 0) {
        return Status::IOError("io_uring submit failed");
      }
      struct io_uring_cqe* cqe = nullptr;
      if (io_uring_wait_cqe(&ring_, &cqe) != 0) {
        return Status::IOError("io_uring wait failed");
      }
      const int res = cqe->res;
      io_uring_cqe_seen(&ring_, cqe);
      if (res <= 0) return Status::IOError("short read in ReadSpan");
      dst += res;
      off += res;
      total -= static_cast<size_t>(res);
    }
    return Status::OK();
  }

  enum class RingState { kUninit, kReady, kUnavailable };
  std::mutex ring_mu_;
  RingState ring_state_ = RingState::kUninit;
  struct io_uring ring_ {};
#endif

  int fd_;
  std::atomic<PageId> num_pages_;
};

}  // namespace

Status PageFile::AppendSpan(PageId first, size_t count, const Page* pages) {
  if (first > num_pages()) {
    return Status::InvalidArgument("page span starts past the end");
  }
  for (size_t i = 0; i < count; ++i) {
    const PageId id = first + static_cast<PageId>(i);
    if (id == num_pages()) {
      PageId unused;
      SPB_RETURN_IF_ERROR(Allocate(&unused));
    }
    SPB_RETURN_IF_ERROR(Write(id, pages[i]));
  }
  return Status::OK();
}

Status PageFile::ReadSpan(PageId first, size_t count, Page* out) {
  for (size_t i = 0; i < count; ++i) {
    Status s = Read(first + static_cast<PageId>(i), &out[i]);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

std::unique_ptr<PageFile> PageFile::CreateInMemory() {
  return std::make_unique<MemoryPageFile>();
}

Status PageFile::CreateOnDisk(const std::string& path,
                              std::unique_ptr<PageFile>* out) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot create page file: " + path);
  }
  *out = std::make_unique<DiskPageFile>(fd, 0);
  return Status::OK();
}

Status PageFile::OpenOnDisk(const std::string& path,
                            std::unique_ptr<PageFile>* out) {
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    return Status::IOError("cannot open page file: " + path);
  }
  const off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0 || static_cast<size_t>(size) % kPageSize != 0) {
    ::close(fd);
    return Status::Corruption("page file size is not page-aligned: " + path);
  }
  *out = std::make_unique<DiskPageFile>(
      fd, static_cast<PageId>(static_cast<size_t>(size) / kPageSize));
  return Status::OK();
}

}  // namespace spb
