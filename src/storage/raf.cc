#include "storage/raf.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/coding.h"
#include "storage/io_engine.h"

namespace spb {

namespace {
constexpr uint64_t kRafMagic = 0x5350425241463031ULL;  // "SPBRAF01"
}  // namespace

Status Raf::Create(std::unique_ptr<PageFile> file, size_t cache_pages,
                   std::unique_ptr<Raf>* out, uint64_t generation) {
  auto raf = std::unique_ptr<Raf>(new Raf(std::move(file), cache_pages));
  raf->generation_ = generation;
  PageId header_id;
  SPB_RETURN_IF_ERROR(raf->file_->Allocate(&header_id));
  if (header_id != 0) {
    return Status::InvalidArgument("RAF requires a fresh page file");
  }
  SPB_RETURN_IF_ERROR(raf->WriteHeader());
  *out = std::move(raf);
  return Status::OK();
}

Status Raf::Open(std::unique_ptr<PageFile> file, size_t cache_pages,
                 std::unique_ptr<Raf>* out) {
  auto raf = std::unique_ptr<Raf>(new Raf(std::move(file), cache_pages));
  if (raf->file_->num_pages() == 0) {
    return Status::Corruption("RAF file has no header page");
  }
  Page header;
  SPB_RETURN_IF_ERROR(raf->file_->Read(0, &header));
  if (DecodeFixed64(header.bytes()) != kRafMagic) {
    return Status::Corruption("bad RAF magic");
  }
  raf->end_offset_ = DecodeFixed64(header.bytes() + 8);
  raf->num_records_ = DecodeFixed64(header.bytes() + 16);
  raf->generation_ = DecodeFixed64(header.bytes() + 24);
  *out = std::move(raf);
  return Status::OK();
}

Status Raf::WriteHeader() {
  Page header;
  EncodeFixed64(header.bytes(), kRafMagic);
  EncodeFixed64(header.bytes() + 8, end_offset());
  EncodeFixed64(header.bytes() + 16, num_records());
  EncodeFixed64(header.bytes() + 24, generation_);
  return file_->Write(0, header);
}

Status Raf::MoveTailLocked(PageId page) {
  if (tail_dirty_ && tail_id_ != kInvalidPageId) {
    // The tail is left only for the next page (appends are contiguous), so
    // the run stays a contiguous page range.
    if (run_.empty()) run_first_ = tail_id_;
    run_.push_back(tail_);
    if (run_.size() == kAppendRunPages) SPB_RETURN_IF_ERROR(WriteRunLocked());
  }
  tail_id_ = page;
  tail_dirty_ = false;
  // While a run is staged the probe keeps naming its first page, the only
  // staged page that can hold published bytes: a racing reader of it
  // blocks on tail_mu_ until the run write has put the bytes in the pool.
  dirty_tail_id_.store(run_.empty() ? kInvalidPageId : run_first_,
                       std::memory_order_release);
  if (page < file_->num_pages()) {
    SPB_RETURN_IF_ERROR(file_->Read(page, &tail_));
  } else {
    tail_.Clear();
  }
  return Status::OK();
}

Status Raf::WriteRunLocked() {
  if (run_.empty()) return Status::OK();
  SPB_RETURN_IF_ERROR(pool_.AppendSpan(run_first_, run_.size(), run_.data()));
  run_.clear();
  return Status::OK();
}

Status Raf::StageBytesLocked(uint64_t* offset, const uint8_t* src, size_t n) {
  while (n > 0) {
    const PageId page = static_cast<PageId>(*offset / kPageSize);
    const size_t in_page = *offset % kPageSize;
    const size_t chunk = std::min(n, kPageSize - in_page);
    if (page != tail_id_) SPB_RETURN_IF_ERROR(MoveTailLocked(page));
    std::memcpy(tail_.bytes() + in_page, src, chunk);
    if (!tail_dirty_) {
      tail_dirty_ = true;
      if (run_.empty()) dirty_tail_id_.store(page, std::memory_order_release);
    }
    *offset += chunk;
    src += chunk;
    n -= chunk;
  }
  return Status::OK();
}

Status Raf::ReadBytes(uint64_t offset, uint8_t* dst, size_t n,
                      Readahead* ra) {
  while (n > 0) {
    const PageId page = static_cast<PageId>(offset / kPageSize);
    const size_t in_page = offset % kPageSize;
    const size_t chunk = std::min(n, kPageSize - in_page);

    bool served_from_tail = false;
    if (page == dirty_tail_id_.load(std::memory_order_acquire)) {
      // Probable dirty-tail read: confirm under the lock (the probe may be
      // stale — the appender could have flushed and moved on, in which case
      // the bytes are in the pool and the normal path below serves them).
      std::lock_guard<std::mutex> lock(tail_mu_);
      if (page == tail_id_ && tail_dirty_) {
        // The pinned tail buffer absorbs this read: a cache hit, not a PA
        // (docs/ARCHITECTURE.md §"Cost accounting"). Checked before any
        // readahead claim so stale staged bytes of a dirty tail page can
        // never be served.
        pool_.stats().cache_hits.fetch_add(1, std::memory_order_relaxed);
        std::memcpy(dst, tail_.bytes() + in_page, chunk);
        served_from_tail = true;
      }
    }
    if (!served_from_tail) {
      if (ra != nullptr) {
        SPB_RETURN_IF_ERROR(ra->ReadInto(page, in_page, chunk, dst));
      } else {
        SPB_RETURN_IF_ERROR(pool_.ReadInto(page, in_page, chunk, dst));
      }
    }
    offset += chunk;
    dst += chunk;
    n -= chunk;
  }
  return Status::OK();
}

Status Raf::ReadBytesRaw(uint64_t offset, uint8_t* dst, size_t n,
                         RawReadCache* cache) const {
  while (n > 0) {
    const PageId page = static_cast<PageId>(offset / kPageSize);
    const size_t in_page = offset % kPageSize;
    const size_t chunk = std::min(n, kPageSize - in_page);

    bool served = false;
    if (page == dirty_tail_id_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(tail_mu_);
      if (page == tail_id_ && tail_dirty_) {
        std::memcpy(dst, tail_.bytes() + in_page, chunk);
        served = true;
      }
    }
    if (!served) {
      if (cache != nullptr) {
        if (cache->id != page) {
          SPB_RETURN_IF_ERROR(file_->Read(page, &cache->page));
          cache->id = page;
        }
        std::memcpy(dst, cache->page.bytes() + in_page, chunk);
      } else {
        Page scratch;
        SPB_RETURN_IF_ERROR(file_->Read(page, &scratch));
        std::memcpy(dst, scratch.bytes() + in_page, chunk);
      }
    }
    offset += chunk;
    dst += chunk;
    n -= chunk;
  }
  return Status::OK();
}

Status Raf::GetRaw(uint64_t offset, ObjectId* id, Blob* obj,
                   RawReadCache* cache) const {
  const uint64_t end = end_offset();
  if (offset < kPageSize || offset + 8 > end) {
    return Status::InvalidArgument("RAF offset out of range");
  }
  uint8_t header[8];
  SPB_RETURN_IF_ERROR(ReadBytesRaw(offset, header, sizeof(header), cache));
  *id = DecodeFixed32(header);
  const uint32_t len = DecodeFixed32(header + 4);
  if (offset + 8 + len > end) {
    return Status::Corruption("RAF record extends past end of data");
  }
  obj->resize(len);
  if (len > 0) {
    SPB_RETURN_IF_ERROR(ReadBytesRaw(offset + 8, obj->data(), len, cache));
  }
  return Status::OK();
}

Status Raf::AppendBatch(std::span<const Record> records, uint64_t* offsets) {
  // Single appender (enforced by the owner's writer lock); the relaxed load
  // reads our own last store. One lock hold for the whole batch: readers
  // probing the tail block only while an append actually mutates it.
  uint64_t end = end_offset_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(tail_mu_);
    for (size_t i = 0; i < records.size(); ++i) {
      const Record& r = records[i];
      const size_t len = r.payload.size();
      const size_t in_page = end % kPageSize;
      offsets[i] = end;
      if (tail_dirty_ && end / kPageSize == tail_id_ &&
          in_page + 8 + len <= kPageSize) {
        // The common case: the whole record lands on the dirty tail page.
        uint8_t* dst = tail_.bytes() + in_page;
        EncodeFixed32(dst, r.id);
        EncodeFixed32(dst + 4, static_cast<uint32_t>(len));
        if (len > 0) std::memcpy(dst + 8, r.payload.data(), len);
        end += 8 + len;
        continue;
      }
      uint8_t header[8];
      EncodeFixed32(header, r.id);
      EncodeFixed32(header + 4, static_cast<uint32_t>(len));
      SPB_RETURN_IF_ERROR(StageBytesLocked(&end, header, sizeof(header)));
      SPB_RETURN_IF_ERROR(StageBytesLocked(&end, r.payload.data(), len));
    }
    SPB_RETURN_IF_ERROR(WriteRunLocked());
    run_.shrink_to_fit();  // a bulk load's run buffer is not kept around
    dirty_tail_id_.store(tail_dirty_ ? tail_id_ : kInvalidPageId,
                         std::memory_order_release);
  }
  // Release: a reader that sees the new watermark also sees the bytes.
  end_offset_.store(end, std::memory_order_release);
  num_records_.fetch_add(records.size(), std::memory_order_relaxed);
  return Status::OK();
}

Status Raf::Get(uint64_t offset, ObjectId* id, Blob* obj, Readahead* ra) {
  const uint64_t end = end_offset();
  if (offset < kPageSize || offset + 8 > end) {
    return Status::InvalidArgument("RAF offset out of range");
  }
  uint8_t header[8];
  SPB_RETURN_IF_ERROR(ReadBytes(offset, header, sizeof(header), ra));
  *id = DecodeFixed32(header);
  const uint32_t len = DecodeFixed32(header + 4);
  if (offset + 8 + len > end) {
    return Status::Corruption("RAF record extends past end of data");
  }
  obj->resize(len);
  if (len > 0) {
    SPB_RETURN_IF_ERROR(ReadBytes(offset + 8, obj->data(), len, ra));
  }
  return Status::OK();
}

Status Raf::GetIntoOwned(uint64_t offset, ObjectId* id, BlobView* view,
                         Readahead* ra) {
  SPB_RETURN_IF_ERROR(Get(offset, id, &view->owned_, ra));
  view->SetOwned(view->owned_.size());
  return Status::OK();
}

Status Raf::GetView(uint64_t offset, ObjectId* id, BlobView* view,
                    Readahead* ra) {
  const uint64_t end = end_offset();
  if (offset < kPageSize || offset + 8 > end) {
    return Status::InvalidArgument("RAF offset out of range");
  }
  const PageId page = PageOf(offset);
  const size_t in_page = offset % kPageSize;
  // Header straddling a page boundary or (probably) living on the dirty
  // tail page: take Get's byte loop wholesale (identical accounting by
  // construction; ReadBytes re-confirms the tail probe under the lock).
  if (in_page + 8 > kPageSize ||
      page == dirty_tail_id_.load(std::memory_order_acquire)) {
    return GetIntoOwned(offset, id, view, ra);
  }
  // Pin the header's page: one pool access, exactly Get's header read.
  BufferPool::PagePin pin;
  if (ra != nullptr) {
    SPB_RETURN_IF_ERROR(ra->ReadPinned(page, &pin));
  } else {
    SPB_RETURN_IF_ERROR(pool_.ReadPinned(page, &pin));
  }
  const uint8_t* rec = pin->bytes() + in_page;
  *id = DecodeFixed32(rec);
  const uint32_t len = DecodeFixed32(rec + 4);
  if (offset + 8 + len > end) {
    return Status::Corruption("RAF record extends past end of data");
  }
  if (len == 0) {
    // Get does no payload read for empty records — neither do we.
    view->SetPinned(std::move(pin), rec + 8, 0);
    return Status::OK();
  }
  if (in_page + 8 + len <= kPageSize) {
    // Non-spanning record: Get's payload ReadBytes performs one more pool
    // access to this page; Touch performs the same access minus the copy.
    if (ra != nullptr) {
      SPB_RETURN_IF_ERROR(ra->Touch(page));
    } else {
      SPB_RETURN_IF_ERROR(pool_.Touch(page));
    }
    view->SetPinned(std::move(pin), rec + 8, len);
    return Status::OK();
  }
  // Page-spanning payload: copy fallback. The header access already
  // happened via the pin; read the payload exactly as Get would.
  view->owned_.resize(len);
  SPB_RETURN_IF_ERROR(ReadBytes(offset + 8, view->owned_.data(), len, ra));
  view->SetOwned(len);
  return Status::OK();
}

Status Raf::ScanAll(
    const std::function<void(uint64_t, ObjectId, const Blob&)>& fn,
    Readahead* ra) {
  uint64_t offset = kPageSize;
  Blob obj;
  // Window of data pages scheduled ahead of the scan cursor; the session
  // coalesces each window into span reads. The watermark is captured once:
  // records appended mid-scan are not visited.
  const uint64_t end = end_offset();
  constexpr PageId kScanWindow = 32;
  PageId scheduled_until = 1;
  std::vector<PageId> window;
  while (offset < end) {
    if (ra != nullptr) {
      const PageId page = PageOf(offset);
      if (page + 1 >= scheduled_until) {
        const PageId last = PageOf(end - 1);
        const PageId until =
            static_cast<PageId>(std::min<uint64_t>(
                static_cast<uint64_t>(last) + 1,
                static_cast<uint64_t>(page) + kScanWindow));
        window.clear();
        for (PageId p = std::max(scheduled_until, page); p < until; ++p) {
          window.push_back(p);
        }
        ra->Schedule(window);
        scheduled_until = until;
      }
    }
    ObjectId id;
    SPB_RETURN_IF_ERROR(Get(offset, &id, &obj, ra));
    fn(offset, id, obj);
    offset += 8 + obj.size();
  }
  return Status::OK();
}

Status Raf::Sync() {
  {
    std::lock_guard<std::mutex> lock(tail_mu_);
    if (tail_dirty_ && tail_id_ != kInvalidPageId) {
      SPB_RETURN_IF_ERROR(pool_.AppendSpan(tail_id_, 1, &tail_));
      tail_dirty_ = false;
      dirty_tail_id_.store(kInvalidPageId, std::memory_order_release);
    }
  }
  SPB_RETURN_IF_ERROR(WriteHeader());
  return file_->Sync();
}

}  // namespace spb
