#include "storage/buffer_pool.h"

#include <algorithm>
#include <cstring>

namespace spb {

void BufferPool::Resize(size_t capacity) {
  capacity_ = capacity;
  size_t num_shards = 1;
  if (capacity >= 2 * kMinShardPages) {
    num_shards = std::min(kMaxShards, capacity / kMinShardPages);
  }
  shards_.clear();
  shards_.reserve(num_shards);
  const size_t base = capacity / num_shards;
  const size_t extra = capacity % num_shards;
  for (size_t i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->capacity = base + (i < extra ? 1 : 0);
    shards_.push_back(std::move(shard));
  }
}

Status BufferPool::Read(PageId id, Page* out) {
  return FetchShared(id, 0, kPageSize, out->bytes());
}

Status BufferPool::ReadInto(PageId id, size_t offset, size_t n,
                            uint8_t* dst) {
  return FetchShared(id, offset, n, dst);
}

Status BufferPool::FetchShared(PageId id, size_t offset, size_t n,
                               uint8_t* dst) {
  PagePin pin;
  SPB_RETURN_IF_ERROR(ReadPinned(id, &pin));
  std::memcpy(dst, pin->bytes() + offset, n);
  return Status::OK();
}

Status BufferPool::ReadPinned(PageId id, PagePin* out) {
  Shard& shard = ShardFor(id);
  std::shared_ptr<PendingFetch> fetch;
  bool leader = false;
  {
    std::lock_guard<InstrumentedMutex> lock(shard.mu);
    auto it = shard.index.find(id);
    if (it != shard.index.end()) {
      stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      *out = it->second->page;
      return Status::OK();
    }
    auto pit = shard.pending.find(id);
    if (pit != shard.pending.end()) {
      fetch = pit->second;
    } else {
      fetch = std::make_shared<PendingFetch>();
      shard.pending.emplace(id, fetch);
      leader = true;
    }
  }
  if (leader) {
    // Fetch outside the shard lock so a slow read does not serialize the
    // stripe; followers for this page queue on the pending entry instead of
    // issuing their own file reads. A memory file hands over its own frame;
    // any other file is read into a fresh one.
    fetch->page = file_->SharedPage(id);
    if (fetch->page == nullptr) {
      auto copy = std::make_shared<Page>();
      fetch->status = file_->Read(id, copy.get());
      fetch->page = std::move(copy);
    }
    {
      std::lock_guard<InstrumentedMutex> lock(shard.mu);
      // Insert and un-pend atomically: a page is never in neither table.
      // The cache shares the frame with this request's pin — no copy.
      if (fetch->status.ok()) shard.InsertLocked(id, fetch->page);
      shard.pending.erase(id);
    }
    {
      std::lock_guard<std::mutex> lock(fetch->mu);
      fetch->done = true;
    }
    fetch->cv.notify_all();
    if (!fetch->status.ok()) return fetch->status;
    stats_.page_reads.fetch_add(1, std::memory_order_relaxed);
    stats_.physical_reads.fetch_add(1, std::memory_order_relaxed);
    *out = fetch->page;
    return Status::OK();
  }
  {
    std::unique_lock<std::mutex> lock(fetch->mu);
    fetch->cv.wait(lock, [&fetch] { return fetch->done; });
  }
  if (!fetch->status.ok()) return fetch->status;
  // A follower's request is a real page request (one logical PA, same as
  // the pre-single-flight behaviour) but costs no physical read.
  stats_.page_reads.fetch_add(1, std::memory_order_relaxed);
  *out = fetch->page;
  return Status::OK();
}

Status BufferPool::Touch(PageId id) {
  {
    Shard& shard = ShardFor(id);
    std::lock_guard<InstrumentedMutex> lock(shard.mu);
    auto it = shard.index.find(id);
    if (it != shard.index.end()) {
      stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return Status::OK();
    }
  }
  // Miss: run the full single-flight demand fetch and drop the pin. The
  // hit path above avoids the pin's shared_ptr traffic entirely — Touch is
  // called once per record/node access on the warm path, where the page is
  // almost always the one just pinned.
  PagePin pin;
  return ReadPinned(id, &pin);
}

bool BufferPool::Contains(PageId id) {
  Shard& shard = ShardFor(id);
  std::lock_guard<InstrumentedMutex> lock(shard.mu);
  return shard.index.find(id) != shard.index.end();
}

Status BufferPool::Write(PageId id, const Page& page) {
  SPB_RETURN_IF_ERROR(file_->Write(id, page));
  stats_.page_writes.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<const Page> frame = FrameAfterWrite(id, page);
  Shard& shard = ShardFor(id);
  std::lock_guard<InstrumentedMutex> lock(shard.mu);
  shard.InsertLocked(id, std::move(frame));
  return Status::OK();
}

std::shared_ptr<const Page> BufferPool::FrameAfterWrite(PageId id,
                                                        const Page& page) {
  std::shared_ptr<const Page> frame = file_->SharedPage(id);
  return frame != nullptr ? frame : std::make_shared<const Page>(page);
}

Status BufferPool::AppendSpan(PageId first, size_t count, const Page* pages) {
  SPB_RETURN_IF_ERROR(file_->AppendSpan(first, count, pages));
  stats_.page_writes.fetch_add(count, std::memory_order_relaxed);
  const size_t num_shards = shards_.size();
  for (size_t i = 0; i < count; ++i) {
    const PageId id = first + static_cast<PageId>(i);
    Shard& shard = ShardFor(id);
    // Pages i + num_shards, i + 2 * num_shards, ... of this span land on the
    // same shard after this one. Once they alone fill it, per-page LRU
    // inserts would evict this frame before the span ends.
    if ((count - 1 - i) / num_shards >= shard.capacity) continue;
    std::shared_ptr<const Page> frame = FrameAfterWrite(id, pages[i]);
    std::lock_guard<InstrumentedMutex> lock(shard.mu);
    shard.InsertLocked(id, std::move(frame));
  }
  return Status::OK();
}

void BufferPool::Retire(const PageId* ids, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    Shard& shard = ShardFor(ids[i]);
    std::lock_guard<InstrumentedMutex> lock(shard.mu);
    auto it = shard.index.find(ids[i]);
    if (it == shard.index.end()) continue;
    shard.lru.erase(it->second);
    shard.index.erase(it);
  }
}

void BufferPool::Flush() {
  for (auto& shard : shards_) {
    std::lock_guard<InstrumentedMutex> lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
  }
}

void BufferPool::Shard::InsertLocked(PageId id,
                                     std::shared_ptr<const Page> page) {
  auto it = index.find(id);
  if (it != index.end()) {
    // Replace the frame pointer rather than mutating the frame in place:
    // outstanding PagePins keep the old bytes alive and unchanged.
    it->second->page = std::move(page);
    lru.splice(lru.begin(), lru, it->second);
    return;
  }
  if (capacity == 0) return;
  if (lru.size() >= capacity) {
    index.erase(lru.back().id);
    lru.pop_back();
  }
  lru.push_front(Entry{id, std::move(page)});
  index[id] = lru.begin();
}

}  // namespace spb
