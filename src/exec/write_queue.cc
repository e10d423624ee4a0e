#include "exec/write_queue.h"

#include <algorithm>

namespace spb {

WriteQueue::WriteQueue(CommitFn commit, size_t group_max)
    : commit_(std::move(commit)), group_max_(std::max<size_t>(1, group_max)) {}

Status WriteQueue::SubmitBatch(std::vector<Request>* reqs) {
  if (reqs->empty()) return Status::OK();
  std::unique_lock<InstrumentedMutex> lock(mu_);
  for (Request& r : *reqs) pending_.push_back(&r);
  // Waiting on the last request suffices to drive the whole batch through
  // (groups drain in FIFO order), but a request of ours could still be
  // pending if another leader committed the last one first — so wait on
  // each in turn.
  for (Request& r : *reqs) DriveUntilDone(lock, &r);
  Status first_error;
  for (const Request& r : *reqs) {
    if (first_error.ok() && !r.status.ok()) first_error = r.status;
  }
  return first_error;
}

void WriteQueue::DriveUntilDone(std::unique_lock<InstrumentedMutex>& lock,
                                Request* req) {
  for (;;) {
    if (req->done) return;
    if (!leader_active_) {
      LeadLocked(lock, req);
      if (req->done) return;
      continue;  // stepped down without committing our request (spurious)
    }
    cv_.wait(lock);
  }
}

void WriteQueue::LeadLocked(std::unique_lock<InstrumentedMutex>& lock,
                            Request* own) {
  leader_active_ = true;
  std::vector<Request*> group;
  while (!own->done && !pending_.empty()) {
    group.clear();
    const size_t take = std::min(group_max_, pending_.size());
    for (size_t i = 0; i < take; ++i) {
      group.push_back(pending_.front());
      pending_.pop_front();
    }
    lock.unlock();
    commit_(group);
    lock.lock();
    for (Request* r : group) r->done = true;
    stats_.ops += group.size();
    stats_.groups += 1;
    stats_.max_group = std::max<uint64_t>(stats_.max_group, group.size());
    cv_.notify_all();
  }
  leader_active_ = false;
  // Wake a waiter to promote itself if requests arrived while we committed
  // our last group.
  if (!pending_.empty()) cv_.notify_all();
}

void WriteQueue::set_group_max(size_t n) {
  std::lock_guard<InstrumentedMutex> lock(mu_);
  group_max_ = std::max<size_t>(1, n);
}

size_t WriteQueue::group_max() const {
  std::lock_guard<InstrumentedMutex> lock(mu_);
  return group_max_;
}

WriteQueue::Stats WriteQueue::stats() const {
  std::lock_guard<InstrumentedMutex> lock(mu_);
  return stats_;
}

}  // namespace spb
