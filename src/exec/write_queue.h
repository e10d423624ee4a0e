#ifndef SPB_EXEC_WRITE_QUEUE_H_
#define SPB_EXEC_WRITE_QUEUE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/blob.h"
#include "common/contention.h"
#include "common/status.h"

namespace spb {

/// Group-commit writer queue (the PR 7 write-path engine's front half).
///
/// Concurrent Insert/Delete/BatchInsert callers enqueue logical write
/// requests and block. The first caller to find no active leader becomes the
/// *leader*: it drains the queue in groups of up to group_max, hands each
/// group to the owner-supplied CommitFn (which appends one WAL segment,
/// issues one fsync, applies the group through the COW write path under the
/// writer lock, and publishes ONE snapshot epoch), marks the group's
/// requests done and wakes their owners. Leadership is bounded: once the
/// leader's own request commits it steps down, and a still-waiting caller
/// promotes itself — no thread is stuck serving others forever, and there is
/// always a leader while requests are pending.
///
/// This turns the single-writer kBusy taxonomy into queued throughput: a
/// caller never observes kBusy from the queue; it waits (briefly) and gets
/// the real commit status of its own request.
///
/// The queue also owns the optional background compaction worker (the
/// engine's back half): after each commit round the leader pokes the worker,
/// which runs the owner's CompactFn whenever NeedsCompactFn reports the
/// dead-bytes debt is over threshold. The worker thread must be stopped
/// (destructor or Stop()) before the structures the hooks touch are torn
/// down.
class WriteQueue {
 public:
  enum class OpKind : uint8_t { kInsert, kDelete };

  /// One queued logical write. The caller pre-computes the pivot mapping
  /// (phi, key) outside any lock so the |P| distance computations of Section
  /// 3.1 run concurrently even though application is serialized.
  struct Request {
    OpKind kind;
    Blob obj;
    ObjectId id = 0;
    uint64_t key = 0;
    std::vector<double> phi;

    // Filled by the commit hook.
    Status status;
    bool found = false;  // deletes: whether the record existed

    // Queue bookkeeping (guarded by the queue mutex).
    bool done = false;
  };

  /// Commits one drained group: must set status (and found) on every
  /// request. Runs on the leader's thread with no queue lock held.
  using CommitFn = std::function<void(std::vector<Request*>&)>;
  using NeedsCompactFn = std::function<bool()>;
  using CompactFn = std::function<void()>;

  WriteQueue(CommitFn commit, size_t group_max);
  ~WriteQueue();

  WriteQueue(const WriteQueue&) = delete;
  WriteQueue& operator=(const WriteQueue&) = delete;

  /// Starts the background compaction worker. `needs` is polled after every
  /// commit round (and on explicit Poke); when it returns true the worker
  /// runs `compact`. Call at most once.
  void StartCompactor(NeedsCompactFn needs, CompactFn compact);

  /// Stops the compaction worker (joins the thread). Idempotent; also run
  /// by the destructor.
  void Stop();

  /// Enqueues `reqs` as individual requests (they may commit across several
  /// groups, interleaved with other writers) and blocks until all have
  /// committed. Each request's status and found are filled; returns the
  /// first non-OK status, if any.
  Status SubmitBatch(std::vector<Request>* reqs);

  /// Wakes the compaction worker to re-check NeedsCompactFn.
  void Poke();

  void set_group_max(size_t n);
  size_t group_max() const;

  struct Stats {
    uint64_t ops = 0;          // requests committed
    uint64_t groups = 0;       // commit rounds
    uint64_t max_group = 0;    // largest group committed
    uint64_t compactions = 0;  // background compaction runs
  };
  Stats stats() const;

 private:
  /// Caller-side wait/lead loop of SubmitBatch: blocks until `req` is
  /// done, becoming leader whenever the slot is free.
  void DriveUntilDone(std::unique_lock<InstrumentedMutex>& lock,
                      Request* req);
  /// Leader body: drains groups until `own` is done (then steps down).
  void LeadLocked(std::unique_lock<InstrumentedMutex>& lock, Request* own);
  void CompactorLoop();

  CommitFn commit_;

  /// Instrumented ("write_queue.mu"): contention here is writers queueing
  /// behind the leader — expected by design; the wait histogram shows how
  /// long followers sit per group commit.
  mutable InstrumentedMutex mu_{"write_queue.mu"};
  std::condition_variable_any cv_;
  std::deque<Request*> pending_;
  bool leader_active_ = false;
  size_t group_max_;
  Stats stats_;

  // Compaction worker.
  std::mutex compact_mu_;
  std::condition_variable compact_cv_;
  std::thread compactor_;
  NeedsCompactFn needs_compact_;
  CompactFn compact_;
  bool compact_wake_ = false;
  bool stop_ = false;
};

}  // namespace spb

#endif  // SPB_EXEC_WRITE_QUEUE_H_
