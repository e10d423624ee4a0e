#ifndef SPB_EXEC_TASK_ARENA_H_
#define SPB_EXEC_TASK_ARENA_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/striped.h"

namespace spb {

/// Counters describing how work moved through a TaskArena (PR 8
/// observability; surfaced in bench JSON). All values are cumulative since
/// construction; exact once the racing work has been joined.
struct ArenaQueueStats {
  uint64_t tickets_pushed = 0;   ///< group tickets enqueued by RunGroup
  uint64_t tickets_popped = 0;   ///< tickets taken by workers
  uint64_t stale_tickets = 0;    ///< popped tickets whose group was drained
  uint64_t inline_drains = 0;    ///< RunGroup ran inline (ring full)
  uint64_t parks = 0;            ///< worker went to sleep
  uint64_t unparks = 0;          ///< producer woke a parked worker
};

/// A fixed pool of worker threads executing *task groups*: RunGroup(n, fn)
/// runs fn(0..n-1) across the pool and returns when all n calls finished.
/// This is the two-level task model of docs/ARCHITECTURE.md §"Threading
/// model": top-level batch groups (one task per query, submitted by
/// QueryExecutor) and nested fan-out groups (one task per surviving shard,
/// submitted by ShardedSpbTree *from inside* a batch task) share the same
/// pool without deadlock:
///
///  - A group is published as up to num_threads() *tickets* on a bounded
///    lock-free MPMC ring (Vyukov queue). A ticket is an invitation, not a
///    task: whoever pops one claims chunks of the group's index space from
///    an atomic cursor until the group is dry, so a single popped ticket
///    suffices to drain a whole group and late/stale tickets are harmless.
///  - A submitter that must not block the pool (nested fan-out: the caller
///    *is* a worker) passes help=true and claims its own group's tasks
///    inline before waiting. Progress induction: a help-submitter always
///    drains its group without third-party assistance, so a chain of nested
///    fan-outs bottoms out at leaf tasks and every blocked RunGroup wait is
///    on tasks another worker is actively running — no cycles, any pool
///    size (the pool-size-1 regression test in tests/fanout_test.cc pins
///    this).
///  - If the ring is full, RunGroup simply runs the group inline —
///    backpressure degrades to serial execution, never to blocking.
///  - Completion waits use C++20 atomic wait/notify on a per-group flag; no
///    condition variable, no mutex anywhere on the submit/execute/complete
///    path.
///
/// Idle workers park on a per-worker futex word after registering in an
/// atomic bitmask; producers wake at most as many workers as they pushed
/// tickets. The mask-register / ring-recheck on the parking side and the
/// ring-push / mask-read on the waking side are seq_cst (store-buffering
/// crossing), so a worker can never sleep through a push.
class TaskArena {
 public:
  /// `num_threads` is clamped to [1, 64] (the parking bitmask is one word).
  explicit TaskArena(size_t num_threads);
  ~TaskArena();

  TaskArena(const TaskArena&) = delete;
  TaskArena& operator=(const TaskArena&) = delete;

  /// The arena whose worker is running the calling thread, or nullptr when
  /// called from outside any arena. Nested fan-out keys off this: inside a
  /// batch task it returns the executor's arena, so subqueries land on the
  /// same pool.
  static TaskArena* Current();

  /// Runs fn(0), ..., fn(n-1) across the pool; returns when every call has
  /// finished. `fn` must be noexcept in spirit (errors travel through the
  /// closure, e.g. a Status slot per index) and must tolerate concurrent
  /// invocation for distinct indices. With help=true the calling thread
  /// claims tasks from this group inline (mandatory when calling from a
  /// worker — see the deadlock-freedom note above); with help=false it only
  /// waits, preserving "exactly num_threads() threads do the work" for
  /// external batch submitters.
  void RunGroup(size_t n, const std::function<void(size_t)>& fn, bool help);

  size_t num_threads() const { return threads_.size(); }
  ArenaQueueStats queue_stats() const;

 private:
  /// One published group. `next` is the claim cursor (claimed in chunks of
  /// `chunk`), `completed` counts finished tasks, `done` flips to 1 exactly
  /// once for the atomic-wait on the submitter side. Stale tickets keep the
  /// state alive via shared_ptr but never dereference `fn` (the cursor is
  /// checked first), so `fn` may point into the submitter's frame.
  struct GroupState {
    const std::function<void(size_t)>* fn = nullptr;
    size_t total = 0;
    size_t chunk = 1;
    std::atomic<size_t> next{0};
    std::atomic<size_t> completed{0};
    std::atomic<uint32_t> done{0};
  };

  /// Bounded MPMC ticket ring (Vyukov). Capacity is fixed; Push returns
  /// false when full and the submitter degrades to an inline drain.
  class TicketRing {
   public:
    explicit TicketRing(size_t capacity_pow2);
    bool Push(std::shared_ptr<GroupState> g);
    bool Pop(std::shared_ptr<GroupState>* out);
    /// Approximate emptiness for the parking recheck; seq_cst loads so it
    /// participates in the store-buffering pairing with Push.
    bool EmptyApprox() const;

   private:
    struct Cell {
      std::atomic<size_t> seq{0};
      std::shared_ptr<GroupState> val;
    };
    std::unique_ptr<Cell[]> cells_;
    size_t mask_;
    alignas(64) std::atomic<size_t> head_{0};
    alignas(64) std::atomic<size_t> tail_{0};
  };

  struct alignas(64) ParkWord {
    std::atomic<uint32_t> w{0};
  };

  /// Claims chunks of `g` until its cursor is exhausted; returns the number
  /// of tasks this thread ran (0 for a stale ticket).
  size_t DrainGroup(GroupState& g);
  void WorkerLoop(size_t id);
  void Park(size_t id);
  void Unpark(size_t want);

  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
  std::atomic<size_t> exited_{0};

  TicketRing ring_;
  std::atomic<uint64_t> parked_mask_{0};
  std::unique_ptr<ParkWord[]> park_words_;

  // Observability (striped: workers bump their own slabs).
  struct {
    StripedU64 tickets_pushed;
    StripedU64 tickets_popped;
    StripedU64 stale_tickets;
    StripedU64 inline_drains;
    StripedU64 parks;
    StripedU64 unparks;
  } stats_;
};

}  // namespace spb

#endif  // SPB_EXEC_TASK_ARENA_H_
