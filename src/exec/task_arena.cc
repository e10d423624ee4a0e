#include "exec/task_arena.h"

#include <algorithm>
#include <bit>

namespace spb {

namespace {

thread_local TaskArena* tl_arena = nullptr;

constexpr size_t kRingCapacity = 256;  // power of two

}  // namespace

TaskArena* TaskArena::Current() { return tl_arena; }

TaskArena::TicketRing::TicketRing(size_t capacity_pow2)
    : cells_(new Cell[capacity_pow2]), mask_(capacity_pow2 - 1) {
  for (size_t i = 0; i <= mask_; ++i) {
    cells_[i].seq.store(i, std::memory_order_relaxed);
  }
}

bool TaskArena::TicketRing::Push(std::shared_ptr<GroupState> g) {
  size_t pos = tail_.load(std::memory_order_relaxed);
  for (;;) {
    Cell& c = cells_[pos & mask_];
    const size_t seq = c.seq.load(std::memory_order_acquire);
    const intptr_t dif =
        static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos);
    if (dif == 0) {
      if (tail_.compare_exchange_weak(pos, pos + 1,
                                      std::memory_order_relaxed)) {
        c.val = std::move(g);
        c.seq.store(pos + 1, std::memory_order_release);
        return true;
      }
    } else if (dif < 0) {
      return false;  // full
    } else {
      pos = tail_.load(std::memory_order_relaxed);
    }
  }
}

bool TaskArena::TicketRing::Pop(std::shared_ptr<GroupState>* out) {
  size_t pos = head_.load(std::memory_order_relaxed);
  for (;;) {
    Cell& c = cells_[pos & mask_];
    const size_t seq = c.seq.load(std::memory_order_acquire);
    const intptr_t dif =
        static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos + 1);
    if (dif == 0) {
      if (head_.compare_exchange_weak(pos, pos + 1,
                                      std::memory_order_relaxed)) {
        *out = std::move(c.val);
        c.seq.store(pos + mask_ + 1, std::memory_order_release);
        return true;
      }
    } else if (dif < 0) {
      return false;  // empty
    } else {
      pos = head_.load(std::memory_order_relaxed);
    }
  }
}

bool TaskArena::TicketRing::EmptyApprox() const {
  return head_.load(std::memory_order_seq_cst) ==
         tail_.load(std::memory_order_seq_cst);
}

TaskArena::TaskArena(size_t num_threads) : ring_(kRingCapacity) {
  const size_t n = std::clamp<size_t>(num_threads, 1, 64);
  park_words_.reset(new ParkWord[n]);
  threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

TaskArena::~TaskArena() {
  stop_.store(true, std::memory_order_seq_cst);
  // Keep posting wake tokens until every worker has observed stop_: a token
  // written before a worker's park-entry reset would otherwise be lost, and
  // atomic wait has no timeout to recover with.
  while (exited_.load(std::memory_order_acquire) < threads_.size()) {
    for (size_t i = 0; i < threads_.size(); ++i) {
      park_words_[i].w.store(1, std::memory_order_release);
      park_words_[i].w.notify_all();
    }
    std::this_thread::yield();
  }
  for (std::thread& t : threads_) t.join();
}

size_t TaskArena::DrainGroup(GroupState& g) {
  size_t ran = 0;
  for (;;) {
    const size_t begin = g.next.fetch_add(g.chunk, std::memory_order_relaxed);
    if (begin >= g.total) break;
    const size_t end = std::min(begin + g.chunk, g.total);
    for (size_t i = begin; i < end; ++i) (*g.fn)(i);
    ran += end - begin;
    const size_t done_now = end - begin;
    if (g.completed.fetch_add(done_now, std::memory_order_acq_rel) +
            done_now ==
        g.total) {
      g.done.store(1, std::memory_order_release);
      g.done.notify_all();
    }
  }
  return ran;
}

void TaskArena::RunGroup(size_t n, const std::function<void(size_t)>& fn,
                         bool help) {
  if (n == 0) return;
  auto g = std::make_shared<GroupState>();
  g->fn = &fn;
  g->total = n;
  // Chunked claiming: large top-level batches move their cursor in strides
  // (fewer contended RMWs), small fan-out groups stay at 1 so every worker
  // can grab a shard.
  g->chunk = std::clamp<size_t>(n / (threads_.size() * 4), 1, 16);
  size_t want = std::min(n, threads_.size());
  if (help) {
    // Nested fan-out from a worker: publish tickets only up to the idle
    // (parked) worker count. A busy worker that stole a chunk couldn't run
    // it sooner than we can ourselves — it would only couple this query's
    // latency to another thread's scheduling — whereas parked workers are
    // genuinely free capacity. With zero idle workers the group degrades to
    // an inline drain, which is exactly the serial path. Results are
    // identical either way (byte-identity holds regardless of who runs a
    // task).
    const auto idle = static_cast<size_t>(
        std::popcount(parked_mask_.load(std::memory_order_seq_cst)));
    want = std::min(want, idle);
  }
  size_t pushed = 0;
  for (; pushed < want; ++pushed) {
    if (!ring_.Push(g)) break;
  }
  if (pushed > 0) Unpark(pushed);
  stats_.tickets_pushed.fetch_add(pushed);
  if (help || pushed == 0) {
    // help: nested fan-out — the caller is a worker and must make progress
    // itself (see the deadlock-freedom induction in the header).
    // pushed == 0: ring full — degrade to inline execution, never block.
    if (pushed == 0) stats_.inline_drains.fetch_add(1);
    DrainGroup(*g);
  }
  while (g->done.load(std::memory_order_acquire) == 0) {
    g->done.wait(0, std::memory_order_acquire);
  }
}

void TaskArena::WorkerLoop(size_t id) {
  tl_arena = this;
  while (!stop_.load(std::memory_order_acquire)) {
    std::shared_ptr<GroupState> g;
    if (ring_.Pop(&g)) {
      stats_.tickets_popped.fetch_add(1);
      if (DrainGroup(*g) == 0) stats_.stale_tickets.fetch_add(1);
      g.reset();
      continue;
    }
    Park(id);
  }
  tl_arena = nullptr;
  exited_.fetch_add(1, std::memory_order_release);
}

void TaskArena::Park(size_t id) {
  const uint64_t bit = uint64_t{1} << id;
  ParkWord& pw = park_words_[id];
  // Reset any stale wake token from a previous round *before* announcing:
  // a token stored after this point either finds us in the mask (we will be
  // woken) or races the recheck below (spurious wake, harmless).
  pw.w.store(0, std::memory_order_relaxed);
  parked_mask_.fetch_or(bit, std::memory_order_seq_cst);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  // Store-buffering crossing with RunGroup's push-then-read-mask: at least
  // one side observes the other, so either we see the ticket here or the
  // producer sees our bit and posts a token.
  if (!ring_.EmptyApprox() || stop_.load(std::memory_order_relaxed)) {
    parked_mask_.fetch_and(~bit, std::memory_order_seq_cst);
    return;
  }
  stats_.parks.fetch_add(1);
  pw.w.wait(0, std::memory_order_acquire);
}

void TaskArena::Unpark(size_t want) {
  std::atomic_thread_fence(std::memory_order_seq_cst);
  size_t woken = 0;
  while (woken < want) {
    const uint64_t m = parked_mask_.load(std::memory_order_seq_cst);
    if (m == 0) return;
    const int id = std::countr_zero(m);
    const uint64_t bit = uint64_t{1} << id;
    // Claim the bit; losing the race (the worker un-parked itself, or
    // another producer woke it first) just means reloading the mask.
    if (parked_mask_.fetch_and(~bit, std::memory_order_seq_cst) & bit) {
      park_words_[id].w.store(1, std::memory_order_release);
      park_words_[id].w.notify_one();
      stats_.unparks.fetch_add(1);
      ++woken;
    }
  }
}

ArenaQueueStats TaskArena::queue_stats() const {
  ArenaQueueStats s;
  s.tickets_pushed = stats_.tickets_pushed.load();
  s.tickets_popped = stats_.tickets_popped.load();
  s.stale_tickets = stats_.stale_tickets.load();
  s.inline_drains = stats_.inline_drains.load();
  s.parks = stats_.parks.load();
  s.unparks = stats_.unparks.load();
  return s;
}

}  // namespace spb
