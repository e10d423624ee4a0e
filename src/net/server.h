#ifndef SPB_NET_SERVER_H_
#define SPB_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "exec/query_executor.h"
#include "net/protocol.h"

namespace spb {
namespace net {

struct ServerOptions {
  /// Address to bind. The tests and benches use loopback only.
  std::string host = "127.0.0.1";
  /// 0 asks the kernel for an ephemeral port; Server::port() reports it.
  uint16_t port = 0;
  /// Threads bridging decoded frames onto the (blocking)
  /// QueryExecutor::Submit(). These threads only *wait* on the executor —
  /// the executor's own pool does the index work — so a handful suffices to
  /// keep the pool fed from many connections.
  size_t num_dispatchers = 2;
  /// Admission control, reusing the PR 7 backoff taxonomy: once this many
  /// ops are queued or running, further frames get an immediate kReplyBusy
  /// (transient — client backs off and retries) instead of queueing without
  /// bound.
  size_t max_inflight_ops = 4096;
  /// Per-connection cap on frames waiting for a dispatcher: one client
  /// cannot occupy the whole admission budget.
  size_t max_conn_queue = 64;
  /// Frames declaring a larger payload are a protocol violation.
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Per-connection cap on encoded reply bytes not yet accepted by the
  /// socket. A peer that pipelines requests but never reads replies parks
  /// its results here; once the unflushed outbox exceeds this cap the
  /// connection is dropped (and new frames on it get kReplyBusy first), so
  /// one slow reader cannot grow server memory without bound.
  size_t max_conn_outbox_bytes = size_t(128) << 20;
};

/// Aggregate server counters (relaxed snapshots; exact once quiesced).
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_active = 0;
  uint64_t frames_received = 0;
  uint64_t frames_sent = 0;
  uint64_t ops_executed = 0;
  uint64_t ops_rejected_busy = 0;
  uint64_t protocol_errors = 0;
};

/// Async TCP server speaking the SPB1 frame protocol (docs/PROTOCOL.md).
///
/// Threading model: ONE epoll I/O thread owns every socket — it accepts,
/// reads, parses frames (FrameAssembler per connection), answers kPing
/// inline, and flushes reply bytes; it never blocks on the index. Decoded
/// op frames go through admission control and onto a dispatcher pool, which
/// bridges to the blocking QueryExecutor::Submit() — so ops from every
/// connection are multiplexed onto the ONE executor pool the in-process
/// paths use, and a wire op is byte-identical to an in-process Submit() of
/// the same Request (the identity gate in tests/net_test.cc holds this).
/// Dispatchers append encoded replies to a per-connection outbox (mutex)
/// and wake the I/O thread via an eventfd; only the I/O thread ever touches
/// a socket fd, which removes every fd-lifetime race by construction.
///
/// Protocol violations (bad magic/version/CRC, oversized or malformed
/// frames) get a typed kReplyError where the stream still permits one, then
/// the connection is dropped — after a framing error there is no
/// trustworthy resync point.
class Server {
 public:
  /// `exec` must outlive the server. The server submits wire ops through it
  /// and serves kStats from exec->index()->CollectStats().
  Server(QueryExecutor* exec, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the I/O + dispatcher threads.
  Status Start();
  /// Drains in-flight ops, closes every connection, joins the threads.
  /// Idempotent; also run by the destructor.
  void Stop();

  /// Bound port (the ephemeral one when options.port == 0). 0 before
  /// Start().
  uint16_t port() const { return port_; }

  ServerStats stats() const;

 private:
  struct Conn;
  struct Work;

  void IoLoop();
  void DispatchLoop();
  void AcceptReady();
  void ConnReadable(const std::shared_ptr<Conn>& conn);
  /// Parses every complete frame buffered on `conn`; returns false when the
  /// connection must be dropped (protocol error or fatal send failure).
  bool DrainFrames(const std::shared_ptr<Conn>& conn);
  /// Handles one validated frame; returns false to drop the connection.
  bool HandleFrame(const std::shared_ptr<Conn>& conn, FrameType type,
                   std::vector<uint8_t> payload);
  /// Encodes a frame into the connection outbox and wakes the flusher.
  void SendFrame(const std::shared_ptr<Conn>& conn, FrameType type,
                 const std::vector<uint8_t>& payload);
  /// Flushes as much of the outbox as the socket accepts (I/O thread only);
  /// returns false on a fatal socket error.
  bool FlushConn(const std::shared_ptr<Conn>& conn);
  void CloseConn(const std::shared_ptr<Conn>& conn);
  void WakeIo();

  QueryExecutor* exec_;
  ServerOptions options_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: dispatchers -> I/O thread
  std::atomic<uint16_t> port_{0};
  std::atomic<bool> stop_{false};
  bool started_ = false;

  std::thread io_thread_;
  std::vector<std::thread> dispatchers_;

  // Accept backoff (I/O thread only): on fd exhaustion the listen fd leaves
  // the epoll interest set until the deadline, instead of letting the
  // level-triggered backlog re-signal — and spin — the I/O thread.
  bool listen_paused_ = false;
  std::chrono::steady_clock::time_point listen_resume_at_{};

  // Dispatch queue (dispatchers block here; the I/O thread only pushes).
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Work> queue_;

  // Connection table. Only the I/O thread mutates it; stats readers take
  // the mutex for a consistent snapshot.
  mutable std::mutex conns_mu_;
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;

  // Admission control: ops queued or running across all connections.
  std::atomic<size_t> inflight_ops_{0};

  // Aggregate counters.
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> frames_sent_{0};
  std::atomic<uint64_t> ops_executed_{0};
  std::atomic<uint64_t> ops_rejected_busy_{0};
  std::atomic<uint64_t> protocol_errors_{0};
};

}  // namespace net
}  // namespace spb

#endif  // SPB_NET_SERVER_H_
