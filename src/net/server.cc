#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace spb {
namespace net {

namespace {

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError("fcntl O_NONBLOCK failed");
  }
  return Status::OK();
}

}  // namespace

/// One client connection. The fd and all epoll state belong to the I/O
/// thread exclusively; dispatchers only touch the outbox (under mu) and the
/// atomics. The shared_ptr keeps the struct alive while a dispatcher still
/// holds a Work referencing it, even after the socket closed.
struct Server::Conn {
  int fd = -1;
  FrameAssembler assembler;

  std::mutex mu;                 // guards outbox
  std::vector<uint8_t> outbox;   // encoded reply bytes not yet written
  size_t outbox_pos = 0;         // flushed prefix (I/O thread only)

  std::atomic<bool> closed{false};
  bool close_after_flush = false;  // I/O thread only
  std::atomic<size_t> queued_frames{0};
  // Encoded reply bytes the socket has not yet accepted (mirror of
  // outbox.size() - outbox_pos, refreshed under mu). Admission control
  // reads it lock-free: queued_frames alone cannot bound memory, because
  // it is released at dispatch time — before the reply is flushed — so a
  // peer that never reads replies would otherwise grow the outbox forever.
  std::atomic<size_t> outbox_unflushed{0};

  explicit Conn(size_t max_frame_bytes) : assembler(max_frame_bytes) {}
};

/// One dispatchable unit: either a batch of ops or a stats collection.
struct Server::Work {
  std::shared_ptr<Conn> conn;
  std::vector<Request> requests;
  bool stats = false;
};

Server::Server(QueryExecutor* exec, ServerOptions options)
    : exec_(exec), options_(std::move(options)) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (started_) return Status::InvalidArgument("server already started");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Status::IOError("socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::IOError("bind failed: " + std::string(strerror(errno)));
  }
  if (::listen(listen_fd_, 128) != 0) {
    return Status::IOError("listen failed");
  }
  SPB_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));

  // Recover the bound port (meaningful when options_.port == 0).
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    return Status::IOError("getsockname failed");
  }
  port_.store(ntohs(bound.sin_port), std::memory_order_release);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Status::IOError("epoll_create1 failed");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) return Status::IOError("eventfd failed");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return Status::IOError("epoll_ctl(listen) failed");
  }
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return Status::IOError("epoll_ctl(wake) failed");
  }

  stop_.store(false, std::memory_order_release);
  io_thread_ = std::thread([this] { IoLoop(); });
  const size_t n = options_.num_dispatchers > 0 ? options_.num_dispatchers : 1;
  dispatchers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    dispatchers_.emplace_back([this] { DispatchLoop(); });
  }
  started_ = true;
  return Status::OK();
}

void Server::Stop() {
  if (!started_) {
    // Start() may have failed partway; release whatever it opened.
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    listen_fd_ = epoll_fd_ = wake_fd_ = -1;
    return;
  }
  stop_.store(true, std::memory_order_release);
  WakeIo();
  queue_cv_.notify_all();
  if (io_thread_.joinable()) io_thread_.join();
  for (std::thread& t : dispatchers_) {
    if (t.joinable()) t.join();
  }
  dispatchers_.clear();

  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& [fd, conn] : conns_) {
      conn->closed.store(true, std::memory_order_release);
      ::close(fd);
    }
    conns_.clear();
  }
  ::close(listen_fd_);
  ::close(epoll_fd_);
  ::close(wake_fd_);
  listen_fd_ = epoll_fd_ = wake_fd_ = -1;
  started_ = false;
}

void Server::WakeIo() {
  uint64_t one = 1;
  // Best-effort: a full eventfd counter already guarantees a pending wake.
  [[maybe_unused]] ssize_t r = ::write(wake_fd_, &one, sizeof(one));
}

void Server::IoLoop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!stop_.load(std::memory_order_acquire)) {
    if (listen_paused_ &&
        std::chrono::steady_clock::now() >= listen_resume_at_) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = listen_fd_;
      if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, listen_fd_, &ev) == 0) {
        listen_paused_ = false;
      }
    }
    int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, /*timeout_ms=*/100);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd gone — shutting down
    }
    bool flush_all = false;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        AcceptReady();
        continue;
      }
      if (fd == wake_fd_) {
        uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        flush_all = true;  // dispatchers queued replies on some conns
        continue;
      }
      std::shared_ptr<Conn> conn;
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        auto it = conns_.find(fd);
        if (it == conns_.end()) continue;  // already closed this wake
        conn = it->second;
      }
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConn(conn);
        continue;
      }
      if (events[i].events & EPOLLIN) ConnReadable(conn);
      if (events[i].events & EPOLLOUT) {
        if (!FlushConn(conn)) CloseConn(conn);
      }
    }
    if (flush_all) {
      // Snapshot then flush: FlushConn/CloseConn mutate conns_.
      std::vector<std::shared_ptr<Conn>> pending;
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        pending.reserve(conns_.size());
        for (auto& [fd, conn] : conns_) pending.push_back(conn);
      }
      for (auto& conn : pending) {
        if (!FlushConn(conn)) CloseConn(conn);
      }
    }
  }
}

void Server::AcceptReady() {
  while (true) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Resource exhaustion is not cured by retrying: the backlog stays
        // full, so with level-triggered epoll an immediate return would
        // make epoll_wait re-signal the listen fd instantly and spin this
        // thread at 100%. Stop polling the listen fd briefly; IoLoop
        // re-arms it once the pause elapses.
        epoll_event ev{};
        ev.events = 0;
        ev.data.fd = listen_fd_;
        if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, listen_fd_, &ev) == 0) {
          listen_paused_ = true;
          listen_resume_at_ = std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(100);
        }
        return;
      }
      // EAGAIN: drained the backlog. Anything else: transient, retry on the
      // next readiness event.
      return;
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Conn>(options_.max_frame_bytes);
    conn->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.emplace(fd, std::move(conn));
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::ConnReadable(const std::shared_ptr<Conn>& conn) {
  uint8_t buf[16 * 1024];
  while (true) {
    ssize_t r = ::read(conn->fd, buf, sizeof(buf));
    if (r > 0) {
      conn->assembler.Append(buf, static_cast<size_t>(r));
      if (static_cast<size_t>(r) < sizeof(buf)) break;  // likely drained
      continue;
    }
    if (r == 0) {  // peer closed
      CloseConn(conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConn(conn);
    return;
  }
  if (!DrainFrames(conn)) {
    // A typed error reply may still be sitting in the outbox; flush what the
    // socket will take (FlushConn drops the connection once it drains, or
    // EPOLLOUT finishes the job later), then stop reading for good.
    conn->close_after_flush = true;
    if (!FlushConn(conn)) CloseConn(conn);
  }
}

bool Server::DrainFrames(const std::shared_ptr<Conn>& conn) {
  while (true) {
    bool have = false;
    FrameType type;
    std::vector<uint8_t> payload;
    Status s = conn->assembler.Next(&have, &type, &payload);
    if (!s.ok()) {
      // Framing violation: answer with the typed error (the peer may still
      // be listening) and signal the caller to drop the connection.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      std::vector<uint8_t> body;
      EncodeErrorPayload(s, &body);
      SendFrame(conn, FrameType::kReplyError, body);
      return false;
    }
    if (!have) return true;
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    if (!HandleFrame(conn, type, std::move(payload))) return false;
  }
}

bool Server::HandleFrame(const std::shared_ptr<Conn>& conn, FrameType type,
                         std::vector<uint8_t> payload) {
  auto protocol_error = [&](const Status& s) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    std::vector<uint8_t> body;
    EncodeErrorPayload(s, &body);
    SendFrame(conn, FrameType::kReplyError, body);
    return false;
  };

  switch (type) {
    case FrameType::kPing:
      SendFrame(conn, FrameType::kReplyPong, payload);
      return true;

    case FrameType::kStats: {
      if (!payload.empty()) {
        return protocol_error(
            Status::InvalidArgument("stats request carries a payload"));
      }
      Work work;
      work.conn = conn;
      work.stats = true;
      {
        std::lock_guard<std::mutex> lock(queue_mu_);
        queue_.push_back(std::move(work));
      }
      queue_cv_.notify_one();
      return true;
    }

    case FrameType::kRange:
    case FrameType::kKnn:
    case FrameType::kInsert:
    case FrameType::kDelete:
    case FrameType::kBatchInsert:
    case FrameType::kBatch: {
      std::vector<Request> reqs;
      if (type == FrameType::kBatch || type == FrameType::kBatchInsert) {
        Status s = DecodeRequestsPayload(payload.data(), payload.size(),
                                        &reqs);
        if (!s.ok()) return protocol_error(s);
        if (type == FrameType::kBatchInsert) {
          for (const Request& req : reqs) {
            if (req.kind != Request::Kind::kInsert) {
              return protocol_error(Status::InvalidArgument(
                  "non-insert op in BATCH_INSERT frame"));
            }
          }
        }
      } else {
        Request req;
        size_t pos = 0;
        Status s =
            DecodeRequest(payload.data(), payload.size(), &pos, &req);
        if (!s.ok()) return protocol_error(s);
        if (pos != payload.size()) {
          return protocol_error(
              Status::Corruption("trailing bytes after request"));
        }
        if (RequestFrameType(req.kind) != type) {
          return protocol_error(Status::InvalidArgument(
              "frame type does not match request kind"));
        }
        reqs.push_back(std::move(req));
      }

      // Admission control: immediate BUSY instead of unbounded queueing.
      // The client backs off and retries exactly as an in-process writer
      // does on Status::Busy (PR 7 taxonomy).
      const size_t batch = reqs.size();
      const size_t queued = conn->queued_frames.load(std::memory_order_relaxed);
      const size_t backlog =
          conn->outbox_unflushed.load(std::memory_order_relaxed);
      size_t inflight = inflight_ops_.load(std::memory_order_relaxed);
      bool admitted = queued < options_.max_conn_queue &&
                      backlog <= options_.max_conn_outbox_bytes;
      while (admitted) {
        if (inflight + batch > options_.max_inflight_ops) {
          admitted = false;
          break;
        }
        if (inflight_ops_.compare_exchange_weak(inflight, inflight + batch,
                                                std::memory_order_relaxed)) {
          break;
        }
      }
      if (!admitted) {
        ops_rejected_busy_.fetch_add(batch, std::memory_order_relaxed);
        std::vector<uint8_t> body;
        EncodeErrorPayload(Status::Busy("server at capacity; back off"),
                           &body);
        SendFrame(conn, FrameType::kReplyBusy, body);
        return true;  // pushback, not a protocol error — keep the conn
      }

      conn->queued_frames.fetch_add(1, std::memory_order_relaxed);
      Work work;
      work.conn = conn;
      work.requests = std::move(reqs);
      {
        std::lock_guard<std::mutex> lock(queue_mu_);
        queue_.push_back(std::move(work));
      }
      queue_cv_.notify_one();
      return true;
    }

    default:
      // A reply frame sent to the server is a peer bug.
      return protocol_error(
          Status::InvalidArgument("reply frame type sent to server"));
  }
}

void Server::DispatchLoop() {
  while (true) {
    Work work;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return stop_.load(std::memory_order_acquire) || !queue_.empty();
      });
      if (queue_.empty()) {
        if (stop_.load(std::memory_order_acquire)) return;
        continue;
      }
      work = std::move(queue_.front());
      queue_.pop_front();
    }

    std::vector<uint8_t> body;
    FrameType reply_type;
    if (work.stats) {
      StatsSnapshot snapshot = exec_->index()->CollectStats();
      EncodeStatsPayload(snapshot, &body);
      reply_type = FrameType::kReplyStats;
    } else {
      BatchResult batch = exec_->Submit(work.requests);
      inflight_ops_.fetch_sub(work.requests.size(),
                              std::memory_order_relaxed);
      work.conn->queued_frames.fetch_sub(1, std::memory_order_relaxed);
      ops_executed_.fetch_add(work.requests.size(),
                              std::memory_order_relaxed);
      WireBatchStats wire;
      wire.page_accesses = batch.stats.totals.page_accesses;
      wire.distance_computations = batch.stats.totals.distance_computations;
      wire.busy_retries = batch.stats.busy_retries;
      wire.wall_seconds = batch.stats.wall_seconds;
      EncodeResultsPayload(work.requests, batch.results, wire, &body);
      reply_type = FrameType::kReplyResults;
    }
    if (!work.conn->closed.load(std::memory_order_acquire)) {
      SendFrame(work.conn, reply_type, body);
    }
  }
}

void Server::SendFrame(const std::shared_ptr<Conn>& conn, FrameType type,
                       const std::vector<uint8_t>& payload) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    AppendFrame(type, payload.data(), payload.size(), &conn->outbox);
    conn->outbox_unflushed.store(conn->outbox.size() - conn->outbox_pos,
                                 std::memory_order_relaxed);
  }
  frames_sent_.fetch_add(1, std::memory_order_relaxed);
  WakeIo();
}

bool Server::FlushConn(const std::shared_ptr<Conn>& conn) {
  if (conn->closed.load(std::memory_order_acquire)) return true;
  std::unique_lock<std::mutex> lock(conn->mu);
  while (conn->outbox_pos < conn->outbox.size()) {
    ssize_t w = ::write(conn->fd, conn->outbox.data() + conn->outbox_pos,
                        conn->outbox.size() - conn->outbox_pos);
    if (w > 0) {
      conn->outbox_pos += static_cast<size_t>(w);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      const size_t backlog = conn->outbox.size() - conn->outbox_pos;
      conn->outbox_unflushed.store(backlog, std::memory_order_relaxed);
      if (backlog > options_.max_conn_outbox_bytes) {
        // The peer pipelines requests but is not reading replies; parking
        // its bytes indefinitely would let one connection exhaust server
        // memory. Drop it — a reply the peer never reads owes nothing.
        return false;
      }
      // Socket full: arm EPOLLOUT and resume on writability.
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLOUT;
      ev.data.fd = conn->fd;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
      return true;
    }
    if (errno == EINTR) continue;
    return false;  // fatal (EPIPE etc.)
  }
  // Fully flushed: compact and disarm EPOLLOUT.
  conn->outbox.clear();
  conn->outbox_pos = 0;
  conn->outbox_unflushed.store(0, std::memory_order_relaxed);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = conn->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  const bool drop = conn->close_after_flush;
  lock.unlock();
  if (drop) CloseConn(conn);
  return true;
}

void Server::CloseConn(const std::shared_ptr<Conn>& conn) {
  if (conn->closed.exchange(true, std::memory_order_acq_rel)) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  std::lock_guard<std::mutex> lock(conns_mu_);
  conns_.erase(conn->fd);
}

ServerStats Server::stats() const {
  ServerStats s;
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    s.connections_active = conns_.size();
  }
  s.frames_received = frames_received_.load(std::memory_order_relaxed);
  s.frames_sent = frames_sent_.load(std::memory_order_relaxed);
  s.ops_executed = ops_executed_.load(std::memory_order_relaxed);
  s.ops_rejected_busy = ops_rejected_busy_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace net
}  // namespace spb
