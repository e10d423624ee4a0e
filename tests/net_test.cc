// Network serving layer tests (src/net): wire-format round-trips, the
// loopback identity gate — results, PA and compdists of ops served over TCP
// must be byte-identical to the same Requests submitted in-process — and a
// protocol-robustness suite (truncated/torn frames, bad magic/version/CRC,
// oversized lengths, mid-frame disconnects, reply frames sent to the
// server, concurrent clients, admission-control BUSY). Every abuse case
// must produce a typed error or a clean drop — never a crash, hang, or
// leak. tools/check.sh runs this binary under ThreadSanitizer and
// AddressSanitizer (--net stage).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "core/sharded_spb_tree.h"
#include "core/spb_tree.h"
#include "data/datasets.h"
#include "exec/query_executor.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"

namespace spb {
namespace {

using net::Client;
using net::FrameAssembler;
using net::FrameType;
using net::Server;
using net::ServerOptions;
using net::WireBatchStats;

SpbTreeOptions BaseOptions() {
  SpbTreeOptions opts;
  opts.num_pivots = 4;
  opts.seed = 99;
  return opts;
}

// ------------------------------------------------------------ wire format

TEST(ProtocolTest, RequestRoundTripsAllKinds) {
  const std::vector<Request> reqs = {
      Request::Range(Blob{1, 2, 3}, 0.25),
      Request::Knn(Blob{9}, 7),
      Request::Insert(Blob{4, 5}, 42),
      Request::Delete(Blob{}, 17),
  };
  std::vector<uint8_t> buf;
  net::EncodeRequestsPayload(reqs, &buf);
  std::vector<Request> got;
  ASSERT_TRUE(net::DecodeRequestsPayload(buf.data(), buf.size(), &got).ok());
  ASSERT_EQ(got.size(), reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(got[i].kind, reqs[i].kind);
    EXPECT_EQ(got[i].obj, reqs[i].obj);
    EXPECT_EQ(got[i].radius, reqs[i].radius);
    EXPECT_EQ(got[i].k, reqs[i].k);
    EXPECT_EQ(got[i].id, reqs[i].id);
  }
}

TEST(ProtocolTest, TruncatedPayloadIsTypedCorruption) {
  std::vector<uint8_t> buf;
  net::EncodeRequest(Request::Range(Blob{1, 2, 3}, 0.5), &buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    Request req;
    size_t pos = 0;
    const Status s = net::DecodeRequest(buf.data(), cut, &pos, &req);
    EXPECT_EQ(s.code(), Status::Code::kCorruption) << "cut at " << cut;
  }
}

TEST(ProtocolTest, StatsSnapshotRoundTripsWithShards) {
  StatsSnapshot s;
  s.name = "spb-tree[sharded]";
  s.num_objects = 1234;
  s.num_shards = 2;
  s.page_accesses = 9;
  s.planner_routed_greedy = 5;
  s.locator_model_present = true;
  s.shards.resize(2);
  s.shards[0].name = "shard0";
  s.shards[0].wal_fsyncs = 3;
  s.shards[1].dead_bytes = 77;
  std::vector<uint8_t> buf;
  net::EncodeStatsPayload(s, &buf);
  StatsSnapshot got;
  ASSERT_TRUE(net::DecodeStatsPayload(buf.data(), buf.size(), &got).ok());
  // Byte-identity is the real assertion: re-encode and compare.
  std::vector<uint8_t> again;
  net::EncodeStatsPayload(got, &again);
  EXPECT_EQ(buf, again);
  EXPECT_EQ(got.name, s.name);
  EXPECT_EQ(got.planner_routed_greedy, 5u);
  EXPECT_TRUE(got.locator_model_present);
  EXPECT_EQ(got.shards.size(), 2u);
  EXPECT_EQ(got.shards[0].wal_fsyncs, 3u);
  EXPECT_EQ(got.shards[1].dead_bytes, 77u);
}

// Every repeated-element count on the wire must be validated against the
// bytes actually present BEFORE any reserve/resize is sized from it: a
// tiny, CRC-valid payload declaring count = 0xFFFFFFFF must decode as
// kCorruption, not force a multi-GB allocation (bad_alloc would kill the
// serving thread — a trivially exploitable remote crash).
TEST(ProtocolTest, LyingElementCountsAreCorruptionNotBadAlloc) {
  const auto lie = [](std::vector<uint8_t>* buf, size_t at) {
    (*buf)[at] = (*buf)[at + 1] = (*buf)[at + 2] = (*buf)[at + 3] = 0xFF;
  };

  {  // batch-of-requests payload: leading u32 count
    std::vector<uint8_t> buf;
    net::EncodeRequestsPayload({Request::Knn(Blob{1, 2}, 3)}, &buf);
    lie(&buf, 0);
    std::vector<Request> got;
    EXPECT_EQ(net::DecodeRequestsPayload(buf.data(), buf.size(), &got).code(),
              Status::Code::kCorruption);
  }
  {  // range result: trailing u32 id count
    std::vector<uint8_t> buf;
    net::EncodeOpResult(Request::Range(Blob{1}, 0.5), OpResult{}, &buf);
    lie(&buf, buf.size() - 4);
    OpResult got;
    size_t pos = 0;
    EXPECT_EQ(net::DecodeOpResult(buf.data(), buf.size(), &pos, &got).code(),
              Status::Code::kCorruption);
  }
  {  // kNN result: trailing u32 neighbor count
    std::vector<uint8_t> buf;
    net::EncodeOpResult(Request::Knn(Blob{1}, 5), OpResult{}, &buf);
    lie(&buf, buf.size() - 4);
    OpResult got;
    size_t pos = 0;
    EXPECT_EQ(net::DecodeOpResult(buf.data(), buf.size(), &pos, &got).code(),
              Status::Code::kCorruption);
  }
  {  // results payload: leading u32 result count
    std::vector<uint8_t> buf;
    net::EncodeResultsPayload({}, {}, WireBatchStats{}, &buf);
    lie(&buf, 0);
    std::vector<OpResult> got;
    WireBatchStats stats;
    EXPECT_EQ(net::DecodeResultsPayload(buf.data(), buf.size(), &got, &stats)
                  .code(),
              Status::Code::kCorruption);
  }
  {  // stats payload: trailing u32 shard count
    std::vector<uint8_t> buf;
    net::EncodeStatsPayload(StatsSnapshot{}, &buf);
    // The decoder bounds shard_count by remaining/289 (kMinStatsScalars in
    // protocol.cc): exactly the encoded scalar section of an empty-name
    // snapshot. A larger bound would reject valid multi-shard replies; if
    // this fails, a field was added or removed — update both.
    EXPECT_EQ(buf.size() - 4, 289u);
    lie(&buf, buf.size() - 4);
    StatsSnapshot got;
    EXPECT_EQ(net::DecodeStatsPayload(buf.data(), buf.size(), &got).code(),
              Status::Code::kCorruption);
  }
}

TEST(ProtocolTest, FrameAssemblerHandlesBytewiseDelivery) {
  const std::vector<uint8_t> payload = {10, 20, 30, 40};
  std::vector<uint8_t> frame;
  net::AppendFrame(FrameType::kPing, payload.data(), payload.size(), &frame);
  FrameAssembler assembler;
  for (size_t i = 0; i < frame.size(); ++i) {
    bool have = true;
    FrameType type;
    std::vector<uint8_t> got;
    assembler.Append(&frame[i], 1);
    ASSERT_TRUE(assembler.Next(&have, &type, &got).ok());
    if (i + 1 < frame.size()) {
      EXPECT_FALSE(have) << "frame complete too early at byte " << i;
    } else {
      ASSERT_TRUE(have);
      EXPECT_EQ(type, FrameType::kPing);
      EXPECT_EQ(got, payload);
    }
  }
}

TEST(ProtocolTest, FrameAssemblerRejectsBadMagicVersionCrcAndOversize) {
  const std::vector<uint8_t> payload = {1, 2, 3};
  std::vector<uint8_t> good;
  net::AppendFrame(FrameType::kPing, payload.data(), payload.size(), &good);

  {  // bad magic
    std::vector<uint8_t> bad = good;
    bad[0] ^= 0xFF;
    FrameAssembler a;
    a.Append(bad.data(), bad.size());
    bool have;
    FrameType t;
    std::vector<uint8_t> p;
    EXPECT_EQ(a.Next(&have, &t, &p).code(), Status::Code::kCorruption);
  }
  {  // wrong version
    std::vector<uint8_t> bad = good;
    bad[4] = net::kProtocolVersion + 1;
    FrameAssembler a;
    a.Append(bad.data(), bad.size());
    bool have;
    FrameType t;
    std::vector<uint8_t> p;
    EXPECT_EQ(a.Next(&have, &t, &p).code(), Status::Code::kInvalidArgument);
  }
  {  // unknown frame type
    std::vector<uint8_t> bad = good;
    bad[5] = 0x7F;
    FrameAssembler a;
    a.Append(bad.data(), bad.size());
    bool have;
    FrameType t;
    std::vector<uint8_t> p;
    EXPECT_EQ(a.Next(&have, &t, &p).code(), Status::Code::kCorruption);
  }
  {  // corrupt payload byte -> CRC mismatch
    std::vector<uint8_t> bad = good;
    bad[net::kFrameHeaderSize] ^= 0xFF;
    FrameAssembler a;
    a.Append(bad.data(), bad.size());
    bool have;
    FrameType t;
    std::vector<uint8_t> p;
    EXPECT_EQ(a.Next(&have, &t, &p).code(), Status::Code::kCorruption);
  }
  {  // declared length over the cap
    std::vector<uint8_t> bad = good;
    bad[8] = 0xFF;
    bad[9] = 0xFF;
    bad[10] = 0xFF;
    bad[11] = 0x7F;
    FrameAssembler a(/*max_frame_bytes=*/1024);
    a.Append(bad.data(), bad.size());
    bool have;
    FrameType t;
    std::vector<uint8_t> p;
    EXPECT_EQ(a.Next(&have, &t, &p).code(), Status::Code::kInvalidArgument);
  }
}

// ------------------------------------------------------------- server rig

class NetServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = MakeSynthetic(600, 23);
    ASSERT_TRUE(
        SpbTree::Build(ds_.objects, ds_.metric.get(), BaseOptions(), &tree_)
            .ok());
    exec_ = std::make_unique<QueryExecutor>(tree_.get(), 4);
    server_ = std::make_unique<Server>(exec_.get(), ServerOptions{});
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
  }

  void TearDown() override { server_->Stop(); }

  Status ConnectClient(Client* client) {
    return client->Connect("127.0.0.1", server_->port());
  }

  /// Raw loopback socket for protocol-abuse tests the Client refuses to
  /// produce. Returns the fd (caller closes) or -1.
  int RawConnect() {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server_->port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }

  /// Sends raw bytes, then reads until the peer closes; returns everything
  /// read (possibly a typed error frame, possibly nothing).
  std::vector<uint8_t> SendRawExpectDrop(const std::vector<uint8_t>& bytes) {
    int fd = RawConnect();
    EXPECT_GE(fd, 0);
    EXPECT_EQ(::send(fd, bytes.data(), bytes.size(), 0),
              ssize_t(bytes.size()));
    std::vector<uint8_t> reply;
    uint8_t buf[4096];
    while (true) {
      ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
      if (r <= 0) break;
      reply.insert(reply.end(), buf, buf + r);
    }
    ::close(fd);
    return reply;
  }

  /// Decodes a typed error frame out of raw reply bytes.
  Status DecodeErrorFrame(const std::vector<uint8_t>& bytes,
                          FrameType* type) {
    FrameAssembler a;
    a.Append(bytes.data(), bytes.size());
    bool have = false;
    std::vector<uint8_t> payload;
    Status s = a.Next(&have, type, &payload);
    if (!s.ok()) return s;
    if (!have) return Status::NotFound("no complete reply frame");
    return net::DecodeErrorPayload(payload.data(), payload.size());
  }

  Dataset ds_;
  std::unique_ptr<SpbTree> tree_;
  std::unique_ptr<QueryExecutor> exec_;
  std::unique_ptr<Server> server_;
};

// --------------------------------------------------------- identity gate

// THE acceptance gate: the same Request sequence — mixed reads and writes,
// single-op frames and batch frames — produces byte-identical results, PA
// and compdists whether it travels over the wire or through an in-process
// QueryExecutor::Submit() on an identically-built index.
TEST_F(NetServerTest, WireResultsAndCostsAreByteIdenticalToInProcess) {
  // Dedicated rig, separate from the fixture: two independent builds of the
  // same dataset/options (deterministic construction makes them identical),
  // each behind a SINGLE-threaded executor. Logical PA depends on what the
  // decoded-node cache absorbs, which depends on op interleaving, so the PA
  // leg of the gate needs deterministic serial execution — concurrency
  // identity is FanoutIdentityTest's job (tests/fanout_test.cc); this test
  // isolates the wire.
  std::unique_ptr<SpbTree> served, twin;
  ASSERT_TRUE(
      SpbTree::Build(ds_.objects, ds_.metric.get(), BaseOptions(), &served)
          .ok());
  ASSERT_TRUE(
      SpbTree::Build(ds_.objects, ds_.metric.get(), BaseOptions(), &twin)
          .ok());
  QueryExecutor served_exec(served.get(), 1);
  QueryExecutor twin_exec(twin.get(), 1);
  Server server(&served_exec, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  // Mixed 90/10-flavoured blocks: range + kNN reads, an insert and a
  // delete per block, applied identically on both sides.
  ObjectId next_id = ObjectId(ds_.objects.size());
  for (size_t block = 0; block < 5; ++block) {
    std::vector<Request> ops;
    for (size_t j = 0; j < 4; ++j) {
      ops.push_back(Request::Range(ds_.objects[(7 * block + j) % 600], 0.2));
      ops.push_back(Request::Knn(ds_.objects[(11 * block + j) % 600], 5));
    }
    ops.push_back(
        Request::Insert(ds_.objects[(3 * block) % 600], next_id));
    ops.push_back(Request::Delete(ds_.objects[block], ObjectId(block)));
    ++next_id;

    // Quiesce both sides — cold caches and zeroed counters — then run the
    // identical batch.
    served->FlushCaches();
    twin->FlushCaches();
    served->ResetCounters();
    twin->ResetCounters();
    std::vector<OpResult> wire_results;
    WireBatchStats wire_stats;
    ASSERT_TRUE(client.Submit(ops, &wire_results, &wire_stats).ok());
    BatchResult local = twin_exec.Submit(ops);
    ASSERT_TRUE(local.first_error.ok());

    // Byte-identity: serialize both result vectors and compare the bytes.
    ASSERT_EQ(wire_results.size(), local.results.size());
    std::vector<uint8_t> wire_bytes, local_bytes;
    for (size_t i = 0; i < ops.size(); ++i) {
      net::EncodeOpResult(ops[i], wire_results[i], &wire_bytes);
      net::EncodeOpResult(ops[i], local.results[i], &local_bytes);
    }
    EXPECT_EQ(wire_bytes, local_bytes) << "results diverge in block "
                                       << block;

    // Cost identity: the wire reply's PA/compdists aggregates are the same
    // counters the in-process BatchStats reports.
    EXPECT_EQ(wire_stats.page_accesses, local.stats.totals.page_accesses)
        << "PA diverges in block " << block;
    EXPECT_EQ(wire_stats.distance_computations,
              local.stats.totals.distance_computations)
        << "compdists diverge in block " << block;
  }

  // Single-op frames hit the same executor path: spot-check one of each.
  std::vector<ObjectId> wire_ids, local_ids;
  ASSERT_TRUE(client.Range(ds_.objects[10], 0.3, &wire_ids).ok());
  ASSERT_TRUE(twin->RangeQuery(ds_.objects[10], 0.3, &local_ids).ok());
  std::sort(local_ids.begin(), local_ids.end());
  EXPECT_EQ(wire_ids, local_ids);

  std::vector<Neighbor> wire_nn;
  ASSERT_TRUE(client.Knn(ds_.objects[11], 5, &wire_nn).ok());
  std::vector<Neighbor> local_nn;
  ASSERT_TRUE(twin->KnnQuery(ds_.objects[11], 5, &local_nn).ok());
  ASSERT_EQ(wire_nn.size(), local_nn.size());
  for (size_t i = 0; i < wire_nn.size(); ++i) {
    EXPECT_EQ(wire_nn[i].id, local_nn[i].id);
    EXPECT_EQ(wire_nn[i].distance, local_nn[i].distance);  // bit-identical
  }

  // The STATS op serializes the same snapshot CollectStats() returns.
  StatsSnapshot wire_snapshot;
  ASSERT_TRUE(client.CollectStats(&wire_snapshot).ok());
  StatsSnapshot local_snapshot = served->CollectStats();
  std::vector<uint8_t> ws, ls;
  net::EncodeStatsPayload(wire_snapshot, &ws);
  net::EncodeStatsPayload(local_snapshot, &ls);
  // The server side kept serving between the two collections only if other
  // tests interleave — within this test the index is quiesced, so the
  // snapshots match except planner drift of the in-flight STATS op itself
  // (none here: stats collection does no queries).
  EXPECT_EQ(ws, ls);
}

// A STATS reply with a per-shard drill-down is larger than any bound the
// decoder puts on its shard count: it must round-trip over loopback, byte
// for byte, as the snapshot CollectStats() returns in process.
TEST_F(NetServerTest, ShardedStatsReplyRoundTrips) {
  SpbTreeOptions opts = BaseOptions();
  opts.num_shards = 4;
  std::unique_ptr<ShardedSpbTree> sharded;
  ASSERT_TRUE(
      ShardedSpbTree::Build(ds_.objects, ds_.metric.get(), opts, &sharded)
          .ok());
  QueryExecutor exec(sharded.get(), 2);
  Server server(&exec, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  std::vector<ObjectId> ids;
  ASSERT_TRUE(client.Range(ds_.objects[5], 0.3, &ids).ok());
  std::vector<Neighbor> nn;
  ASSERT_TRUE(client.Knn(ds_.objects[6], 5, &nn).ok());

  StatsSnapshot wire;
  ASSERT_TRUE(client.CollectStats(&wire).ok());
  EXPECT_EQ(wire.num_shards, 4u);
  ASSERT_EQ(wire.shards.size(), 4u);
  std::vector<uint8_t> ws, ls;
  net::EncodeStatsPayload(wire, &ws);
  net::EncodeStatsPayload(sharded->CollectStats(), &ls);
  EXPECT_EQ(ws, ls);
  server.Stop();
}

// ------------------------------------------------------------ op surface

TEST_F(NetServerTest, PingEchoesAndOpsWork) {
  Client client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  ASSERT_TRUE(client.Ping("hello-spb").ok());

  ASSERT_TRUE(client.Insert(ds_.objects[0], 9001).ok());
  bool found = false;
  ASSERT_TRUE(client.Delete(ds_.objects[0], 9001, &found).ok());
  EXPECT_TRUE(found);

  std::vector<Request> inserts;
  for (size_t i = 0; i < 8; ++i) {
    inserts.push_back(
        Request::Insert(ds_.objects[i % 600], ObjectId(9100 + i)));
  }
  ASSERT_TRUE(client.BatchInsert(inserts).ok());
  EXPECT_EQ(tree_->size(), 600u + 8u);
}

TEST_F(NetServerTest, ConcurrentClientsAllSucceed) {
  constexpr size_t kClients = 8;
  constexpr size_t kOpsPerClient = 20;
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      if (!ConnectClient(&client).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (size_t i = 0; i < kOpsPerClient; ++i) {
        std::vector<Neighbor> nn;
        const Blob& q = ds_.objects[(c * kOpsPerClient + i) % 600];
        Status s = client.Knn(q, 3, &nn);
        if (!s.ok() || nn.size() != 3) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GE(server_->stats().ops_executed, kClients * kOpsPerClient);
}

// ------------------------------------------------------ protocol robustness

TEST_F(NetServerTest, BadMagicGetsTypedErrorThenDrop) {
  std::vector<uint8_t> junk(64, 0xAB);
  FrameType type;
  const Status s = DecodeErrorFrame(SendRawExpectDrop(junk), &type);
  EXPECT_EQ(type, FrameType::kReplyError);
  EXPECT_EQ(s.code(), Status::Code::kCorruption);
  EXPECT_GE(server_->stats().protocol_errors, 1u);
}

TEST_F(NetServerTest, WrongVersionGetsTypedErrorThenDrop) {
  std::vector<uint8_t> frame;
  net::AppendFrame(FrameType::kPing, nullptr, 0, &frame);
  frame[4] = net::kProtocolVersion + 1;
  FrameType type;
  const Status s = DecodeErrorFrame(SendRawExpectDrop(frame), &type);
  EXPECT_EQ(type, FrameType::kReplyError);
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
}

TEST_F(NetServerTest, CrcMismatchGetsTypedErrorThenDrop) {
  const std::vector<uint8_t> payload = {1, 2, 3, 4};
  std::vector<uint8_t> frame;
  net::AppendFrame(FrameType::kPing, payload.data(), payload.size(), &frame);
  frame.back() ^= 0xFF;  // corrupt the payload after the CRC was computed
  FrameType type;
  const Status s = DecodeErrorFrame(SendRawExpectDrop(frame), &type);
  EXPECT_EQ(type, FrameType::kReplyError);
  EXPECT_EQ(s.code(), Status::Code::kCorruption);
}

TEST_F(NetServerTest, OversizedLengthGetsTypedErrorThenDrop) {
  std::vector<uint8_t> frame;
  net::AppendFrame(FrameType::kPing, nullptr, 0, &frame);
  frame[8] = 0xFF;
  frame[9] = 0xFF;
  frame[10] = 0xFF;
  frame[11] = 0x7F;  // ~2 GiB declared payload
  FrameType type;
  const Status s = DecodeErrorFrame(SendRawExpectDrop(frame), &type);
  EXPECT_EQ(type, FrameType::kReplyError);
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
}

TEST_F(NetServerTest, MalformedRequestPayloadGetsTypedErrorThenDrop) {
  // Valid frame, truncated Request inside: kind byte only.
  const std::vector<uint8_t> payload = {0};
  std::vector<uint8_t> frame;
  net::AppendFrame(FrameType::kRange, payload.data(), payload.size(),
                   &frame);
  FrameType type;
  const Status s = DecodeErrorFrame(SendRawExpectDrop(frame), &type);
  EXPECT_EQ(type, FrameType::kReplyError);
  EXPECT_EQ(s.code(), Status::Code::kCorruption);
}

TEST_F(NetServerTest, ReplyFrameToServerGetsTypedErrorThenDrop) {
  std::vector<uint8_t> frame;
  net::AppendFrame(FrameType::kReplyPong, nullptr, 0, &frame);
  FrameType type;
  const Status s = DecodeErrorFrame(SendRawExpectDrop(frame), &type);
  EXPECT_EQ(type, FrameType::kReplyError);
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
}

TEST_F(NetServerTest, NonInsertInBatchInsertGetsTypedErrorThenDrop) {
  std::vector<uint8_t> payload;
  net::EncodeRequestsPayload(
      {Request::Insert(ds_.objects[0], 7000), Request::Knn(ds_.objects[1], 2)},
      &payload);
  std::vector<uint8_t> frame;
  net::AppendFrame(FrameType::kBatchInsert, payload.data(), payload.size(),
                   &frame);
  FrameType type;
  const Status s = DecodeErrorFrame(SendRawExpectDrop(frame), &type);
  EXPECT_EQ(type, FrameType::kReplyError);
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(tree_->size(), 600u);  // nothing was applied
}

TEST_F(NetServerTest, HugeDeclaredBatchCountGetsTypedErrorThenDrop) {
  // CRC-valid kBatch frame whose 4-byte payload claims 2^32-1 requests:
  // the server must answer with typed corruption, never attempt the
  // ~240 GB reserve the count implies.
  const std::vector<uint8_t> payload = {0xFF, 0xFF, 0xFF, 0xFF};
  std::vector<uint8_t> frame;
  net::AppendFrame(FrameType::kBatch, payload.data(), payload.size(), &frame);
  FrameType type;
  const Status s = DecodeErrorFrame(SendRawExpectDrop(frame), &type);
  EXPECT_EQ(type, FrameType::kReplyError);
  EXPECT_EQ(s.code(), Status::Code::kCorruption);
  // The server keeps serving.
  Client client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(NetServerTest, MidFrameDisconnectLeavesServerHealthy) {
  // Half a header, then slam the connection shut.
  std::vector<uint8_t> frame;
  net::AppendFrame(FrameType::kPing, nullptr, 0, &frame);
  int fd = RawConnect();
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::send(fd, frame.data(), net::kFrameHeaderSize / 2, 0),
            ssize_t(net::kFrameHeaderSize / 2));
  ::close(fd);
  // Torn mid-payload too.
  std::vector<uint8_t> big;
  const std::vector<uint8_t> body(1024, 0x5A);
  net::AppendFrame(FrameType::kPing, body.data(), body.size(), &big);
  fd = RawConnect();
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::send(fd, big.data(), big.size() - 100, 0),
            ssize_t(big.size() - 100));
  ::close(fd);
  // The server keeps serving other clients.
  Client client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(NetServerTest, TornFramesAcrossManyWritesStillParse) {
  // One frame dribbled in 7-byte chunks with delays: the assembler must
  // reconstruct it regardless of TCP segmentation.
  std::vector<uint8_t> payload;
  net::EncodeRequest(Request::Knn(ds_.objects[5], 4), &payload);
  std::vector<uint8_t> frame;
  net::AppendFrame(FrameType::kKnn, payload.data(), payload.size(), &frame);
  int fd = RawConnect();
  ASSERT_GE(fd, 0);
  for (size_t off = 0; off < frame.size(); off += 7) {
    const size_t n = std::min<size_t>(7, frame.size() - off);
    ASSERT_EQ(::send(fd, frame.data() + off, n, 0), ssize_t(n));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Read the reply frame back.
  FrameAssembler a;
  uint8_t buf[4096];
  bool have = false;
  FrameType type;
  std::vector<uint8_t> reply;
  while (!have) {
    ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(r, 0);
    a.Append(buf, size_t(r));
    ASSERT_TRUE(a.Next(&have, &type, &reply).ok());
  }
  ::close(fd);
  ASSERT_EQ(type, FrameType::kReplyResults);
  std::vector<OpResult> results;
  WireBatchStats stats;
  ASSERT_TRUE(
      net::DecodeResultsPayload(reply.data(), reply.size(), &results, &stats)
          .ok());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].neighbors.size(), 4u);
}

// ------------------------------------------------------- admission control

TEST(NetAdmissionTest, SaturatedServerRepliesBusyNotHang) {
  Dataset ds = MakeSynthetic(300, 7);
  std::unique_ptr<SpbTree> tree;
  ASSERT_TRUE(
      SpbTree::Build(ds.objects, ds.metric.get(), BaseOptions(), &tree)
          .ok());
  QueryExecutor exec(tree.get(), 2);
  ServerOptions opts;
  opts.max_inflight_ops = 0;  // admit nothing: every op frame bounces
  Server server(&exec, opts);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  std::vector<Neighbor> nn;
  const Status s = client.Knn(ds.objects[0], 3, &nn);
  EXPECT_EQ(s.code(), Status::Code::kBusy) << s.ToString();
  // BUSY is pushback, not an error: the connection survives and control
  // frames still flow.
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_GE(server.stats().ops_rejected_busy, 1u);
  server.Stop();
}

TEST(NetAdmissionTest, SlowReaderOverflowingOutboxIsDropped) {
  Dataset ds = MakeSynthetic(300, 7);
  std::unique_ptr<SpbTree> tree;
  ASSERT_TRUE(
      SpbTree::Build(ds.objects, ds.metric.get(), BaseOptions(), &tree)
          .ok());
  QueryExecutor exec(tree.get(), 2);
  ServerOptions opts;
  opts.max_conn_outbox_bytes = 16 * 1024;  // tiny cap: overflow quickly
  Server server(&exec, opts);
  ASSERT_TRUE(server.Start().ok());

  // A greedy pipeliner: streams large PING frames (each echoed back at
  // full size) and never reads a single reply byte. Once kernel buffers
  // fill, the server's unflushed outbox crosses the cap and the
  // connection must be dropped rather than buffering without bound.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ASSERT_EQ(::fcntl(fd, F_SETFL, flags | O_NONBLOCK), 0);

  const std::vector<uint8_t> body(32 * 1024, 0x42);
  std::vector<uint8_t> frame;
  net::AppendFrame(FrameType::kPing, body.data(), body.size(), &frame);
  bool dropped = false;
  size_t off = 0;
  for (int i = 0; i < 20000 && !dropped; ++i) {
    ssize_t w =
        ::send(fd, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (w > 0) {
      off += size_t(w);
      if (off == frame.size()) off = 0;
      continue;
    }
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Our send buffer is full; give the server a beat to echo into its
      // outbox, hit EAGAIN itself, and trip the cap.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      continue;
    }
    dropped = true;  // EPIPE/ECONNRESET: the overflow cap closed us
  }
  EXPECT_TRUE(dropped);
  ::close(fd);

  // One hoarder gone; well-behaved clients are unaffected.
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  EXPECT_TRUE(client.Ping().ok());
  server.Stop();
}

}  // namespace
}  // namespace spb
