#include "net/protocol.h"

#include <cstring>

#include "common/coding.h"
#include "common/crc32.h"

namespace spb {
namespace net {

namespace {

// Bounds-checked cursor over a received payload. Every Read* returns false
// when the declared structure runs past the buffer — the callers turn that
// into one uniform kCorruption ("truncated payload") because a frame that
// passed its CRC yet decodes short was built wrong, not damaged in flight.
struct Cursor {
  const uint8_t* data;
  size_t n;
  size_t pos;

  bool ReadU8(uint8_t* v) {
    if (pos + 1 > n) return false;
    *v = data[pos];
    pos += 1;
    return true;
  }
  bool ReadU32(uint32_t* v) {
    if (pos + 4 > n) return false;
    *v = DecodeFixed32(data + pos);
    pos += 4;
    return true;
  }
  bool ReadU64(uint64_t* v) {
    if (pos + 8 > n) return false;
    *v = DecodeFixed64(data + pos);
    pos += 8;
    return true;
  }
  bool ReadF64(double* v) {
    if (pos + 8 > n) return false;
    *v = DecodeDouble(data + pos);
    pos += 8;
    return true;
  }
  bool ReadBytes(size_t len, const uint8_t** out) {
    if (len > n || pos + len > n) return false;
    *out = data + pos;
    pos += len;
    return true;
  }
};

void AppendU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }
void AppendU32(std::vector<uint8_t>* out, uint32_t v) {
  uint8_t buf[4];
  EncodeFixed32(buf, v);
  out->insert(out->end(), buf, buf + 4);
}
void AppendU64(std::vector<uint8_t>* out, uint64_t v) {
  uint8_t buf[8];
  EncodeFixed64(buf, v);
  out->insert(out->end(), buf, buf + 8);
}
void AppendF64(std::vector<uint8_t>* out, double v) {
  uint8_t buf[8];
  EncodeDouble(buf, v);
  out->insert(out->end(), buf, buf + 8);
}
void AppendLenPrefixed(std::vector<uint8_t>* out, const uint8_t* data,
                       size_t n) {
  AppendU32(out, static_cast<uint32_t>(n));
  if (n > 0) out->insert(out->end(), data, data + n);
}

Status Truncated() { return Status::Corruption("truncated payload"); }

Status Overcount() {
  return Status::Corruption("declared element count exceeds payload size");
}

// Minimum encoded size of each repeated wire element. A decoder must never
// reserve/resize on a peer-declared count alone: a tiny, CRC-valid frame
// can declare count = 0xFFFFFFFF and turn one reserve() into a multi-GB
// allocation (bad_alloc on the serving thread). Every honest count is
// bounded by remaining_bytes / min_element_size; anything larger is a lie
// told by the length header and decodes as kCorruption. These are LOWER
// bounds (empty names/blobs), so growing an element never invalidates them.
constexpr size_t kMinEncodedRequest = 25;   // kind + id + radius + k + obj_len
constexpr size_t kMinEncodedOpResult = 6;   // status code + msg_len + kind
constexpr size_t kMinEncodedRangeId = 4;    // u32 id
constexpr size_t kMinEncodedNeighbor = 12;  // u32 id + f64 distance
constexpr size_t kMinStatsScalars = 249;    // empty name + every scalar field

bool CountFits(const Cursor& c, uint64_t count, size_t min_elem_bytes) {
  return count <= (c.n - c.pos) / min_elem_bytes;
}

bool KnownFrameType(uint8_t t) {
  switch (static_cast<FrameType>(t)) {
    case FrameType::kPing:
    case FrameType::kStats:
    case FrameType::kRange:
    case FrameType::kKnn:
    case FrameType::kInsert:
    case FrameType::kDelete:
    case FrameType::kBatchInsert:
    case FrameType::kBatch:
    case FrameType::kReplyResults:
    case FrameType::kReplyPong:
    case FrameType::kReplyStats:
    case FrameType::kReplyError:
    case FrameType::kReplyBusy:
      return true;
  }
  return false;
}

/// Rebuilds a Status from its wire code via the public factories (the
/// (code, message) constructor is private by design).
Status MakeStatus(uint8_t code, std::string msg) {
  switch (static_cast<Status::Code>(code)) {
    case Status::Code::kOk:
      return Status::OK();
    case Status::Code::kInvalidArgument:
      return Status::InvalidArgument(std::move(msg));
    case Status::Code::kNotFound:
      return Status::NotFound(std::move(msg));
    case Status::Code::kIOError:
      return Status::IOError(std::move(msg));
    case Status::Code::kCorruption:
      return Status::Corruption(std::move(msg));
    case Status::Code::kNotSupported:
      return Status::NotSupported(std::move(msg));
    case Status::Code::kBusy:
      return Status::Busy(std::move(msg));
    case Status::Code::kUnimplemented:
      return Status::Unimplemented(std::move(msg));
  }
  return Status::Corruption("unknown status code on wire");
}

/// Scalar section of a StatsSnapshot (everything but `shards`), shared by
/// the top-level snapshot and each per-shard entry.
void AppendStatsScalars(const StatsSnapshot& s, std::vector<uint8_t>* out) {
  AppendLenPrefixed(out, reinterpret_cast<const uint8_t*>(s.name.data()),
                    s.name.size());
  AppendU64(out, s.num_objects);
  AppendU64(out, s.storage_bytes);
  AppendU32(out, s.num_shards);
  AppendU64(out, s.page_accesses);
  AppendU64(out, s.distance_computations);
  AppendU64(out, s.page_reads);
  AppendU64(out, s.page_writes);
  AppendU64(out, s.cache_hits);
  AppendU64(out, s.physical_reads);
  AppendU64(out, s.dead_bytes);
  AppendU64(out, s.wal_segment_bytes);
  AppendU64(out, s.wal_checkpoint_lsn);
  AppendU64(out, s.wal_next_lsn);
  AppendU64(out, s.wal_pending_records);
  AppendU64(out, s.wal_groups);
  AppendU64(out, s.wal_fsyncs);
  AppendU64(out, s.wal_replayed_records);
  AppendU64(out, s.wq_ops);
  AppendU64(out, s.wq_groups);
  AppendU64(out, s.wq_max_group);
  AppendU8(out, s.locator_model_present ? 1 : 0);
  AppendU64(out, s.locator_epoch);
  AppendU64(out, s.locator_leaves);
  AppendU64(out, s.locator_internal_nodes);
  AppendU64(out, s.locator_hits);
  AppendU64(out, s.locator_fallbacks);
  AppendU64(out, s.locator_stale);
  AppendU64(out, s.locator_rebuilds);
  AppendU64(out, s.planner_planned_knn);
  AppendU64(out, s.planner_routed_greedy);
  AppendU64(out, s.planner_routed_incremental);
  AppendU64(out, s.planner_cutoff_disabled);
}

bool ReadStatsScalars(Cursor* c, StatsSnapshot* s) {
  uint32_t name_len = 0;
  if (!c->ReadU32(&name_len)) return false;
  const uint8_t* name = nullptr;
  if (!c->ReadBytes(name_len, &name)) return false;
  s->name.assign(reinterpret_cast<const char*>(name), name_len);
  uint8_t b = 0;
  bool ok = c->ReadU64(&s->num_objects) && c->ReadU64(&s->storage_bytes) &&
            c->ReadU32(&s->num_shards) && c->ReadU64(&s->page_accesses) &&
            c->ReadU64(&s->distance_computations) &&
            c->ReadU64(&s->page_reads) && c->ReadU64(&s->page_writes) &&
            c->ReadU64(&s->cache_hits) && c->ReadU64(&s->physical_reads) &&
            c->ReadU64(&s->dead_bytes) &&
            c->ReadU64(&s->wal_segment_bytes) &&
            c->ReadU64(&s->wal_checkpoint_lsn) &&
            c->ReadU64(&s->wal_next_lsn) &&
            c->ReadU64(&s->wal_pending_records) &&
            c->ReadU64(&s->wal_groups) && c->ReadU64(&s->wal_fsyncs) &&
            c->ReadU64(&s->wal_replayed_records) && c->ReadU64(&s->wq_ops) &&
            c->ReadU64(&s->wq_groups) && c->ReadU64(&s->wq_max_group);
  if (!ok) return false;
  if (!c->ReadU8(&b)) return false;
  s->locator_model_present = (b != 0);
  return c->ReadU64(&s->locator_epoch) && c->ReadU64(&s->locator_leaves) &&
         c->ReadU64(&s->locator_internal_nodes) &&
         c->ReadU64(&s->locator_hits) &&
         c->ReadU64(&s->locator_fallbacks) &&
         c->ReadU64(&s->locator_stale) &&
         c->ReadU64(&s->locator_rebuilds) &&
         c->ReadU64(&s->planner_planned_knn) &&
         c->ReadU64(&s->planner_routed_greedy) &&
         c->ReadU64(&s->planner_routed_incremental) &&
         c->ReadU64(&s->planner_cutoff_disabled);
}

}  // namespace

void AppendFrame(FrameType type, const uint8_t* payload, size_t n,
                 std::vector<uint8_t>* out) {
  uint8_t header[kFrameHeaderSize] = {0};
  EncodeFixed32(header, kMagic);
  header[4] = kProtocolVersion;
  header[5] = static_cast<uint8_t>(type);
  // header[6..7] reserved, zero.
  EncodeFixed32(header + 8, static_cast<uint32_t>(n));
  EncodeFixed32(header + 12, n > 0 ? Crc32(payload, n) : 0);
  out->insert(out->end(), header, header + kFrameHeaderSize);
  if (n > 0) out->insert(out->end(), payload, payload + n);
}

Status DecodeFrameHeader(const uint8_t* buf, FrameHeader* out) {
  if (DecodeFixed32(buf) != kMagic) {
    return Status::Corruption("bad frame magic");
  }
  out->version = buf[4];
  if (out->version != kProtocolVersion) {
    return Status::InvalidArgument("unsupported protocol version");
  }
  if (!KnownFrameType(buf[5])) {
    return Status::Corruption("unknown frame type");
  }
  out->type = static_cast<FrameType>(buf[5]);
  if (DecodeFixed16(buf + 6) != 0) {
    return Status::Corruption("nonzero reserved frame bytes");
  }
  out->payload_len = DecodeFixed32(buf + 8);
  out->payload_crc = DecodeFixed32(buf + 12);
  return Status::OK();
}

Status VerifyPayload(const FrameHeader& header, const uint8_t* payload) {
  const uint32_t crc =
      header.payload_len > 0 ? Crc32(payload, header.payload_len) : 0;
  if (crc != header.payload_crc) {
    return Status::Corruption("frame payload crc mismatch");
  }
  return Status::OK();
}

Status FrameAssembler::Next(bool* have, FrameType* type,
                            std::vector<uint8_t>* payload) {
  *have = false;
  // Reclaim the consumed prefix once it dominates the buffer, so a
  // long-lived connection does not grow its buffer without bound.
  if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(pos_));
    pos_ = 0;
  }
  if (buf_.size() - pos_ < kFrameHeaderSize) return Status::OK();
  FrameHeader header;
  SPB_RETURN_IF_ERROR(DecodeFrameHeader(buf_.data() + pos_, &header));
  if (header.payload_len > max_frame_bytes_) {
    return Status::InvalidArgument("frame payload exceeds size limit");
  }
  if (buf_.size() - pos_ < kFrameHeaderSize + header.payload_len) {
    return Status::OK();  // need more bytes
  }
  const uint8_t* body = buf_.data() + pos_ + kFrameHeaderSize;
  SPB_RETURN_IF_ERROR(VerifyPayload(header, body));
  payload->assign(body, body + header.payload_len);
  *type = header.type;
  pos_ += kFrameHeaderSize + header.payload_len;
  *have = true;
  return Status::OK();
}

void EncodeRequest(const Request& req, std::vector<uint8_t>* out) {
  AppendU8(out, static_cast<uint8_t>(req.kind));
  AppendU32(out, req.id);
  AppendF64(out, req.radius);
  AppendU64(out, req.k);
  AppendLenPrefixed(out, req.obj.data(), req.obj.size());
}

Status DecodeRequest(const uint8_t* data, size_t n, size_t* pos,
                     Request* out) {
  Cursor c{data, n, *pos};
  uint8_t kind = 0;
  uint32_t obj_len = 0;
  const uint8_t* obj = nullptr;
  if (!c.ReadU8(&kind) || !c.ReadU32(&out->id) || !c.ReadF64(&out->radius) ||
      !c.ReadU64(&out->k) || !c.ReadU32(&obj_len) ||
      !c.ReadBytes(obj_len, &obj)) {
    return Truncated();
  }
  if (kind > static_cast<uint8_t>(Request::Kind::kDelete)) {
    return Status::Corruption("unknown request kind on wire");
  }
  out->kind = static_cast<Request::Kind>(kind);
  out->obj.assign(obj, obj + obj_len);
  *pos = c.pos;
  return Status::OK();
}

void EncodeRequestsPayload(const std::vector<Request>& reqs,
                           std::vector<uint8_t>* out) {
  AppendU32(out, static_cast<uint32_t>(reqs.size()));
  for (const Request& req : reqs) EncodeRequest(req, out);
}

Status DecodeRequestsPayload(const uint8_t* data, size_t n,
                             std::vector<Request>* out) {
  out->clear();
  Cursor c{data, n, 0};
  uint32_t count = 0;
  if (!c.ReadU32(&count)) return Truncated();
  if (!CountFits(c, count, kMinEncodedRequest)) return Overcount();
  out->reserve(count);
  size_t pos = c.pos;
  for (uint32_t i = 0; i < count; ++i) {
    Request req;
    SPB_RETURN_IF_ERROR(DecodeRequest(data, n, &pos, &req));
    out->push_back(std::move(req));
  }
  if (pos != n) return Status::Corruption("trailing bytes after requests");
  return Status::OK();
}

void EncodeOpResult(const Request& req, const OpResult& result,
                    std::vector<uint8_t>* out) {
  AppendU8(out, static_cast<uint8_t>(result.status.code()));
  const std::string& msg = result.status.message();
  AppendLenPrefixed(out, reinterpret_cast<const uint8_t*>(msg.data()),
                    msg.size());
  AppendU8(out, static_cast<uint8_t>(req.kind));
  switch (req.kind) {
    case Request::Kind::kRange:
      AppendU32(out, static_cast<uint32_t>(result.range_ids.size()));
      for (ObjectId id : result.range_ids) AppendU32(out, id);
      break;
    case Request::Kind::kKnn:
      AppendU32(out, static_cast<uint32_t>(result.neighbors.size()));
      for (const Neighbor& nb : result.neighbors) {
        AppendU32(out, nb.id);
        AppendF64(out, nb.distance);
      }
      break;
    case Request::Kind::kInsert:
      break;
    case Request::Kind::kDelete:
      AppendU8(out, result.found ? 1 : 0);
      break;
  }
}

Status DecodeOpResult(const uint8_t* data, size_t n, size_t* pos,
                      OpResult* out) {
  Cursor c{data, n, *pos};
  uint8_t code = 0;
  uint32_t msg_len = 0;
  const uint8_t* msg = nullptr;
  uint8_t kind = 0;
  if (!c.ReadU8(&code) || !c.ReadU32(&msg_len) ||
      !c.ReadBytes(msg_len, &msg) || !c.ReadU8(&kind)) {
    return Truncated();
  }
  out->status =
      MakeStatus(code, std::string(reinterpret_cast<const char*>(msg),
                                   msg_len));
  out->range_ids.clear();
  out->neighbors.clear();
  out->found = false;
  switch (static_cast<Request::Kind>(kind)) {
    case Request::Kind::kRange: {
      uint32_t count = 0;
      if (!c.ReadU32(&count)) return Truncated();
      if (!CountFits(c, count, kMinEncodedRangeId)) return Overcount();
      out->range_ids.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        uint32_t id = 0;
        if (!c.ReadU32(&id)) return Truncated();
        out->range_ids.push_back(id);
      }
      break;
    }
    case Request::Kind::kKnn: {
      uint32_t count = 0;
      if (!c.ReadU32(&count)) return Truncated();
      if (!CountFits(c, count, kMinEncodedNeighbor)) return Overcount();
      out->neighbors.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        Neighbor nb;
        uint32_t id = 0;
        if (!c.ReadU32(&id) || !c.ReadF64(&nb.distance)) return Truncated();
        nb.id = id;
        out->neighbors.push_back(nb);
      }
      break;
    }
    case Request::Kind::kInsert:
      break;
    case Request::Kind::kDelete: {
      uint8_t found = 0;
      if (!c.ReadU8(&found)) return Truncated();
      out->found = (found != 0);
      break;
    }
    default:
      return Status::Corruption("unknown result kind on wire");
  }
  *pos = c.pos;
  return Status::OK();
}

void EncodeResultsPayload(const std::vector<Request>& reqs,
                          const std::vector<OpResult>& results,
                          const WireBatchStats& stats,
                          std::vector<uint8_t>* out) {
  AppendU32(out, static_cast<uint32_t>(results.size()));
  for (size_t i = 0; i < results.size(); ++i) {
    EncodeOpResult(reqs[i], results[i], out);
  }
  AppendU64(out, stats.page_accesses);
  AppendU64(out, stats.distance_computations);
  AppendU64(out, stats.busy_retries);
  AppendF64(out, stats.wall_seconds);
}

Status DecodeResultsPayload(const uint8_t* data, size_t n,
                            std::vector<OpResult>* results,
                            WireBatchStats* stats) {
  results->clear();
  Cursor c{data, n, 0};
  uint32_t count = 0;
  if (!c.ReadU32(&count)) return Truncated();
  if (!CountFits(c, count, kMinEncodedOpResult)) return Overcount();
  results->reserve(count);
  size_t pos = c.pos;
  for (uint32_t i = 0; i < count; ++i) {
    OpResult result;
    SPB_RETURN_IF_ERROR(DecodeOpResult(data, n, &pos, &result));
    results->push_back(std::move(result));
  }
  c.pos = pos;
  if (!c.ReadU64(&stats->page_accesses) ||
      !c.ReadU64(&stats->distance_computations) ||
      !c.ReadU64(&stats->busy_retries) || !c.ReadF64(&stats->wall_seconds)) {
    return Truncated();
  }
  if (c.pos != n) return Status::Corruption("trailing bytes after results");
  return Status::OK();
}

void EncodeStatsPayload(const StatsSnapshot& stats,
                        std::vector<uint8_t>* out) {
  AppendStatsScalars(stats, out);
  AppendU32(out, static_cast<uint32_t>(stats.shards.size()));
  for (const StatsSnapshot& shard : stats.shards) {
    AppendStatsScalars(shard, out);
  }
}

Status DecodeStatsPayload(const uint8_t* data, size_t n, StatsSnapshot* out) {
  *out = StatsSnapshot();
  Cursor c{data, n, 0};
  if (!ReadStatsScalars(&c, out)) return Truncated();
  uint32_t shard_count = 0;
  if (!c.ReadU32(&shard_count)) return Truncated();
  if (!CountFits(c, shard_count, kMinStatsScalars)) return Overcount();
  out->shards.resize(shard_count);
  for (uint32_t i = 0; i < shard_count; ++i) {
    if (!ReadStatsScalars(&c, &out->shards[i])) return Truncated();
  }
  if (c.pos != n) return Status::Corruption("trailing bytes after stats");
  return Status::OK();
}

void EncodeErrorPayload(const Status& status, std::vector<uint8_t>* out) {
  AppendU8(out, static_cast<uint8_t>(status.code()));
  const std::string& msg = status.message();
  AppendLenPrefixed(out, reinterpret_cast<const uint8_t*>(msg.data()),
                    msg.size());
}

Status DecodeErrorPayload(const uint8_t* data, size_t n) {
  Cursor c{data, n, 0};
  uint8_t code = 0;
  uint32_t msg_len = 0;
  const uint8_t* msg = nullptr;
  if (!c.ReadU8(&code) || !c.ReadU32(&msg_len) ||
      !c.ReadBytes(msg_len, &msg)) {
    return Truncated();
  }
  return MakeStatus(code, std::string(reinterpret_cast<const char*>(msg),
                                      msg_len));
}

FrameType RequestFrameType(Request::Kind kind) {
  switch (kind) {
    case Request::Kind::kRange:
      return FrameType::kRange;
    case Request::Kind::kKnn:
      return FrameType::kKnn;
    case Request::Kind::kInsert:
      return FrameType::kInsert;
    case Request::Kind::kDelete:
      return FrameType::kDelete;
  }
  return FrameType::kBatch;
}

}  // namespace net
}  // namespace spb
