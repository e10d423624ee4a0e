#ifndef SPB_NET_PROTOCOL_H_
#define SPB_NET_PROTOCOL_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/stats_snapshot.h"
#include "exec/request.h"

namespace spb {
namespace net {

// ---------------------------------------------------------------------------
// Frame layout (docs/PROTOCOL.md is the normative description).
//
// Every message — request or reply, either direction — is one frame:
//
//   offset  size  field
//   0       4     magic 0x31425053 ("SPB1" on the wire, little-endian)
//   4       1     protocol version (kProtocolVersion)
//   5       1     frame type (FrameType)
//   6       2     reserved, must be zero
//   8       4     payload length in bytes
//   12      4     CRC-32 of the payload bytes (0 for an empty payload)
//   16      ...   payload
//
// All integers are little-endian fixed-width (common/coding.h), doubles are
// IEEE-754 bit patterns — the same conventions as the on-disk structures,
// and we only target little-endian hosts (static_assert'ed there).
//
// Versioning rule: the header is frozen forever. Payload layouts may only
// ever APPEND fields within a version; any removal/reorder bumps
// kProtocolVersion, and a server replies kReplyError(kInvalidArgument) to a
// version it does not speak — it never guesses.
// ---------------------------------------------------------------------------

inline constexpr uint32_t kMagic = 0x31425053u;  // "SPB1"
inline constexpr uint8_t kProtocolVersion = 4;
inline constexpr size_t kFrameHeaderSize = 16;

/// Hard cap a peer may impose on payload size. A frame whose declared
/// length exceeds the receiver's cap is a protocol violation (the receiver
/// drops the connection — it cannot trust the stream enough to resync).
inline constexpr size_t kDefaultMaxFrameBytes = size_t(32) << 20;

enum class FrameType : uint8_t {
  // Requests (client -> server).
  kPing = 0x01,         ///< payload echoed back verbatim in kReplyPong
  kStats = 0x02,        ///< empty payload -> kReplyStats
  kRange = 0x03,        ///< one Request (kind must be kRange)
  kKnn = 0x04,          ///< one Request (kind must be kKnn)
  kInsert = 0x05,       ///< one Request (kind must be kInsert)
  kDelete = 0x06,       ///< one Request (kind must be kDelete)
  kBatchInsert = 0x07,  ///< u32 count | count x Request (all kInsert)
  kBatch = 0x08,        ///< u32 count | count x Request (any mix)

  // Replies (server -> client).
  kReplyResults = 0x81,  ///< results payload (EncodeResultsPayload)
  kReplyPong = 0x82,     ///< echoed kPing payload
  kReplyStats = 0x83,    ///< serialized StatsSnapshot
  kReplyError = 0x84,    ///< u8 status code | u32 len | message
  kReplyBusy = 0x85,     ///< admission control pushback; u32 len | message
};

/// Decoded frame header (magic/reserved validated away).
struct FrameHeader {
  uint8_t version = 0;
  FrameType type = FrameType::kPing;
  uint32_t payload_len = 0;
  uint32_t payload_crc = 0;
};

/// Batch-level aggregates a kReplyResults frame carries after the per-op
/// results: the exact PA/compdists deltas and wall time the executor
/// measured for this submission. Under concurrent connections the counter
/// deltas interleave with other batches' work (same caveat as
/// BatchStats::totals — aggregates are exact only for a quiesced index),
/// but for a lone client they are exactly the in-process numbers, which is
/// what the wire-identity gate asserts.
struct WireBatchStats {
  uint64_t page_accesses = 0;
  uint64_t distance_computations = 0;
  uint64_t busy_retries = 0;
  double wall_seconds = 0.0;
};

// --- Frame assembly -------------------------------------------------------

/// Appends a complete frame (header + payload) to `out`.
void AppendFrame(FrameType type, const uint8_t* payload, size_t n,
                 std::vector<uint8_t>* out);

/// Parses and validates 16 header bytes: magic, version, known frame type,
/// zero reserved bytes. Returns kCorruption (bad magic / reserved / type —
/// the stream is untrustworthy) or kInvalidArgument (right magic, wrong
/// version — a well-formed peer we do not speak to).
Status DecodeFrameHeader(const uint8_t* buf, FrameHeader* out);

/// CRC check of a received payload against its header.
Status VerifyPayload(const FrameHeader& header, const uint8_t* payload);

/// Incremental frame parser for a nonblocking byte stream: feed bytes as
/// they arrive, pull complete validated frames out. Owned by one reader
/// thread (no locking). A returned error is terminal for the stream — the
/// caller replies with a typed error where possible and drops the
/// connection (after a framing error there is no trustworthy resync point).
class FrameAssembler {
 public:
  explicit FrameAssembler(size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void Append(const uint8_t* data, size_t n) {
    buf_.insert(buf_.end(), data, data + n);
  }

  /// Extracts the next complete frame. On success sets *have=true and fills
  /// type/payload; sets *have=false when more bytes are needed. Errors:
  /// see DecodeFrameHeader, plus kInvalidArgument for an oversized declared
  /// payload length and kCorruption for a CRC mismatch.
  Status Next(bool* have, FrameType* type, std::vector<uint8_t>* payload);

  /// Bytes buffered but not yet consumed (diagnostics/tests).
  size_t buffered_bytes() const { return buf_.size() - pos_; }

 private:
  size_t max_frame_bytes_;
  std::vector<uint8_t> buf_;
  size_t pos_ = 0;  // consumed prefix of buf_
};

// --- Request / result payloads --------------------------------------------

/// One Request, encoded as
///   u8 kind | u32 id | f64 radius | u64 k | u32 obj_len | obj bytes
/// — every field always present (unused ones zero), so the decoder is
/// branch-free over kinds and the struct round-trips verbatim.
void EncodeRequest(const Request& req, std::vector<uint8_t>* out);

/// Decodes one Request starting at data[*pos]; advances *pos past it.
Status DecodeRequest(const uint8_t* data, size_t n, size_t* pos,
                     Request* out);

/// The payload of kBatch / kBatchInsert: u32 count | count x Request.
void EncodeRequestsPayload(const std::vector<Request>& reqs,
                           std::vector<uint8_t>* out);
Status DecodeRequestsPayload(const uint8_t* data, size_t n,
                             std::vector<Request>* out);

/// One OpResult, encoded as
///   u8 status code | u32 msg_len | msg | u8 kind | kind-specific body
///     kRange:  u32 n | n x u32 id
///     kKnn:    u32 n | n x (u32 id | f64 distance)
///     kInsert: (empty)
///     kDelete: u8 found
void EncodeOpResult(const Request& req, const OpResult& result,
                    std::vector<uint8_t>* out);
Status DecodeOpResult(const uint8_t* data, size_t n, size_t* pos,
                      OpResult* out);

/// The payload of kReplyResults:
///   u32 count | count x OpResult | WireBatchStats trailer
///     (u64 page_accesses | u64 distance_computations | u64 busy_retries |
///      f64 wall_seconds)
void EncodeResultsPayload(const std::vector<Request>& reqs,
                          const std::vector<OpResult>& results,
                          const WireBatchStats& stats,
                          std::vector<uint8_t>* out);
Status DecodeResultsPayload(const uint8_t* data, size_t n,
                            std::vector<OpResult>* results,
                            WireBatchStats* stats);

// --- Stats / error payloads -----------------------------------------------

/// StatsSnapshot, scalar fields in declaration order (name length-prefixed,
/// bools as u8, doubles as IEEE-754), then u32 shard_count and the shard
/// snapshots in the same layout (shards never nest further).
void EncodeStatsPayload(const StatsSnapshot& stats,
                        std::vector<uint8_t>* out);
Status DecodeStatsPayload(const uint8_t* data, size_t n, StatsSnapshot* out);

/// kReplyError payload: u8 Status::Code | u32 len | message. kReplyBusy
/// reuses the message part (its code is implicitly kBusy — the PR 7
/// taxonomy: transient, caller backs off and retries).
void EncodeErrorPayload(const Status& status, std::vector<uint8_t>* out);
/// Reconstructs the Status a kReplyError payload carries.
Status DecodeErrorPayload(const uint8_t* data, size_t n);

/// Frame type a single-op request of this kind travels as.
FrameType RequestFrameType(Request::Kind kind);

}  // namespace net
}  // namespace spb

#endif  // SPB_NET_PROTOCOL_H_
