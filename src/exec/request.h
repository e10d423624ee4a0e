#ifndef SPB_EXEC_REQUEST_H_
#define SPB_EXEC_REQUEST_H_

#include <cstdint>
#include <vector>

#include "common/blob.h"
#include "common/status.h"
#include "core/metric_index.h"

namespace spb {

/// One operation against a MetricIndex — the single request shape shared by
/// every submission path: QueryExecutor::Submit() consumes a span of these,
/// and the wire protocol (src/net/protocol.h) encodes/decodes exactly this
/// struct, so an op that arrived over TCP is *the same object* an in-process
/// batch would submit.
///
/// Only the members matching `kind` are meaningful; the rest stay at their
/// defaults and are ignored (and encode as zeros on the wire).
struct Request {
  enum class Kind : uint8_t {
    kRange = 0,   ///< RQ(obj, radius) -> OpResult::range_ids
    kKnn = 1,     ///< kNN(obj, k)     -> OpResult::neighbors
    kInsert = 2,  ///< Insert(obj, id)
    kDelete = 3,  ///< Delete(obj, id) -> OpResult::found
  };
  Kind kind = Kind::kRange;
  /// Query object (kRange/kKnn) or record payload (kInsert/kDelete).
  Blob obj;
  double radius = 0.0;  ///< kRange
  uint64_t k = 0;       ///< kKnn
  ObjectId id = 0;      ///< kInsert / kDelete

  static Request Range(Blob q, double r) {
    Request req;
    req.kind = Kind::kRange;
    req.obj = std::move(q);
    req.radius = r;
    return req;
  }
  static Request Knn(Blob q, uint64_t k) {
    Request req;
    req.kind = Kind::kKnn;
    req.obj = std::move(q);
    req.k = k;
    return req;
  }
  static Request Insert(Blob o, ObjectId id) {
    Request req;
    req.kind = Kind::kInsert;
    req.obj = std::move(o);
    req.id = id;
    return req;
  }
  static Request Delete(Blob o, ObjectId id) {
    Request req;
    req.kind = Kind::kDelete;
    req.obj = std::move(o);
    req.id = id;
    return req;
  }
};

/// Per-op outcome. Only the member matching the request's kind is populated.
/// Range ids are sorted ascending (deterministic regardless of thread
/// interleaving); kNN neighbors come back in the index's own order
/// (ascending distance).
struct OpResult {
  Status status;
  std::vector<ObjectId> range_ids;  ///< kRange, sorted ascending
  std::vector<Neighbor> neighbors;  ///< kKnn, ascending distance
  bool found = false;               ///< kDelete
};

}  // namespace spb

#endif  // SPB_EXEC_REQUEST_H_
