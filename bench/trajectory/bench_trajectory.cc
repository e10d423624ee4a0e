// bench_trajectory: the repository's one trajectory benchmark. Each process
// runs one workload (so ru_maxrss belongs to it) and measures the system only
// from outside: it times calls into the public entry points (net::Client,
// QueryExecutor::Submit, MetricIndex methods, SpbTree::Build/Save) and takes
// counter deltas from CollectStats(), ContentionSnapshot(), the node cache,
// TaskArena::queue_stats(), Server::stats() and SpbTree::counting().
//
//   bench_trajectory --workload=NAME --seed=N --seconds=S --out=FILE
//                    --dir=DIR [--trace] [--rev=REV] [--smoke]
//
// Each workload's dataset is fixed: n + Q objects from a constant generator
// seed, the first n indexed, the last Q held out as queries and insert
// payloads. --seed drives everything a caller sends: the order in which it
// walks the held-out queries, its point lookups, the interleaving of its
// writes, and the gate and trace samples. (Seeding the data itself moved
// compdists per op by ~17% from seed to seed on the clustered synthetic set,
// a deterministic difference that would swamp every bound.)
//
// After the timed phase a quiesced correctness gate compares a fixed sample
// of reads against a brute-force scan of the live object set and runs
// CheckIntegrity(); any mismatch, lost delete or violated workload guard
// exits with status 3 and writes no metrics; a failure after the timed phase
// records that phase's op counts. --trace adds the per-layer metrics: after
// the gate, a fixed sample of requests is issued through every entry point
// of the workload and the spans go to FILE.trace.json. See
// bench/trajectory/README.md for the workloads and the metric map.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/contention.h"
#include "core/spb_tree.h"
#include "data/datasets.h"
#include "exec/query_executor.h"
#include "net/client.h"
#include "net/server.h"

namespace spb {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------- workloads

// Entry points, outermost first. A workload sends through one of them; its
// traced sample goes through that one and every one below it.
enum class Entry { kNet, kSubmit, kDirect };

const char* EntryName(Entry e) {
  switch (e) {
    case Entry::kNet:
      return "client";
    case Entry::kSubmit:
      return "submit";
    case Entry::kDirect:
      return "index";
  }
  return "?";
}

enum class OpType : uint8_t { kPoint, kRange, kKnn, kInsert, kDelete };

// Latency is reported per kind; inserts and deletes are both writes.
enum Kind { kPointKind = 0, kRangeKind, kKnnKind, kWriteKind, kNumKinds };
const char* const kKindNames[kNumKinds] = {"point", "range", "knn", "write"};

Kind KindOf(OpType t) {
  switch (t) {
    case OpType::kPoint:
      return kPointKind;
    case OpType::kRange:
      return kRangeKind;
    case OpType::kKnn:
      return kKnnKind;
    default:
      return kWriteKind;
  }
}

struct WorkloadSpec {
  std::string name;
  bool words = false;  // words under edit distance, else 20-d L2 synthetic
  size_t n = 0;        // indexed objects
  // Query objects and insert payloads. Coprime with the block size, so a
  // caller walking both in step sends every query in every op type.
  size_t held_out = 0;
  bool disk = false;
  bool durable = false;  // WAL + group commit, one fsync per group
  bool learned = false;  // learned locator + cost-model planner
  // Buffer pools sized so every page fits, and every page read once before
  // timing (WarmUp).
  bool warm = false;
  // FlushCaches() before every query, and stop only at the end of a whole
  // cycle (every held-out query once in every op type), so per-op counts of
  // a single caller repeat exactly.
  bool cold = false;
  Entry entry = Entry::kDirect;
  size_t callers = 1;
  std::vector<OpType> block;  // repeating op pattern of every caller
  double radius = 0.0;
  size_t trace_sample = 200;
  size_t check_reads = 40;
  size_t setups = 5;
};

// k of every kNN query.
constexpr size_t kK = 10;
// Executor pool size of the workloads that have an executor.
constexpr size_t kExecThreads = 4;
// Generator seed of every workload's dataset (the library's default seed).
constexpr uint64_t kDataSeed = 20150415;
// Point lookups cycle through this many seeded picks of indexed objects.
constexpr size_t kPointPicks = 4096;

std::vector<OpType> Pattern(const char* s) {
  std::vector<OpType> out;
  for (; *s != '\0'; ++s) {
    switch (*s) {
      case 'P':
        out.push_back(OpType::kPoint);
        break;
      case 'R':
        out.push_back(OpType::kRange);
        break;
      case 'K':
        out.push_back(OpType::kKnn);
        break;
      case 'I':
        out.push_back(OpType::kInsert);
        break;
      case 'D':
        out.push_back(OpType::kDelete);
        break;
    }
  }
  return out;
}

// d+, the largest distance between 20-d vectors in [0,1], and the synthetic
// query radius r = 0.06 d+.
const double kSyntheticDiameter = std::sqrt(20.0);
const double kSyntheticRadius = 0.06 * kSyntheticDiameter;

bool MakeSpec(const std::string& name, bool smoke, WorkloadSpec* w) {
  w->name = name;
  if (name == "serve_mixed") {
    w->n = 100000;
    w->held_out = 2001;
    w->disk = true;
    w->durable = true;
    w->learned = true;
    w->entry = Entry::kNet;
    w->callers = 4;
    // Per 20 ops: 4 point, 6 range, 6 kNN, 2 insert, 2 delete.
    w->block = Pattern("PRKRKIPRKDPRKRKIPRKD");
    w->radius = kSyntheticRadius;
  } else if (name == "warm_fit_t4") {
    w->n = 200000;
    w->held_out = 1001;
    w->warm = true;
    w->entry = Entry::kSubmit;
    w->callers = 4;
    w->block = Pattern("RK");
    w->radius = kSyntheticRadius;
  } else if (name == "paper_cold") {
    w->n = 300000;
    w->held_out = 101;
    w->disk = true;
    w->cold = true;
    w->block = Pattern("RK");
    w->radius = kSyntheticRadius;
    w->trace_sample = 100;
  } else if (name == "words_t1") {
    w->words = true;
    w->n = 100000;
    w->held_out = 2001;
    // Per 20 ops: 9 range, 9 kNN, 1 insert, 1 delete.
    w->block = Pattern("RKRKRKRKRIKRKRKRKRKD");
    w->radius = 1.0;
  } else {
    return false;
  }
  if (smoke) {
    w->n = std::min<size_t>(w->n, name == "paper_cold" ? 6000 : 3000);
    w->held_out = std::min<size_t>(w->held_out, 201);
    w->trace_sample = 20;
    w->check_reads = 12;
    w->setups = 2;
  }
  return true;
}

// ------------------------------------------------------------- the system

// One set-up instance. Members are declared so destruction stops the server
// before the executor and the executor before the tree; Reset() keeps that
// order.
struct System {
  std::unique_ptr<SpbTree> tree;
  std::unique_ptr<QueryExecutor> exec;
  std::unique_ptr<net::Server> server;
  QueryStats build_cost;  // cumulative PA / compdists right after Build

  void Reset() {
    server.reset();
    exec.reset();
    tree.reset();
  }
};

SpbTreeOptions OptionsFor(const WorkloadSpec& w, const std::string& dir) {
  SpbTreeOptions o;
  if (w.disk) o.storage_dir = dir;
  o.enable_group_commit = w.durable;
  o.enable_wal = w.durable;
  o.wal_fsync = true;
  o.enable_learned_locator = w.learned;
  o.enable_planner = w.learned;
  return o;
}

// The warm-up pass: one range query whose radius is the data's diameter. It
// reads every B+-tree node through the decoded-node cache and every object's
// RAF page through its pool, so a read-only timed phase whose pools and node
// cache hold the whole index never misses, whichever queries it draws.
Status WarmUp(SpbTree* tree, const Blob& q, double diameter) {
  std::vector<ObjectId> all;
  SPB_RETURN_IF_ERROR(tree->RangeQuery(q, diameter, &all));
  if (all.size() != tree->size()) {
    return Status::Corruption("warm-up range query missed objects");
  }
  return Status::OK();
}

Status SetUp(const WorkloadSpec& w, const std::vector<Blob>& base,
             const DistanceFunction* metric, const SpbTreeOptions& options,
             System* sys) {
  SPB_RETURN_IF_ERROR(SpbTree::Build(base, metric, options, &sys->tree));
  sys->build_cost = sys->tree->cumulative_stats();
  if (w.disk) SPB_RETURN_IF_ERROR(sys->tree->Save());
  if (w.warm) {
    // Size each pool to hold the whole index, with slack for shard
    // imbalance.
    TuningOptions t = sys->tree->tuning();
    t.btree_cache_pages = t.raf_cache_pages =
        sys->tree->storage_bytes() / kPageSize * 5 / 4 + 64;
    SPB_RETURN_IF_ERROR(sys->tree->ApplyTuning(t));
  }
  if (w.entry != Entry::kDirect) {
    sys->exec =
        std::make_unique<QueryExecutor>(sys->tree.get(), kExecThreads);
  }
  if (w.entry == Entry::kNet) {
    sys->server =
        std::make_unique<net::Server>(sys->exec.get(), net::ServerOptions{});
    SPB_RETURN_IF_ERROR(sys->server->Start());
  }
  if (w.warm) {
    SPB_RETURN_IF_ERROR(WarmUp(sys->tree.get(), base[0], kSyntheticDiameter));
  }
  return Status::OK();
}

// Non-empty B+-tree leaves, read from the learned locator's leaf directory.
// A workload without the locator turns it on for the count and off again.
Status CountLeaves(SpbTree* tree, uint64_t* leaves) {
  TuningOptions t = tree->tuning();
  if (t.enable_learned_locator) {
    *leaves = tree->CollectStats().locator_leaves;
    return Status::OK();
  }
  t.enable_learned_locator = true;
  SPB_RETURN_IF_ERROR(tree->ApplyTuning(t));
  *leaves = tree->CollectStats().locator_leaves;
  t.enable_learned_locator = false;
  return tree->ApplyTuning(t);
}

// Where one caller sends its requests.
struct Target {
  SpbTree* tree = nullptr;
  QueryExecutor* exec = nullptr;
  net::Client* client = nullptr;
};

struct Reply {
  std::vector<ObjectId> ids;
  std::vector<Neighbor> neighbors;
  bool found = false;
};

constexpr int kMaxAttempts = 16;

// Issues one request through `entry`. BUSY is retried with capped
// exponential backoff (50 us doubling to 800 us) up to kMaxAttempts; the
// caller's latency includes the retries.
Status Issue(Entry entry, const Target& t, const Request& req, Reply* out,
             uint64_t* busy_replies, uint64_t* exec_busy_retries) {
  Status s;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    out->ids.clear();
    out->neighbors.clear();
    out->found = false;
    switch (entry) {
      case Entry::kNet:
        switch (req.kind) {
          case Request::Kind::kRange:
            s = t.client->Range(req.obj, req.radius, &out->ids);
            break;
          case Request::Kind::kKnn:
            s = t.client->Knn(req.obj, req.k, &out->neighbors);
            break;
          case Request::Kind::kInsert:
            s = t.client->Insert(req.obj, req.id);
            break;
          case Request::Kind::kDelete:
            s = t.client->Delete(req.obj, req.id, &out->found);
            break;
        }
        break;
      case Entry::kSubmit: {
        BatchResult r = t.exec->Submit(std::span<const Request>(&req, 1));
        *exec_busy_retries += r.stats.busy_retries;
        s = r.results[0].status;
        out->ids = std::move(r.results[0].range_ids);
        out->neighbors = std::move(r.results[0].neighbors);
        out->found = r.results[0].found;
        break;
      }
      case Entry::kDirect:
        switch (req.kind) {
          case Request::Kind::kRange:
            s = t.tree->RangeQuery(req.obj, req.radius, &out->ids);
            break;
          case Request::Kind::kKnn:
            s = t.tree->KnnQuery(req.obj, req.k, &out->neighbors);
            break;
          case Request::Kind::kInsert:
            s = t.tree->Insert(req.obj, req.id);
            break;
          case Request::Kind::kDelete:
            s = t.tree->Delete(req.obj, req.id, &out->found);
            break;
        }
        break;
    }
    if (s.code() != Status::Code::kBusy) return s;
    ++*busy_replies;
    std::this_thread::sleep_for(
        std::chrono::microseconds(50 << std::min(attempt, 4)));
  }
  return s;
}

// ------------------------------------------------------------- timed phase

struct CallerState {
  std::vector<uint32_t> queries;  // held-out indices, one cycle
  std::vector<uint32_t> points;   // indexed ids for point lookups
  std::vector<double> lat_ms[kNumKinds];
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t lost_deletes = 0;
  uint64_t busy_replies = 0;
  uint64_t exec_busy_retries = 0;
  int64_t end_ns = 0;
  ObjectId next_id = 0;
  // (id, held-out index) of this caller's inserts not yet deleted; deletes
  // take the oldest.
  std::vector<std::pair<ObjectId, uint32_t>> live;
  size_t live_head = 0;
};

struct Inputs {
  std::vector<Blob> base;
  std::vector<Blob> held_out;
  std::shared_ptr<DistanceFunction> metric;
};

void RunCaller(const WorkloadSpec& w, const Inputs& in, const Target& target,
               int64_t start_ns, int64_t deadline_ns, CallerState* c) {
  Reply reply;
  const size_t cycle_ops = w.block.size() * c->queries.size();
  int64_t cycle_start = start_ns;
  for (size_t i = 0;; ++i) {
    const int64_t now = NowNs();
    if (!w.cold) {
      if (now >= deadline_ns) break;
    } else if (i % cycle_ops == 0) {
      // Start another cycle only if one as long as the last still fits.
      if (i > 0 && now + (now - cycle_start) > deadline_ns) break;
      cycle_start = now;
    }
    const OpType type = w.block[i % w.block.size()];
    const uint32_t qi = c->queries[i % c->queries.size()];
    Request req;
    switch (type) {
      case OpType::kPoint:
        req = Request::Range(in.base[c->points[i % c->points.size()]], 0.0);
        break;
      case OpType::kRange:
        req = Request::Range(in.held_out[qi], w.radius);
        break;
      case OpType::kKnn:
        req = Request::Knn(in.held_out[qi], kK);
        break;
      case OpType::kInsert:
        req = Request::Insert(in.held_out[qi], c->next_id);
        break;
      case OpType::kDelete:
        if (c->live_head == c->live.size()) continue;  // nothing to delete
        req = Request::Delete(in.held_out[c->live[c->live_head].second],
                              c->live[c->live_head].first);
        break;
    }
    if (w.cold) target.tree->FlushCaches();
    const int64_t s = NowNs();
    const Status st = Issue(w.entry, target, req, &reply, &c->busy_replies,
                            &c->exec_busy_retries);
    const int64_t e = NowNs();
    ++c->attempted;
    if (!st.ok()) {
      ++c->failed;
    } else {
      c->lat_ms[KindOf(type)].push_back(double(e - s) * 1e-6);
      if (type == OpType::kInsert) {
        c->live.emplace_back(c->next_id++, qi);
      } else if (type == OpType::kDelete) {
        if (!reply.found) ++c->lost_deletes;
        ++c->live_head;
      }
    }
  }
  c->end_ns = NowNs();
}

// ------------------------------------------------------------- counters

struct Counters {
  StatsSnapshot stats;
  std::map<std::string, LockStatsSnapshot> locks;
  uint64_t nc_hits = 0, nc_misses = 0;
  ArenaQueueStats arena;
  net::ServerStats server;
  uint64_t cutoff_calls = 0, cutoff_hits = 0, compdists = 0;
};

Counters Sample(System& sys) {
  Counters c;
  c.stats = sys.tree->CollectStats();
  for (LockStatsSnapshot& l : ContentionSnapshot()) c.locks[l.name] = l;
  c.nc_hits = sys.tree->btree().node_cache().hits();
  c.nc_misses = sys.tree->btree().node_cache().misses();
  if (sys.exec) c.arena = sys.exec->arena()->queue_stats();
  if (sys.server) c.server = sys.server->stats();
  c.cutoff_calls = sys.tree->counting().cutoff_calls();
  c.cutoff_hits = sys.tree->counting().cutoff_hits();
  c.compdists = sys.tree->counting().count();
  return c;
}

LockStatsSnapshot LockDelta(const Counters& a, const Counters& b,
                            const std::string& name) {
  LockStatsSnapshot d;
  d.name = name;
  const auto ia = a.locks.find(name);
  const auto ib = b.locks.find(name);
  if (ib == b.locks.end()) return d;
  d = ib->second;
  if (ia != a.locks.end()) {
    d.acquires -= ia->second.acquires;
    d.contended -= ia->second.contended;
    d.wait_ns -= ia->second.wait_ns;
  }
  return d;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ------------------------------------------------------------- statistics

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of a sorted sample.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  size_t rank = size_t(std::ceil(p * double(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

// ------------------------------------------------------------- correctness

// Every live (id, payload) pair, sorted by id: the indexed objects plus the
// callers' inserts that were not deleted.
struct LiveSet {
  std::vector<std::pair<ObjectId, const Blob*>> objs;

  const Blob* Find(ObjectId id) const {
    const auto it = std::lower_bound(
        objs.begin(), objs.end(), id,
        [](const std::pair<ObjectId, const Blob*>& e, ObjectId v) {
          return e.first < v;
        });
    return it != objs.end() && it->first == id ? it->second : nullptr;
  }
};

LiveSet CollectLive(const Inputs& in, const std::vector<CallerState>& callers) {
  LiveSet live;
  for (size_t i = 0; i < in.base.size(); ++i) {
    live.objs.emplace_back(ObjectId(i), &in.base[i]);
  }
  for (const CallerState& c : callers) {
    for (size_t j = c.live_head; j < c.live.size(); ++j) {
      live.objs.emplace_back(c.live[j].first, &in.held_out[c.live[j].second]);
    }
  }
  std::sort(live.objs.begin(), live.objs.end());
  return live;
}

// Compares one read's reply with a brute-force scan of the live set.
bool CheckRead(const Request& req, const Reply& got, const LiveSet& live,
               const DistanceFunction& metric, std::string* why) {
  if (req.kind == Request::Kind::kRange) {
    std::vector<ObjectId> want;
    for (const auto& [id, b] : live.objs) {
      if (metric.Distance(req.obj, *b) <= req.radius) want.push_back(id);
    }
    std::vector<ObjectId> ids = got.ids;
    std::sort(ids.begin(), ids.end());
    if (ids != want) {
      *why = "range result differs from brute force (" +
             std::to_string(ids.size()) + " vs " +
             std::to_string(want.size()) + " ids)";
      return false;
    }
    return true;
  }
  std::vector<double> all;
  all.reserve(live.objs.size());
  for (const auto& [id, b] : live.objs) {
    all.push_back(metric.Distance(req.obj, *b));
  }
  const size_t k = std::min<size_t>(req.k, all.size());
  std::partial_sort(all.begin(), all.begin() + ptrdiff_t(k), all.end());
  all.resize(k);
  if (got.neighbors.size() != k) {
    *why = "kNN returned " + std::to_string(got.neighbors.size()) +
           " neighbours, want " + std::to_string(k);
    return false;
  }
  std::vector<ObjectId> seen;
  for (size_t i = 0; i < k; ++i) {
    const Neighbor& nb = got.neighbors[i];
    const Blob* obj = live.Find(nb.id);
    if (obj == nullptr || metric.Distance(req.obj, *obj) != nb.distance ||
        nb.distance != all[i]) {
      *why = "kNN neighbour " + std::to_string(i) + " differs from brute force";
      return false;
    }
    seen.push_back(nb.id);
  }
  std::sort(seen.begin(), seen.end());
  if (std::adjacent_find(seen.begin(), seen.end()) != seen.end()) {
    *why = "kNN returned a duplicate id";
    return false;
  }
  return true;
}

// The fixed read sample of the gate: the workload's read kinds in pattern
// order, queries from a seed-derived stream.
std::vector<Request> GateSample(const WorkloadSpec& w, const Inputs& in,
                                uint64_t seed) {
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<Request> out;
  for (size_t i = 0; out.size() < w.check_reads; ++i) {
    switch (w.block[i % w.block.size()]) {
      case OpType::kPoint:
        out.push_back(Request::Range(in.base[rng.Uniform(in.base.size())], 0));
        break;
      case OpType::kRange:
        out.push_back(Request::Range(
            in.held_out[rng.Uniform(in.held_out.size())], w.radius));
        break;
      case OpType::kKnn:
        out.push_back(
            Request::Knn(in.held_out[rng.Uniform(in.held_out.size())], kK));
        break;
      default:
        break;
    }
  }
  return out;
}

// Runs the gate sample through the workload's entry point, then checks every
// reply against brute force on 4 threads. Returns false with `why` set on the
// first mismatch.
bool RunGate(const WorkloadSpec& w, const Inputs& in, const Target& target,
             const LiveSet& live, uint64_t seed, std::string* why) {
  const std::vector<Request> sample = GateSample(w, in, seed);
  std::vector<Reply> replies(sample.size());
  uint64_t busy = 0, retries = 0;
  for (size_t i = 0; i < sample.size(); ++i) {
    if (w.cold) target.tree->FlushCaches();
    const Status s =
        Issue(w.entry, target, sample[i], &replies[i], &busy, &retries);
    if (!s.ok()) {
      *why = "gate read failed: " + s.ToString();
      return false;
    }
  }
  std::vector<std::string> errors(sample.size());
  std::vector<std::thread> threads;
  const size_t nthreads = 4;
  for (size_t t = 0; t < nthreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < sample.size(); i += nthreads) {
        CheckRead(sample[i], replies[i], live, *in.metric, &errors[i]);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t i = 0; i < errors.size(); ++i) {
    if (!errors[i].empty()) {
      *why = "gate read " + std::to_string(i) + ": " + errors[i];
      return false;
    }
  }
  return true;
}

// ------------------------------------------------------------- traced sample

struct Span {
  uint64_t request_id;
  std::string name;
  int64_t start_ns;
  int64_t end_ns;
  int64_t parent;  // index into the span list, -1 for a root
};

struct TraceResult {
  std::vector<Span> spans;
  double net_self_ms = 0, exec_self_ms = 0;
  double query_ms[3] = {0, 0, 0};  // point, range, knn
  double write_ms = 0;
  // Time spent recording spans over the time of the calls they describe.
  double overhead_frac = 0;
};

// Issues a fixed sample of requests through every entry point of the
// workload against the quiesced index. Cache warmth favours none of them: a
// read is first issued once untimed (or the caches are flushed before every
// call, on flushed workloads), and the entry order rotates per request. A
// write request is an insert of a fresh id followed by its delete, both
// through the same entry point, so the live set is unchanged afterwards.
// The span bookkeeping is timed too; it is the tracing overhead.
Status RunTracedSample(const WorkloadSpec& w, const Inputs& in,
                       const Target& target, uint64_t seed, ObjectId first_id,
                       TraceResult* tr) {
  Rng rng(seed ^ 0x5bd1e995ULL);
  const size_t outer = size_t(w.entry);
  const size_t E = size_t(Entry::kDirect) - outer + 1;
  // per_entry[e][j]: request j's duration through Entry(outer + e).
  std::vector<std::vector<double>> per_entry(E);
  std::vector<double> query_ms[3];
  std::vector<double> write_ms;
  ObjectId next_id = first_id;
  uint64_t busy = 0, retries = 0;
  int64_t span_ns = 0, call_ns = 0;
  Reply reply;
  for (size_t j = 0; j < w.trace_sample; ++j) {
    const OpType type = w.block[j % w.block.size()];
    const Kind kind = KindOf(type);
    const Blob& q = in.held_out[rng.Uniform(in.held_out.size())];
    const Blob& p = in.base[rng.Uniform(in.base.size())];
    const int64_t root = int64_t(tr->spans.size());
    const int64_t root_start = NowNs();
    tr->spans.push_back(Span{j, std::string("request.") + kKindNames[kind],
                             root_start, 0, -1});
    span_ns += NowNs() - root_start;
    const Request read = kind == kPointKind   ? Request::Range(p, 0.0)
                         : kind == kRangeKind ? Request::Range(q, w.radius)
                                              : Request::Knn(q, kK);
    if (kind != kWriteKind && !w.cold) {
      const Status st =
          Issue(Entry::kDirect, target, read, &reply, &busy, &retries);
      if (!st.ok()) return st;
    }
    for (size_t e = 0; e < E; ++e) {
      const size_t ei = (j + e) % E;
      const Entry entry = Entry(outer + ei);
      std::vector<Request> reqs;
      if (kind != kWriteKind) {
        reqs.push_back(read);
      } else {
        reqs.push_back(Request::Insert(q, next_id));
        reqs.push_back(Request::Delete(q, next_id));
        ++next_id;
      }
      double total_ms = 0;
      for (const Request& req : reqs) {
        if (w.cold) target.tree->FlushCaches();
        const int64_t s = NowNs();
        const Status st = Issue(entry, target, req, &reply, &busy, &retries);
        const int64_t end = NowNs();
        if (!st.ok()) return st;
        if (req.kind == Request::Kind::kDelete && !reply.found) {
          return Status::Corruption("traced delete did not find its insert");
        }
        const int64_t record_start = NowNs();
        tr->spans.push_back(Span{j,
                                 std::string(EntryName(entry)) + "." +
                                     kKindNames[kind],
                                 s, end, root});
        span_ns += NowNs() - record_start;
        call_ns += end - s;
        const double ms = double(end - s) * 1e-6;
        total_ms += ms;
        if (entry == Entry::kDirect) {
          if (kind == kWriteKind) {
            write_ms.push_back(ms);
          } else {
            query_ms[kind].push_back(ms);
          }
        }
      }
      per_entry[ei].push_back(total_ms);
    }
    tr->spans[size_t(root)].end_ns = NowNs();
  }
  // Self time of a layer: median over requests of (its entry's duration
  // minus the next entry down's duration for the same request).
  auto self_ms = [&](Entry upper) {
    if (size_t(upper) < outer) return 0.0;  // the workload skips this layer
    const auto& u = per_entry[size_t(upper) - outer];
    const auto& l = per_entry[size_t(upper) - outer + 1];
    std::vector<double> diff(u.size());
    for (size_t i = 0; i < u.size(); ++i) diff[i] = u[i] - l[i];
    return Median(diff);
  };
  tr->net_self_ms = self_ms(Entry::kNet);
  tr->exec_self_ms = self_ms(Entry::kSubmit);
  for (int k = 0; k < 3; ++k) tr->query_ms[k] = Median(query_ms[k]);
  tr->write_ms = Median(write_ms);
  tr->overhead_frac = Ratio(double(span_ns), double(call_ns));
  return Status::OK();
}

// Nanoseconds per DistanceFunction::Distance call on fixed pairs of the
// dataset: the median of five trials of at least 20 ms each.
double MetricNsPerCall(const Inputs& in) {
  const size_t pairs = std::min<size_t>(256, in.base.size() / 2);
  double sink = 0;
  std::vector<double> trials;
  for (int t = 0; t < 5; ++t) {
    size_t calls = 0;
    const int64_t start = NowNs();
    int64_t now = start;
    while (now - start < 20'000'000) {
      for (size_t i = 0; i < pairs; ++i) {
        sink += in.metric->Distance(in.base[2 * i], in.base[2 * i + 1]);
      }
      calls += pairs;
      now = NowNs();
    }
    trials.push_back(double(now - start) / double(calls));
  }
  // Keeps the distance calls observable so they cannot be optimized away.
  if (sink < 0) std::fprintf(stderr, "negative distance sum\n");
  return Median(trials);
}

// ------------------------------------------------------------- output

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  return buf;
}

// Appends `"key": value` pairs to a JSON object body.
class JsonFields {
 public:
  JsonFields& Add(const std::string& key, const std::string& raw_value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + JsonEscape(key) + "\": " + raw_value;
    return *this;
  }
  JsonFields& Num(const std::string& key, double v) {
    return Add(key, bench::Num(v));
  }
  JsonFields& Int(const std::string& key, uint64_t v) {
    return Add(key, std::to_string(v));
  }
  JsonFields& Bool(const std::string& key, bool v) {
    return Add(key, v ? "true" : "false");
  }
  JsonFields& Str(const std::string& key, const std::string& v) {
    return Add(key, "\"" + JsonEscape(v) + "\"");
  }
  std::string Object() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string OptionsJson(const SpbTreeOptions& o) {
  JsonFields f;
  f.Int("num_pivots", o.num_pivots)
      .Num("delta", o.delta)
      .Int("btree_cache_pages", o.btree_cache_pages)
      .Int("raf_cache_pages", o.raf_cache_pages)
      .Int("seed", o.seed)
      .Bool("disk_backed", !o.storage_dir.empty())
      .Bool("enable_prefetch", o.enable_prefetch)
      .Int("prefetch_threads",
           o.prefetch_threads == SIZE_MAX ? 0 : o.prefetch_threads)
      .Bool("prefetch_threads_auto", o.prefetch_threads == SIZE_MAX)
      .Int("node_cache_entries", o.node_cache_entries)
      .Bool("enable_group_commit", o.enable_group_commit)
      .Bool("enable_wal", o.enable_wal)
      .Int("wal_group_max", o.wal_group_max)
      .Bool("wal_fsync", o.wal_fsync)
      .Int("compact_dead_bytes_threshold", o.compact_dead_bytes_threshold)
      .Bool("enable_learned_locator", o.enable_learned_locator)
      .Bool("enable_planner", o.enable_planner);
  return f.Object();
}

std::string TuningJson(const TuningOptions& t) {
  JsonFields f;
  f.Bool("enable_lemma2", t.enable_lemma2)
      .Bool("enable_compute_sfc", t.enable_compute_sfc)
      .Bool("enable_cutoff", t.enable_cutoff)
      .Bool("enable_prefetch", t.enable_prefetch)
      .Bool("enable_zero_copy", t.enable_zero_copy)
      .Int("node_cache_entries", t.node_cache_entries)
      .Int("btree_cache_pages", t.btree_cache_pages)
      .Int("raf_cache_pages", t.raf_cache_pages)
      .Int("max_readahead_pages", t.max_readahead_pages)
      .Int("wal_group_max", t.wal_group_max)
      .Bool("wal_fsync", t.wal_fsync)
      .Bool("enable_learned_locator", t.enable_learned_locator)
      .Bool("enable_planner", t.enable_planner);
  return f.Object();
}

std::string SpansJson(const std::vector<Span>& spans) {
  std::string out = "[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0) out += ",\n  ";
    JsonFields f;
    f.Int("request_id", s.request_id)
        .Str("name", s.name)
        .Add("start_ns", std::to_string(s.start_ns))
        .Add("end_ns", std::to_string(s.end_ns))
        .Add("parent", std::to_string(s.parent));
    out += f.Object();
  }
  return out + "]";
}

// ------------------------------------------------------------- main

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string out;
  std::string dir;
  std::string rev = "unknown";
  bool trace = false;
  bool smoke = false;
};

bool ParseMain(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? argv[i] + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      a->workload = v;
    } else if (const char* v = value("--seed=")) {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds=")) {
      a->seconds = std::atof(v);
    } else if (const char* v = value("--out=")) {
      a->out = v;
    } else if (const char* v = value("--dir=")) {
      a->dir = v;
    } else if (const char* v = value("--rev=")) {
      a->rev = v;
    } else if (arg == "--trace") {
      a->trace = true;
    } else if (arg == "--smoke") {
      a->smoke = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return false;
    }
  }
  return !a->workload.empty() && !a->out.empty() && !a->dir.empty() &&
         a->seconds > 0;
}

int Fail(const std::string& why) {
  std::fprintf(stderr, "bench_trajectory: FAIL: %s\n", why.c_str());
  return 3;
}

// A failure after the timed phase: the output file gets the phase's real op
// counts and the reason, and no metrics.
int FailAfterRun(const std::string& out, uint64_t attempted, uint64_t failed,
                 const std::string& why) {
  if (std::FILE* f = std::fopen(out.c_str(), "w")) {
    JsonFields r;
    r.Bool("correct", false)
        .Int("attempted", attempted)
        .Int("failed", failed)
        .Str("why", why);
    std::fprintf(f, "%s\n", r.Object().c_str());
    std::fclose(f);
  }
  return Fail(why);
}

int Main(int argc, char** argv) {
  Args args;
  WorkloadSpec w;
  if (!ParseMain(argc, argv, &args) ||
      !MakeSpec(args.workload, args.smoke, &w)) {
    std::fprintf(stderr,
                 "usage: bench_trajectory --workload=serve_mixed|warm_fit_t4|"
                 "paper_cold|words_t1 --seed=N --seconds=S --out=FILE "
                 "--dir=DIR [--trace] [--rev=REV] [--smoke]\n");
    return 2;
  }
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(args.dir, ec);

  // Inputs: n + Q objects of the fixed dataset; the last Q are held out.
  Inputs in;
  {
    Dataset ds = w.words ? MakeWords(w.n + w.held_out, kDataSeed)
                         : MakeSynthetic(w.n + w.held_out, kDataSeed);
    in.metric = ds.metric;
    const auto split = ds.objects.begin() + ptrdiff_t(w.n);
    in.held_out.assign(std::make_move_iterator(split),
                       std::make_move_iterator(ds.objects.end()));
    ds.objects.resize(w.n);
    in.base = std::move(ds.objects);
  }

  // Set up `setups` times from empty state; keep the last, report the median.
  std::vector<double> setup_s;
  System sys;
  SpbTreeOptions options;
  for (size_t i = 0; i < w.setups; ++i) {
    const std::string dir = args.dir + "/setup" + std::to_string(i);
    fs::remove_all(dir, ec);
    options = OptionsFor(w, dir);
    const int64_t t0 = NowNs();
    const Status s = SetUp(w, in.base, in.metric.get(), options, &sys);
    setup_s.push_back(double(NowNs() - t0) * 1e-9);
    if (!s.ok()) return Fail("set-up: " + s.ToString());
    if (i + 1 < w.setups) {
      sys.Reset();
      fs::remove_all(dir, ec);
    }
  }

  // Guards that hold before the timed phase.
  JsonFields guards;
  const uint64_t index_pages = sys.tree->storage_bytes() / kPageSize;
  const uint64_t pool_pages =
      sys.tree->tuning().btree_cache_pages + sys.tree->tuning().raf_cache_pages;
  guards.Int("index_pages", index_pages)
      .Int("pool_pages", pool_pages)
      .Int("node_cache_entries", sys.tree->tuning().node_cache_entries);
  if (w.cold) {
    uint64_t leaves = 0;
    const Status s = CountLeaves(sys.tree.get(), &leaves);
    if (!s.ok()) return Fail("leaf count: " + s.ToString());
    guards.Int("leaves", leaves);
    // A smoke-sized index fits the pools; the guards hold at full scale.
    if (!args.smoke && index_pages < 100 * pool_pages) {
      return Fail("out-of-core guard: index pages " +
                  std::to_string(index_pages) + " < 100x pool pages " +
                  std::to_string(pool_pages));
    }
    if (!args.smoke && leaves <= sys.tree->tuning().node_cache_entries) {
      return Fail("out-of-core guard: leaves " + std::to_string(leaves) +
                  " fit the node cache");
    }
  }

  // Callers, their query lists and connections.
  std::vector<CallerState> callers(w.callers);
  std::vector<std::unique_ptr<net::Client>> clients;
  const ObjectId id_base = ObjectId(w.n + w.held_out);
  for (size_t c = 0; c < w.callers; ++c) {
    CallerState& cs = callers[c];
    Rng rng(args.seed * 1000003ULL + c);
    cs.queries.resize(in.held_out.size());
    for (size_t i = 0; i < cs.queries.size(); ++i) cs.queries[i] = uint32_t(i);
    std::shuffle(cs.queries.begin(), cs.queries.end(), rng.engine());
    for (size_t i = 0; i < kPointPicks; ++i) {
      cs.points.push_back(uint32_t(rng.Uniform(in.base.size())));
    }
    cs.next_id = id_base + ObjectId(c) * 10'000'000;
    for (auto& v : cs.lat_ms) v.reserve(1 << 16);
    if (w.entry == Entry::kNet) {
      clients.push_back(std::make_unique<net::Client>());
      const Status s = clients.back()->Connect("127.0.0.1", sys.server->port());
      if (!s.ok()) return Fail("connect: " + s.ToString());
    }
  }

  // Space at rest, before any write: growth under writes depends on how many
  // the run completes, so it is reported per write instead.
  uint64_t base_payload = 0;
  for (const Blob& b : in.base) base_payload += b.size();
  const uint64_t storage_before = sys.tree->storage_bytes();

  // Timed phase.
  const Counters before = Sample(sys);
  const int64_t start = NowNs();
  const int64_t deadline = start + int64_t(args.seconds * 1e9);
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < w.callers; ++c) {
      Target t{sys.tree.get(), sys.exec.get(),
               clients.empty() ? nullptr : clients[c].get()};
      threads.emplace_back(RunCaller, std::cref(w), std::cref(in), t, start,
                           deadline, &callers[c]);
    }
    for (std::thread& th : threads) th.join();
  }
  int64_t end = start;
  uint64_t attempted = 0, failed = 0, lost_deletes = 0;
  for (const CallerState& c : callers) {
    end = std::max(end, c.end_ns);
    attempted += c.attempted;
    failed += c.failed;
    lost_deletes += c.lost_deletes;
  }
  const Counters after = Sample(sys);
  const double wall_s = double(end - start) * 1e-9;
  // From here on a failure still reports the timed phase's op counts.
  auto fail = [&](const std::string& why) {
    return FailAfterRun(args.out, attempted, failed, why);
  };

  // Guards on the timed phase.
  const uint64_t page_reads = after.stats.page_reads - before.stats.page_reads;
  const uint64_t nc_misses = after.nc_misses - before.nc_misses;
  const uint64_t protocol_errors =
      after.server.protocol_errors - before.server.protocol_errors;
  guards.Int("timed_page_reads", page_reads)
      .Int("timed_node_cache_misses", nc_misses)
      .Int("protocol_errors", protocol_errors);
  if (w.warm && (page_reads != 0 || nc_misses != 0)) {
    return fail("warm guard: " + std::to_string(page_reads) +
                " page reads and " + std::to_string(nc_misses) +
                " node-cache misses in the timed phase");
  }
  if (protocol_errors != 0) {
    return fail("serving guard: " + std::to_string(protocol_errors) +
                " protocol errors");
  }

  // Correctness gate, quiesced.
  if (lost_deletes != 0) {
    return fail(std::to_string(lost_deletes) + " deletes missed their target");
  }
  const LiveSet live = CollectLive(in, callers);
  const uint64_t storage_after = sys.tree->storage_bytes();
  {
    std::string why;
    Target t{sys.tree.get(), sys.exec.get(),
             clients.empty() ? nullptr : clients[0].get()};
    if (!RunGate(w, in, t, live, args.seed, &why)) return fail(why);
  }
  if (sys.tree->size() != live.objs.size()) {
    return fail("index size differs from the live set");
  }

  // Traced sample (after the gate, so its extra writes cannot hide a lost
  // write from the check).
  TraceResult tr;
  double ns_per_call = 0;
  if (args.trace) {
    Target t{sys.tree.get(), sys.exec.get(),
             clients.empty() ? nullptr : clients[0].get()};
    ObjectId first_id = id_base + ObjectId(w.callers) * 10'000'000;
    const Status s = RunTracedSample(w, in, t, args.seed, first_id, &tr);
    if (!s.ok()) return fail("traced sample: " + s.ToString());
    ns_per_call = MetricNsPerCall(in);
  }
  {
    const Status s = sys.tree->CheckIntegrity();
    if (!s.ok()) return fail("CheckIntegrity: " + s.ToString());
  }
  clients.clear();
  if (sys.server) sys.server->Stop();

  // ---- metrics
  std::vector<double> lat[kNumKinds];  // pooled over callers, sorted
  uint64_t completed = 0;
  JsonFields latency;  // every percentile with the sample count behind it
  for (int k = 0; k < kNumKinds; ++k) {
    for (const CallerState& c : callers) {
      lat[k].insert(lat[k].end(), c.lat_ms[k].begin(), c.lat_ms[k].end());
    }
    std::sort(lat[k].begin(), lat[k].end());
    completed += lat[k].size();
    JsonFields f;
    f.Int("samples", lat[k].size());
    for (double p : {0.50, 0.90, 0.95, 0.99}) {
      f.Num("p" + std::to_string(int(p * 100)), Percentile(lat[k], p));
    }
    latency.Add(kKindNames[k], f.Object());
  }
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);

  // Every metric of BENCHMARK.json, under its name; run.py picks each
  // section's names from there. Counter metrics are deltas over the timed
  // phase per completed op; the traced ones come from the traced sample.
  const double ops = double(completed);
  const double writes = double(lat[kWriteKind].size());
  const double reads = ops - writes;
  const StatsSnapshot& a = before.stats;
  const StatsSnapshot& b = after.stats;
  uint64_t busy = 0, exec_retries = 0;
  for (const CallerState& c : callers) {
    busy += c.busy_replies;
    exec_retries += c.exec_busy_retries;
  }
  double exec_wait_ns = 0;
  for (const char* name : {"exec.write_mu", "arena.queue_mu", "snapshot.admin",
                           "write_queue.mu"}) {
    exec_wait_ns += double(LockDelta(before, after, name).wait_ns);
  }
  const LockStatsSnapshot pool = LockDelta(before, after, "pool.shard");
  const LockStatsSnapshot ncl = LockDelta(before, after, "node_cache.shard");
  const double page_reads_d = double(page_reads);
  const double hits_d = double(b.cache_hits - a.cache_hits);
  const double nc_hits = double(after.nc_hits - before.nc_hits);
  const double compdists_per_op =
      Ratio(double(after.compdists - before.compdists), ops);
  JsonFields metrics;
  metrics.Num("setup_s", Median(setup_s))
      .Num("compdists_per_op", compdists_per_op)
      .Num("rss_peak_mb", double(ru.ru_maxrss) / 1024.0)
      .Num("space_amp", Ratio(double(storage_before), double(base_payload)))
      .Num("ops_per_s", Ratio(ops, wall_s));
  for (int k = 0; k < kNumKinds; ++k) {
    for (double p : {0.50, 0.90}) {
      metrics.Num(std::string(kKindNames[k]) + "_p" +
                      std::to_string(int(p * 100)) + "_ms",
                  Percentile(lat[k], p));
    }
  }
  metrics.Num("net.busy_per_op", Ratio(double(busy), ops))
      .Num("exec.lock_wait_ms_per_op", Ratio(exec_wait_ns * 1e-6, ops))
      .Num("arena.parks_per_op",
           Ratio(double(after.arena.parks - before.arena.parks), ops))
      .Num("exec.busy_retries_per_op", Ratio(double(exec_retries), ops))
      .Num("wq.ops_per_group",
           Ratio(double(b.wq_ops - a.wq_ops), double(b.wq_groups - a.wq_groups)))
      .Num("wal.fsyncs_per_write",
           Ratio(double(b.wal_fsyncs - a.wal_fsyncs), writes))
      .Num("wal.bytes_per_write",
           Ratio(double(b.wal_segment_bytes - a.wal_segment_bytes), writes))
      .Num("storage.bytes_per_write",
           Ratio(double(storage_after) - double(storage_before), writes))
      .Num("pool.lock_acquires_per_op", Ratio(double(pool.acquires), ops))
      .Num("pool.lock_contended_frac",
           Ratio(double(pool.contended), double(pool.acquires)))
      .Num("pool.lock_wait_ms_per_op", Ratio(double(pool.wait_ns) * 1e-6, ops))
      .Num("pool.touches_per_op", Ratio(page_reads_d + hits_d, ops))
      .Num("storage.pa_per_op",
           Ratio(double(b.page_accesses - a.page_accesses), ops))
      .Num("pool.hit_rate", Ratio(hits_d, hits_d + page_reads_d))
      .Num("io.physical_reads_per_op",
           Ratio(double(b.physical_reads - a.physical_reads), ops))
      .Num("io.prefetch_hit_frac",
           Ratio(double(b.prefetch_hits - a.prefetch_hits), page_reads_d))
      .Num("io.coalesced_pages_per_op",
           Ratio(double(b.coalesced_pages - a.coalesced_pages), ops))
      .Num("node_cache.hit_rate", Ratio(nc_hits, nc_hits + double(nc_misses)))
      .Num("node_cache.lock_wait_ms_per_op",
           Ratio(double(ncl.wait_ns) * 1e-6, ops))
      .Num("locator.hits_per_op",
           Ratio(double(b.locator_hits - a.locator_hits), ops))
      .Num("locator.fallback_frac",
           Ratio(double(b.locator_fallbacks - a.locator_fallbacks), reads))
      .Num("planner.greedy_frac",
           Ratio(double(b.planner_routed_greedy - a.planner_routed_greedy),
                 double(b.planner_planned_knn - a.planner_planned_knn)))
      .Num("metric.compdists_per_op", compdists_per_op)
      .Num("metric.cutoff_hit_frac",
           Ratio(double(after.cutoff_hits - before.cutoff_hits),
                 double(after.cutoff_calls - before.cutoff_calls)))
      .Num("build.compdists", double(sys.build_cost.distance_computations))
      .Num("build.pa", double(sys.build_cost.page_accesses));
  if (args.trace) {
    metrics.Num("net.self_ms", tr.net_self_ms)
        .Num("exec.self_ms", tr.exec_self_ms)
        .Num("core.query_ms.point", tr.query_ms[kPointKind])
        .Num("core.query_ms.range", tr.query_ms[kRangeKind])
        .Num("core.query_ms.knn", tr.query_ms[kKnnKind])
        .Num("core.write_ms", tr.write_ms)
        .Num("metric.ns_per_call", ns_per_call)
        .Num("metric.est_ms_per_op", compdists_per_op * ns_per_call * 1e-6)
        .Num("trace.overhead_frac", tr.overhead_frac);
  }

  JsonFields config;
  std::string mix;
  for (OpType t : w.block) mix += "PRKID"[int(t)];
  config.Str("dataset", w.words ? "words (edit distance)" : "synthetic 20-d L2")
      .Int("indexed_objects", w.n)
      .Int("held_out_objects", w.held_out)
      .Str("entry", EntryName(w.entry))
      .Int("callers", w.callers)
      .Int("connections", w.entry == Entry::kNet ? w.callers : 0)
      .Int("executor_threads", w.entry == Entry::kDirect ? 0 : kExecThreads)
      .Int("dispatchers",
           w.entry == Entry::kNet ? net::ServerOptions{}.num_dispatchers : 0)
      .Str("op_pattern", mix)
      .Num("radius", w.radius)
      .Int("k", kK)
      .Bool("flush_per_query", w.cold)
      .Bool("warm_up", w.warm)
      .Int("setups", w.setups)
      .Num("seconds", args.seconds)
      .Num("wall_s", wall_s)
      .Bool("smoke", args.smoke);
  std::string setups = "[";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    setups += (i > 0 ? ", " : "") + Num(setup_s[i]);
  }
  setups += "]";

  // The spans first, so that a failed write leaves no result file behind.
  if (args.trace) {
    const std::string path = args.out + ".trace.json";
    std::FILE* tf = std::fopen(path.c_str(), "w");
    if (tf == nullptr) return Fail("cannot write " + path);
    std::fprintf(tf, "{\"workload\": \"%s\", \"seed\": %llu, \"spans\": %s}\n",
                 w.name.c_str(), (unsigned long long)args.seed,
                 SpansJson(tr.spans).c_str());
    std::fclose(tf);
  }

  std::FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr) return Fail("cannot write " + args.out);
  std::fprintf(f, "{\n  \"bench\": \"trajectory\",\n  \"schema\": 1,\n");
  WriteHostJson(f);
  JsonFields head;
  head.Str("workload", w.name)
      .Int("seed", args.seed)
      .Str("rev", args.rev)
      .Bool("trace", args.trace);
  std::fprintf(f, ",\n  \"run\": %s", head.Object().c_str());
  std::fprintf(f, ",\n  \"config\": %s", config.Object().c_str());
  std::fprintf(f, ",\n  \"options\": %s", OptionsJson(options).c_str());
  std::fprintf(f, ",\n  \"tuning\": %s",
               TuningJson(sys.tree->tuning()).c_str());
  std::fprintf(f, ",\n  \"latency_ms\": %s", latency.Object().c_str());
  std::fprintf(f, ",\n  \"setup_s_each\": %s", setups.c_str());
  std::fprintf(f, ",\n  \"guards\": %s", guards.Object().c_str());
  std::fprintf(f, ",\n  \"attempted\": %llu,\n  \"failed\": %llu",
               (unsigned long long)attempted, (unsigned long long)failed);
  std::fprintf(f, ",\n  \"correct\": true");
  std::fprintf(f, ",\n  \"metrics\": %s\n}\n", metrics.Object().c_str());
  std::fclose(f);

  sys.Reset();
  fs::remove_all(args.dir, ec);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace spb

int main(int argc, char** argv) { return spb::bench::Main(argc, argv); }
