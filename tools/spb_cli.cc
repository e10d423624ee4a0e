// spb_cli — command-line front end for the SPB-tree.
//
// Build an index over a text file and query it from the shell:
//
//   spb_cli build   --dir=/tmp/idx --metric=edit --input=words.txt
//   spb_cli knn     --dir=/tmp/idx --metric=edit --query=defoliate --k=5
//   spb_cli range   --dir=/tmp/idx --metric=edit --query=defoliate --r=2
//   spb_cli stats   --dir=/tmp/idx --metric=edit
//   spb_cli compact --dir=/tmp/idx --metric=edit
//
// Serve the same index over TCP (docs/PROTOCOL.md) and query it remotely:
//
//   spb_cli serve --dir=/tmp/idx --metric=edit --port=7878 --threads=4
//   spb_cli knn   --connect=127.0.0.1:7878 --metric=edit --query=word --k=5
//   spb_cli range --connect=127.0.0.1:7878 --metric=edit --query=word --r=2
//   spb_cli stats --connect=127.0.0.1:7878
//   spb_cli ping  --connect=127.0.0.1:7878
//
// `build --shards=N` (N a power of two > 1) builds an SFC-range-sharded
// index instead; knn/range/stats detect the sharded layout on open (the
// shards.spb manifest), so querying needs no extra flag.
//
// `--learned` turns on the learned leaf locator and the cost-model query
// planner (build or open); `stats` then reports the locator/planner
// counter lines (docs/OPERATIONS.md §"Reading locator/planner counters").
//
// Input formats:
//   --metric=edit      one word per line (edit distance)
//   --metric=l2|l5     whitespace-separated floats per line (vectors)
//   --metric=hamming   one symbol string per line
//   --metric=dna       one ACGT sequence per line (tri-gram cosine)
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "common/contention.h"
#include "core/sharded_spb_tree.h"
#include "core/spb_tree.h"
#include "exec/query_executor.h"
#include "metrics/edit_distance.h"
#include "metrics/hamming.h"
#include "metrics/lp_norm.h"
#include "metrics/trigram_cosine.h"
#include "net/client.h"
#include "net/server.h"

namespace spb {
namespace cli {
namespace {

struct Args {
  std::string command;
  std::string dir;
  std::string metric = "edit";
  std::string input;
  std::string query;
  double r = 1.0;
  size_t k = 5;
  size_t dim = 16;
  size_t pivots = 5;
  size_t shards = 1;
  size_t repeat = 1;
  bool cold = false;
  bool learned = false;  // learned leaf locator + cost-model planner
  // Network serving layer (PR 10).
  std::string connect;     // host:port — run the command against a server
  uint16_t port = 7878;    // serve: listen port
  size_t threads = 4;      // serve: executor pool size
  size_t dispatchers = 2;  // serve: dispatcher threads
};

bool Parse(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* key) -> const char* {
      const size_t len = std::strlen(key);
      if (arg.compare(0, len, key) == 0) return arg.c_str() + len;
      return nullptr;
    };
    if (const char* v = value("--dir=")) {
      args->dir = v;
    } else if (const char* v = value("--metric=")) {
      args->metric = v;
    } else if (const char* v = value("--input=")) {
      args->input = v;
    } else if (const char* v = value("--query=")) {
      args->query = v;
    } else if (const char* v = value("--r=")) {
      args->r = std::atof(v);
    } else if (const char* v = value("--k=")) {
      args->k = size_t(std::atoll(v));
    } else if (const char* v = value("--dim=")) {
      args->dim = size_t(std::atoll(v));
    } else if (const char* v = value("--pivots=")) {
      args->pivots = size_t(std::atoll(v));
    } else if (const char* v = value("--shards=")) {
      args->shards = size_t(std::atoll(v));
    } else if (const char* v = value("--repeat=")) {
      args->repeat = size_t(std::atoll(v));
    } else if (const char* v = value("--connect=")) {
      args->connect = v;
    } else if (const char* v = value("--port=")) {
      args->port = uint16_t(std::atoi(v));
    } else if (const char* v = value("--threads=")) {
      args->threads = size_t(std::atoll(v));
    } else if (const char* v = value("--dispatchers=")) {
      args->dispatchers = size_t(std::atoll(v));
    } else if (arg == "--cold") {
      args->cold = true;
    } else if (arg == "--learned") {
      args->learned = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return !args->dir.empty() || !args->connect.empty();
}

std::unique_ptr<DistanceFunction> MakeMetric(const Args& args) {
  if (args.metric == "edit") return std::make_unique<EditDistance>(64);
  if (args.metric == "l2") return std::make_unique<LpNorm>(args.dim, 2.0);
  if (args.metric == "l5") return std::make_unique<LpNorm>(args.dim, 5.0);
  if (args.metric == "hamming") return std::make_unique<Hamming>(64);
  if (args.metric == "dna") return std::make_unique<TrigramCosine>();
  return nullptr;
}

// Parses one input/query line into an object under the selected metric.
bool ParseObject(const Args& args, const std::string& line, Blob* out) {
  if (args.metric == "l2" || args.metric == "l5") {
    std::istringstream in(line);
    std::vector<float> v;
    float x;
    while (in >> x) v.push_back(x);
    if (v.size() != args.dim) return false;
    *out = BlobFromFloats(v);
    return true;
  }
  *out = BlobFromString(line);
  return !out->empty();
}

int Build(const Args& args, const DistanceFunction* metric) {
  std::ifstream in(args.input);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", args.input.c_str());
    return 1;
  }
  std::vector<Blob> objects;
  std::string line;
  size_t skipped = 0;
  while (std::getline(in, line)) {
    Blob obj;
    if (ParseObject(args, line, &obj)) {
      objects.push_back(std::move(obj));
    } else if (!line.empty()) {
      ++skipped;
    }
  }
  std::printf("read %zu objects (%zu lines skipped)\n", objects.size(),
              skipped);

  SpbTreeOptions options;
  options.storage_dir = args.dir;
  options.num_pivots = args.pivots;
  options.enable_learned_locator = args.learned;
  options.enable_planner = args.learned;

  auto report = [&](const auto& index) {
    const QueryStats cost = index.cumulative_stats();
    std::printf("%s built in %s: %llu objects, %.1f KB, "
                "%llu distance computations\n",
                index.name().c_str(), args.dir.c_str(),
                (unsigned long long)index.size(),
                double(index.storage_bytes()) / 1024.0,
                (unsigned long long)cost.distance_computations);
  };

  Status s;
  if (args.shards > 1) {
    options.num_shards = args.shards;
    std::unique_ptr<ShardedSpbTree> index;
    s = ShardedSpbTree::Build(objects, metric, options, &index);
    if (s.ok()) s = index->Save();
    if (s.ok()) report(*index);
  } else {
    std::unique_ptr<SpbTree> index;
    s = SpbTree::Build(objects, metric, options, &index);
    if (s.ok()) s = index->Save();
    if (s.ok()) report(*index);
  }
  if (!s.ok()) {
    std::fprintf(stderr, "build failed: %s\n", s.ToString().c_str());
    return 1;
  }
  return 0;
}

// True when `dir` holds a write-ahead log; such an index is opened with the
// WAL enabled so records a crashed writer left behind replay before any
// query or stat runs.
bool HasWal(const std::string& dir) {
  std::ifstream f(dir + "/wal.spb");
  return f.good();
}

// Renders one StatsSnapshot — THE stats surface since PR 10
// (MetricIndex::CollectStats(), also what the wire STATS op carries, so
// local and --connect stats print identically). Sections an index never
// exercised are omitted; `indent` nests the per-shard drill-down.
void PrintSnapshotScalars(const StatsSnapshot& s, const char* indent) {
  std::printf("%scost: %llu page accesses, %llu distance computations\n",
              indent, (unsigned long long)s.page_accesses,
              (unsigned long long)s.distance_computations);
  std::printf(
      "%sio: %llu page reads (%llu cache hits, %llu physical), "
      "%llu page writes\n",
      indent, (unsigned long long)s.page_reads,
      (unsigned long long)s.cache_hits, (unsigned long long)s.physical_reads,
      (unsigned long long)s.page_writes);
  std::printf("%sdead bytes: %llu (lazy deletes awaiting compaction)\n",
              indent, (unsigned long long)s.dead_bytes);
  if (s.wal_segment_bytes > 0 || s.wal_next_lsn > 0) {
    std::printf(
        "%swal: %llu segment bytes, checkpoint lsn %llu, %llu pending "
        "records, %llu replayed on open\n",
        indent, (unsigned long long)s.wal_segment_bytes,
        (unsigned long long)s.wal_checkpoint_lsn,
        (unsigned long long)s.wal_pending_records,
        (unsigned long long)s.wal_replayed_records);
  }
  if (s.wq_ops > 0 || s.wq_groups > 0) {
    std::printf(
        "%swrite queue: %llu ops in %llu groups (max group %llu)\n", indent,
        (unsigned long long)s.wq_ops, (unsigned long long)s.wq_groups,
        (unsigned long long)s.wq_max_group);
  }
  if (s.locator_model_present || s.locator_hits > 0 ||
      s.locator_fallbacks > 0) {
    std::printf(
        "%slocator: %s, %llu leaves, %llu internal nodes imaged\n",
        indent, s.locator_model_present ? "model present" : "no model",
        (unsigned long long)s.locator_leaves,
        (unsigned long long)s.locator_internal_nodes);
    std::printf(
        "%slocator counters: %llu hits, %llu fallbacks, %llu stale, "
        "%llu rebuilds\n",
        indent, (unsigned long long)s.locator_hits,
        (unsigned long long)s.locator_fallbacks,
        (unsigned long long)s.locator_stale,
        (unsigned long long)s.locator_rebuilds);
  }
  if (s.planner_planned_knn > 0) {
    std::printf(
        "%splanner: %llu knn planned; routed %llu greedy / "
        "%llu incremental, cutoff off on %llu\n",
        indent, (unsigned long long)s.planner_planned_knn,
        (unsigned long long)s.planner_routed_greedy,
        (unsigned long long)s.planner_routed_incremental,
        (unsigned long long)s.planner_cutoff_disabled);
  }
}

void PrintSnapshot(const StatsSnapshot& s) {
  std::printf("index: %s\nobjects: %llu\nstorage: %.1f KB\nshards: %u\n",
              s.name.c_str(), (unsigned long long)s.num_objects,
              double(s.storage_bytes) / 1024.0, s.num_shards);
  PrintSnapshotScalars(s, "");
  for (size_t sh = 0; sh < s.shards.size(); ++sh) {
    const StatsSnapshot& shard = s.shards[sh];
    std::printf("  shard %zu: %llu objects, %.1f KB\n", sh,
                (unsigned long long)shard.num_objects,
                double(shard.storage_bytes) / 1024.0);
    PrintSnapshotScalars(shard, "    ");
  }
}

// The `compact` command body, shared by both layouts: rewrite the RAF(s)
// into SFC order, dropping the dead-byte debt, and checkpoint.
template <typename Index>
int RunCompact(Index* index) {
  const uint64_t before =
      index->io_stats().dead_bytes.load(std::memory_order_relaxed);
  const Status s = index->Compact();
  if (!s.ok()) {
    std::fprintf(stderr, "compact failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("compacted: reclaimed %llu dead bytes, %.1f KB on disk\n",
              (unsigned long long)before,
              double(index->storage_bytes()) / 1024.0);
  return 0;
}

// Lock-contention counters accumulated over this process's work (open,
// queries, compaction). Zero-acquire locks are omitted; the histogram is
// summarized as the worst waited bucket (docs/OPERATIONS.md §"Reading
// contention counters").
void PrintContentionStats() {
  bool any = false;
  for (const LockStatsSnapshot& l : ContentionSnapshot()) {
    if (l.acquires == 0) continue;
    if (!any) std::printf("lock contention (this process):\n");
    any = true;
    int worst = -1;
    for (size_t b = 0; b < kContentionBuckets; ++b) {
      if (l.wait_hist[b] > 0) worst = int(b);
    }
    std::printf("  %-18s %10llu acquires, %8llu contended, %8.3f ms "
                "waited%s%s\n",
                l.name.c_str(), (unsigned long long)l.acquires,
                (unsigned long long)l.contended, l.wait_ns / 1e6,
                worst >= 0 ? ", worst bucket us 2^" : "",
                worst >= 0 ? std::to_string(worst).c_str() : "");
  }
}

// Common stats header shared by the plain and sharded layouts; `index` is
// SpbTree or ShardedSpbTree (both expose size/storage_bytes/space).
template <typename Index>
void PrintCommonStats(const Index& index) {
  std::printf("objects: %llu\nstorage: %.1f KB\npivots: %zu\n"
              "curve bits/dim: %d\ncells/dim: %u\n",
              (unsigned long long)index.size(),
              double(index.storage_bytes()) / 1024.0,
              index.space().pivots().size(), index.space().curve().bits(),
              index.space().discretizer().num_cells());
}

// The knn/range loop, shared by both layouts through the MetricIndex
// surface.
int RunQuery(const Args& args, MetricIndex* index) {
  Status s;
  Blob q;
  if (!ParseObject(args, args.query, &q)) {
    std::fprintf(stderr, "cannot parse --query under metric %s\n",
                 args.metric.c_str());
    return 1;
  }
  // --cold measures the paper's protocol: drop both LRU pools and zero the
  // cumulative counters before the (repeated) query runs.
  if (args.cold) {
    index->FlushCaches();
    index->ResetCounters();
  }
  const size_t repeat = args.repeat == 0 ? 1 : args.repeat;
  const IoStats io_before = index->io_stats();
  QueryStats totals;
  for (size_t rep = 0; rep < repeat; ++rep) {
    if (args.cold) index->FlushCaches();
    QueryStats stats;
    const bool last = rep + 1 == repeat;
    if (args.command == "knn") {
      std::vector<Neighbor> result;
      s = index->KnnQuery(q, args.k, &result, &stats);
      if (!s.ok()) {
        std::fprintf(stderr, "query failed: %s\n", s.ToString().c_str());
        return 1;
      }
      if (last) {
        for (const Neighbor& n : result) {
          std::printf("id=%u distance=%.6g\n", n.id, n.distance);
        }
      }
    } else {  // range
      std::vector<ObjectId> result;
      s = index->RangeQuery(q, args.r, &result, &stats);
      if (!s.ok()) {
        std::fprintf(stderr, "query failed: %s\n", s.ToString().c_str());
        return 1;
      }
      if (last) {
        for (ObjectId id : result) std::printf("id=%u\n", id);
      }
    }
    totals += stats;
  }
  const IoStats io_after = index->io_stats();
  const double per = 1.0 / double(repeat);
  std::fprintf(stderr,
               "[%s%.1f distance computations, %.1f page accesses, "
               "%.2f ms/query over %zu run(s)]\n",
               args.cold ? "cold, " : "",
               double(totals.distance_computations) * per,
               double(totals.page_accesses) * per,
               totals.elapsed_seconds * 1000.0 * per, repeat);
  std::fprintf(stderr, "[io: %llu physical reads]\n",
               (unsigned long long)(io_after.physical_reads.load() -
                                    io_before.physical_reads.load()));
  PrintContentionStats();
  return 0;
}

// `serve` blocks until SIGINT/SIGTERM.
volatile std::sig_atomic_t g_stop_serving = 0;
void HandleStopSignal(int) { g_stop_serving = 1; }

// The `serve` command body: one executor pool over the opened index, one
// TCP server multiplexing every connection onto it (docs/PROTOCOL.md).
int Serve(const Args& args, MetricIndex* index) {
  QueryExecutor exec(index, args.threads == 0 ? 1 : args.threads);
  net::ServerOptions sopts;
  sopts.port = args.port;
  sopts.num_dispatchers = args.dispatchers;
  net::Server server(&exec, sopts);
  Status s = server.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "serve failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  std::printf("serving %s on %s:%u (%zu executor threads, %zu dispatchers); "
              "Ctrl-C to stop\n",
              index->name().c_str(), sopts.host.c_str(), server.port(),
              exec.num_threads(), sopts.num_dispatchers);
  std::fflush(stdout);
  while (g_stop_serving == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.Stop();
  const net::ServerStats ss = server.stats();
  std::printf("served %llu ops over %llu connections (%llu frames in, "
              "%llu out, %llu busy-rejected, %llu protocol errors)\n",
              (unsigned long long)ss.ops_executed,
              (unsigned long long)ss.connections_accepted,
              (unsigned long long)ss.frames_received,
              (unsigned long long)ss.frames_sent,
              (unsigned long long)ss.ops_rejected_busy,
              (unsigned long long)ss.protocol_errors);
  return 0;
}

// Runs knn/range/stats/ping against a running server (--connect=host:port)
// through the blocking client. Same output shape as the local commands.
int Remote(const Args& args) {
  const size_t colon = args.connect.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "--connect wants host:port, got %s\n",
                 args.connect.c_str());
    return 2;
  }
  const std::string host = args.connect.substr(0, colon);
  const uint16_t port = uint16_t(std::atoi(args.connect.c_str() + colon + 1));
  net::Client client;
  Status s = client.Connect(host, port);
  if (!s.ok()) {
    std::fprintf(stderr, "connect failed: %s\n", s.ToString().c_str());
    return 1;
  }
  if (args.command == "ping") {
    s = client.Ping();
    if (!s.ok()) {
      std::fprintf(stderr, "ping failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("pong from %s\n", args.connect.c_str());
    return 0;
  }
  if (args.command == "stats") {
    StatsSnapshot snapshot;
    s = client.CollectStats(&snapshot);
    if (!s.ok()) {
      std::fprintf(stderr, "stats failed: %s\n", s.ToString().c_str());
      return 1;
    }
    PrintSnapshot(snapshot);
    return 0;
  }
  Blob q;
  if (!ParseObject(args, args.query, &q)) {
    std::fprintf(stderr, "cannot parse --query under metric %s\n",
                 args.metric.c_str());
    return 1;
  }
  if (args.command == "knn") {
    std::vector<Neighbor> result;
    s = client.Knn(q, args.k, &result);
    if (!s.ok()) {
      std::fprintf(stderr, "query failed: %s\n", s.ToString().c_str());
      return 1;
    }
    for (const Neighbor& n : result) {
      std::printf("id=%u distance=%.6g\n", n.id, n.distance);
    }
    return 0;
  }
  if (args.command == "range") {
    std::vector<ObjectId> result;
    s = client.Range(q, args.r, &result);
    if (!s.ok()) {
      std::fprintf(stderr, "query failed: %s\n", s.ToString().c_str());
      return 1;
    }
    for (ObjectId id : result) std::printf("id=%u\n", id);
    return 0;
  }
  std::fprintf(stderr, "command %s does not support --connect\n",
               args.command.c_str());
  return 2;
}

int Query(const Args& args, const DistanceFunction* metric) {
  SpbTreeOptions options;
  options.enable_learned_locator = args.learned;
  options.enable_planner = args.learned;
  // The on-disk layout picks the engine: a shards.spb manifest means the
  // directory holds an SFC-range-sharded index.
  if (ShardedSpbTree::IsShardedDir(args.dir)) {
    options.enable_wal = HasWal(args.dir + "/shard_0");
    std::unique_ptr<ShardedSpbTree> index;
    Status s = ShardedSpbTree::Open(args.dir, metric, options, &index);
    if (!s.ok()) {
      std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
      return 1;
    }
    if (args.command == "compact") return RunCompact(index.get());
    if (args.command == "stats") {
      PrintCommonStats(*index);
      PrintSnapshot(index->CollectStats());
      PrintContentionStats();
      return 0;
    }
    if (args.command == "serve") return Serve(args, index.get());
    return RunQuery(args, index.get());
  }

  options.enable_wal = HasWal(args.dir);
  std::unique_ptr<SpbTree> index;
  Status s = SpbTree::Open(args.dir, metric, options, &index);
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 1;
  }
  if (args.command == "compact") return RunCompact(index.get());
  if (args.command == "stats") {
    PrintCommonStats(*index);
    std::printf("precision: %.3f\n", index->cost_model().precision());
    PrintSnapshot(index->CollectStats());
    PrintContentionStats();
    return 0;
  }
  if (args.command == "serve") return Serve(args, index.get());
  return RunQuery(args, index.get());
}

int Main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, &args)) {
    std::fprintf(
        stderr,
        "usage: spb_cli <build|knn|range|stats|compact|serve|ping> "
        "--dir=PATH | --connect=HOST:PORT [--metric=edit|"
        "l2|l5|hamming|dna] [--input=FILE] [--query=Q] [--r=R] [--k=K] "
        "[--dim=D] [--pivots=P] [--shards=S] [--repeat=N] [--cold] "
        "[--learned] [--port=P] [--threads=T] "
        "[--dispatchers=D]\n");
    return 2;
  }
  if (!args.connect.empty()) {
    if (args.command == "knn" || args.command == "range" ||
        args.command == "stats" || args.command == "ping") {
      return Remote(args);
    }
    std::fprintf(stderr, "command %s does not support --connect\n",
                 args.command.c_str());
    return 2;
  }
  auto metric = MakeMetric(args);
  if (metric == nullptr) {
    std::fprintf(stderr, "unknown metric: %s\n", args.metric.c_str());
    return 2;
  }
  if (args.command == "build") return Build(args, metric.get());
  if (args.command == "knn" || args.command == "range" ||
      args.command == "stats" || args.command == "compact" ||
      args.command == "serve") {
    return Query(args, metric.get());
  }
  std::fprintf(stderr, "unknown command: %s\n", args.command.c_str());
  return 2;
}

}  // namespace
}  // namespace cli
}  // namespace spb

int main(int argc, char** argv) { return spb::cli::Main(argc, argv); }
