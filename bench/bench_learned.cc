// PR 9 bench: learned leaf locator + cost-model query planner.
//
// Full run (default): interleaved A/B warm-path QPS best-of-trials with the
// locator off vs on — point lookups (r=0 on member objects) and kNN — with
// per-query byte-identity asserted (results AND compdists), plus the
// B+-tree node-touch drop the locator exists for; then the planner section:
// kAuto routing vs each static traversal on fig12/fig13-style workloads
// (radius sweep, k sweep). Emits BENCH_PR9.json (schema:
// docs/OPERATIONS.md §"BENCH_PR9.json").
//
// The locator A/B runs with the decoded-node cache *disabled*
// (node_cache_entries=0): that is the decode-bound regime the locator
// targets — classic descent re-decodes height+1 nodes per lookup, the
// locator serves every inner node from its prebuilt image and decodes only
// the destination leaf. Both arms share the regime, so the comparison is
// like-for-like; the planner section runs with default caches.
//
// --identity-only: the tier-1 `learned_sweep` ctest gate. Runs the 2x2
// {locator} x {planner} matrix on a flat tree plus S in {1,4} sharded trees
// with both knobs on, asserting per-query result/compdist identity against
// the baseline tree (abort on mismatch). Small scale, no JSON.
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "core/sharded_spb_tree.h"
#include "core/spb_tree.h"

namespace spb {
namespace bench {
namespace {

// 9 interleaved trials per arm: this box exposes a single CPU and carries
// bursty background load, so any one trial can lose whole timeslices. With
// best-of aggregation (see Best below), 9 trials make a clean window per
// arm near-certain.
constexpr size_t kTrials = 9;


// Best-of-trials (max qps). External interference only ever slows a trial
// down, so taking the best of an interleaved A/B — symmetrically for both
// arms — rejects that noise; medians of the ~0.7 s kNN passes still swing
// +/-10% run to run on shared hardware.
double Best(const std::vector<double>& v) {
  return *std::max_element(v.begin(), v.end());
}

// Tightest possible A/B ratio: alternate the two arms per query and compare
// accumulated wall time (returns arm_b qps / arm_a qps). Steal-time bursts
// on this VM last ~0.5-1 s while single queries take at most tens of ms, so
// a burst inflates both arms nearly equally and the ratio converges even
// when absolute qps swings 2x run to run. The order within a pass flips
// every repetition to cancel any residual first-runner bias.
template <typename ArmA, typename ArmB>
double QueryPairedRatio(const std::vector<Blob>& queries, ArmA&& arm_a,
                        ArmB&& arm_b) {
  constexpr double kMinTotalSeconds = 3.0;
  double ta = 0.0, tb = 0.0;
  bool a_first = true;
  auto timed = [](auto&& fn, const Blob& q) {
    const auto t0 = std::chrono::steady_clock::now();
    fn(q);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  do {
    for (const Blob& q : queries) {
      if (a_first) {
        ta += timed(arm_a, q);
        tb += timed(arm_b, q);
      } else {
        tb += timed(arm_b, q);
        ta += timed(arm_a, q);
      }
    }
    a_first = !a_first;
  } while (ta + tb < kMinTotalSeconds);
  return ta / tb;
}

SpbTreeOptions BaseOptions(uint64_t seed) {
  SpbTreeOptions opts;
  opts.num_pivots = 4;
  opts.seed = seed;
  return opts;
}

std::vector<ObjectId> SortedIds(std::vector<ObjectId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

void Check(bool ok, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "IDENTITY VIOLATION: %s\n", what);
  std::abort();
}

// Repeats one warm query pass until the wall clock accumulates at least
// kMinTrialSeconds, so a trial is never a sub-millisecond timer-noise
// sample; returns QPS over everything that ran. 0.5 s is longer than the
// steal-time bursts this VM sees, so each trial averages over the bursts
// rather than landing bimodally inside or outside one.
constexpr double kMinTrialSeconds = 0.5;

template <typename Pass>
double TimedQps(size_t queries_per_pass, Pass&& pass) {
  const auto t0 = std::chrono::steady_clock::now();
  size_t done = 0;
  double elapsed = 0.0;
  do {
    pass();
    done += queries_per_pass;
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count();
  } while (elapsed < kMinTrialSeconds);
  return double(done) / elapsed;
}

// Warm point lookups (r=0 on members).
double PointPass(SpbTree& tree, const std::vector<Blob>& queries) {
  std::vector<ObjectId> ids;
  return TimedQps(queries.size(), [&] {
    for (const Blob& q : queries) {
      if (!tree.RangeQuery(q, 0.0, &ids).ok()) std::abort();
    }
  });
}

// Warm kNN with an explicit traversal (bypasses the planner).
double KnnPass(SpbTree& tree, const std::vector<Blob>& queries, size_t k,
               KnnTraversal traversal) {
  std::vector<Neighbor> nn;
  return TimedQps(queries.size(), [&] {
    for (const Blob& q : queries) {
      if (!tree.KnnQuery(q, k, &nn, nullptr, traversal).ok()) std::abort();
    }
  });
}

// kAuto through the 3-arg default — the planner routes (when enabled).
double KnnAutoPass(SpbTree& tree, const std::vector<Blob>& queries, size_t k) {
  std::vector<Neighbor> nn;
  return TimedQps(queries.size(), [&] {
    for (const Blob& q : queries) {
      if (!tree.KnnQuery(q, k, &nn).ok()) std::abort();
    }
  });
}

double RangePass(SpbTree& tree, const std::vector<Blob>& queries, double r) {
  std::vector<ObjectId> ids;
  return TimedQps(queries.size(), [&] {
    for (const Blob& q : queries) {
      if (!tree.RangeQuery(q, r, &ids).ok()) std::abort();
    }
  });
}

uint64_t NodeTouches(const SpbTree& tree) {
  const IoStats io = tree.io_stats();
  return io.page_reads.load() + io.cache_hits.load();
}

// Per-query identity of tree B against tree A: same results, same
// compdists, across point lookups, radii and both kNN traversals.
void AssertIdentity(SpbTree& a, SpbTree& b, const std::vector<Blob>& queries,
                    const char* label) {
  for (const Blob& q : queries) {
    QueryStats sa, sb;
    for (double r : {0.0, 0.1, 0.3}) {
      std::vector<ObjectId> ra, rb;
      if (!a.RangeQuery(q, r, &ra, &sa).ok()) std::abort();
      if (!b.RangeQuery(q, r, &rb, &sb).ok()) std::abort();
      Check(SortedIds(ra) == SortedIds(rb), label);
      Check(sa.distance_computations == sb.distance_computations, label);
    }
    for (KnnTraversal t :
         {KnnTraversal::kIncremental, KnnTraversal::kGreedy}) {
      std::vector<Neighbor> na, nb;
      if (!a.KnnQuery(q, 10, &na, &sa, t).ok()) std::abort();
      if (!b.KnnQuery(q, 10, &nb, &sb, t).ok()) std::abort();
      Check(na == nb, label);
      Check(sa.distance_computations == sb.distance_computations, label);
    }
  }
}

// ---------------------------------------------------------------------------
// --identity-only: the learned_sweep ctest body.
int RunIdentitySweep(const BenchConfig& config) {
  Dataset ds = MakeSynthetic(config.scale, config.seed);
  const auto queries = QueryWorkload(ds, config.queries);
  std::unique_ptr<SpbTree> base;
  if (!SpbTree::Build(ds.objects, ds.metric.get(), BaseOptions(config.seed),
                      &base)
           .ok()) {
    std::abort();
  }

  // 2x2 knob matrix on the flat tree (off/off is the baseline itself).
  for (int loc = 0; loc <= 1; ++loc) {
    for (int plan = 0; plan <= 1; ++plan) {
      if (loc == 0 && plan == 0) continue;
      SpbTreeOptions opts = BaseOptions(config.seed);
      opts.enable_learned_locator = (loc == 1);
      opts.enable_planner = (plan == 1);
      std::unique_ptr<SpbTree> tree;
      if (!SpbTree::Build(ds.objects, ds.metric.get(), opts, &tree).ok()) {
        std::abort();
      }
      char label[64];
      std::snprintf(label, sizeof(label), "flat locator=%d planner=%d", loc,
                    plan);
      AssertIdentity(*base, *tree, queries, label);
      // The planner's own routing must return the same neighbours too
      // (compdists match whichever static it resolved to — checked in
      // tests/learned_test.cc; here the result identity is the gate).
      for (const Blob& q : queries) {
        std::vector<Neighbor> na, nb;
        if (!base->KnnQuery(q, 10, &na).ok()) std::abort();
        if (!tree->KnnQuery(q, 10, &nb).ok()) std::abort();
        Check(na == nb, label);
      }
      if (loc == 1) {
        const StatsSnapshot ls = tree->CollectStats();
        Check(ls.locator_model_present, "locator model missing");
        Check(ls.locator_hits > 0, "locator never consulted");
      }
    }
  }

  // Sharded routing with both knobs on: results identical to the flat
  // baseline (S=1 byte-identical incl. compdists; S=4 result-identical,
  // kNN distance-identical).
  for (size_t S : {size_t{1}, size_t{4}}) {
    SpbTreeOptions opts = BaseOptions(config.seed);
    opts.enable_learned_locator = true;
    opts.enable_planner = true;
    opts.num_shards = S;
    std::unique_ptr<ShardedSpbTree> sharded;
    if (!ShardedSpbTree::Build(ds.objects, ds.metric.get(), opts, &sharded)
             .ok()) {
      std::abort();
    }
    for (const Blob& q : queries) {
      std::vector<ObjectId> ra, rb;
      for (double r : {0.0, 0.2}) {
        if (!base->RangeQuery(q, r, &ra).ok()) std::abort();
        if (!sharded->RangeQuery(q, r, &rb).ok()) std::abort();
        Check(SortedIds(ra) == SortedIds(rb), "sharded range identity");
      }
      std::vector<Neighbor> na, nb;
      if (!base->KnnQuery(q, 10, &na).ok()) std::abort();
      if (!sharded->KnnQuery(q, 10, &nb).ok()) std::abort();
      Check(na.size() == nb.size(), "sharded knn size");
      for (size_t i = 0; i < na.size(); ++i) {
        Check(na[i].distance == nb[i].distance, "sharded knn distance");
      }
    }
  }
  std::printf("learned identity sweep: PASS (scale=%zu queries=%zu)\n",
              config.scale, config.queries);
  return 0;
}

// ---------------------------------------------------------------------------
int RunFull(const BenchConfig& config) {
  std::printf("PR 9: learned leaf locator + cost-model planner\n");
  std::printf("scale=%zu queries=%zu trials=%zu\n\n", config.scale,
              config.queries, kTrials);
  Dataset ds = MakeSynthetic(config.scale, config.seed);
  const auto queries = QueryWorkload(ds, config.queries);

  // ---- Locator A/B: decode-bound regime (node cache off), warm passes.
  SpbTreeOptions off_opts = BaseOptions(config.seed);
  off_opts.node_cache_entries = 0;
  SpbTreeOptions on_opts = off_opts;
  on_opts.enable_learned_locator = true;
  std::unique_ptr<SpbTree> off, on;
  if (!SpbTree::Build(ds.objects, ds.metric.get(), off_opts, &off).ok()) {
    std::abort();
  }
  if (!SpbTree::Build(ds.objects, ds.metric.get(), on_opts, &on).ok()) {
    std::abort();
  }
  AssertIdentity(*off, *on, queries, "locator A/B");

  // Node-touch drop over one identical single pass each (warm; RAF
  // behaviour is identical, so the whole delta is inner-node descent work).
  off->ResetCounters();
  on->ResetCounters();
  {
    std::vector<ObjectId> ids;
    std::vector<Neighbor> nn;
    for (const Blob& q : queries) {
      if (!off->RangeQuery(q, 0.0, &ids).ok()) std::abort();
      if (!on->RangeQuery(q, 0.0, &ids).ok()) std::abort();
      if (!off->KnnQuery(q, 10, &nn, nullptr, KnnTraversal::kIncremental)
               .ok()) {
        std::abort();
      }
      if (!on->KnnQuery(q, 10, &nn, nullptr, KnnTraversal::kIncremental)
               .ok()) {
        std::abort();
      }
    }
  }
  const uint64_t touches_off = NodeTouches(*off);
  const uint64_t touches_on = NodeTouches(*on);

  // The full shipped configuration (locator + planner, kAuto routing) vs
  // the all-defaults baseline: this is the system the PR turns on, and the
  // headline kNN number. The isolated locator rows below keep the planner
  // out so the inner-node elision is measured alone.
  SpbTreeOptions sys_opts = on_opts;
  sys_opts.enable_planner = true;
  std::unique_ptr<SpbTree> sys;
  if (!SpbTree::Build(ds.objects, ds.metric.get(), sys_opts, &sys).ok()) {
    std::abort();
  }
  KnnAutoPass(*sys, queries, 10);  // warm + let the routing EMAs converge

  std::vector<double> point_off, point_on, knn1_off, knn1_on, knn10_off,
      knn10_on, sys10;
  for (size_t t = 0; t < kTrials; ++t) {  // interleaved A/B
    point_off.push_back(PointPass(*off, queries));
    point_on.push_back(PointPass(*on, queries));
    knn1_off.push_back(KnnPass(*off, queries, 1, KnnTraversal::kIncremental));
    knn1_on.push_back(KnnPass(*on, queries, 1, KnnTraversal::kIncremental));
    knn10_off.push_back(
        KnnPass(*off, queries, 10, KnnTraversal::kIncremental));
    knn10_on.push_back(KnnPass(*on, queries, 10, KnnTraversal::kIncremental));
    sys10.push_back(KnnAutoPass(*sys, queries, 10));
  }
  const double p_off = Best(point_off), p_on = Best(point_on);
  const double k_off = Best(knn1_off), k_on = Best(knn1_on);
  const double k10_off = Best(knn10_off), k10_on = Best(knn10_on);
  const double s10 = Best(sys10);
  const StatsSnapshot ls = on->CollectStats();

  // Gate speedups come from query-paired time ratios (see QueryPairedRatio):
  // the qps columns above are best-of-trials for display, but quotients of
  // independently-measured arms still flap on this box; pairing does not.
  std::vector<ObjectId> rq_ids;
  std::vector<Neighbor> rq_nn;
  const double r_point = QueryPairedRatio(
      queries,
      [&](const Blob& q) {
        if (!off->RangeQuery(q, 0.0, &rq_ids).ok()) std::abort();
      },
      [&](const Blob& q) {
        if (!on->RangeQuery(q, 0.0, &rq_ids).ok()) std::abort();
      });
  auto knn_ratio = [&](SpbTree& a, SpbTree& b, size_t k, bool b_auto) {
    return QueryPairedRatio(
        queries,
        [&](const Blob& q) {
          if (!a.KnnQuery(q, k, &rq_nn, nullptr, KnnTraversal::kIncremental)
                   .ok()) {
            std::abort();
          }
        },
        [&](const Blob& q) {
          const Status s =
              b_auto ? b.KnnQuery(q, k, &rq_nn)
                     : b.KnnQuery(q, k, &rq_nn, nullptr,
                                  KnnTraversal::kIncremental);
          if (!s.ok()) std::abort();
        });
  };
  const double r_k1 = knn_ratio(*off, *on, 1, false);
  const double r_k10 = knn_ratio(*off, *on, 10, false);
  const double r_sys = knn_ratio(*off, *sys, 10, true);

  PrintRule();
  std::printf("locator A/B (node cache off, warm; qps best of %zu, speedup "
              "query-paired)\n",
              kTrials);
  std::printf("  point r=0 : %9.0f -> %9.0f qps   (%.2fx)\n", p_off, p_on,
              r_point);
  std::printf("  knn k=1   : %9.0f -> %9.0f qps   (%.2fx, locator alone)\n",
              k_off, k_on, r_k1);
  std::printf("  knn k=10  : %9.0f -> %9.0f qps   (%.2fx, locator alone: "
              "verification-bound)\n",
              k10_off, k10_on, r_k10);
  std::printf("  knn k=10  : %9.0f -> %9.0f qps   (%.2fx, full system: "
              "locator + planner kAuto)\n",
              k10_off, s10, r_sys);
  std::printf("  node touches: %" PRIu64 " -> %" PRIu64 "  (identical passes)\n",
              touches_off, touches_on);
  std::printf("  model: %zu leaves, hits=%" PRIu64 ", fallbacks=%" PRIu64
              "\n",
              size_t(ls.locator_leaves), ls.locator_hits, ls.locator_fallbacks);

  // ---- Planner vs static configs, default caches.
  SpbTreeOptions plan_opts = BaseOptions(config.seed);
  plan_opts.enable_planner = true;
  std::unique_ptr<SpbTree> planned, classic;
  if (!SpbTree::Build(ds.objects, ds.metric.get(), plan_opts, &planned).ok()) {
    std::abort();
  }
  if (!SpbTree::Build(ds.objects, ds.metric.get(), BaseOptions(config.seed),
                      &classic)
           .ok()) {
    std::abort();
  }

  // ratio (vs the per-workload best static) carries the no-regression gate:
  // the planner can only tie a per-workload best, never beat it, so "the
  // planner wins" is measured against the OTHER static — the config a user
  // without a planner could just as well have fixed globally. Beating it by
  // >1.05x while staying >=0.95x of the best is what routing buys.
  struct Workload {
    std::string name;
    double qps_best_static = 0.0;
    std::string best_static;
    double qps_other_static = 0.0;  // 0 when only one static exists
    double qps_planner = 0.0;
    double ratio = 0.0;
  };
  std::vector<Workload> workloads;

  // fig13-style: k sweep; statics are the two traversals with the planner
  // bypassed (explicit arg), the planner arm is kAuto on the same tree.
  for (size_t k : {size_t{2}, size_t{10}, size_t{30}}) {
    std::vector<double> inc, grd, aut;
    KnnPass(*planned, queries, k, KnnTraversal::kIncremental);  // warm
    for (size_t t = 0; t < kTrials; ++t) {
      inc.push_back(KnnPass(*planned, queries, k, KnnTraversal::kIncremental));
      grd.push_back(KnnPass(*planned, queries, k, KnnTraversal::kGreedy));
      aut.push_back(KnnAutoPass(*planned, queries, k));
    }
    Workload w;
    w.name = "fig13_knn_k" + std::to_string(k);
    const double mi = Best(inc), mg = Best(grd);
    w.qps_best_static = std::max(mi, mg);
    w.best_static = mi >= mg ? "incremental" : "greedy";
    w.qps_other_static = std::min(mi, mg);
    w.qps_planner = Best(aut);
    const KnnTraversal best_t =
        mi >= mg ? KnnTraversal::kIncremental : KnnTraversal::kGreedy;
    std::vector<Neighbor> nn;
    w.ratio = QueryPairedRatio(
        queries,
        [&](const Blob& q) {
          if (!planned->KnnQuery(q, k, &nn, nullptr, best_t).ok()) std::abort();
        },
        [&](const Blob& q) {
          if (!planned->KnnQuery(q, k, &nn).ok()) std::abort();
        });
    workloads.push_back(w);
  }

  // fig12-style: radius sweep; the static arm is the planner-off tree (the
  // best static range config: cutoff on, full readahead budget).
  for (double r : {0.05, 0.15, 0.3}) {
    std::vector<double> stat, aut;
    RangePass(*classic, queries, r);  // warm
    RangePass(*planned, queries, r);
    for (size_t t = 0; t < kTrials; ++t) {
      stat.push_back(RangePass(*classic, queries, r));
      aut.push_back(RangePass(*planned, queries, r));
    }
    char name[32];
    std::snprintf(name, sizeof(name), "fig12_range_r%.2f", r);
    Workload w;
    w.name = name;
    w.qps_best_static = Best(stat);
    w.best_static = "cutoff_on";
    w.qps_planner = Best(aut);
    std::vector<ObjectId> ids;
    w.ratio = QueryPairedRatio(
        queries,
        [&](const Blob& q) {
          if (!classic->RangeQuery(q, r, &ids).ok()) std::abort();
        },
        [&](const Blob& q) {
          if (!planned->RangeQuery(q, r, &ids).ok()) std::abort();
        });
    workloads.push_back(w);
  }

  double min_ratio = 1e9;
  size_t wins = 0;
  PrintRule();
  std::printf("planner vs best static (default caches, best of %zu)\n",
              kTrials);
  for (const Workload& w : workloads) {
    min_ratio = std::min(min_ratio, w.ratio);
    if (w.qps_other_static > 0.0 &&
        w.qps_planner > 1.05 * w.qps_other_static) {
      ++wins;
    }
    std::printf("  %-18s best_static=%-11s %9.0f qps | other %9.0f qps"
                " | planner %9.0f qps  (%.3fx of best)\n",
                w.name.c_str(), w.best_static.c_str(), w.qps_best_static,
                w.qps_other_static, w.qps_planner, w.ratio);
  }
  const StatsSnapshot ps = planned->CollectStats();
  std::printf("  routed: %" PRIu64 " greedy / %" PRIu64
              " incremental, cutoff off on %" PRIu64 "\n",
              ps.planner_routed_greedy, ps.planner_routed_incremental,
              ps.planner_cutoff_disabled);

  // ---- Gates.
  PrintRule();
  bool pass = true;
  auto gate = [&](bool ok, const char* what) {
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
    pass = pass && ok;
  };
  gate(r_point >= 1.15, "locator point-lookup speedup >= 1.15x");
  // kNN is leaf-verification-bound at this scale (inner-node decode is
  // ~12-13% of node touches), so the isolated locator is capped near 1.14x;
  // the shipped configuration (locator + planner) carries the 1.15x gate.
  gate(r_k1 >= 1.05, "locator-alone knn (k=1) speedup >= 1.05x");
  gate(r_k10 >= 0.90, "locator-alone knn (k=10) no regression");
  gate(r_sys >= 1.15,
       "system knn (k=10, locator+planner kAuto) speedup >= 1.15x");
  gate(touches_on < touches_off, "locator node touches strictly lower");
  gate(min_ratio >= 0.95, "planner never worse than 0.95x best static");
  gate(wins >= 1, "planner beats the wrong static >1.05x somewhere");

  FILE* json = std::fopen("BENCH_PR9.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n");
    WriteHostJson(json);
    std::fprintf(json, ",\n");
    std::fprintf(json,
                 "  \"bench\": \"learned_locator_planner\",\n"
                 "  \"dataset\": \"synthetic\",\n  \"scale\": %zu,\n"
                 "  \"queries\": %zu,\n  \"trials\": %zu,\n",
                 config.scale, config.queries, kTrials);
    std::fprintf(json,
                 "  \"locator\": {\n"
                 "    \"node_cache_entries\": 0,\n"
                 "    \"leaves\": %" PRIu64 ",\n"
                 "    \"point_qps_off\": %.1f, \"point_qps_on\": %.1f, "
                 "\"point_speedup\": %.3f,\n"
                 "    \"knn1_qps_off\": %.1f, \"knn1_qps_on\": %.1f, "
                 "\"knn1_speedup\": %.3f,\n"
                 "    \"knn10_qps_off\": %.1f, \"knn10_qps_on\": %.1f, "
                 "\"knn10_speedup\": %.3f,\n"
                 "    \"system_knn10_qps\": %.1f, "
                 "\"system_knn10_speedup\": %.3f,\n"
                 "    \"node_touches_off\": %" PRIu64
                 ", \"node_touches_on\": %" PRIu64 ",\n"
                 "    \"identity\": true\n  },\n",
                 ls.locator_leaves, p_off, p_on, r_point,
                 k_off, k_on, r_k1, k10_off, k10_on, r_k10,
                 s10, r_sys, touches_off, touches_on);
    std::fprintf(json, "  \"planner\": {\n    \"workloads\": [\n");
    for (size_t i = 0; i < workloads.size(); ++i) {
      const Workload& w = workloads[i];
      std::fprintf(json,
                   "      {\"name\": \"%s\", \"best_static\": \"%s\", "
                   "\"qps_best_static\": %.1f, \"qps_other_static\": %.1f, "
                   "\"qps_planner\": %.1f, \"ratio\": %.3f}%s\n",
                   w.name.c_str(), w.best_static.c_str(), w.qps_best_static,
                   w.qps_other_static, w.qps_planner, w.ratio,
                   i + 1 < workloads.size() ? "," : "");
    }
    std::fprintf(json,
                 "    ],\n    \"min_ratio\": %.3f, \"wins\": %zu,\n"
                 "    \"routed_greedy\": %" PRIu64
                 ", \"routed_incremental\": %" PRIu64
                 ", \"cutoff_disabled\": %" PRIu64 "\n  },\n",
                 min_ratio, wins, ps.planner_routed_greedy,
                 ps.planner_routed_incremental, ps.planner_cutoff_disabled);
    std::fprintf(json, "  \"gates_pass\": %s\n}\n", pass ? "true" : "false");
    std::fclose(json);
    std::printf("wrote BENCH_PR9.json\n");
  }
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace spb

int main(int argc, char** argv) {
  bool identity_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--identity-only") == 0) identity_only = true;
  }
  const spb::bench::BenchConfig config = spb::bench::ParseArgs(
      argc, argv, /*default_scale=*/identity_only ? 2000 : 120000,
      /*default_queries=*/identity_only ? 20 : 50);
  return identity_only ? spb::bench::RunIdentitySweep(config)
                       : spb::bench::RunFull(config);
}
