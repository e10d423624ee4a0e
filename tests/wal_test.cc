// Write-path engine tests: group-commit WAL (storage/wal.h), the writer
// queue (exec/write_queue.h), crash recovery and epoch-safe compaction
// (PR 7). The load-bearing property is *recovery fidelity*: a tree reopened
// after a crash at any kill point of the matrix must be byte-identical — in
// query results, logical PA and compdists — to a never-crashed twin that
// applied exactly the durable prefix of the write sequence.
//
// The kill-point tests re-exec this binary as `wal_test --crash-helper
// <mode> <dir>` with SPB_CRASH_POINT set, assert the child died with
// kCrashExitCode at the injected instruction, then reopen the child's files
// and compare against a twin built in-process. The helper runs before
// InitGoogleTest (this file provides its own main), so the child never
// starts the test runner. tools/check.sh also runs this binary under
// ThreadSanitizer and AddressSanitizer (--writes stage).
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/crash_point.h"
#include "common/rng.h"
#include "core/sharded_spb_tree.h"
#include "core/spb_tree.h"
#include "data/datasets.h"
#include "exec/query_executor.h"

namespace spb {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------ shared script
//
// The crash helper (child process) and the twin construction (parent test)
// must agree exactly on the dataset and the logical write sequence; both are
// derived from these deterministic builders.

Dataset MakeWalDataset() { return MakeWords(500, 77); }

SpbTreeOptions WalOptions(const std::string& dir) {
  SpbTreeOptions opts;
  opts.storage_dir = dir;
  opts.enable_wal = true;
  opts.enable_group_commit = true;
  opts.wal_group_max = 8;
  return opts;
}

struct WalOp {
  bool is_delete;
  Blob obj;
  ObjectId id;
};

// 12 ops: 8 inserts of fresh objects (applied as ONE batch, so they commit
// as one multi-record group — the group-fsync kill points then exercise
// torn-group prefix replay), followed by 4 single deletes of build objects.
std::vector<WalOp> MakeWalOps(const Dataset& ds) {
  std::vector<WalOp> ops;
  for (size_t i = 0; i < 8; ++i) {
    ops.push_back({false, BlobFromString("walrecord" + std::to_string(i)),
                   ObjectId(10000 + i)});
  }
  for (size_t i = 0; i < 4; ++i) {
    ops.push_back({true, ds.objects[i * 7], ObjectId(i * 7)});
  }
  return ops;
}

// Applies ops[0..count) one at a time — the twin-side replay of a durable
// prefix. Per-record application is identical to the helper's batched form
// (a group applies its records sequentially in submission order).
Status ApplyOps(SpbTree* tree, const std::vector<WalOp>& ops, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    if (ops[i].is_delete) {
      bool found = false;
      SPB_RETURN_IF_ERROR(tree->Delete(ops[i].obj, ops[i].id, &found));
    } else {
      SPB_RETURN_IF_ERROR(tree->Insert(ops[i].obj, ops[i].id));
    }
  }
  return Status::OK();
}

// The helper-side form: the 8 inserts as one BatchInsert (one commit group),
// then the deletes individually. Logical record sequence == MakeWalOps order.
// `found` (optional) collects each delete's found flag.
Status ApplyOpsBatched(SpbTree* tree, const std::vector<WalOp>& ops,
                       std::vector<bool>* found = nullptr) {
  std::vector<Blob> objs;
  std::vector<ObjectId> ids;
  for (size_t i = 0; i < 8; ++i) {
    objs.push_back(ops[i].obj);
    ids.push_back(ops[i].id);
  }
  SPB_RETURN_IF_ERROR(tree->BatchInsert(objs, ids));
  for (size_t i = 8; i < ops.size(); ++i) {
    bool f = false;
    SPB_RETURN_IF_ERROR(tree->Delete(ops[i].obj, ops[i].id, &f));
    if (found != nullptr) found->push_back(f);
  }
  return Status::OK();
}

// ------------------------------------------------------------- crash helper

// Child body for the kill-point matrix. Exit codes other than kCrashExitCode
// mean the script itself failed before reaching the kill point.
int RunCrashHelper(const std::string& mode, const std::string& dir) {
  Dataset ds = MakeWalDataset();
  fs::remove_all(dir);
  std::unique_ptr<SpbTree> tree;
  if (!SpbTree::Build(ds.objects, ds.metric.get(), WalOptions(dir), &tree)
           .ok()) {
    return 3;
  }
  const std::vector<WalOp> ops = MakeWalOps(ds);
  if (mode == "wal") {
    // Checkpoint first, then crash inside the first group's AppendGroup.
    if (!tree->Save().ok()) return 4;
    if (!ApplyOpsBatched(tree.get(), ops).ok()) return 5;
  } else if (mode == "ckpt") {
    // Accumulate the whole op log, then crash inside Save between the meta
    // write and the WAL truncate: replay re-applies already-applied records.
    if (!ApplyOpsBatched(tree.get(), ops).ok()) return 5;
    if (!tree->Save().ok()) return 4;
  } else if (mode == "compact") {
    // Build churn, checkpoint (WAL empty at the crash), then crash around
    // the compaction's rename swap.
    for (size_t i = 0; i < ds.objects.size(); i += 3) {
      bool found = false;
      if (!tree->Delete(ds.objects[i], ObjectId(i), &found).ok()) return 6;
    }
    if (!tree->Save().ok()) return 4;
    if (!tree->Compact().ok()) return 7;
  } else {
    return 2;
  }
  return 0;  // the kill point never fired
}

// Spawns the helper with SPB_CRASH_POINT=`point` and asserts it died at the
// injected instruction.
void RunCrashChild(const std::string& point, const std::string& mode,
                   const std::string& dir) {
  const std::string exe = fs::read_symlink("/proc/self/exe").string();
  const std::string cmd = "SPB_CRASH_POINT=" + point + " \"" + exe +
                          "\" --crash-helper " + mode + " \"" + dir + "\"";
  const int rc = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(rc)) << point << ": child did not exit normally";
  ASSERT_EQ(WEXITSTATUS(rc), kCrashExitCode)
      << point << ": child exited " << WEXITSTATUS(rc)
      << " (crash point never fired, or the script failed before it)";
}

// ------------------------------------------------------------- equivalence

// Asserts two trees answer an identical query script identically: results,
// and (unless `compare_pa` is cleared) per-query logical PA. compdists are
// always compared. Both trees are cold-started so cache state is equal.
void ExpectSameQueries(SpbTree* a, SpbTree* b, const Dataset& ds,
                       bool compare_pa = true) {
  ASSERT_EQ(a->size(), b->size());
  a->FlushCaches();
  b->FlushCaches();
  Rng rng(5);
  for (int t = 0; t < 8; ++t) {
    const Blob& q = ds.objects[rng.Uniform(ds.objects.size())];
    std::vector<ObjectId> ra, rb;
    QueryStats sa, sb;
    ASSERT_TRUE(a->RangeQuery(q, 2.0, &ra, &sa).ok());
    ASSERT_TRUE(b->RangeQuery(q, 2.0, &rb, &sb).ok());
    std::sort(ra.begin(), ra.end());
    std::sort(rb.begin(), rb.end());
    EXPECT_EQ(ra, rb) << "range results diverge at query " << t;
    EXPECT_EQ(sa.distance_computations, sb.distance_computations)
        << "compdists diverge at query " << t;
    if (compare_pa) {
      EXPECT_EQ(sa.page_accesses, sb.page_accesses)
          << "PA diverges at query " << t;
    }
  }
  for (int t = 0; t < 4; ++t) {
    const Blob& q = ds.objects[rng.Uniform(ds.objects.size())];
    std::vector<Neighbor> na, nb;
    QueryStats sa, sb;
    ASSERT_TRUE(a->KnnQuery(q, 5, &na, &sa).ok());
    ASSERT_TRUE(b->KnnQuery(q, 5, &nb, &sb).ok());
    ASSERT_EQ(na.size(), nb.size());
    for (size_t i = 0; i < na.size(); ++i) {
      EXPECT_EQ(na[i].id, nb[i].id) << "kNN id diverges at query " << t;
      EXPECT_EQ(na[i].distance, nb[i].distance);
    }
    EXPECT_EQ(sa.distance_computations, sb.distance_computations);
    if (compare_pa) {
      EXPECT_EQ(sa.page_accesses, sb.page_accesses);
    }
  }
}

// Asserts exactly ops[0..applied) took effect: inserted objects are findable
// at distance 0 iff their op is in the prefix, deleted ids vanished iff
// theirs is.
void ExpectOpsApplied(SpbTree* tree, const std::vector<WalOp>& ops,
                      size_t applied) {
  for (size_t i = 0; i < ops.size(); ++i) {
    std::vector<ObjectId> got;
    ASSERT_TRUE(tree->RangeQuery(ops[i].obj, 0.0, &got).ok());
    const bool present =
        std::find(got.begin(), got.end(), ops[i].id) != got.end();
    if (ops[i].is_delete) {
      EXPECT_EQ(present, i >= applied) << "delete op " << i;
    } else {
      EXPECT_EQ(present, i < applied) << "insert op " << i;
    }
  }
}

std::string TempDir(const std::string& leaf) {
  return (fs::temp_directory_path() / leaf).string();
}

// ------------------------------------------------------------ group commit

TEST(GroupCommitTest, ConcurrentWritersAllSucceedWithoutBusy) {
  Dataset ds = MakeWalDataset();
  SpbTreeOptions opts;  // in-memory: group commit without a WAL
  opts.enable_group_commit = true;
  opts.wal_group_max = 16;
  std::unique_ptr<SpbTree> tree;
  ASSERT_TRUE(SpbTree::Build(ds.objects, ds.metric.get(), opts, &tree).ok());
  EXPECT_GT(tree->writer_concurrency(), 1u);

  constexpr size_t kWriters = 8;
  constexpr size_t kPerWriter = 32;
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (size_t i = 0; i < kPerWriter; ++i) {
        const size_t n = w * kPerWriter + i;
        const Status s =
            tree->Insert(BlobFromString("gc" + std::to_string(n)),
                         ObjectId(20000 + n));
        // The queue absorbs writer collisions: kBusy must never surface.
        ASSERT_TRUE(s.ok()) << s.ToString();
      }
    });
  }
  for (auto& t : writers) t.join();

  EXPECT_EQ(tree->size(), ds.objects.size() + kWriters * kPerWriter);
  const StatsSnapshot qs = tree->CollectStats();
  EXPECT_EQ(qs.wq_ops, kWriters * kPerWriter);
  EXPECT_GE(qs.wq_groups, 1u);
  EXPECT_LE(qs.wq_groups, qs.wq_ops);
  EXPECT_GE(qs.wq_max_group, 1u);
  EXPECT_LE(qs.wq_max_group, 16u);
  EXPECT_TRUE(tree->CheckIntegrity().ok());
}

TEST(GroupCommitTest, WalStatsAreZeroWhenDisabled) {
  Dataset ds = MakeWalDataset();
  SpbTreeOptions opts;
  std::unique_ptr<SpbTree> tree;
  ASSERT_TRUE(SpbTree::Build(ds.objects, ds.metric.get(), opts, &tree).ok());
  EXPECT_EQ(tree->CollectStats().wal_segment_bytes, 0u);
  EXPECT_EQ(tree->CollectStats().wq_ops, 0u);
  EXPECT_EQ(tree->writer_concurrency(), 1u);
}

// ----------------------------------------------------------------- replay

class WalReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TempDir("spb_wal_replay");
    fs::remove_all(dir_);
    ds_ = MakeWalDataset();
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
  Dataset ds_;
};

TEST_F(WalReplayTest, UncleanCloseReplaysOnOpen) {
  const std::vector<WalOp> ops = MakeWalOps(ds_);
  {
    std::unique_ptr<SpbTree> tree;
    ASSERT_TRUE(
        SpbTree::Build(ds_.objects, ds_.metric.get(), WalOptions(dir_), &tree)
            .ok());
    ASSERT_TRUE(tree->Save().ok());
    ASSERT_TRUE(ApplyOps(tree.get(), ops, ops.size()).ok());
    EXPECT_EQ(tree->CollectStats().wal_pending_records, ops.size());
    // No Save: the tree files still describe the checkpoint state and the
    // ops live only in the log. Destruction is an unclean close.
  }
  std::unique_ptr<SpbTree> reopened;
  ASSERT_TRUE(SpbTree::Open(dir_, ds_.metric.get(), WalOptions(dir_),
                            &reopened)
                  .ok());
  EXPECT_EQ(reopened->CollectStats().wal_replayed_records, ops.size());
  EXPECT_EQ(reopened->size(), ds_.objects.size() + 8 - 4);
  ExpectOpsApplied(reopened.get(), ops, ops.size());
  EXPECT_TRUE(reopened->CheckIntegrity().ok());
}

TEST_F(WalReplayTest, CheckpointTruncatesLog) {
  std::unique_ptr<SpbTree> tree;
  ASSERT_TRUE(
      SpbTree::Build(ds_.objects, ds_.metric.get(), WalOptions(dir_), &tree)
          .ok());
  ASSERT_TRUE(tree->Save().ok());
  const std::vector<WalOp> ops = MakeWalOps(ds_);
  ASSERT_TRUE(ApplyOps(tree.get(), ops, ops.size()).ok());

  StatsSnapshot ws = tree->CollectStats();
  EXPECT_EQ(ws.wal_pending_records, ops.size());
  EXPECT_GT(ws.wal_segment_bytes, 32u);  // header + records
  EXPECT_GT(ws.wal_fsyncs, 0u);

  ASSERT_TRUE(tree->Save().ok());
  ws = tree->CollectStats();
  EXPECT_EQ(ws.wal_pending_records, 0u);
  EXPECT_EQ(ws.wal_segment_bytes, 32u);  // truncated back to the bare header
  EXPECT_EQ(ws.wal_checkpoint_lsn, ws.wal_next_lsn);

  // The checkpointed tree reopens from the files alone (nothing to replay).
  tree.reset();
  std::unique_ptr<SpbTree> reopened;
  ASSERT_TRUE(SpbTree::Open(dir_, ds_.metric.get(), WalOptions(dir_),
                            &reopened)
                  .ok());
  EXPECT_EQ(reopened->CollectStats().wal_replayed_records, 0u);
  ExpectOpsApplied(reopened.get(), ops, ops.size());
}

TEST_F(WalReplayTest, ShardedTreeReplaysEveryShard) {
  SpbTreeOptions opts = WalOptions(dir_);
  opts.num_shards = 2;
  std::unique_ptr<ShardedSpbTree> tree;
  ASSERT_TRUE(
      ShardedSpbTree::Build(ds_.objects, ds_.metric.get(), opts, &tree).ok());
  ASSERT_TRUE(tree->Save().ok());
  for (size_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(tree->Insert(BlobFromString("shardwal" + std::to_string(i)),
                             ObjectId(30000 + i))
                    .ok());
  }
  EXPECT_EQ(tree->CollectStats().wal_pending_records, 16u);
  tree.reset();  // unclean close

  std::unique_ptr<ShardedSpbTree> reopened;
  ASSERT_TRUE(
      ShardedSpbTree::Open(dir_, ds_.metric.get(), opts, &reopened).ok());
  EXPECT_EQ(reopened->CollectStats().wal_replayed_records, 16u);
  EXPECT_EQ(reopened->size(), ds_.objects.size() + 16);
  for (size_t i = 0; i < 16; ++i) {
    std::vector<ObjectId> got;
    ASSERT_TRUE(
        reopened
            ->RangeQuery(BlobFromString("shardwal" + std::to_string(i)), 0.0,
                         &got)
            .ok());
    EXPECT_TRUE(std::find(got.begin(), got.end(), ObjectId(30000 + i)) !=
                got.end())
        << i;
  }
  EXPECT_TRUE(reopened->CheckIntegrity().ok());
}

// ------------------------------------------------- write front-end twins

// ApplyOpsBatched, then an upsert of an inserted id and a delete of a record
// that was never inserted. Appends every delete's found flag to `*found`.
Status ApplyTwinScript(SpbTree* tree, const std::vector<WalOp>& ops,
                       std::vector<bool>* found) {
  SPB_RETURN_IF_ERROR(ApplyOpsBatched(tree, ops, found));
  SPB_RETURN_IF_ERROR(tree->Insert(ops[2].obj, ops[2].id));
  bool f = true;
  SPB_RETURN_IF_ERROR(
      tree->Delete(BlobFromString("neverinserted"), ObjectId(10999), &f));
  found->push_back(f);
  return Status::OK();
}

uint64_t DeadBytes(const SpbTree& tree) {
  return tree.io_stats().dead_bytes.load(std::memory_order_relaxed);
}

// The plain tree's try-lock writes, the commit queue's writes, and the same
// writes replayed from the WAL after an unclean close must leave equal
// trees: found flags, size, dead bytes, query results and compdists. PA is
// not compared: grouped publishes retire and recycle superseded page ids at
// other moments, which moves nodes between pages but never a result.
TEST(WriteFrontEndTest, TryLockQueueAndReplayTwinsAgree) {
  Dataset ds = MakeWalDataset();
  const std::vector<WalOp> ops = MakeWalOps(ds);

  std::unique_ptr<SpbTree> plain;
  ASSERT_TRUE(
      SpbTree::Build(ds.objects, ds.metric.get(), SpbTreeOptions{}, &plain)
          .ok());
  std::vector<bool> plain_found;
  ASSERT_TRUE(ApplyTwinScript(plain.get(), ops, &plain_found).ok());

  SpbTreeOptions gc_opts;
  gc_opts.enable_group_commit = true;
  gc_opts.wal_group_max = 8;
  std::unique_ptr<SpbTree> queued;
  ASSERT_TRUE(
      SpbTree::Build(ds.objects, ds.metric.get(), gc_opts, &queued).ok());
  std::vector<bool> queued_found;
  ASSERT_TRUE(ApplyTwinScript(queued.get(), ops, &queued_found).ok());

  const std::string dir = TempDir("spb_wal_twins");
  fs::remove_all(dir);
  std::vector<bool> logged_found;
  {
    std::unique_ptr<SpbTree> tree;
    ASSERT_TRUE(
        SpbTree::Build(ds.objects, ds.metric.get(), WalOptions(dir), &tree)
            .ok());
    ASSERT_TRUE(tree->Save().ok());
    ASSERT_TRUE(ApplyTwinScript(tree.get(), ops, &logged_found).ok());
    // No Save: destruction is an unclean close, so the reopened tree gets
    // every write from replay.
  }
  std::unique_ptr<SpbTree> replayed;
  ASSERT_TRUE(
      SpbTree::Open(dir, ds.metric.get(), WalOptions(dir), &replayed).ok());
  EXPECT_EQ(replayed->CollectStats().wal_replayed_records, ops.size() + 2);

  EXPECT_EQ(plain_found, (std::vector<bool>{true, true, true, true, false}));
  EXPECT_EQ(queued_found, plain_found);
  EXPECT_EQ(logged_found, plain_found);
  for (SpbTree* twin : {queued.get(), replayed.get()}) {
    EXPECT_EQ(twin->size(), plain->size());
    EXPECT_EQ(DeadBytes(*twin), DeadBytes(*plain));
    ExpectSameQueries(plain.get(), twin, ds, /*compare_pa=*/false);
    EXPECT_TRUE(twin->CheckIntegrity().ok());
  }
  replayed.reset();
  fs::remove_all(dir);
}

// ------------------------------------------------- upsert dead-byte debt

TEST(DeadBytesTest, ReinsertOfExistingIdOrphansOldRecord) {
  Dataset ds = MakeWalDataset();
  // Both write front ends: the writer try-lock and the commit queue.
  for (const bool group_commit : {false, true}) {
    SCOPED_TRACE(group_commit ? "group commit" : "try-lock");
    SpbTreeOptions opts;
    opts.enable_group_commit = group_commit;
    std::unique_ptr<SpbTree> tree;
    ASSERT_TRUE(
        SpbTree::Build(ds.objects, ds.metric.get(), opts, &tree).ok());
    EXPECT_EQ(tree->writer_concurrency() > 1, group_commit);

    const Blob obj = BlobFromString("upserted");
    ASSERT_TRUE(tree->Insert(obj, ObjectId(999)).ok());
    const uint64_t size_before = tree->size();
    const uint64_t dead_before = DeadBytes(*tree);

    // Re-inserting the same id must supersede the old record, not
    // duplicate it: the orphaned record's bytes (8-byte RAF header +
    // payload) join the dead-byte debt and the object count is unchanged.
    ASSERT_TRUE(tree->Insert(obj, ObjectId(999)).ok());
    EXPECT_EQ(tree->size(), size_before);
    EXPECT_EQ(DeadBytes(*tree) - dead_before, 8u + obj.size());

    std::vector<ObjectId> got;
    ASSERT_TRUE(tree->RangeQuery(obj, 0.0, &got).ok());
    EXPECT_EQ(std::count(got.begin(), got.end(), ObjectId(999)), 1);
    EXPECT_TRUE(tree->CheckIntegrity().ok());
  }
}

// ------------------------------------------------------------- compaction

class CompactionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TempDir("spb_wal_compact");
    fs::remove_all(dir_);
    ds_ = MakeWalDataset();
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
  Dataset ds_;
};

TEST_F(CompactionTest, CompactDropsDeadBytesAndPreservesResults) {
  SpbTreeOptions opts;
  opts.storage_dir = dir_;
  std::unique_ptr<SpbTree> tree;
  ASSERT_TRUE(SpbTree::Build(ds_.objects, ds_.metric.get(), opts, &tree).ok());

  // >= 30% churn.
  std::set<ObjectId> deleted;
  for (size_t i = 0; i < ds_.objects.size(); i += 3) {
    bool found = false;
    ASSERT_TRUE(tree->Delete(ds_.objects[i], ObjectId(i), &found).ok());
    ASSERT_TRUE(found) << i;
    deleted.insert(ObjectId(i));
  }
  ASSERT_GT(tree->io_stats().dead_bytes.load(std::memory_order_relaxed), 0u);
  const uint64_t watermark_before = tree->raf().end_offset();

  // Quiesced query script before compaction.
  std::vector<std::vector<ObjectId>> before(10);
  Rng rng(9);
  std::vector<Blob> queries;
  for (size_t t = 0; t < before.size(); ++t) {
    queries.push_back(ds_.objects[rng.Uniform(ds_.objects.size())]);
    ASSERT_TRUE(tree->RangeQuery(queries[t], 2.0, &before[t]).ok());
    std::sort(before[t].begin(), before[t].end());
  }

  // Compaction must not perturb the logical PA/compdists counters: its I/O
  // is raw, outside the buffer pool.
  const QueryStats cum_before = tree->cumulative_stats();
  ASSERT_TRUE(tree->Compact().ok());
  const QueryStats cum_after = tree->cumulative_stats();
  EXPECT_EQ(cum_before.page_accesses, cum_after.page_accesses);
  EXPECT_EQ(cum_before.distance_computations,
            cum_after.distance_computations);

  EXPECT_EQ(tree->io_stats().dead_bytes.load(std::memory_order_relaxed), 0u);
  // The dead records were dropped: the rewritten file's byte watermark
  // shrinks even when the page count does not.
  EXPECT_LT(tree->raf().end_offset(), watermark_before);
  EXPECT_EQ(tree->size(), ds_.objects.size() - deleted.size());

  for (size_t t = 0; t < before.size(); ++t) {
    std::vector<ObjectId> after;
    ASSERT_TRUE(tree->RangeQuery(queries[t], 2.0, &after).ok());
    std::sort(after.begin(), after.end());
    EXPECT_EQ(after, before[t]) << "query " << t;
  }
  EXPECT_TRUE(tree->CheckIntegrity().ok());

  // The compacted tree persists and reopens cleanly.
  ASSERT_TRUE(tree->Save().ok());
  tree.reset();
  std::unique_ptr<SpbTree> reopened;
  ASSERT_TRUE(SpbTree::Open(dir_, ds_.metric.get(), opts, &reopened).ok());
  EXPECT_EQ(reopened->size(), ds_.objects.size() - deleted.size());
  EXPECT_TRUE(reopened->CheckIntegrity().ok());
}

TEST_F(CompactionTest, PinnedSnapshotOutlivesSwap) {
  SpbTreeOptions opts;
  opts.storage_dir = dir_;
  std::unique_ptr<SpbTree> tree;
  ASSERT_TRUE(SpbTree::Build(ds_.objects, ds_.metric.get(), opts, &tree).ok());
  for (size_t i = 0; i < ds_.objects.size(); i += 2) {
    bool found = false;
    ASSERT_TRUE(tree->Delete(ds_.objects[i], ObjectId(i), &found).ok());
  }

  Snapshot pin = tree->AcquireSnapshot();
  const std::shared_ptr<Raf> old_raf = pin.version().raf;
  ASSERT_NE(old_raf, nullptr);

  ASSERT_TRUE(tree->Compact().ok());
  // The swap installed a fresh RAF; the pinned version co-owns the old one,
  // so its file stays alive (and readable) until the pin drains.
  EXPECT_NE(old_raf.get(), &tree->raf());
  EXPECT_GT(old_raf->end_offset(), 0u);
  pin = Snapshot();

  std::vector<Neighbor> knn;
  ASSERT_TRUE(tree->KnnQuery(ds_.objects[1], 5, &knn).ok());
  EXPECT_EQ(knn.size(), 5u);
  EXPECT_TRUE(tree->CheckIntegrity().ok());
}

// Compact() on one thread while four others query: the promise of
// SpbTree::Compact() is that queries keep reading their pinned version's
// old file and never block, so every concurrent answer equals the serial
// one recorded before the swap. tools/check.sh --writes runs this under
// TSan and ASan.
TEST_F(CompactionTest, CompactRacesConcurrentQueries) {
  SpbTreeOptions opts;
  opts.storage_dir = dir_;
  std::unique_ptr<SpbTree> tree;
  ASSERT_TRUE(SpbTree::Build(ds_.objects, ds_.metric.get(), opts, &tree).ok());
  for (size_t i = 0; i < ds_.objects.size(); i += 2) {
    bool found = false;
    ASSERT_TRUE(tree->Delete(ds_.objects[i], ObjectId(i), &found).ok());
  }
  ASSERT_GT(tree->io_stats().dead_bytes.load(std::memory_order_relaxed), 0u);

  // Serial answers before the swap. kNN answers are compared by distance:
  // among neighbours tied at the k-th distance, the compacted tree's leaf
  // boundaries may keep different ids.
  constexpr size_t kK = 8;
  const KnnTraversal kTraversals[] = {KnnTraversal::kGreedy,
                                      KnnTraversal::kIncremental};
  auto distances = [](const std::vector<Neighbor>& nn) {
    std::vector<double> d;
    for (const Neighbor& n : nn) d.push_back(n.distance);
    return d;
  };
  Rng rng(13);
  std::vector<Blob> queries;
  std::vector<std::vector<ObjectId>> want_range;
  std::vector<std::vector<double>> want_knn[2];
  for (int t = 0; t < 12; ++t) {
    queries.push_back(ds_.objects[rng.Uniform(ds_.objects.size())]);
    std::vector<ObjectId> r;
    ASSERT_TRUE(tree->RangeQuery(queries.back(), 2.0, &r).ok());
    std::sort(r.begin(), r.end());
    want_range.push_back(std::move(r));
    for (int m = 0; m < 2; ++m) {
      std::vector<Neighbor> nn;
      ASSERT_TRUE(tree->KnnQuery(queries.back(), kK, &nn, nullptr,
                                 kTraversals[m])
                      .ok());
      want_knn[m].push_back(distances(nn));
    }
  }

  // Each reader answers its first query before the swap starts and keeps
  // looping until Compact() has returned.
  constexpr int kReaders = 4;
  std::atomic<int> started{0};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> mismatches{0}, failures{0};
  std::vector<std::thread> readers;
  for (int w = 0; w < kReaders; ++w) {
    readers.emplace_back([&, w] {
      for (size_t i = size_t(w);; ++i) {
        const size_t t = i % queries.size();
        std::vector<ObjectId> r;
        if (!tree->RangeQuery(queries[t], 2.0, &r).ok()) failures++;
        std::sort(r.begin(), r.end());
        if (r != want_range[t]) mismatches++;
        for (int m = 0; m < 2; ++m) {
          std::vector<Neighbor> nn;
          if (!tree->KnnQuery(queries[t], kK, &nn, nullptr, kTraversals[m])
                   .ok()) {
            failures++;
          }
          if (distances(nn) != want_knn[m][t]) mismatches++;
        }
        if (i == size_t(w)) started.fetch_add(1);
        if (done.load()) return;
      }
    });
  }
  while (started.load() < kReaders) std::this_thread::yield();
  const Status compacted = tree->Compact();
  done.store(true);
  for (std::thread& t : readers) t.join();

  ASSERT_TRUE(compacted.ok()) << compacted.ToString();
  EXPECT_EQ(tree->io_stats().dead_bytes.load(std::memory_order_relaxed), 0u);
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_TRUE(tree->CheckIntegrity().ok());
}

// -------------------------------------------------------- kill-point matrix

class WalCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TempDir("spb_wal_crash");
    twin_dir_ = TempDir("spb_wal_crash_twin");
    fs::remove_all(dir_);
    fs::remove_all(twin_dir_);
    ds_ = MakeWalDataset();
    ops_ = MakeWalOps(ds_);
  }
  void TearDown() override {
    fs::remove_all(dir_);
    fs::remove_all(twin_dir_);
  }

  std::unique_ptr<SpbTree> Recover() {
    std::unique_ptr<SpbTree> tree;
    EXPECT_TRUE(SpbTree::Open(dir_, ds_.metric.get(), WalOptions(dir_), &tree)
                    .ok());
    return tree;
  }

  // Never-crashed twin: checkpointed base + the first `applied` ops.
  std::unique_ptr<SpbTree> BuildTwin(size_t applied) {
    fs::remove_all(twin_dir_);
    std::unique_ptr<SpbTree> twin;
    EXPECT_TRUE(SpbTree::Build(ds_.objects, ds_.metric.get(),
                               WalOptions(twin_dir_), &twin)
                    .ok());
    EXPECT_TRUE(twin->Save().ok());
    EXPECT_TRUE(ApplyOps(twin.get(), ops_, applied).ok());
    return twin;
  }

  std::string dir_, twin_dir_;
  Dataset ds_;
  std::vector<WalOp> ops_;
};

// Crash before/mid/after the group's WAL write+fsync: recovery must land on
// exactly the durable record prefix, byte-identical to the twin.
TEST_F(WalCrashTest, GroupFsyncKillPoints) {
  const struct {
    const char* point;
    size_t min_records, max_records;  // durable-prefix bounds per point
  } kCases[] = {
      // Nothing of the group was written.
      {"wal_before_append", 0, 0},
      // Half the group buffer hit the file: a strict prefix replays, the
      // torn record is detected and dropped.
      {"wal_mid_append", 0, 7},
      // Fully written, not yet fsynced: _exit keeps the page cache, so the
      // whole group is readable (a power loss could lose it — either way
      // replay sees a valid prefix).
      {"wal_before_fsync", 8, 8},
      // Durable: the whole group must replay even though it was never
      // applied to the tree.
      {"wal_after_fsync", 8, 8},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.point);
    RunCrashChild(c.point, "wal", dir_);
    if (HasFatalFailure()) return;

    std::unique_ptr<SpbTree> recovered = Recover();
    ASSERT_NE(recovered, nullptr);
    const uint64_t replayed = recovered->CollectStats().wal_replayed_records;
    EXPECT_GE(replayed, c.min_records);
    EXPECT_LE(replayed, c.max_records);

    std::unique_ptr<SpbTree> twin = BuildTwin(size_t(replayed));
    ExpectSameQueries(recovered.get(), twin.get(), ds_);
    ExpectOpsApplied(recovered.get(), ops_, size_t(replayed));
    EXPECT_TRUE(recovered->CheckIntegrity().ok());

    // The recovered tree is a fully functional writer: finish the op log,
    // checkpoint, and verify the end state.
    ASSERT_TRUE(
        ApplyOps(recovered.get(), ops_, ops_.size()).ok());
    ASSERT_TRUE(recovered->Save().ok());
    ExpectOpsApplied(recovered.get(), ops_, ops_.size());
  }
}

// Crash between the checkpoint's meta write and its WAL truncate: every
// logged record was already applied, and replay must be idempotent (upsert
// inserts, no-op missing deletes) — same results, no duplicates.
TEST_F(WalCrashTest, CheckpointKillPointReplaysIdempotently) {
  RunCrashChild("checkpoint_before_truncate", "ckpt", dir_);
  if (HasFatalFailure()) return;

  std::unique_ptr<SpbTree> recovered = Recover();
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->CollectStats().wal_replayed_records, ops_.size());
  EXPECT_EQ(recovered->size(), ds_.objects.size() + 8 - 4);
  ExpectOpsApplied(recovered.get(), ops_, ops_.size());

  // Results and compdists match the twin exactly. PA is excluded here by
  // design: idempotent re-application relocates the upserted records in the
  // RAF, which legitimately shifts physical page layout (a checkpoint crash
  // is the one point where "durable prefix" and "applied prefix" overlap).
  std::unique_ptr<SpbTree> twin = BuildTwin(ops_.size());
  ExpectSameQueries(recovered.get(), twin.get(), ds_,
                    /*compare_pa=*/false);
  EXPECT_TRUE(recovered->CheckIntegrity().ok());
}

// Crash around the compaction's atomic rename: before it the old generation
// must survive untouched (temp file discarded); after it the generation
// mismatch must trigger the B+-tree rebuild, landing on the compacted twin.
TEST_F(WalCrashTest, CompactionKillPoints) {
  auto build_compact_twin = [&](bool compacted) {
    fs::remove_all(twin_dir_);
    std::unique_ptr<SpbTree> twin;
    EXPECT_TRUE(SpbTree::Build(ds_.objects, ds_.metric.get(),
                               WalOptions(twin_dir_), &twin)
                    .ok());
    for (size_t i = 0; i < ds_.objects.size(); i += 3) {
      bool found = false;
      EXPECT_TRUE(twin->Delete(ds_.objects[i], ObjectId(i), &found).ok());
    }
    EXPECT_TRUE(twin->Save().ok());
    if (compacted) {
      EXPECT_TRUE(twin->Compact().ok());
    }
    return twin;
  };

  {
    SCOPED_TRACE("compact_before_rename");
    RunCrashChild("compact_before_rename", "compact", dir_);
    if (HasFatalFailure()) return;
    // The aborted compaction left raf.compact.spb behind; Open discards it.
    EXPECT_TRUE(fs::exists(dir_ + "/raf.compact.spb"));
    std::unique_ptr<SpbTree> recovered = Recover();
    ASSERT_NE(recovered, nullptr);
    EXPECT_FALSE(fs::exists(dir_ + "/raf.compact.spb"));
    // Pre-compaction state: the dead-byte debt is still there.
    EXPECT_GT(recovered->io_stats().dead_bytes.load(std::memory_order_relaxed),
              0u);
    std::unique_ptr<SpbTree> twin = build_compact_twin(/*compacted=*/false);
    ExpectSameQueries(recovered.get(), twin.get(), ds_);
    EXPECT_TRUE(recovered->CheckIntegrity().ok());
    // A re-run completes the interrupted job.
    ASSERT_TRUE(recovered->Compact().ok());
    EXPECT_EQ(
        recovered->io_stats().dead_bytes.load(std::memory_order_relaxed), 0u);
  }
  {
    SCOPED_TRACE("compact_after_rename");
    RunCrashChild("compact_after_rename", "compact", dir_);
    if (HasFatalFailure()) return;
    std::unique_ptr<SpbTree> recovered = Recover();
    ASSERT_NE(recovered, nullptr);
    // The compacted file was installed but never checkpointed: the
    // generation mismatch rebuilt the B+-tree from the RAF, reproducing the
    // compacted tree exactly.
    EXPECT_EQ(
        recovered->io_stats().dead_bytes.load(std::memory_order_relaxed), 0u);
    std::unique_ptr<SpbTree> twin = build_compact_twin(/*compacted=*/true);
    ExpectSameQueries(recovered.get(), twin.get(), ds_);
    EXPECT_TRUE(recovered->CheckIntegrity().ok());
  }
}

}  // namespace
}  // namespace spb

// The crash helper must run before InitGoogleTest: the child process is this
// same binary, re-executed to crash mid-write, and must never start the test
// runner (this file links against gtest, not gtest_main).
int main(int argc, char** argv) {
  if (argc >= 4 && std::string(argv[1]) == "--crash-helper") {
    return spb::RunCrashHelper(argv[2], argv[3]);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
