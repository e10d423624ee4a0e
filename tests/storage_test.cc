#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "common/rng.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "storage/page_file.h"
#include "storage/raf.h"

namespace spb {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// ---------------------------------------------------------------- PageFile

// Runs a suite over both page-file kinds: the parameter is true for disk.
class FileKindTest : public ::testing::TestWithParam<bool> {
 protected:
  // A fresh, empty file of the parameter's kind; disk files are removed in
  // TearDown.
  std::unique_ptr<PageFile> MakeFile() {
    if (!GetParam()) return PageFile::CreateInMemory();
    paths_.push_back(
        TempPath("spb_storage_test_" + std::to_string(paths_.size()) + ".dat"));
    std::unique_ptr<PageFile> f;
    EXPECT_TRUE(PageFile::CreateOnDisk(paths_.back(), &f).ok());
    return f;
  }

  bool in_memory() const { return !GetParam(); }

  void TearDown() override {
    for (const std::string& path : paths_) std::remove(path.c_str());
  }

  std::vector<std::string> paths_;
};

std::string FileKindName(const ::testing::TestParamInfo<bool>& info) {
  return info.param ? "Disk" : "Memory";
}

class PageFileTest : public FileKindTest {};

TEST_P(PageFileTest, StartsEmpty) {
  auto f = MakeFile();
  EXPECT_EQ(f->num_pages(), 0u);
}

TEST_P(PageFileTest, AllocateGrowsSequentially) {
  auto f = MakeFile();
  for (PageId want = 0; want < 5; ++want) {
    PageId got;
    ASSERT_TRUE(f->Allocate(&got).ok());
    EXPECT_EQ(got, want);
  }
  EXPECT_EQ(f->num_pages(), 5u);
}

TEST_P(PageFileTest, WriteThenReadRoundTrips) {
  auto f = MakeFile();
  PageId id;
  ASSERT_TRUE(f->Allocate(&id).ok());
  Page w;
  for (size_t i = 0; i < kPageSize; ++i) w.bytes()[i] = uint8_t(i * 7);
  ASSERT_TRUE(f->Write(id, w).ok());
  Page r;
  ASSERT_TRUE(f->Read(id, &r).ok());
  EXPECT_EQ(0, memcmp(w.bytes(), r.bytes(), kPageSize));
}

TEST_P(PageFileTest, FreshPageIsZeroed) {
  auto f = MakeFile();
  PageId id;
  ASSERT_TRUE(f->Allocate(&id).ok());
  Page r;
  ASSERT_TRUE(f->Read(id, &r).ok());
  for (size_t i = 0; i < kPageSize; ++i) ASSERT_EQ(r.bytes()[i], 0);
}

TEST_P(PageFileTest, ReadOutOfRangeFails) {
  auto f = MakeFile();
  Page p;
  EXPECT_FALSE(f->Read(3, &p).ok());
}

TEST_P(PageFileTest, WriteOutOfRangeFails) {
  auto f = MakeFile();
  Page p;
  EXPECT_FALSE(f->Write(0, p).ok());
}

TEST_P(PageFileTest, ManyPagesKeepDistinctContents) {
  auto f = MakeFile();
  const int n = 50;
  for (int i = 0; i < n; ++i) {
    PageId id;
    ASSERT_TRUE(f->Allocate(&id).ok());
    Page p;
    p.bytes()[0] = uint8_t(i);
    p.bytes()[kPageSize - 1] = uint8_t(255 - i);
    ASSERT_TRUE(f->Write(id, p).ok());
  }
  for (int i = 0; i < n; ++i) {
    Page p;
    ASSERT_TRUE(f->Read(PageId(i), &p).ok());
    EXPECT_EQ(p.bytes()[0], uint8_t(i));
    EXPECT_EQ(p.bytes()[kPageSize - 1], uint8_t(255 - i));
  }
}

Page PatternPage(int seed) {
  Page p;
  for (size_t b = 0; b < kPageSize; ++b) p.bytes()[b] = uint8_t(seed * 37 + b);
  return p;
}

TEST_P(PageFileTest, AppendSpanOverwritesAndGrows) {
  auto f = MakeFile();
  for (int i = 0; i < 3; ++i) {
    PageId id;
    ASSERT_TRUE(f->Allocate(&id).ok());
    ASSERT_TRUE(f->Write(id, PatternPage(i)).ok());
  }
  // Pages 2..6: one overwrite, four new pages.
  std::vector<Page> span;
  for (int i = 0; i < 5; ++i) span.push_back(PatternPage(100 + i));
  ASSERT_TRUE(f->AppendSpan(2, span.size(), span.data()).ok());
  EXPECT_EQ(f->num_pages(), 7u);
  for (int i = 0; i < 7; ++i) {
    Page want = i < 2 ? PatternPage(i) : PatternPage(100 + i - 2);
    Page got;
    ASSERT_TRUE(f->Read(PageId(i), &got).ok());
    EXPECT_EQ(0, memcmp(want.bytes(), got.bytes(), kPageSize)) << "page " << i;
  }
  EXPECT_TRUE(f->AppendSpan(7, 0, span.data()).ok());
  EXPECT_EQ(f->num_pages(), 7u);
  EXPECT_FALSE(f->AppendSpan(8, 1, span.data()).ok());  // would leave a hole
  EXPECT_EQ(f->num_pages(), 7u);
}

// A memory file shares its pages as immutable frames: a write replaces the
// frame instead of changing it, and fresh pages share one zero frame. A disk
// file shares nothing.
TEST_P(PageFileTest, SharedPagesAreImmutableFrames) {
  auto f = MakeFile();
  PageId a, b;
  ASSERT_TRUE(f->Allocate(&a).ok());
  ASSERT_TRUE(f->Allocate(&b).ok());
  const std::shared_ptr<const Page> before = f->SharedPage(a);
  if (!in_memory()) {
    EXPECT_EQ(before, nullptr);
    return;
  }
  ASSERT_NE(before, nullptr);
  EXPECT_EQ(before.get(), f->SharedPage(b).get());
  EXPECT_EQ(f->SharedPage(2), nullptr);  // out of range
  ASSERT_TRUE(f->Write(a, PatternPage(1)).ok());
  const std::shared_ptr<const Page> after = f->SharedPage(a);
  EXPECT_NE(after.get(), before.get());
  EXPECT_EQ(0, memcmp(after->bytes(), PatternPage(1).bytes(), kPageSize));
  EXPECT_EQ(0, memcmp(before->bytes(), Page().bytes(), kPageSize));
  const Page span[2] = {PatternPage(2), PatternPage(3)};
  ASSERT_TRUE(f->AppendSpan(a, 2, span).ok());
  EXPECT_EQ(0, memcmp(after->bytes(), PatternPage(1).bytes(), kPageSize));
  EXPECT_EQ(0, memcmp(f->SharedPage(b)->bytes(), span[1].bytes(), kPageSize));
}

INSTANTIATE_TEST_SUITE_P(MemoryAndDisk, PageFileTest, ::testing::Bool(),
                         FileKindName);

TEST(DiskPageFileTest, ReopenSeesPersistedPages) {
  std::string path = TempPath("spb_pagefile_reopen.dat");
  {
    std::unique_ptr<PageFile> f;
    ASSERT_TRUE(PageFile::CreateOnDisk(path, &f).ok());
    PageId id;
    ASSERT_TRUE(f->Allocate(&id).ok());
    Page p;
    p.bytes()[10] = 0xAB;
    ASSERT_TRUE(f->Write(id, p).ok());
    ASSERT_TRUE(f->Sync().ok());
  }
  {
    std::unique_ptr<PageFile> f;
    ASSERT_TRUE(PageFile::OpenOnDisk(path, &f).ok());
    EXPECT_EQ(f->num_pages(), 1u);
    Page p;
    ASSERT_TRUE(f->Read(0, &p).ok());
    EXPECT_EQ(p.bytes()[10], 0xAB);
  }
  std::remove(path.c_str());
}

TEST(DiskPageFileTest, OpenMissingFileFails) {
  std::unique_ptr<PageFile> f;
  EXPECT_FALSE(PageFile::OpenOnDisk("/nonexistent/nope.dat", &f).ok());
}

// -------------------------------------------------------------- BufferPool

// Every accounting test runs over both file kinds: frames the pool shares
// with a memory file and frames it reads from disk count the same.
class BufferPoolTest : public FileKindTest {};

TEST_P(BufferPoolTest, FirstReadMissesSecondHits) {
  auto f = MakeFile();
  PageId id;
  ASSERT_TRUE(f->Allocate(&id).ok());
  BufferPool pool(f.get(), 8);
  Page p;
  ASSERT_TRUE(pool.Read(id, &p).ok());
  EXPECT_EQ(pool.stats().page_reads, 1u);
  EXPECT_EQ(pool.stats().cache_hits, 0u);
  ASSERT_TRUE(pool.Read(id, &p).ok());
  EXPECT_EQ(pool.stats().page_reads, 1u);
  EXPECT_EQ(pool.stats().cache_hits, 1u);
}

TEST_P(BufferPoolTest, ReadIntoMatchesReadAndAccounting) {
  auto f = MakeFile();
  PageId id;
  ASSERT_TRUE(f->Allocate(&id).ok());
  Page w;
  for (size_t i = 0; i < kPageSize; ++i) {
    w.bytes()[i] = static_cast<uint8_t>(i * 13 + 7);
  }
  ASSERT_TRUE(f->Write(id, w).ok());

  BufferPool pool(f.get(), 8);
  uint8_t slice[100];
  // Cold: one page read, no hit — same as Read().
  ASSERT_TRUE(pool.ReadInto(id, 500, sizeof(slice), slice).ok());
  EXPECT_EQ(pool.stats().page_reads, 1u);
  EXPECT_EQ(pool.stats().cache_hits, 0u);
  EXPECT_EQ(0, memcmp(slice, w.bytes() + 500, sizeof(slice)));
  // Warm: a hit, and the page was inserted so Read() also hits.
  ASSERT_TRUE(pool.ReadInto(id, 0, 1, slice).ok());
  EXPECT_EQ(pool.stats().page_reads, 1u);
  EXPECT_EQ(pool.stats().cache_hits, 1u);
  Page r;
  ASSERT_TRUE(pool.Read(id, &r).ok());
  EXPECT_EQ(pool.stats().page_reads, 1u);
  EXPECT_EQ(pool.stats().cache_hits, 2u);
}

TEST_P(BufferPoolTest, ZeroCapacityNeverHits) {
  auto f = MakeFile();
  PageId id;
  ASSERT_TRUE(f->Allocate(&id).ok());
  BufferPool pool(f.get(), 0);
  Page p;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(pool.Read(id, &p).ok());
  EXPECT_EQ(pool.stats().page_reads, 5u);
  EXPECT_EQ(pool.stats().cache_hits, 0u);
}

TEST_P(BufferPoolTest, LruEvictsLeastRecentlyUsed) {
  auto f = MakeFile();
  for (int i = 0; i < 3; ++i) {
    PageId id;
    ASSERT_TRUE(f->Allocate(&id).ok());
  }
  BufferPool pool(f.get(), 2);
  Page p;
  ASSERT_TRUE(pool.Read(0, &p).ok());  // cache: {0}
  ASSERT_TRUE(pool.Read(1, &p).ok());  // cache: {1,0}
  ASSERT_TRUE(pool.Read(0, &p).ok());  // touch 0 -> {0,1}
  ASSERT_TRUE(pool.Read(2, &p).ok());  // evicts 1 -> {2,0}
  const uint64_t reads_before = pool.stats().page_reads;
  ASSERT_TRUE(pool.Read(0, &p).ok());  // hit
  EXPECT_EQ(pool.stats().page_reads, reads_before);
  ASSERT_TRUE(pool.Read(1, &p).ok());  // miss (evicted)
  EXPECT_EQ(pool.stats().page_reads, reads_before + 1);
}

TEST_P(BufferPoolTest, WriteIsWriteThroughAndCaches) {
  auto f = MakeFile();
  PageId id;
  ASSERT_TRUE(f->Allocate(&id).ok());
  BufferPool pool(f.get(), 4);
  Page w;
  w.bytes()[0] = 0x5A;
  ASSERT_TRUE(pool.Write(id, w).ok());
  EXPECT_EQ(pool.stats().page_writes, 1u);
  // Underlying file already has the data.
  Page direct;
  ASSERT_TRUE(f->Read(id, &direct).ok());
  EXPECT_EQ(direct.bytes()[0], 0x5A);
  // And a read is served from cache.
  Page r;
  ASSERT_TRUE(pool.Read(id, &r).ok());
  EXPECT_EQ(pool.stats().cache_hits, 1u);
  EXPECT_EQ(r.bytes()[0], 0x5A);
}

TEST_P(BufferPoolTest, FlushDropsCachedPages) {
  auto f = MakeFile();
  PageId id;
  ASSERT_TRUE(f->Allocate(&id).ok());
  BufferPool pool(f.get(), 4);
  Page p;
  ASSERT_TRUE(pool.Read(id, &p).ok());
  pool.Flush();
  ASSERT_TRUE(pool.Read(id, &p).ok());
  EXPECT_EQ(pool.stats().page_reads, 2u);
}

// A span write must leave the pool exactly as per-page writes in ascending
// order do: the same page_writes, the same cached pages, and the same LRU
// order (checked by the hits and misses of a read sweep afterwards).
TEST_P(BufferPoolTest, AppendSpanMatchesPerPageWrites) {
  for (size_t capacity : {0, 5, 40, 200}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    auto fa = MakeFile();
    auto fb = MakeFile();
    BufferPool a(fa.get(), capacity);
    BufferPool b(fb.get(), capacity);
    for (BufferPool* pool : {&a, &b}) {
      for (int i = 0; i < 10; ++i) {
        PageId id;
        ASSERT_TRUE(pool->Allocate(&id).ok());
        ASSERT_TRUE(pool->Write(id, PatternPage(i)).ok());
      }
      Page p;
      ASSERT_TRUE(pool->Read(7, &p).ok());
      ASSERT_TRUE(pool->Read(2, &p).ok());
    }
    std::vector<Page> span;
    for (int i = 0; i < 70; ++i) span.push_back(PatternPage(50 + i));
    ASSERT_TRUE(a.AppendSpan(6, span.size(), span.data()).ok());
    for (size_t i = 0; i < span.size(); ++i) {
      const PageId id = PageId(6 + i);
      if (id == fb->num_pages()) {
        PageId fresh;
        ASSERT_TRUE(b.Allocate(&fresh).ok());
      }
      ASSERT_TRUE(b.Write(id, span[i]).ok());
    }
    EXPECT_EQ(a.stats().page_writes, b.stats().page_writes);
    ASSERT_EQ(fa->num_pages(), fb->num_pages());
    for (PageId id = 0; id < fa->num_pages(); ++id) {
      EXPECT_EQ(a.Contains(id), b.Contains(id)) << "page " << id;
      Page pa, pb;
      ASSERT_TRUE(fa->Read(id, &pa).ok());
      ASSERT_TRUE(fb->Read(id, &pb).ok());
      EXPECT_EQ(0, memcmp(pa.bytes(), pb.bytes(), kPageSize)) << "page " << id;
    }
    for (PageId id = fa->num_pages(); id-- > 0;) {
      Page pa, pb;
      ASSERT_TRUE(a.Read(id, &pa).ok());
      ASSERT_TRUE(b.Read(id, &pb).ok());
      EXPECT_EQ(0, memcmp(pa.bytes(), pb.bytes(), kPageSize)) << "page " << id;
    }
    EXPECT_EQ(a.stats().page_reads, b.stats().page_reads);
    EXPECT_EQ(a.stats().cache_hits, b.stats().cache_hits);
  }
}

// On a memory file the pool caches the file's own frame, not a copy: a
// miss, a hit and a write-through all hand out the frame SharedPage returns.
TEST_P(BufferPoolTest, MemoryFileMissCachesTheFilesOwnFrame) {
  auto f = MakeFile();
  PageId id;
  ASSERT_TRUE(f->Allocate(&id).ok());
  ASSERT_TRUE(f->Write(id, PatternPage(3)).ok());
  BufferPool pool(f.get(), 8);
  BufferPool::PagePin miss, hit;
  ASSERT_TRUE(pool.ReadPinned(id, &miss).ok());
  ASSERT_TRUE(pool.ReadPinned(id, &hit).ok());
  EXPECT_EQ(pool.stats().page_reads, 1u);
  EXPECT_EQ(pool.stats().cache_hits, 1u);
  EXPECT_EQ(0, memcmp(miss->bytes(), PatternPage(3).bytes(), kPageSize));
  EXPECT_EQ(miss.get(), hit.get());
  if (!in_memory()) {
    EXPECT_EQ(f->SharedPage(id), nullptr);
    return;
  }
  EXPECT_EQ(miss.get(), f->SharedPage(id).get());
  ASSERT_TRUE(pool.Write(id, PatternPage(4)).ok());
  BufferPool::PagePin written;
  ASSERT_TRUE(pool.ReadPinned(id, &written).ok());
  EXPECT_EQ(pool.stats().cache_hits, 2u);
  EXPECT_EQ(written.get(), f->SharedPage(id).get());
  const Page span[2] = {PatternPage(5), PatternPage(6)};
  ASSERT_TRUE(pool.AppendSpan(id, 2, span).ok());
  for (PageId p = id; p < id + 2; ++p) {
    BufferPool::PagePin pin;
    ASSERT_TRUE(pool.ReadPinned(p, &pin).ok());
    EXPECT_EQ(pin.get(), f->SharedPage(p).get()) << "page " << p;
  }
  EXPECT_EQ(pool.stats().cache_hits, 4u);
}

// A pin keeps the bytes it was taken on: a later Write or AppendSpan of the
// same page, through the pool or straight to the file, replaces the frame
// for later readers and leaves the pinned one alone.
TEST_P(BufferPoolTest, PinHeldAcrossWritesKeepsOldBytes) {
  auto f = MakeFile();
  PageId id;
  ASSERT_TRUE(f->Allocate(&id).ok());
  ASSERT_TRUE(f->Write(id, PatternPage(1)).ok());
  BufferPool pool(f.get(), 8);
  BufferPool::PagePin old_pin;
  ASSERT_TRUE(pool.ReadPinned(id, &old_pin).ok());

  ASSERT_TRUE(pool.Write(id, PatternPage(2)).ok());
  BufferPool::PagePin mid_pin;
  ASSERT_TRUE(pool.ReadPinned(id, &mid_pin).ok());
  EXPECT_EQ(0, memcmp(mid_pin->bytes(), PatternPage(2).bytes(), kPageSize));

  const Page span[1] = {PatternPage(3)};
  ASSERT_TRUE(pool.AppendSpan(id, 1, span).ok());
  Page now;
  ASSERT_TRUE(pool.Read(id, &now).ok());
  EXPECT_EQ(0, memcmp(now.bytes(), PatternPage(3).bytes(), kPageSize));
  ASSERT_TRUE(f->Write(id, PatternPage(4)).ok());

  EXPECT_EQ(0, memcmp(old_pin->bytes(), PatternPage(1).bytes(), kPageSize));
  EXPECT_EQ(0, memcmp(mid_pin->bytes(), PatternPage(2).bytes(), kPageSize));
}

// Capacity 0 caches nothing, on either file kind; on a memory file each
// miss still hands out the file's own frame rather than a copy.
TEST_P(BufferPoolTest, ZeroCapacityHandsOutFramesWithoutCaching) {
  auto f = MakeFile();
  PageId id;
  ASSERT_TRUE(f->Allocate(&id).ok());
  ASSERT_TRUE(f->Write(id, PatternPage(7)).ok());
  BufferPool pool(f.get(), 0);
  for (int i = 0; i < 3; ++i) {
    BufferPool::PagePin pin;
    ASSERT_TRUE(pool.ReadPinned(id, &pin).ok());
    EXPECT_EQ(0, memcmp(pin->bytes(), PatternPage(7).bytes(), kPageSize));
    if (in_memory()) {
      EXPECT_EQ(pin.get(), f->SharedPage(id).get());
    }
    EXPECT_FALSE(pool.Contains(id));
  }
  ASSERT_TRUE(pool.Write(id, PatternPage(8)).ok());
  EXPECT_FALSE(pool.Contains(id));
  EXPECT_EQ(pool.stats().page_reads, 3u);
  EXPECT_EQ(pool.stats().cache_hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(MemoryAndDisk, BufferPoolTest, ::testing::Bool(),
                         FileKindName);

// --------------------------------------------------------------------- RAF

TEST(RafTest, AppendThenGetRoundTrips) {
  std::unique_ptr<Raf> raf;
  ASSERT_TRUE(Raf::Create(PageFile::CreateInMemory(), 8, &raf).ok());
  Blob obj = BlobFromString("defoliate");
  uint64_t off;
  ASSERT_TRUE(raf->Append(7, obj, &off).ok());
  ObjectId id;
  Blob got;
  ASSERT_TRUE(raf->Get(off, &id, &got).ok());
  EXPECT_EQ(id, 7u);
  EXPECT_EQ(got, obj);
}

TEST(RafTest, FirstRecordStartsAfterHeaderPage) {
  std::unique_ptr<Raf> raf;
  ASSERT_TRUE(Raf::Create(PageFile::CreateInMemory(), 8, &raf).ok());
  uint64_t off;
  ASSERT_TRUE(raf->Append(0, BlobFromString("x"), &off).ok());
  EXPECT_EQ(off, kPageSize);
}

TEST(RafTest, VariableLengthRecordsPreserved) {
  std::unique_ptr<Raf> raf;
  ASSERT_TRUE(Raf::Create(PageFile::CreateInMemory(), 8, &raf).ok());
  Rng rng(3);
  std::vector<std::pair<uint64_t, Blob>> written;
  for (int i = 0; i < 500; ++i) {
    Blob obj(rng.Uniform(200));
    for (auto& byte : obj) byte = uint8_t(rng.Uniform(256));
    uint64_t off;
    ASSERT_TRUE(raf->Append(ObjectId(i), obj, &off).ok());
    written.emplace_back(off, obj);
  }
  EXPECT_EQ(raf->num_records(), 500u);
  for (int i = 0; i < 500; ++i) {
    ObjectId id;
    Blob got;
    ASSERT_TRUE(raf->Get(written[i].first, &id, &got).ok());
    EXPECT_EQ(id, ObjectId(i));
    EXPECT_EQ(got, written[i].second);
  }
}

TEST(RafTest, RecordsSpanPageBoundaries) {
  std::unique_ptr<Raf> raf;
  ASSERT_TRUE(Raf::Create(PageFile::CreateInMemory(), 8, &raf).ok());
  // 3000-byte records guarantee page-straddling records.
  std::vector<uint64_t> offs;
  for (int i = 0; i < 10; ++i) {
    Blob obj(3000, uint8_t('a' + i));
    uint64_t off;
    ASSERT_TRUE(raf->Append(ObjectId(i), obj, &off).ok());
    offs.push_back(off);
  }
  for (int i = 0; i < 10; ++i) {
    ObjectId id;
    Blob got;
    ASSERT_TRUE(raf->Get(offs[i], &id, &got).ok());
    EXPECT_EQ(got.size(), 3000u);
    EXPECT_EQ(got[0], uint8_t('a' + i));
    EXPECT_EQ(got[2999], uint8_t('a' + i));
  }
}

TEST(RafTest, EmptyObjectAllowed) {
  std::unique_ptr<Raf> raf;
  ASSERT_TRUE(Raf::Create(PageFile::CreateInMemory(), 8, &raf).ok());
  uint64_t off;
  ASSERT_TRUE(raf->Append(1, Blob{}, &off).ok());
  ObjectId id;
  Blob got;
  ASSERT_TRUE(raf->Get(off, &id, &got).ok());
  EXPECT_TRUE(got.empty());
}

TEST(RafTest, GetBogusOffsetFails) {
  std::unique_ptr<Raf> raf;
  ASSERT_TRUE(Raf::Create(PageFile::CreateInMemory(), 8, &raf).ok());
  ObjectId id;
  Blob got;
  EXPECT_FALSE(raf->Get(0, &id, &got).ok());          // header page
  EXPECT_FALSE(raf->Get(kPageSize, &id, &got).ok());  // past end (empty)
}

TEST(RafTest, PersistsAcrossReopen) {
  std::string path = TempPath("spb_raf_reopen.dat");
  uint64_t off1 = 0, off2 = 0;
  {
    std::unique_ptr<PageFile> f;
    ASSERT_TRUE(PageFile::CreateOnDisk(path, &f).ok());
    std::unique_ptr<Raf> raf;
    ASSERT_TRUE(Raf::Create(std::move(f), 8, &raf).ok());
    ASSERT_TRUE(raf->Append(1, BlobFromString("hello"), &off1).ok());
    ASSERT_TRUE(raf->Append(2, BlobFromString("world!"), &off2).ok());
    ASSERT_TRUE(raf->Sync().ok());
  }
  {
    std::unique_ptr<PageFile> f;
    ASSERT_TRUE(PageFile::OpenOnDisk(path, &f).ok());
    std::unique_ptr<Raf> raf;
    ASSERT_TRUE(Raf::Open(std::move(f), 8, &raf).ok());
    EXPECT_EQ(raf->num_records(), 2u);
    ObjectId id;
    Blob got;
    ASSERT_TRUE(raf->Get(off2, &id, &got).ok());
    EXPECT_EQ(id, 2u);
    EXPECT_EQ(BlobToString(got), "world!");
  }
  std::remove(path.c_str());
}

// AppendBatch against a loop of one-record Append calls, from the same
// starting state, on memory and disk files: equal offsets, file bytes,
// page_writes and cached pages. The cache has two shards, so full staged
// runs also cover the span write's skipped inserts.
enum class BatchCase {
  kPartialTail,
  kSpanningRecords,
  kHugeRecord,
  kEmptyBlobs,
};

class RafAppendBatchTest
    : public ::testing::TestWithParam<std::tuple<bool, BatchCase>> {
 protected:
  std::unique_ptr<Raf> MakeRaf(const std::string& name) {
    std::unique_ptr<PageFile> f;
    if (std::get<0>(GetParam())) {
      paths_.push_back(TempPath(name));
      EXPECT_TRUE(PageFile::CreateOnDisk(paths_.back(), &f).ok());
    } else {
      f = PageFile::CreateInMemory();
    }
    std::unique_ptr<Raf> raf;
    EXPECT_TRUE(Raf::Create(std::move(f), 40, &raf).ok());
    return raf;
  }

  void TearDown() override {
    for (const std::string& p : paths_) std::remove(p.c_str());
  }

  std::vector<std::string> paths_;
};

Blob RandomBlob(Rng* rng, size_t len) {
  Blob b(len);
  for (auto& byte : b) byte = uint8_t(rng->Uniform(256));
  return b;
}

TEST_P(RafAppendBatchTest, MatchesPerRecordAppends) {
  Rng rng(41);
  std::vector<Blob> prefix, batch;
  switch (std::get<1>(GetParam())) {
    case BatchCase::kPartialTail:
      // Start from a synced, partly filled tail page, then dirty it again.
      for (int i = 0; i < 30; ++i) prefix.push_back(RandomBlob(&rng, 70));
      for (int i = 0; i < 3000; ++i) {
        batch.push_back(RandomBlob(&rng, rng.Uniform(180)));
      }
      break;
    case BatchCase::kSpanningRecords:
      for (int i = 0; i < 200; ++i) {
        batch.push_back(RandomBlob(&rng, 3000 + rng.Uniform(3000)));
      }
      break;
    case BatchCase::kHugeRecord:
      // Larger than a whole staged run of kAppendRunPages pages.
      batch.push_back(RandomBlob(&rng, 40));
      batch.push_back(
          RandomBlob(&rng, (Raf::kAppendRunPages + 9) * kPageSize + 123));
      batch.push_back(RandomBlob(&rng, 40));
      break;
    case BatchCase::kEmptyBlobs:
      // Empty records, some landing exactly on a page boundary.
      prefix.push_back(RandomBlob(&rng, kPageSize - 8 - 8));
      for (int i = 0; i < 600; ++i) {
        batch.push_back(i % 3 == 0 ? Blob{} : RandomBlob(&rng, 8));
      }
      break;
  }
  auto a = MakeRaf("spb_raf_batch_a.dat");
  auto b = MakeRaf("spb_raf_batch_b.dat");
  for (Raf* raf : {a.get(), b.get()}) {
    for (size_t i = 0; i < prefix.size(); ++i) {
      uint64_t off;
      ASSERT_TRUE(raf->Append(ObjectId(i), prefix[i], &off).ok());
      if (i + 2 == prefix.size()) {
        ASSERT_TRUE(raf->Sync().ok());
      }
    }
  }

  std::vector<Raf::Record> records;
  for (size_t i = 0; i < batch.size(); ++i) {
    records.push_back(Raf::Record{ObjectId(1000 + i), batch[i]});
  }
  std::vector<uint64_t> offsets_a(batch.size()), offsets_b(batch.size());
  ASSERT_TRUE(a->AppendBatch(records, offsets_a.data()).ok());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(b->Append(ObjectId(1000 + i), batch[i], &offsets_b[i]).ok());
  }
  EXPECT_EQ(offsets_a, offsets_b);
  EXPECT_EQ(a->end_offset(), b->end_offset());
  EXPECT_EQ(a->num_records(), b->num_records());
  EXPECT_EQ(a->stats().page_writes, b->stats().page_writes);
  ASSERT_TRUE(a->Sync().ok());
  ASSERT_TRUE(b->Sync().ok());
  EXPECT_EQ(a->stats().page_writes, b->stats().page_writes);

  PageFile* fa = a->pool().file();
  PageFile* fb = b->pool().file();
  ASSERT_EQ(fa->num_pages(), fb->num_pages());
  for (PageId id = 0; id < fa->num_pages(); ++id) {
    EXPECT_EQ(a->pool().Contains(id), b->pool().Contains(id)) << "page " << id;
    Page pa, pb;
    ASSERT_TRUE(fa->Read(id, &pa).ok());
    ASSERT_TRUE(fb->Read(id, &pb).ok());
    ASSERT_EQ(0, memcmp(pa.bytes(), pb.bytes(), kPageSize)) << "page " << id;
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    ObjectId id;
    Blob got;
    ASSERT_TRUE(a->Get(offsets_a[i], &id, &got).ok());
    EXPECT_EQ(id, ObjectId(1000 + i));
    EXPECT_EQ(got, batch[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    MemoryAndDisk, RafAppendBatchTest,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(BatchCase::kPartialTail,
                                         BatchCase::kSpanningRecords,
                                         BatchCase::kHugeRecord,
                                         BatchCase::kEmptyBlobs)));

// Readers racing the appender (the snapshot protocol: one appender, readers
// below the published watermark). Reads aim at the newest records, whose
// page the next append leaves for the staged run: until that run is
// written, the page must still route readers through the tail lock instead
// of the pool, which does not have its bytes yet.
TEST(RafTest, ReadersBelowWatermarkRaceAppendBatch) {
  std::unique_ptr<Raf> raf;
  ASSERT_TRUE(Raf::Create(PageFile::CreateInMemory(), 8, &raf).ok());
  constexpr size_t kRecords = 20000;
  Rng rng(8);
  std::vector<Blob> objs(kRecords);
  for (size_t i = 0; i < kRecords; ++i) {
    objs[i].resize(1 + rng.Uniform(200));
    for (size_t k = 0; k < objs[i].size(); ++k) {
      objs[i][k] = uint8_t(i * 31 + k);
    }
  }
  std::vector<uint64_t> offsets(kRecords);
  std::atomic<size_t> published{0};
  std::atomic<bool> done{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Rng pick(100 + t);
      ObjectId id;
      Blob got;
      while (!done.load(std::memory_order_acquire)) {
        const size_t n = published.load(std::memory_order_acquire);
        if (n == 0) continue;
        const size_t j = n - 1 - pick.Uniform(std::min<size_t>(n, 40));
        if (!raf->Get(offsets[j], &id, &got).ok() || id != ObjectId(j) ||
            got != objs[j]) {
          bad.fetch_add(1);
        }
      }
    });
  }
  std::vector<Raf::Record> records;
  for (size_t i = 0; i < kRecords;) {
    const size_t m = std::min<size_t>(kRecords - i, 1 + rng.Uniform(30));
    records.clear();
    for (size_t j = i; j < i + m; ++j) {
      records.push_back(Raf::Record{ObjectId(j), objs[j]});
    }
    ASSERT_TRUE(raf->AppendBatch(records, offsets.data() + i).ok());
    i += m;
    published.store(i, std::memory_order_release);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(RafTest, GetCountsPageAccessesThroughPool) {
  std::unique_ptr<Raf> raf;
  ASSERT_TRUE(Raf::Create(PageFile::CreateInMemory(), 8, &raf).ok());
  std::vector<uint64_t> offs;
  for (int i = 0; i < 100; ++i) {
    uint64_t off;
    ASSERT_TRUE(raf->Append(ObjectId(i), Blob(100, uint8_t(i)), &off).ok());
    offs.push_back(off);
  }
  ASSERT_TRUE(raf->Sync().ok());
  raf->FlushCache();
  raf->ResetStats();
  ObjectId id;
  Blob got;
  ASSERT_TRUE(raf->Get(offs[0], &id, &got).ok());
  EXPECT_GE(raf->stats().page_reads, 1u);
  const uint64_t after_first = raf->stats().page_reads;
  // Neighbor record on the same page: served by cache.
  ASSERT_TRUE(raf->Get(offs[1], &id, &got).ok());
  EXPECT_EQ(raf->stats().page_reads, after_first);
}

}  // namespace
}  // namespace spb
