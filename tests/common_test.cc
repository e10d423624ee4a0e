#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/blob.h"
#include "common/coding.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/status.h"

namespace spb {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryConstructorsCarryCodeAndMessage) {
  Status s = Status::IOError("disk on fire");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kIOError);
  EXPECT_EQ(s.message(), "disk on fire");
  EXPECT_EQ(s.ToString(), "IOError: disk on fire");
}

TEST(StatusTest, AllCodesRenderDistinctNames) {
  EXPECT_EQ(Status::InvalidArgument("x").ToString(), "InvalidArgument: x");
  EXPECT_EQ(Status::NotFound("x").ToString(), "NotFound: x");
  EXPECT_EQ(Status::Corruption("x").ToString(), "Corruption: x");
  EXPECT_EQ(Status::NotSupported("x").ToString(), "NotSupported: x");
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto inner = []() { return Status::NotFound("gone"); };
  auto outer = [&]() -> Status {
    SPB_RETURN_IF_ERROR(inner());
    return Status::OK();
  };
  EXPECT_EQ(outer().code(), Status::Code::kNotFound);
}

TEST(StatusTest, ReturnIfErrorPassesOnOk) {
  auto inner = []() { return Status::OK(); };
  auto outer = [&]() -> Status {
    SPB_RETURN_IF_ERROR(inner());
    return Status::InvalidArgument("reached end");
  };
  EXPECT_EQ(outer().code(), Status::Code::kInvalidArgument);
}

TEST(BlobTest, StringRoundTrip) {
  const std::string word = "defoliate";
  Blob b = BlobFromString(word);
  EXPECT_EQ(b.size(), word.size());
  EXPECT_EQ(BlobToString(b), word);
}

TEST(BlobTest, EmptyStringRoundTrip) {
  Blob b = BlobFromString("");
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(BlobToString(b), "");
}

TEST(BlobTest, FloatRoundTrip) {
  std::vector<float> v = {0.0f, 1.5f, -3.25f, 1e-9f, 42.0f};
  Blob b = BlobFromFloats(v);
  EXPECT_EQ(b.size(), v.size() * sizeof(float));
  EXPECT_EQ(BlobToFloats(b), v);
}

TEST(BlobTest, EmptyFloatRoundTrip) {
  EXPECT_TRUE(BlobToFloats(BlobFromFloats({})).empty());
}

TEST(CodingTest, Fixed16RoundTrip) {
  uint8_t buf[2];
  EncodeFixed16(buf, 0xBEEF);
  EXPECT_EQ(DecodeFixed16(buf), 0xBEEF);
}

TEST(CodingTest, Fixed32RoundTrip) {
  uint8_t buf[4];
  EncodeFixed32(buf, 0xDEADBEEFu);
  EXPECT_EQ(DecodeFixed32(buf), 0xDEADBEEFu);
}

TEST(CodingTest, Fixed64RoundTrip) {
  uint8_t buf[8];
  EncodeFixed64(buf, 0x0123456789ABCDEFull);
  EXPECT_EQ(DecodeFixed64(buf), 0x0123456789ABCDEFull);
}

TEST(CodingTest, DoubleRoundTrip) {
  uint8_t buf[8];
  EncodeDouble(buf, 3.14159265358979);
  EXPECT_DOUBLE_EQ(DecodeDouble(buf), 3.14159265358979);
}

TEST(CodingTest, LittleEndianLayout) {
  uint8_t buf[4];
  EncodeFixed32(buf, 0x04030201u);
  EXPECT_EQ(buf[0], 1);
  EXPECT_EQ(buf[1], 2);
  EXPECT_EQ(buf[2], 3);
  EXPECT_EQ(buf[3], 4);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform(1000), b.Uniform(1000));
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Uniform(1000000) == b.Uniform(1000000)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianRoughlyCentered) {
  Rng rng(7);
  double sum = 0.0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) sum += rng.NextGaussian();
  EXPECT_NEAR(sum / n, 0.0, 0.05);
}

TEST(ParallelForTest, CoversTheRangeOnceInContiguousChunks) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{10}, size_t{1000}}) {
    std::vector<std::atomic<int>> hits(n);
    const std::vector<size_t> bounds =
        ParallelFor(n, 100, [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
        });
    ASSERT_GE(bounds.size(), 2u);
    EXPECT_EQ(bounds.front(), 0u);
    EXPECT_EQ(bounds.back(), n);
    // min(hardware threads, n / min_chunk) chunks, at least one.
    const size_t hw = std::max(1u, std::thread::hardware_concurrency());
    EXPECT_EQ(bounds.size() - 1, std::clamp<size_t>(n / 100, 1, hw));
    for (size_t i = 0; i + 1 < bounds.size(); ++i) {
      EXPECT_LE(bounds[i], bounds[i + 1]);
    }
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelForTest, ExceptionReachesTheCallerAfterAllChunks) {
  std::atomic<int> finished{0};
  EXPECT_THROW(ParallelFor(8, 1,
                           [&](size_t begin, size_t end) {
                             if (begin == 0) throw std::runtime_error("x");
                             finished.fetch_add(int(end - begin));
                           }),
               std::runtime_error);
  const std::vector<size_t> bounds = ParallelFor(8, 1, [](size_t, size_t) {});
  EXPECT_EQ(finished.load(), int(8 - bounds[1]));
}

TEST(ParallelForTest, NestedCallsRunInline) {
  std::atomic<int> inner_chunks{0};
  ParallelFor(4, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const std::thread::id self = std::this_thread::get_id();
      const std::vector<size_t> inner =
          ParallelFor(100000, 1, [&](size_t, size_t) {
            EXPECT_EQ(std::this_thread::get_id(), self);
          });
      EXPECT_EQ(inner.size(), 2u);
      inner_chunks.fetch_add(int(inner.size()) - 1);
    }
  });
  EXPECT_EQ(inner_chunks.load(), 4);
}

}  // namespace
}  // namespace spb
