#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>

#include "common/rng.h"
#include "sfc/sfc.h"

namespace spb {
namespace {

struct CurveParam {
  CurveType type;
  size_t dims;
  int bits;
};

std::string CurveParamName(const ::testing::TestParamInfo<CurveParam>& info) {
  std::string name =
      info.param.type == CurveType::kHilbert ? "Hilbert" : "ZOrder";
  name += "_d" + std::to_string(info.param.dims);
  name += "b" + std::to_string(info.param.bits);
  return name;
}

class CurveTest : public ::testing::TestWithParam<CurveParam> {
 protected:
  std::unique_ptr<SpaceFillingCurve> MakeCurve() {
    const auto& p = GetParam();
    return SpaceFillingCurve::Create(p.type, p.dims, p.bits);
  }
};

TEST_P(CurveTest, EncodeDecodeRoundTripsRandomPoints) {
  auto curve = MakeCurve();
  Rng rng(99);
  std::vector<uint32_t> coords(curve->dims());
  std::vector<uint32_t> back;
  for (int i = 0; i < 2000; ++i) {
    for (auto& c : coords) c = uint32_t(rng.Uniform(curve->coord_limit()));
    const uint64_t key = curve->Encode(coords);
    curve->Decode(key, &back);
    EXPECT_EQ(back, coords);
  }
}

TEST_P(CurveTest, BijectionOnSmallGrids) {
  const auto& p = GetParam();
  const uint64_t total = 1ull << (p.dims * p.bits);
  if (total > 1ull << 16) GTEST_SKIP() << "grid too large for exhaustion";
  auto curve = MakeCurve();
  std::set<uint64_t> keys;
  std::vector<uint32_t> coords(p.dims, 0);
  // Odometer over the full grid.
  while (true) {
    const uint64_t key = curve->Encode(coords);
    EXPECT_LT(key, total);
    EXPECT_TRUE(keys.insert(key).second) << "duplicate key " << key;
    size_t i = 0;
    while (i < p.dims) {
      if (coords[i] + 1 < curve->coord_limit()) {
        ++coords[i];
        break;
      }
      coords[i] = 0;
      ++i;
    }
    if (i == p.dims) break;
  }
  EXPECT_EQ(keys.size(), total);
}

// The batch decoder must be bit-identical to per-key Decode() for every
// curve/dims/bits combination — whichever variant (portable or AVX2) the
// process dispatched to. tools/check.sh re-runs this binary with
// SPB_DISABLE_SIMD=1 so both variants are covered on SIMD hardware.
TEST_P(CurveTest, DecodeBatchMatchesPerKeyDecode) {
  auto curve = MakeCurve();
  const size_t dims = curve->dims();
  // Odd, > one vector width: exercises the scalar tail of SIMD variants.
  constexpr size_t kCount = 257;
  Rng rng(515);
  std::vector<uint32_t> coords(dims);
  std::vector<uint64_t> keys(kCount);
  for (auto& key : keys) {
    for (auto& c : coords) c = uint32_t(rng.Uniform(curve->coord_limit()));
    key = curve->Encode(coords);
  }
  keys[7] = keys[3];  // duplicates must be fine

  std::vector<uint32_t> cells(kCount * dims, 0xFFFFFFFFu);
  std::vector<uint32_t> tmp(kCount);
  curve->DecodeBatch(keys.data(), kCount, cells.data(), tmp.data());
  std::vector<uint32_t> one;
  for (size_t i = 0; i < kCount; ++i) {
    curve->Decode(keys[i], &one);
    for (size_t d = 0; d < dims; ++d) {
      ASSERT_EQ(cells[d * kCount + i], one[d])
          << "key " << i << " dim " << d;
    }
  }
  // Zero-count call is a no-op, not a crash.
  curve->DecodeBatch(keys.data(), 0, cells.data(), tmp.data());
}

// The batch encoder must be bit-identical to per-point Encode(), for both
// curves and whichever variant the process dispatched to (tools/check.sh
// re-runs this binary with SPB_DISABLE_SIMD=1 for the portable one).
TEST_P(CurveTest, EncodeBatchMatchesPerPointEncode) {
  auto curve = MakeCurve();
  const size_t dims = curve->dims();
  Rng rng(616);
  for (size_t count : {size_t{257}, size_t{1}, size_t{0}}) {
    std::vector<std::vector<uint32_t>> points(count);
    std::vector<uint32_t> cells(count * dims);
    for (size_t i = 0; i < count; ++i) {
      points[i].resize(dims);
      for (size_t d = 0; d < dims; ++d) {
        // Grid corners as well as random cells.
        const uint64_t pick = rng.Uniform(8);
        const uint32_t limit = curve->coord_limit();
        points[i][d] = pick == 0   ? 0
                       : pick == 1 ? limit - 1
                                   : uint32_t(rng.Uniform(limit));
        cells[d * count + i] = points[i][d];
      }
    }
    std::vector<uint64_t> keys(count, ~uint64_t{0});
    std::vector<uint32_t> tmp(count);
    curve->EncodeBatch(cells.data(), count, keys.data(), tmp.data());
    for (size_t i = 0; i < count; ++i) {
      ASSERT_EQ(keys[i], curve->Encode(points[i])) << "point " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, CurveTest,
    ::testing::Values(CurveParam{CurveType::kHilbert, 1, 8},
                      CurveParam{CurveType::kHilbert, 2, 4},
                      CurveParam{CurveType::kHilbert, 2, 8},
                      CurveParam{CurveType::kHilbert, 3, 4},
                      CurveParam{CurveType::kHilbert, 5, 3},
                      CurveParam{CurveType::kHilbert, 5, 12},
                      CurveParam{CurveType::kHilbert, 9, 7},
                      CurveParam{CurveType::kZOrder, 1, 8},
                      CurveParam{CurveType::kZOrder, 2, 4},
                      CurveParam{CurveType::kZOrder, 2, 8},
                      CurveParam{CurveType::kZOrder, 3, 4},
                      CurveParam{CurveType::kZOrder, 5, 3},
                      CurveParam{CurveType::kZOrder, 5, 12},
                      CurveParam{CurveType::kZOrder, 9, 7}),
    CurveParamName);

TEST(HilbertTest, ConsecutiveKeysAreGridNeighbors) {
  // The defining continuity property of the Hilbert curve: positions k and
  // k+1 map to cells at L1 distance exactly 1.
  for (auto [dims, bits] : {std::pair<size_t, int>{2, 5},
                            {3, 4},
                            {4, 3},
                            {5, 2}}) {
    auto curve = SpaceFillingCurve::Create(CurveType::kHilbert, dims, bits);
    const uint64_t total = 1ull << (dims * bits);
    std::vector<uint32_t> prev, curr;
    curve->Decode(0, &prev);
    for (uint64_t k = 1; k < total; ++k) {
      curve->Decode(k, &curr);
      uint64_t l1 = 0;
      for (size_t i = 0; i < dims; ++i) {
        l1 += uint64_t(std::abs(int64_t(curr[i]) - int64_t(prev[i])));
      }
      ASSERT_EQ(l1, 1u) << "discontinuity at k=" << k << " dims=" << dims;
      std::swap(prev, curr);
    }
  }
}

TEST(HilbertTest, FirstQuadrant2DMatchesReference) {
  // Standard 2-d order-2 Hilbert curve: key 0 at origin.
  auto curve = SpaceFillingCurve::Create(CurveType::kHilbert, 2, 2);
  std::vector<uint32_t> c;
  curve->Decode(0, &c);
  EXPECT_EQ(c[0] + c[1], 0u);  // starts at the origin corner
}

TEST(ZOrderTest, ComponentwiseDominanceImpliesKeyOrder) {
  // Lemma 6's foundation: if a[i] <= b[i] for all i then Z(a) <= Z(b).
  Rng rng(5);
  auto curve = SpaceFillingCurve::Create(CurveType::kZOrder, 4, 6);
  for (int trial = 0; trial < 5000; ++trial) {
    std::vector<uint32_t> a(4), b(4);
    for (size_t i = 0; i < 4; ++i) {
      a[i] = uint32_t(rng.Uniform(64));
      b[i] = a[i] + uint32_t(rng.Uniform(64 - a[i]));
    }
    EXPECT_LE(curve->Encode(a), curve->Encode(b));
  }
}

TEST(ZOrderTest, HilbertDoesNotHaveDominanceInGeneral) {
  // Sanity contrast: the join algorithm must use Z-order, not Hilbert. Find
  // at least one dominated pair whose Hilbert keys invert.
  auto curve = SpaceFillingCurve::Create(CurveType::kHilbert, 2, 4);
  bool found_inversion = false;
  for (uint32_t x = 0; x < 15 && !found_inversion; ++x) {
    for (uint32_t y = 0; y < 15 && !found_inversion; ++y) {
      if (curve->Encode({x, y}) > curve->Encode({x + 1, y})) {
        found_inversion = true;
      }
    }
  }
  EXPECT_TRUE(found_inversion);
}

TEST(ZOrderTest, KnownInterleaving2D) {
  auto curve = SpaceFillingCurve::Create(CurveType::kZOrder, 2, 2);
  // Packing is MSB-first with dimension 0 taking the higher bit of each pair.
  EXPECT_EQ(curve->Encode({0, 0}), 0u);
  EXPECT_EQ(curve->Encode({0, 1}), 1u);
  EXPECT_EQ(curve->Encode({1, 0}), 2u);
  EXPECT_EQ(curve->Encode({1, 1}), 3u);
  EXPECT_EQ(curve->Encode({2, 0}), 8u);
  EXPECT_EQ(curve->Encode({3, 3}), 15u);
}

TEST(RegionTest, CellCountBasics) {
  EXPECT_EQ(RegionCellCount({0, 0}, {1, 1}), 4u);
  EXPECT_EQ(RegionCellCount({2, 3}, {2, 3}), 1u);
  EXPECT_EQ(RegionCellCount({0, 5}, {3, 4}), 0u);  // empty: hi < lo
  EXPECT_EQ(RegionCellCount({0}, {999}), 1000u);
}

TEST(RegionTest, EnumerateRegionKeysMatchesBruteForce) {
  Rng rng(31);
  for (CurveType type : {CurveType::kHilbert, CurveType::kZOrder}) {
    auto curve = SpaceFillingCurve::Create(type, 3, 4);
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<uint32_t> lo(3), hi(3);
      for (size_t i = 0; i < 3; ++i) {
        lo[i] = uint32_t(rng.Uniform(16));
        hi[i] = lo[i] + uint32_t(rng.Uniform(16 - lo[i]));
      }
      auto keys = EnumerateRegionKeys(*curve, lo, hi);
      EXPECT_EQ(keys.size(), RegionCellCount(lo, hi));
      EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
      // Brute force: a key is in the list iff its cell is inside the box.
      std::set<uint64_t> keyset(keys.begin(), keys.end());
      std::vector<uint32_t> c;
      for (uint64_t k = 0; k < (1ull << 12); ++k) {
        curve->Decode(k, &c);
        bool inside = true;
        for (size_t i = 0; i < 3; ++i) {
          if (c[i] < lo[i] || c[i] > hi[i]) inside = false;
        }
        EXPECT_EQ(keyset.count(k) == 1, inside) << "key " << k;
      }
    }
  }
}

TEST(RegionTest, EmptyRegionYieldsNoKeys) {
  auto curve = SpaceFillingCurve::Create(CurveType::kZOrder, 2, 4);
  EXPECT_TRUE(EnumerateRegionKeys(*curve, {5, 5}, {4, 9}).empty());
}

}  // namespace
}  // namespace spb
