/**
 * @file
 * Unit tests for the 6F^2 geometry and the subarray map.
 */

#include <gtest/gtest.h>

#include "dram/geometry.h"
#include "test_common.h"

namespace dramscope {
namespace dram {
namespace {

TEST(CellSite, AlternatesAlongBitline)
{
    // Fixed row: sites alternate with the BL index (Figure 11).
    for (BitlineIdx bl = 0; bl < 16; ++bl) {
        EXPECT_NE(cellSite(0, bl), cellSite(0, bl + 1));
        EXPECT_NE(cellSite(5, bl), cellSite(5, bl + 1));
    }
}

TEST(CellSite, ReversesBetweenWordlineParities)
{
    for (BitlineIdx bl = 0; bl < 16; ++bl)
        EXPECT_NE(cellSite(2, bl), cellSite(3, bl));
}

TEST(GateType, OppositeForOppositeDirections)
{
    // The two aggressor directions present the two gate types.
    for (RowAddr r = 1; r < 8; ++r) {
        for (BitlineIdx bl = 0; bl < 8; ++bl)
            EXPECT_NE(gateType(r, bl, true), gateType(r, bl, false));
    }
}

TEST(GateType, AlternatesAlongRowForFixedDirection)
{
    for (BitlineIdx bl = 0; bl < 8; ++bl)
        EXPECT_NE(gateType(4, bl, true), gateType(4, bl + 1, true));
}

TEST(GateType, TopCellUpperAggressorIsPassing)
{
    // Definition from the paper: for a top cell, the upper aggressor
    // forms the passing gate.
    for (RowAddr r = 1; r < 16; ++r) {
        for (BitlineIdx bl = 0; bl < 16; ++bl) {
            if (cellSite(r, bl) == CellSite::Top)
                EXPECT_EQ(gateType(r, bl, true), GateType::Passing);
            else
                EXPECT_EQ(gateType(r, bl, true), GateType::Neighboring);
        }
    }
}

TEST(RemapRow, MfrASchemeIsInvolution)
{
    for (RowAddr r = 0; r < 64; ++r) {
        const RowAddr p = remapRow(RowRemapScheme::MfrA8Blk, r);
        EXPECT_EQ(remapRow(RowRemapScheme::MfrA8Blk, p), r);
        EXPECT_EQ(r / 8, p / 8) << "remap must stay within its block";
    }
}

TEST(RemapRow, MfrASchemeScramblesUpperHalf)
{
    EXPECT_EQ(remapRow(RowRemapScheme::MfrA8Blk, 0), 0u);
    EXPECT_EQ(remapRow(RowRemapScheme::MfrA8Blk, 3), 3u);
    EXPECT_EQ(remapRow(RowRemapScheme::MfrA8Blk, 4), 7u);
    EXPECT_EQ(remapRow(RowRemapScheme::MfrA8Blk, 5), 6u);
    EXPECT_EQ(remapRow(RowRemapScheme::None, 5), 5u);
}

class SubarrayMapTest : public ::testing::Test
{
  protected:
    SubarrayMapTest() : cfg_(testutil::tinyPlain()), map_(cfg_) {}

    DeviceConfig cfg_;
    SubarrayMap map_;
};

TEST_F(SubarrayMapTest, CoversEveryRowExactlyOnce)
{
    RowAddr expect_first = 0;
    for (size_t i = 0; i < map_.count(); ++i) {
        const Subarray &s = map_.subarray(i);
        EXPECT_EQ(s.firstRow, expect_first);
        expect_first += s.height;
    }
    EXPECT_EQ(expect_first, cfg_.rowsPerBank);
}

TEST_F(SubarrayMapTest, HeightsFollowThePattern)
{
    // tiny: {2 x 48, 1 x 32} repeating.
    ASSERT_GE(map_.count(), 3u);
    EXPECT_EQ(map_.subarray(0).height, 48u);
    EXPECT_EQ(map_.subarray(1).height, 48u);
    EXPECT_EQ(map_.subarray(2).height, 32u);
    EXPECT_EQ(map_.subarray(3).height, 48u);
}

TEST_F(SubarrayMapTest, SubarrayOfIsConsistent)
{
    for (RowAddr r = 0; r < cfg_.rowsPerBank; ++r)
        EXPECT_TRUE(map_.subarrayOf(r).contains(r));
}

TEST_F(SubarrayMapTest, EdgeFlagsAtSectionBoundaries)
{
    // tiny edge section = 256 rows, pattern = 128 rows: subarrays
    // 0 (rows 0-47) and 5 (rows 224-255) frame section 0.
    EXPECT_TRUE(map_.subarrayOf(0).bottomEdge);
    EXPECT_FALSE(map_.subarrayOf(0).topEdge);
    EXPECT_TRUE(map_.subarrayOf(255).topEdge);
    EXPECT_FALSE(map_.subarrayOf(100).isEdge());
    EXPECT_TRUE(map_.subarrayOf(256).bottomEdge);
}

TEST_F(SubarrayMapTest, NeighborsStopAtSubarrayBoundaries)
{
    // Row 47 is the top of subarray 0; row 48 starts subarray 1.
    EXPECT_FALSE(map_.neighbor(47, true).has_value());
    EXPECT_FALSE(map_.neighbor(48, false).has_value());
    EXPECT_EQ(map_.neighbor(47, false), RowAddr(46));
    EXPECT_EQ(map_.neighbor(10, true), RowAddr(11));
    EXPECT_FALSE(map_.neighbor(0, false).has_value());
}

TEST_F(SubarrayMapTest, AibAdjacency)
{
    EXPECT_EQ(map_.neighbor(10, true), RowAddr(11));
    EXPECT_EQ(map_.neighbor(11, false), RowAddr(10));
    EXPECT_NE(map_.neighbor(47, true), RowAddr(48));  // Across subarrays.
    EXPECT_NE(map_.neighbor(10, true), RowAddr(12));
}

TEST_F(SubarrayMapTest, CopyRelations)
{
    EXPECT_EQ(map_.copyRelation(10, 20), CopyRelation::SameSubarray);
    EXPECT_EQ(map_.copyRelation(10, 50), CopyRelation::DstAbove);
    EXPECT_EQ(map_.copyRelation(50, 10), CopyRelation::DstBelow);
    // Edge pair: subarray 0 (bottom edge) and subarray 5 (top edge).
    EXPECT_EQ(map_.copyRelation(0, 230), CopyRelation::EdgePair);
    EXPECT_EQ(map_.copyRelation(230, 0), CopyRelation::EdgePair);
    // Non-adjacent subarrays within a section: no shared stripe.
    EXPECT_EQ(map_.copyRelation(10, 100), CopyRelation::None);
    // Across sections: no copy.
    EXPECT_EQ(map_.copyRelation(200, 300), CopyRelation::None);
}

TEST_F(SubarrayMapTest, PolarityAllTrueForMfrA)
{
    for (RowAddr r : {0u, 100u, 500u, 1023u})
        EXPECT_EQ(map_.polarityOf(r), CellPolarity::True);
}

TEST(SubarrayMapPolarity, InterleavedForMfrC)
{
    DeviceConfig cfg = testutil::tinyPlain();
    cfg.polarityPolicy = CellPolarityPolicy::InterleavedPerSubarray;
    SubarrayMap map(cfg);
    EXPECT_EQ(map.polarityOf(10), CellPolarity::True);    // Sub 0.
    EXPECT_EQ(map.polarityOf(50), CellPolarity::Anti);    // Sub 1.
    EXPECT_EQ(map.polarityOf(100), CellPolarity::True);   // Sub 2.
}

TEST(SubarrayMapFullSize, RealPresetLayout)
{
    const DeviceConfig cfg = makePreset("A_x4_2016");
    SubarrayMap map(cfg);
    // 11 x 640 + 2 x 576 per 8192 rows, 16 repeats in 128K rows.
    EXPECT_EQ(map.count(), 13u * 16u);
    EXPECT_EQ(map.subarray(0).height, 640u);
    EXPECT_EQ(map.subarray(11).height, 576u);
    EXPECT_EQ(map.subarray(12).height, 576u);
    // Edge sections every 16K rows.
    EXPECT_TRUE(map.subarrayOf(0).bottomEdge);
    EXPECT_TRUE(map.subarrayOf(16383).topEdge);
    EXPECT_TRUE(map.subarrayOf(16384).bottomEdge);
    EXPECT_FALSE(map.subarrayOf(8000).isEdge());
}

} // namespace
} // namespace dram
} // namespace dramscope
