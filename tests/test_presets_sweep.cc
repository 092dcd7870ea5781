/**
 * @file
 * Parameterized property sweeps over every device preset: structural
 * invariants that must hold for the whole simulated population.
 */

#include <gtest/gtest.h>

#include "bender/host.h"
#include "core/physmap.h"
#include "dram/chip.h"
#include "dram/geometry.h"
#include "test_common.h"

namespace dramscope {
namespace {

class PresetSweep : public ::testing::TestWithParam<std::string>
{
  protected:
    dram::DeviceConfig cfg_ = dram::makePreset(GetParam());
};

TEST_P(PresetSweep, SubarrayMapTilesTheBank)
{
    dram::SubarrayMap map(cfg_);
    dram::RowAddr next = 0;
    uint32_t edge_subs = 0;
    for (size_t k = 0; k < map.count(); ++k) {
        const auto &sub = map.subarray(k);
        EXPECT_EQ(sub.firstRow, next);
        next += sub.height;
        edge_subs += sub.isEdge() ? 1 : 0;
    }
    EXPECT_EQ(next, cfg_.rowsPerBank);
    // Two edge subarrays per section.
    EXPECT_EQ(edge_subs,
              2 * (cfg_.rowsPerBank / cfg_.edgeSectionRows));
}

TEST_P(PresetSweep, CopyRelationIsSymmetricInKind)
{
    dram::SubarrayMap map(cfg_);
    // DstAbove from r means DstBelow from the other side; EdgePair
    // and None are symmetric.
    const dram::RowAddr probes[] = {
        0, cfg_.edgeSectionRows / 3, cfg_.edgeSectionRows - 1,
        cfg_.edgeSectionRows, cfg_.rowsPerBank - 1};
    for (const auto a : probes) {
        for (const auto b : probes) {
            const auto ab = map.copyRelation(a, b);
            const auto ba = map.copyRelation(b, a);
            switch (ab) {
              case dram::CopyRelation::SameSubarray:
                EXPECT_EQ(ba, dram::CopyRelation::SameSubarray);
                break;
              case dram::CopyRelation::DstAbove:
                EXPECT_EQ(ba, dram::CopyRelation::DstBelow);
                break;
              case dram::CopyRelation::DstBelow:
                EXPECT_EQ(ba, dram::CopyRelation::DstAbove);
                break;
              case dram::CopyRelation::EdgePair:
                EXPECT_EQ(ba, dram::CopyRelation::EdgePair);
                break;
              case dram::CopyRelation::None:
                EXPECT_EQ(ba, dram::CopyRelation::None);
                break;
            }
        }
    }
}

TEST_P(PresetSweep, RemapIsAnInvolutionWithinBlocks)
{
    for (dram::RowAddr r = 0; r < 256; ++r) {
        const auto p = dram::remapRow(cfg_.rowRemap, r);
        EXPECT_EQ(dram::remapRow(cfg_.rowRemap, p), r);
        EXPECT_EQ(p / 8, r / 8);
    }
}

TEST_P(PresetSweep, SwizzleIsBijective)
{
    const dram::Swizzle swz(cfg_);
    std::vector<bool> seen(cfg_.rowBits, false);
    for (uint32_t c = 0; c < cfg_.columnsPerRow(); ++c) {
        for (uint32_t i = 0; i < cfg_.rdDataBits; ++i) {
            const auto bl = swz.physicalBl(c, i);
            ASSERT_FALSE(seen[bl]);
            seen[bl] = true;
        }
    }
}

TEST_P(PresetSweep, SwizzleParityIsColumnIndependent)
{
    // The property the SwizzleReverser's periodicity check relies on.
    const dram::Swizzle swz(cfg_);
    for (uint32_t i = 0; i < cfg_.rdDataBits; ++i) {
        const auto parity = swz.physicalBl(0, i) & 1;
        for (uint32_t c = 1; c < cfg_.columnsPerRow(); c += 7)
            EXPECT_EQ(swz.physicalBl(c, i) & 1, parity);
    }
}

TEST_P(PresetSweep, ReadWriteRoundtrip)
{
    dram::Chip chip(cfg_);
    bender::Host host(chip);
    BitVec bits(cfg_.rowBits);
    for (size_t i = 0; i < bits.size(); i += 5)
        bits.set(i, true);
    // Row 1234, plus the first later row of the other cell polarity
    // where the preset has one.
    std::vector<dram::RowAddr> rows = {1234};
    const auto is_true = [&](dram::RowAddr r) {
        return chip.bank(0).dataToCharge(chip.toPhysical(r), true);
    };
    for (dram::RowAddr r = 1235; r < cfg_.rowsPerBank; ++r) {
        if (is_true(r) != is_true(1234)) {
            rows.push_back(r);
            break;
        }
    }
    for (const dram::RowAddr row : rows) {
        host.writeRowBits(0, row, bits);
        // Read == write alone would pass a map that is wrong the same
        // way both ways: the charge must sit on the swizzled bitlines.
        testutil::expectChargeOnPhysicalBitlines(chip, host, 0, row, bits);
        EXPECT_EQ(host.readRowBits(0, row), bits) << "row " << row;
    }
}

TEST_P(PresetSweep, CoupledPartnerConsistent)
{
    dram::Chip chip(cfg_);
    if (!cfg_.coupledRowDistance) {
        EXPECT_FALSE(chip.coupledPartner(100).has_value());
        return;
    }
    const auto p = chip.coupledPartner(100);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*chip.coupledPartner(*p), 100u);
    EXPECT_EQ(*p, 100u + *cfg_.coupledRowDistance);
}

TEST_P(PresetSweep, HammerFlipsAdjacentRowsOnly)
{
    dram::Chip chip(cfg_);
    bender::Host host(chip);
    // Use an interior region; address physically through the remap.
    const dram::RowAddr aggr_phys = 1001;
    auto logical = [&](dram::RowAddr phys) {
        return dram::remapRow(cfg_.rowRemap, phys);
    };
    for (dram::RowAddr p = 998; p <= 1004; ++p) {
        host.writeRowPattern(0, logical(p),
                             p == aggr_phys ? 0 : ~0ULL);
    }
    host.hammer(0, logical(aggr_phys), 300000);
    for (dram::RowAddr p = 998; p <= 1004; ++p) {
        if (p == aggr_phys)
            continue;
        const BitVec row = host.readRowBits(0, logical(p));
        const size_t flips = row.size() - row.popcount();
        if (p == aggr_phys - 1 || p == aggr_phys + 1)
            EXPECT_GT(flips, 10u) << GetParam() << " phys " << p;
        else
            EXPECT_EQ(flips, 0u) << GetParam() << " phys " << p;
    }
}

TEST_P(PresetSweep, PhysicalPatternRoundtrip)
{
    const dram::Swizzle swz(cfg_);
    const auto map = core::PhysMap::fromSwizzle(swz, cfg_.columnsPerRow(),
                                                cfg_.rdDataBits);
    const BitVec host = map.hostBitsForPhysicalPattern(0b0011, 4);
    const BitVec phys = map.toPhysical(host);
    for (size_t p = 0; p < phys.size(); ++p)
        ASSERT_EQ(phys.get(p), (p % 4) < 2);
}

INSTANTIATE_TEST_SUITE_P(AllPresets, PresetSweep,
                         ::testing::ValuesIn(dram::presetIds()),
                         [](const auto &info) { return info.param; });

} // namespace
} // namespace dramscope
