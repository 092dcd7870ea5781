/**
 * @file
 * Swizzle and PhysMap tests, including the Figure 8 misinterpretation
 * demonstration (ColStripe acts as Solid).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "bender/host.h"
#include "core/physmap.h"
#include "dram/chip.h"
#include "dram/config.h"
#include "dram/swizzle.h"
#include "test_common.h"
#include "util/rng.h"

namespace dramscope {
namespace {

TEST(Swizzle, BijectiveOverTheRow)
{
    const dram::DeviceConfig cfg = dram::makeTinyConfig();
    const dram::Swizzle swz(cfg);
    std::vector<bool> seen(cfg.rowBits, false);
    for (uint32_t c = 0; c < cfg.columnsPerRow(); ++c) {
        for (uint32_t i = 0; i < cfg.rdDataBits; ++i) {
            const auto bl = swz.physicalBl(c, i);
            EXPECT_FALSE(seen[bl]);
            seen[bl] = true;
        }
    }
    EXPECT_EQ(std::count(seen.begin(), seen.end(), true),
              std::ptrdiff_t(cfg.rowBits));
}

TEST(Swizzle, RdDataSpreadsAcrossAllMats)
{
    // O1: one RD collects groupBits() cells from every MAT, with each
    // MAT spanning matWidth bitlines (O2).
    const dram::DeviceConfig cfg = dram::makePreset("A_x4_2016");
    const dram::Swizzle swz(cfg);
    std::vector<int> per_mat(cfg.matsPerRow(), 0);
    for (uint32_t i = 0; i < cfg.rdDataBits; ++i)
        ++per_mat[swz.physicalBl(5, i) / cfg.matWidth];
    for (int n : per_mat)
        EXPECT_EQ(n, int(cfg.groupBits()));
}

TEST(Swizzle, GroupCellsAreContiguous)
{
    const dram::DeviceConfig cfg = dram::makePreset("B_x4_2019");
    const dram::Swizzle swz(cfg);
    // The cells one column contributes to a MAT form one contiguous
    // group of groupBits cells.
    const uint32_t col = 17;
    std::vector<uint32_t> bls;
    for (uint32_t i = 0; i < cfg.rdDataBits; ++i) {
        const auto bl = swz.physicalBl(col, i);
        if (bl / cfg.matWidth == 0)
            bls.push_back(bl);
    }
    ASSERT_EQ(bls.size(), cfg.groupBits());
    std::sort(bls.begin(), bls.end());
    for (size_t k = 1; k < bls.size(); ++k)
        EXPECT_EQ(bls[k], bls[k - 1] + 1);
}

/** Figure 7's map, one bit at a time: MAT, column group, vendor slot. */
dram::BitlineIdx
figure7Bl(const dram::DeviceConfig &cfg, dram::ColAddr col, uint32_t rd_bit)
{
    const uint32_t mats = cfg.matsPerRow();
    return rd_bit % mats * cfg.matWidth + col * cfg.groupBits() +
           cfg.swizzlePerm[rd_bit / mats];
}

/**
 * 8 MATs of 192 bitlines with 3-bit fields: the fields of columns 21
 * and 42 straddle two 64-bit words in every MAT.
 */
dram::DeviceConfig
straddlingConfig()
{
    dram::DeviceConfig cfg = dram::makePreset("C_x4_2018");
    cfg.name = "straddling";
    cfg.rowBits = 1536;
    cfg.matWidth = 192;
    cfg.rdDataBits = 24;
    cfg.swizzlePerm = {2, 0, 1};
    cfg.validate();
    return cfg;
}

TEST(Swizzle, MatchesFigure7OnEveryGeometry)
{
    std::vector<dram::DeviceConfig> cfgs = {straddlingConfig(),
                                            dram::makeTinyConfig()};
    for (const std::string &id : dram::presetIds())
        cfgs.push_back(dram::makePreset(id));
    for (const dram::DeviceConfig &cfg : cfgs) {
        SCOPED_TRACE(cfg.name);
        const dram::Swizzle swz(cfg);
        for (uint32_t c = 0; c < cfg.columnsPerRow(); ++c) {
            for (uint32_t i = 0; i < cfg.rdDataBits; ++i)
                ASSERT_EQ(swz.physicalBl(c, i), figure7Bl(cfg, c, i));
        }
    }
}

TEST(Swizzle, BurstsStraddlingWordsLandOnTheirBitlines)
{
    const dram::DeviceConfig cfg = straddlingConfig();
    dram::Chip chip(cfg);
    bender::Host host(chip);
    // Mfr. C alternates cell polarity per subarray: take the first
    // true row and the first anti row.
    std::vector<dram::RowAddr> rows;
    for (const bool want_true : {true, false}) {
        for (dram::RowAddr r = 0; r < cfg.rowsPerBank; ++r) {
            if (chip.bank(0).dataToCharge(chip.toPhysical(r), true) ==
                want_true) {
                rows.push_back(r);
                break;
            }
        }
    }
    ASSERT_EQ(rows.size(), 2u);
    Rng rng(23);
    for (const dram::RowAddr row : rows) {
        BitVec bits(cfg.rowBits);
        for (size_t i = 0; i < bits.size(); ++i)
            bits.set(i, rng.next() & 1ULL);
        host.writeRowBits(0, row, bits);
        testutil::expectChargeOnPhysicalBitlines(chip, host, 0, row, bits);
        EXPECT_EQ(host.readRowBits(0, row), bits) << "row " << row;
    }
}

TEST(PhysMap, RoundtripConversions)
{
    const dram::DeviceConfig cfg = dram::makeTinyConfig();
    const dram::Swizzle swz(cfg);
    const auto map = core::PhysMap::fromSwizzle(swz, cfg.columnsPerRow(),
                                                cfg.rdDataBits);
    BitVec host(cfg.rowBits);
    for (size_t i = 0; i < host.size(); i += 7)
        host.set(i, true);
    EXPECT_EQ(map.toHost(map.toPhysical(host)), host);
    for (uint32_t h = 0; h < cfg.rowBits; ++h)
        EXPECT_EQ(map.hostOf(map.physOf(h)), h);
}

TEST(PhysMap, PhysicalPatternLandsPhysically)
{
    const dram::DeviceConfig cfg = dram::makeTinyConfig();
    const dram::Swizzle swz(cfg);
    const auto map = core::PhysMap::fromSwizzle(swz, cfg.columnsPerRow(),
                                                cfg.rdDataBits);
    const BitVec host = map.hostBitsForPhysicalPattern(0b0011, 4);
    const BitVec phys = map.toPhysical(host);
    for (size_t p = 0; p < phys.size(); ++p)
        EXPECT_EQ(phys.get(p), (p % 4) < 2) << p;
}

TEST(PhysMap, IdentityByDefault)
{
    core::PhysMap map(64);
    EXPECT_EQ(map.physOf(10), 10u);
    EXPECT_EQ(map.hostOf(20), 20u);
}

TEST(PhysMap, RejectsNonPermutation)
{
    EXPECT_DEATH(core::PhysMap::fromTable({0, 0, 1}), "permutation");
}

TEST(Figure8, ColStripeActsAsSolidInsideMatGroups)
{
    // Figure 8a: a host "ColStripe" pattern (alternating RD_data
    // bits) lands as per-MAT solid blocks for Mfr. A's swizzle,
    // because consecutive RD bits go to *different* MATs.
    const dram::DeviceConfig cfg = dram::makePreset("A_x4_2016");
    const dram::Swizzle swz(cfg);
    const auto map = core::PhysMap::fromSwizzle(swz, cfg.columnsPerRow(),
                                                cfg.rdDataBits);
    BitVec host(cfg.rowBits);
    host.fillPattern(0b01, 2);  // ColStripe in host space.
    const BitVec phys = map.toPhysical(host);

    // Within every MAT-column group (4 consecutive cells) the value
    // is constant: the stripe degenerated to solid runs.
    const uint32_t g = cfg.groupBits();
    for (uint32_t start = 0; start + g <= cfg.rowBits; start += g) {
        for (uint32_t k = 1; k < g; ++k) {
            EXPECT_EQ(phys.get(start + k), phys.get(start))
                << "group at " << start;
        }
    }
}

TEST(Figure8, TrueColStripeNeedsThePhysMap)
{
    // Writing through the reconstructed map produces a genuine
    // physical stripe.
    const dram::DeviceConfig cfg = dram::makePreset("A_x4_2016");
    const dram::Swizzle swz(cfg);
    const auto map = core::PhysMap::fromSwizzle(swz, cfg.columnsPerRow(),
                                                cfg.rdDataBits);
    const BitVec host = map.hostBitsForPhysicalPattern(0b01, 2);
    const BitVec phys = map.toPhysical(host);
    for (size_t p = 0; p + 1 < phys.size(); ++p)
        EXPECT_NE(phys.get(p), phys.get(p + 1));
}

} // namespace
} // namespace dramscope
