/**
 * @file
 * RCD inversion, DQ twist and DIMM tests (common pitfalls 1 and 3).
 */

#include <gtest/gtest.h>

#include <bit>

#include "mapping/dimm.h"
#include "mapping/dq_twist.h"
#include "mapping/rcd.h"
#include "test_common.h"

namespace dramscope {
namespace mapping {
namespace {

TEST(Rcd, BSideInvertsRows)
{
    Rcd rcd(10, true);
    EXPECT_EQ(rcd.chipRow(0, false), 0u);
    EXPECT_EQ(rcd.chipRow(0, true), 1023u);
    EXPECT_EQ(rcd.chipRow(5, true), 1018u);
    // Inversion is an involution.
    for (dram::RowAddr r : {0u, 5u, 512u, 1023u})
        EXPECT_EQ(rcd.chipRow(rcd.chipRow(r, true), true), r);
}

TEST(Rcd, DisabledInversionIsIdentity)
{
    Rcd rcd(10, false);
    EXPECT_EQ(rcd.chipRow(7, true), 7u);
    EXPECT_EQ(rcd.mask(), 0u);
}

TEST(DqTwist, ChipZeroIsStraight)
{
    DqTwist t(dram::ChipWidth::X4, 0u);
    for (uint32_t bit = 0; bit < 32; ++bit)
        EXPECT_EQ(t.toChip(1ULL << bit, 32), 1ULL << bit);
    EXPECT_EQ(t.toChip(0x12345678ULL, 32), 0x12345678ULL);
}

TEST(DqTwist, RoundtripForEveryChip)
{
    for (uint32_t c = 0; c < 16; ++c) {
        DqTwist t(dram::ChipWidth::X4, c);
        const uint64_t data = 0x9E3779B9ULL ^ (c * 0x5555ULL);
        EXPECT_EQ(t.toHost(t.toChip(data, 32), 32), data) << c;
    }
}

TEST(DqTwist, PermutesLanesWithinBeats)
{
    // Bits of beat k stay within beat k.
    DqTwist t(dram::ChipWidth::X4, 3u);
    for (uint32_t bit = 0; bit < 32; ++bit)
        EXPECT_EQ(std::countr_zero(t.toChip(1ULL << bit, 32)) / 4,
                  int(bit / 4));
}

TEST(DqTwist, DifferentChipsSeeDifferentData)
{
    // Common pitfall (3): writing 0x55... does not reach every chip
    // as 0x55.
    const uint64_t host_data = 0x55555555ULL;
    bool any_different = false;
    for (uint32_t c = 1; c < 16; ++c) {
        DqTwist t(dram::ChipWidth::X4, c);
        if (t.toChip(host_data, 32) != host_data)
            any_different = true;
    }
    EXPECT_TRUE(any_different);
}

TEST(DqTwist, ExplicitPermutationValidated)
{
    DqTwist t(dram::ChipWidth::X4, std::vector<uint32_t>{1, 0, 3, 2});
    EXPECT_EQ(t.toChip(1, 32), 2u);  // Host bit 0 is chip bit 1.
    EXPECT_EQ(t.hostBit(1), 0u);
    EXPECT_DEATH(DqTwist(dram::ChipWidth::X4,
                         std::vector<uint32_t>{0, 0, 1, 2}),
                 "permutation");
}

class DimmTest : public ::testing::Test
{
  protected:
    DimmTest() : dimm_(testutil::tinyPlain()) {}

    Dimm dimm_;
};

TEST_F(DimmTest, ChipCountFollowsWidth)
{
    EXPECT_EQ(dimm_.chipCount(), 16u);  // x4: 64-bit bus / 4.
    Dimm x8(
        []() {
            auto cfg = testutil::tinyPlain();
            cfg.width = dram::ChipWidth::X8;
            cfg.rdDataBits = 64;
            cfg.rowBits = 512;
            cfg.matWidth = 64;  // 8 MATs, groupBits = 8.
            cfg.validate();
            return cfg;
        }());
    EXPECT_EQ(x8.chipCount(), 8u);
}

TEST_F(DimmTest, BSideChipsReceiveInvertedRows)
{
    EXPECT_FALSE(dimm_.isBSide(0));
    EXPECT_TRUE(dimm_.isBSide(15));
    EXPECT_EQ(dimm_.chipRow(0, 5), 5u);
    EXPECT_EQ(dimm_.chipRow(15, 5), 1018u);
    EXPECT_EQ(dimm_.hostRowFor(15, 1018), 5u);
}

TEST_F(DimmTest, WriteReadRoundtripAcrossChips)
{
    const dram::NanoTime t0 = 1000;
    std::vector<uint64_t> data(dimm_.chipCount());
    for (size_t c = 0; c < data.size(); ++c)
        data[c] = (0xABCD1234ULL * (c + 1)) & 0xFFFFFFFFULL;

    dimm_.act(0, 40, t0);
    dimm_.writeChips(0, 3, data, t0 + 20);
    // Rank columns are chip-major: chip c owns [c * columns, ...).
    const uint32_t columns = dimm_.chip(0).config().columnsPerRow();
    for (uint32_t c = 0; c < dimm_.chipCount(); ++c)
        EXPECT_EQ(dimm_.read(0, c * columns + 3, t0 + 25), data[c]) << c;
    dimm_.pre(0, t0 + 60);
}

TEST_F(DimmTest, NaiveHostSeesGhostRows)
{
    // Common pitfall (1): a host that ignores RCD inversion believes
    // it wrote row 5 everywhere, but B-side chips wrote row 1018.
    const dram::NanoTime t0 = 1000;
    std::vector<uint64_t> ones(dimm_.chipCount(), 0xFFFFFFFFULL);
    dimm_.act(0, 5, t0);
    dimm_.writeChips(0, 0, ones, t0 + 20);
    dimm_.pre(0, t0 + 60);

    // Chip 15 (B side), asked directly for its row 5, has nothing.
    auto &chip = dimm_.chip(15);
    chip.act(0, 5, t0 + 100);
    EXPECT_EQ(chip.read(0, 0, t0 + 120), 0u);
    chip.pre(0, t0 + 140);
    // Its row 1018 holds the data (modulo DQ twist, which preserves
    // popcount of an all-ones pattern).
    chip.act(0, 1018, t0 + 200);
    EXPECT_EQ(chip.read(0, 0, t0 + 220), 0xFFFFFFFFULL);
    chip.pre(0, t0 + 240);
}

TEST_F(DimmTest, RefreshBroadcasts)
{
    const dram::NanoTime t0 = 1000;
    dimm_.refresh(t0);
    for (uint32_t c = 0; c < dimm_.chipCount(); ++c)
        EXPECT_EQ(dimm_.chip(c).stats().refs, 1u);
}

} // namespace
} // namespace mapping
} // namespace dramscope
