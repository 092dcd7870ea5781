/**
 * @file
 * Distributional and scaling properties of the physics model: the
 * calibration promises DESIGN.md makes (BER linear in dose, Hcnt
 * bounds, retention statistics) hold empirically.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "bender/host.h"
#include "core/physmap.h"
#include "dram/chip.h"
#include "test_common.h"

namespace dramscope {
namespace {

using dram::DeviceConfig;
using dram::RowAddr;

class ModelProperties : public ::testing::Test
{
  protected:
    ModelProperties()
        : cfg_(testutil::tinyPlain()), chip_(cfg_), host_(chip_)
    {
    }

    /** Flips in a victim row after a fresh single-sided attack. */
    size_t
    flipsAfter(RowAddr victim, uint64_t count, double open_ns = 35.0)
    {
        host_.writeRowPattern(0, victim, ~0ULL);
        host_.writeRowPattern(0, victim + 1, 0);
        host_.hammer(0, victim + 1, count, open_ns);
        const BitVec row = host_.readRowBits(0, victim);
        return row.size() - row.popcount();
    }

    DeviceConfig cfg_;
    dram::Chip chip_;
    bender::Host host_;
};

TEST_F(ModelProperties, BerIsRoughlyLinearInActivationCount)
{
    // Uniform thresholds make BER linear in dose, which is what lets
    // the paper's multiplicative factors map onto BER ratios.  Sum
    // over several rows for stable statistics.
    size_t flips1 = 0, flips2 = 0, flips4 = 0;
    for (RowAddr v = 52; v < 84; v += 4) {
        flips1 += flipsAfter(v, 100000);
        flips2 += flipsAfter(v, 200000);
        flips4 += flipsAfter(v, 400000);
    }
    ASSERT_GT(flips1, 20u);
    EXPECT_NEAR(double(flips2) / double(flips1), 2.1, 0.5);
    EXPECT_NEAR(double(flips4) / double(flips2), 2.1, 0.5);
}

TEST_F(ModelProperties, NoFlipsBelowTheMinimumThreshold)
{
    // thresholdMin = 8K ACTs: a 7K attack can never flip anything.
    for (RowAddr v = 52; v < 84; v += 4)
        EXPECT_EQ(flipsAfter(v, 7000), 0u);
}

TEST_F(ModelProperties, PressDoseScalesWithOpenTime)
{
    size_t short_open = 0, long_open = 0;
    for (RowAddr v = 52; v < 84; v += 4) {
        short_open += flipsAfter(v, 4096, 3900.0);
        long_open += flipsAfter(v, 4096, 7800.0);
    }
    EXPECT_GT(long_open, short_open);
    EXPECT_GT(short_open, 0u);
}

TEST_F(ModelProperties, HammerAndPressFlipDisjointCellPopulations)
{
    // SS V-B: "the gradient for flipped cells overlapping with
    // RowPress and RowHammer converges to 0" — independent per-cell
    // thresholds give (near-)disjoint flip sets.
    const RowAddr victim = 60;
    host_.writeRowPattern(0, victim, ~0ULL);
    host_.writeRowPattern(0, victim + 1, 0);
    host_.hammer(0, victim + 1, 300000);
    BitVec hammer_read = host_.readRowBits(0, victim);
    hammer_read = hammer_read.inverted();  // Flip positions.

    host_.writeRowPattern(0, victim, ~0ULL);
    host_.press(0, victim + 1, 8192);
    BitVec press_read = host_.readRowBits(0, victim);
    press_read = press_read.inverted();

    size_t overlap = 0;
    for (size_t i = 0; i < hammer_read.size(); ++i) {
        if (hammer_read.get(i) && press_read.get(i))
            ++overlap;
    }
    // Different gate phases make the overlap structurally zero here.
    EXPECT_LE(overlap, 1u);
    EXPECT_GT(hammer_read.popcount(), 5u);
    EXPECT_GT(press_read.popcount(), 5u);
}

TEST_F(ModelProperties, DoubleSidedDoseIsAdditive)
{
    // Hammering both neighbours accumulates both doses before the
    // commit, so the double-sided flip set contains the union of the
    // single-sided sets (the paper's double-sided attacks flip more).
    const RowAddr victim = 60;
    auto run = [&](bool low, bool up) {
        host_.writeRowPattern(0, victim, ~0ULL);
        host_.writeRowPattern(0, victim - 1, 0);
        host_.writeRowPattern(0, victim + 1, 0);
        if (low)
            host_.hammer(0, victim - 1, 200000);
        if (up)
            host_.hammer(0, victim + 1, 200000);
        // Flip positions (written all-ones, so flips read as zeros).
        return host_.readRowBits(0, victim).inverted();
    };
    const BitVec lower_only = run(true, false);
    const BitVec upper_only = run(false, true);
    const BitVec both = run(true, true);
    for (size_t i = 0; i < both.size(); ++i) {
        if (lower_only.get(i) || upper_only.get(i)) {
            EXPECT_TRUE(both.get(i)) << i;
        }
    }
    EXPECT_GT(both.popcount(),
              std::max(lower_only.popcount(), upper_only.popcount()));
}

TEST_F(ModelProperties, RetentionFractionTracksTheLognormal)
{
    // After waiting t, the decayed fraction of charged cells should
    // approximate Phi(ln(t / median) / sigma).
    auto decayed_fraction = [&](double wait_ms) {
        DeviceConfig cfg = cfg_;
        dram::Chip chip(cfg);
        bender::Host host(chip);
        size_t lost = 0, total = 0;
        for (RowAddr r = 10; r < 18; ++r) {
            host.writeRowPattern(0, r, ~0ULL);
        }
        host.waitMs(wait_ms);
        for (RowAddr r = 10; r < 18; ++r) {
            const BitVec row = host.readRowBits(0, r);
            lost += row.size() - row.popcount();
            total += row.size();
        }
        return double(lost) / double(total);
    };
    const double median_ms = cfg_.retention.medianRetentionMs;
    EXPECT_NEAR(decayed_fraction(median_ms), 0.5, 0.08);
    EXPECT_LT(decayed_fraction(median_ms / 16), 0.08);
    EXPECT_GT(decayed_fraction(median_ms * 16), 0.92);
}

TEST_F(ModelProperties, WeakestCellHcntIsRealistic)
{
    // The weakest cell of a row should flip within ~8.5-30K ACTs
    // (thresholdMin + expected minimum of the uniform tail).
    const RowAddr victim = 60;
    auto any_flip = [&](uint64_t count) {
        host_.writeRowPattern(0, victim, ~0ULL);
        host_.writeRowPattern(0, victim + 1, 0);
        host_.hammer(0, victim + 1, count);
        const BitVec row = host_.readRowBits(0, victim);
        return row.popcount() != row.size();
    };
    uint64_t lo = 1000, hi = 1u << 21;
    ASSERT_TRUE(any_flip(hi));
    while (lo + 1 < hi) {
        const uint64_t mid = lo + (hi - lo) / 2;
        (any_flip(mid) ? hi : lo) = mid;
    }
    EXPECT_GE(hi, 8000u);
    EXPECT_LE(hi, 80000u);
}

TEST_F(ModelProperties, ViolationFreeOperationIsSilent)
{
    host_.writeRowPattern(0, 5, ~0ULL);
    host_.readRow(0, 5);
    host_.refresh();
    EXPECT_EQ(chip_.violationCount(), 0u);
}

TEST_F(ModelProperties, MatBoundaryBlocksHorizontalInfluence)
{
    // A victim bit at the last cell of a MAT must not be boosted by
    // flipping the first cell of the next MAT (SS IV-A isolation).
    const auto map = core::PhysMap::fromSwizzle(
        chip_.swizzle(), cfg_.columnsPerRow(), cfg_.rdDataBits);
    const uint32_t boundary = cfg_.matWidth;  // First cell of MAT 1.

    auto flips_at = [&](bool flip_neighbor) {
        size_t flips = 0;
        for (RowAddr v = 52; v < 84; v += 4) {
            BitVec victim(cfg_.rowBits, false);
            BitVec phys(cfg_.rowBits, false);
            if (flip_neighbor)
                phys.set(boundary, true);  // Across the MAT boundary.
            host_.writeRowBits(0, v, map.toHost(phys));
            host_.writeRowPattern(0, v + 1, ~0ULL);
            host_.hammer(0, v + 1, 1200000);
            BitVec read = map.toPhysical(host_.readRowBits(0, v));
            flips += read.get(boundary - 1) !=
                     phys.get(boundary - 1);
            flips += read.get(boundary - 2) !=
                     phys.get(boundary - 2);
        }
        return flips;
    };
    // Deterministic differential: identical counts = no influence.
    EXPECT_EQ(flips_at(false), flips_at(true));
}

} // namespace
} // namespace dramscope
