/**
 * @file
 * Physics tests: disturbance, retention and RowCopy behaviour of the
 * bank, exercised through the full chip/host command path, and REF
 * exactness checked on the Bank itself.
 */

#include <gtest/gtest.h>

#include <set>

#include "bender/host.h"
#include "core/physmap.h"
#include "dram/chip.h"
#include "test_common.h"
#include "util/rng.h"

namespace dramscope {
namespace {

using dram::AibMechanism;
using dram::DeviceConfig;
using dram::RowAddr;

class BankPhysicsTest : public ::testing::Test
{
  protected:
    BankPhysicsTest()
        : cfg_(testutil::tinyPlain()), chip_(cfg_), host_(chip_),
          map_(core::PhysMap::fromSwizzle(chip_.swizzle(),
                                          cfg_.columnsPerRow(),
                                          cfg_.rdDataBits))
    {
    }

    /** Flip positions (physical bitline order) of a victim row. */
    BitVec
    physFlips(RowAddr victim, const BitVec &written_host)
    {
        BitVec read = host_.readRowBits(0, victim);
        read ^= written_host;
        return map_.toPhysical(read);
    }

    DeviceConfig cfg_;
    dram::Chip chip_;
    bender::Host host_;
    core::PhysMap map_;
};

TEST_F(BankPhysicsTest, HammerFlipsOnlyAdjacentRows)
{
    const RowAddr aggr = 20;
    const BitVec ones(cfg_.rowBits, true);
    for (RowAddr r = 16; r <= 24; ++r)
        host_.writeRowPattern(0, r, r == aggr ? 0 : ~0ULL);
    host_.hammer(0, aggr, 300000);

    for (RowAddr r = 16; r <= 24; ++r) {
        if (r == aggr)
            continue;
        const size_t flips = physFlips(r, ones).popcount();
        if (r == aggr - 1 || r == aggr + 1)
            EXPECT_GT(flips, 4u) << "victim row " << r;
        else
            EXPECT_EQ(flips, 0u) << "non-adjacent row " << r;
    }
}

TEST_F(BankPhysicsTest, ChargedVictimFlipsAlternateWithBitline)
{
    // O8/O10: an all-ones (charged) victim attacked from above flips
    // overwhelmingly on one bitline parity.  Rows sit in subarray 1
    // (typical, not edge-suppressed).
    const RowAddr victim = 60, aggr = 61;  // Upper aggressor.
    const BitVec ones(cfg_.rowBits, true);
    host_.writeRowPattern(0, victim, ~0ULL);
    host_.writeRowPattern(0, aggr, 0);
    host_.hammer(0, aggr, 400000);

    const BitVec flips = physFlips(victim, ones);
    size_t even = 0, odd = 0;
    for (size_t p = 0; p < flips.size(); ++p) {
        if (flips.get(p))
            ((p & 1) == 0 ? even : odd) += 1;
    }
    EXPECT_GT(even + odd, 10u);
    // Victim row 60 is even: charged cells on even bitlines face the
    // upper aggressor through their susceptible gate.
    EXPECT_GT(even, 3 * std::max<size_t>(odd, 1));
}

TEST_F(BankPhysicsTest, AlternationReversesWithVictimParity)
{
    // O8: an odd victim row shows the opposite parity preference.
    const RowAddr victim = 65, aggr = 66;
    const BitVec ones(cfg_.rowBits, true);
    host_.writeRowPattern(0, victim, ~0ULL);
    host_.writeRowPattern(0, aggr, 0);
    host_.hammer(0, aggr, 400000);

    const BitVec flips = physFlips(victim, ones);
    size_t even = 0, odd = 0;
    for (size_t p = 0; p < flips.size(); ++p) {
        if (flips.get(p))
            ((p & 1) == 0 ? even : odd) += 1;
    }
    EXPECT_GT(odd, 3 * std::max<size_t>(even, 1));
}

TEST_F(BankPhysicsTest, AlternationReversesWithAggressorDirection)
{
    const RowAddr victim = 60;
    const BitVec ones(cfg_.rowBits, true);

    host_.writeRowPattern(0, victim, ~0ULL);
    host_.writeRowPattern(0, victim - 1, 0);
    host_.hammer(0, victim - 1, 400000);  // Lower aggressor.
    const BitVec flips = physFlips(victim, ones);

    size_t even = 0, odd = 0;
    for (size_t p = 0; p < flips.size(); ++p) {
        if (flips.get(p))
            ((p & 1) == 0 ? even : odd) += 1;
    }
    EXPECT_GT(odd, 3 * std::max<size_t>(even, 1));
}

TEST_F(BankPhysicsTest, DischargedVictimAlsoFlips)
{
    // O8/O9: RowHammer hits both charge states (on opposite gates).
    const RowAddr victim = 60, aggr = 61;
    const BitVec zeros(cfg_.rowBits, false);
    host_.writeRowPattern(0, victim, 0);
    host_.writeRowPattern(0, aggr, ~0ULL);
    host_.hammer(0, aggr, 400000);

    const BitVec flips = physFlips(victim, zeros);
    size_t even = 0, odd = 0;
    for (size_t p = 0; p < flips.size(); ++p) {
        if (flips.get(p))
            ((p & 1) == 0 ? even : odd) += 1;
    }
    EXPECT_GT(even + odd, 10u);
    // Discharged cells use the opposite gate: parity flips vs the
    // charged case (O10).
    EXPECT_GT(odd, 3 * std::max<size_t>(even, 1));
}

TEST_F(BankPhysicsTest, RowPressOnlyFlipsChargedCells)
{
    // O7 / SS II-D: RowPress induces bitflips only in charged cells.
    const RowAddr victim = 60, aggr = 61;
    host_.writeRowPattern(0, victim, 0);  // All discharged.
    host_.writeRowPattern(0, aggr, ~0ULL);
    host_.press(0, aggr, 8192);

    const BitVec zeros(cfg_.rowBits, false);
    EXPECT_EQ(physFlips(victim, zeros).popcount(), 0u);

    // The charged victim does flip under the same attack.
    host_.writeRowPattern(0, victim, ~0ULL);
    host_.writeRowPattern(0, aggr, 0);
    host_.press(0, aggr, 8192);
    const BitVec ones(cfg_.rowBits, true);
    EXPECT_GT(physFlips(victim, ones).popcount(), 5u);
}

TEST_F(BankPhysicsTest, DisturbanceStopsAtSubarrayBoundary)
{
    // Row 47 tops subarray 0; hammering it must not touch row 48.
    host_.writeRowPattern(0, 46, ~0ULL);
    host_.writeRowPattern(0, 48, ~0ULL);
    host_.writeRowPattern(0, 47, 0);
    host_.hammer(0, 47, 400000);

    const BitVec ones(cfg_.rowBits, true);
    EXPECT_GT(physFlips(46, ones).popcount(), 4u);
    EXPECT_EQ(physFlips(48, ones).popcount(), 0u);
}

TEST_F(BankPhysicsTest, VictimNeighborPatternIncreasesFlips)
{
    // O11: opposite-valued horizontal neighbours raise the BER;
    // distance two more than distance one.  Eight victim groups in
    // subarray 1 give enough Vic0 lattice cells to separate the
    // factors.
    auto run = [&](uint64_t phys_pattern, unsigned bits) {
        const BitVec victim = map_.hostBitsForPhysicalPattern(
            phys_pattern, bits);
        size_t flips = 0;
        for (RowAddr base = 52; base < 84; base += 4) {
            host_.writeRowBits(0, base, victim);
            host_.writeRowPattern(0, base + 1, ~0ULL);
            host_.hammer(0, base + 1, 600000);
            BitVec read = host_.readRowBits(0, base);
            read ^= victim;
            const BitVec phys = map_.toPhysical(read);
            // Flips at the Vic0 lattice (period 5, position 0).
            for (size_t p = 0; p < phys.size(); p += 5)
                flips += phys.get(p);
        }
        return flips;
    };

    // Baseline: solid zeros (aggressor all ones = all opposite).
    const size_t base = run(0b00000, 5);
    // Distance-1 neighbours opposite: [0,1,0,0,1].
    const size_t d1 = run(0b10010, 5);
    // Distance-2 neighbours opposite: [0,0,1,1,0].
    const size_t d2 = run(0b01100, 5);
    // All four opposite: [0,1,1,1,1].
    const size_t all = run(0b11110, 5);

    EXPECT_GE(d1, base);
    EXPECT_GT(d2, d1);
    EXPECT_GE(all, d2);
}

TEST_F(BankPhysicsTest, AggressorSameValueSuppressesFlips)
{
    // O12: aggressor cells matching the victim value reduce the BER.
    auto run = [&](uint64_t aggr_pattern) {
        const BitVec victim(cfg_.rowBits, false);
        const BitVec aggr =
            map_.hostBitsForPhysicalPattern(aggr_pattern, 5);
        size_t flips = 0;
        for (RowAddr base = 52; base < 84; base += 4) {
            host_.writeRowBits(0, base, victim);
            host_.writeRowBits(0, base + 1, aggr);
            host_.hammer(0, base + 1, 600000);
            BitVec read = host_.readRowBits(0, base);
            read ^= victim;
            const BitVec phys = map_.toPhysical(read);
            for (size_t p = 0; p < phys.size(); p += 5)
                flips += phys.get(p);
        }
        return flips;
    };

    const size_t base = run(0b11111);      // All opposite of Vic0=0.
    const size_t aggr0 = run(0b11110);     // Aggr0 same as victim.
    const size_t aggr012 = run(0b00000);   // Whole row same.
    EXPECT_GT(base, aggr0);
    EXPECT_GE(aggr0, aggr012);
}

TEST_F(BankPhysicsTest, EdgeSubarrayShowsLowerBer)
{
    // O6: edge subarrays flip less, especially for aggressor data 1.
    // Subarray 0 (rows 0-47) is a bottom edge; subarray 1 is typical.
    auto run = [&](RowAddr victim, RowAddr aggr) {
        host_.writeRowPattern(0, victim, ~0ULL);
        host_.writeRowPattern(0, aggr, 0);
        host_.hammer(0, aggr, 400000);
        const BitVec ones(cfg_.rowBits, true);
        return physFlips(victim, ones).popcount();
    };

    const size_t edge = run(20, 21);     // Subarray 0 = edge.
    const size_t typical = run(60, 61);  // Subarray 1 = typical.
    EXPECT_LT(edge, typical);
    EXPECT_GT(edge, 0u);
}

TEST_F(BankPhysicsTest, RefreshResetsDisturbanceAccumulation)
{
    const RowAddr victim = 20, aggr = 21;
    const BitVec ones(cfg_.rowBits, true);

    host_.writeRowPattern(0, victim, ~0ULL);
    host_.writeRowPattern(0, aggr, 0);
    host_.hammer(0, aggr, 150000);
    host_.refresh();
    host_.hammer(0, aggr, 150000);
    const size_t split = physFlips(victim, ones).popcount();

    host_.writeRowPattern(0, victim, ~0ULL);
    host_.writeRowPattern(0, aggr, 0);
    host_.hammer(0, aggr, 300000);
    const size_t straight = physFlips(victim, ones).popcount();

    EXPECT_LT(split, straight);
}

TEST_F(BankPhysicsTest, DeterministicAcrossIdenticalChips)
{
    auto run = [](const DeviceConfig &cfg) {
        dram::Chip chip(cfg);
        bender::Host host(chip);
        host.writeRowPattern(0, 20, ~0ULL);
        host.writeRowPattern(0, 21, 0);
        host.hammer(0, 21, 300000);
        return host.readRowBits(0, 20);
    };
    EXPECT_EQ(run(cfg_), run(cfg_));

    DeviceConfig other = cfg_;
    other.variationSeed ^= 0x1234;
    EXPECT_NE(run(cfg_), run(other));
}

TEST_F(BankPhysicsTest, TemperatureAcceleratesDisturbance)
{
    auto flips_at = [&](double temp) {
        DeviceConfig cfg = cfg_;
        cfg.temperatureC = temp;
        dram::Chip chip(cfg);
        bender::Host host(chip);
        host.writeRowPattern(0, 20, ~0ULL);
        host.writeRowPattern(0, 21, 0);
        host.hammer(0, 21, 200000);
        BitVec read = host.readRowBits(0, 20);
        read ^= BitVec(cfg.rowBits, true);
        return read.popcount();
    };
    EXPECT_GT(flips_at(95.0), flips_at(55.0));
}

class RetentionTest : public ::testing::Test
{
  protected:
    RetentionTest()
        : cfg_(testutil::tinyPlain()), chip_(cfg_), host_(chip_)
    {
    }

    DeviceConfig cfg_;
    dram::Chip chip_;
    bender::Host host_;
};

TEST_F(RetentionTest, ChargedCellsDecayDischargedDoNot)
{
    host_.writeRowPattern(0, 10, ~0ULL);  // Charged (true cells).
    host_.writeRowPattern(0, 11, 0);      // Discharged.
    host_.waitMs(8000.0);

    const BitVec ones_row = host_.readRowBits(0, 10);
    const BitVec zeros_row = host_.readRowBits(0, 11);
    EXPECT_LT(ones_row.popcount(), size_t(cfg_.rowBits));  // Decayed.
    EXPECT_GT(ones_row.popcount(), 0u);  // Not everything is weak.
    EXPECT_EQ(zeros_row.popcount(), 0u);  // 0 -> 1 never happens.
}

TEST_F(RetentionTest, RefreshPreventsDecay)
{
    host_.writeRowPattern(0, 10, ~0ULL);
    for (int k = 0; k < 8; ++k) {
        host_.waitMs(32.0);
        host_.refresh();
    }
    const BitVec row = host_.readRowBits(0, 10);
    EXPECT_EQ(row.popcount(), size_t(cfg_.rowBits));
}

TEST_F(RetentionTest, HotterChipsDecayFaster)
{
    auto survivors = [&](double temp) {
        DeviceConfig cfg = cfg_;
        cfg.temperatureC = temp;
        dram::Chip chip(cfg);
        bender::Host host(chip);
        host.writeRowPattern(0, 10, ~0ULL);
        host.waitMs(2000.0);
        return host.readRowBits(0, 10).popcount();
    };
    EXPECT_LT(survivors(95.0), survivors(65.0));
}

TEST_F(RetentionTest, AntiCellsDecayUpward)
{
    // Mfr. C style: an anti-cell subarray decays 0 -> 1.
    DeviceConfig cfg = cfg_;
    cfg.polarityPolicy = dram::CellPolarityPolicy::InterleavedPerSubarray;
    dram::Chip chip(cfg);
    bender::Host host(chip);
    // Row 50 is in subarray 1 (anti cells): data 0 = charged.
    host.writeRowPattern(0, 50, 0);
    host.waitMs(8000.0);
    const BitVec row = host.readRowBits(0, 50);
    EXPECT_GT(row.popcount(), 0u);  // 0 -> 1 flips appeared.
}

class RowCopyTest : public ::testing::Test
{
  protected:
    RowCopyTest()
        : cfg_(testutil::tinyPlain()), chip_(cfg_), host_(chip_)
    {
    }

    DeviceConfig cfg_;
    dram::Chip chip_;
    bender::Host host_;
};

TEST_F(RowCopyTest, SameSubarrayCopiesAllBitsUninverted)
{
    const uint64_t marker = 0xDEADBEEFCAFE1234ULL;
    host_.writeRowPattern(0, 10, marker);
    host_.writeRowPattern(0, 20, 0);
    host_.rowCopy(0, 10, 20);
    const auto src = host_.readRow(0, 10);
    const auto dst = host_.readRow(0, 20);
    EXPECT_EQ(src, dst);
}

TEST_F(RowCopyTest, AdjacentSubarrayCopiesHalfInverted)
{
    // Src row 50 (subarray 1) -> dst row 40 (subarray 0): the shared
    // stripe moves the data to the destination's odd bitlines,
    // charge-inverted; with all-true cells the data inverts too.
    host_.writeRowPattern(0, 50, ~0ULL);
    host_.writeRowPattern(0, 40, ~0ULL);
    host_.rowCopy(0, 50, 40);
    const BitVec dst = host_.readRowBits(0, 40);
    // Half the bits must now be 0 (inverted copy of all-ones).
    EXPECT_EQ(dst.popcount(), size_t(cfg_.rowBits) / 2);
}

TEST_F(RowCopyTest, DistantSubarraysDoNotCopy)
{
    host_.writeRowPattern(0, 10, ~0ULL);   // Subarray 0.
    host_.writeRowPattern(0, 100, 0);      // Subarray 2.
    host_.rowCopy(0, 10, 100);
    EXPECT_EQ(host_.readRowBits(0, 100).popcount(), 0u);
}

TEST_F(RowCopyTest, AcrossSectionsDoesNotCopy)
{
    host_.writeRowPattern(0, 200, ~0ULL);  // Section 0.
    host_.writeRowPattern(0, 300, 0);      // Section 1.
    host_.rowCopy(0, 200, 300);
    EXPECT_EQ(host_.readRowBits(0, 300).popcount(), 0u);
}

TEST_F(RowCopyTest, EdgePairCopiesHalf)
{
    // O5: first and last rows of a section share the edge stripe.
    host_.writeRowPattern(0, 0, ~0ULL);
    host_.writeRowPattern(0, 255, ~0ULL);
    host_.rowCopy(0, 0, 255);
    EXPECT_EQ(host_.readRowBits(0, 255).popcount(),
              size_t(cfg_.rowBits) / 2);
}

TEST_F(RowCopyTest, SlowReactivationDoesNotCopy)
{
    // An ACT a full tRP after PRE finds precharged bitlines: no copy.
    host_.writeRowPattern(0, 10, ~0ULL);
    host_.writeRowPattern(0, 20, 0);
    bender::Program p;
    const auto &t = cfg_.timing;
    p.act(0, 10).sleepNs(t.tRasNs).pre(0).sleepNs(t.tRpNs + 5.0)
        .act(0, 20).sleepNs(t.tRasNs).pre(0).sleepNs(t.tRpNs);
    host_.run(p);
    EXPECT_EQ(host_.readRowBits(0, 20).popcount(), 0u);
}

TEST_F(RowCopyTest, AntiCellSubarraysCopyDataAsIs)
{
    // Mfr. C: true/anti interleaving makes the cross-subarray copy
    // appear non-inverted in data space (SS IV-C).
    dram::DeviceConfig cfg = testutil::tinyPlain();
    cfg.polarityPolicy = dram::CellPolarityPolicy::InterleavedPerSubarray;
    dram::Chip chip(cfg);
    bender::Host host(chip);
    // Src row 50 (subarray 1, anti) -> dst row 40 (subarray 0, true).
    host.writeRowPattern(0, 50, ~0ULL);
    host.writeRowPattern(0, 40, ~0ULL);
    host.rowCopy(0, 50, 40);
    // Copied (odd-bitline) data equals the source data: still ones.
    EXPECT_EQ(host.readRowBits(0, 40).popcount(), size_t(cfg.rowBits));
}

// REF exactness, differentially: bank A refreshes with refreshAll,
// bank B with REF's definition, restoreRow of every materialized row
// in ascending order.  Both see the same seeded operation stream,
// including time running backwards (a second host on an earlier
// clock), and must agree after every REF.  Reading every row's charge
// at a REF gives it a charge vector, so bank C, driven identically
// but read only at the end, keeps its dose-only rows across REFs and
// must end where A does.
struct RefreshCounts
{
    uint64_t refs = 0;
    uint64_t disturbFlips = 0;
    uint64_t retentionFlips = 0;
    uint64_t doseOnlyAtRefs = 0;  //!< C's rows without a vector, summed.
};

RefreshCounts
runRefreshDifferential(uint64_t seed, int ops)
{
    DeviceConfig cfg = dram::makeTinyConfig();
    cfg.temperatureC = 95.0;  // So that 25-425 ms steps decay cells.
    const dram::SubarrayMap map(cfg);
    dram::Bank a(cfg, map, 0);
    dram::Bank b(cfg, map, 0);
    dram::Bank c(cfg, map, 0);
    Rng rng(seed);
    std::set<RowAddr> touched;
    RefreshCounts counts;
    dram::NanoTime now = 1'000'000'000;

    // Rows 0..127: the edge subarray and two subarray boundaries.
    auto row = [&] { return RowAddr(rng.below(128)); };
    // With `commit` set, both banks commit each victim right after
    // the dwell.
    auto dwell = [&](bool commit) {
        const RowAddr aggr = row();
        const bool press = rng.chance(0.3);
        const double acts = double(rng.range(1, press ? 20000 : 200000));
        const double open_ns = press ? rng.uniform(1000.0, 10000.0) : 36.0;
        for (dram::Bank *bk : {&a, &b, &c})
            bk->registerAggressorDwell(aggr, acts, open_ns, now);
        for (const bool up : {false, true}) {
            if (const auto v = map.neighbor(aggr, up)) {
                touched.insert(*v);
                if (commit) {
                    for (dram::Bank *bk : {&a, &b, &c})
                        bk->commitRow(*v, now);
                }
            }
        }
    };

    for (int i = 0; i < ops; ++i) {
        const double step = rng.uniform();
        if (step < 0.70)
            now += rng.range(0, 10'000);
        else if (step < 0.82)
            now += rng.range(1'000'000, 21'000'000);
        else if (step < 0.94)
            now += rng.range(25'000'000, 425'000'000);
        else
            now -= rng.range(0, 30'000'000);

        const double op = rng.uniform();
        if (op < 0.10) {
            a.refreshAll(now);
            c.refreshAll(now);
            for (const RowAddr r : touched)
                b.restoreRow(r, now);
            ++counts.refs;
            counts.doseOnlyAtRefs += c.materializedRows() - c.chargeVectors();
            for (const dram::Bank *bk : {&a, &b, &c})
                EXPECT_EQ(bk->materializedRows(), touched.size());
            for (const dram::Bank *bk : {&b, &c}) {
                EXPECT_EQ(a.stats().disturbFlips, bk->stats().disturbFlips);
                EXPECT_EQ(a.stats().retentionFlips,
                          bk->stats().retentionFlips);
            }
            for (const RowAddr r : touched)
                EXPECT_EQ(a.chargeRef(r, now), b.chargeRef(r, now)) << r;
            if (::testing::Test::HasFailure())
                return counts;
        } else if (op < 0.40) {
            dwell(false);
        } else if (op < 0.45) {
            dwell(true);
        } else if (op < 0.60) {
            const RowAddr r = row();
            for (dram::Bank *bk : {&a, &b, &c})
                bk->restoreRow(r, now);
            touched.insert(r);
        } else if (op < 0.70) {
            const RowAddr r = row();
            for (dram::Bank *bk : {&a, &b, &c})
                bk->commitRow(r, now);
        } else if (op < 0.75) {
            const RowAddr r = row();
            for (dram::Bank *bk : {&a, &b, &c})
                bk->markRestored(r, now);
            touched.insert(r);
        } else {
            const RowAddr r = row();
            const uint64_t pattern = rng.next();
            const unsigned bits = unsigned(rng.range(1, 64));
            for (dram::Bank *bk : {&a, &b, &c})
                bk->chargeRef(r, now).fillPattern(pattern, bits);
            touched.insert(r);
        }
    }
    for (const RowAddr r : touched)
        EXPECT_EQ(a.chargeRef(r, now), c.chargeRef(r, now)) << r;
    counts.disturbFlips = a.stats().disturbFlips;
    counts.retentionFlips = a.stats().retentionFlips;
    return counts;
}

TEST(RefreshDifferential, MatchesRestoringEveryMaterializedRow)
{
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE(seed);
        const RefreshCounts c = runRefreshDifferential(seed, 2000);
        ASSERT_FALSE(HasFailure());
        // The stream exercises what REF must get right.
        EXPECT_GT(c.refs, 150u);
        EXPECT_GT(c.disturbFlips, 1000u);
        EXPECT_GT(c.retentionFlips, 1000u);
        EXPECT_GT(c.doseOnlyAtRefs, 100u);
    }
}

// A row that has only received dose holds no charge vector; these
// pin that it behaves exactly like an all-discharged row that does.

TEST(DoseOnlyRows, AggressorWithoutAVectorReadsAsDischarged)
{
    const DeviceConfig cfg = testutil::tinyPlain();
    const dram::SubarrayMap map(cfg);
    dram::Bank lazy(cfg, map, 0);
    dram::Bank written(cfg, map, 0);
    const RowAddr victim = 60, aggr = 61;  // Subarray 1: not edge.
    const dram::NanoTime now = 1000;
    for (dram::Bank *bk : {&lazy, &written}) {
        bk->chargeRef(victim, now).fill(true);
        // Dose from row 62 materializes the aggressor, below the
        // commit's early-out, so it stays without a vector.
        bk->registerAggressorDwell(aggr + 1, 1.0, 36.0, now);
        bk->commitRow(aggr, now);
    }
    written.chargeRef(aggr, now).fill(false);
    ASSERT_EQ(lazy.chargeVectors(), 1u);
    ASSERT_EQ(written.chargeVectors(), 2u);

    for (dram::Bank *bk : {&lazy, &written}) {
        bk->registerAggressorDwell(aggr, 400000.0, 36.0, now);
        bk->commitRow(victim, now);
    }
    // Reading the aggressor gave it no vector.
    EXPECT_EQ(lazy.chargeVectors(), 1u);
    EXPECT_GT(lazy.stats().disturbFlips, 10u);
    EXPECT_EQ(lazy.stats().disturbFlips, written.stats().disturbFlips);
    EXPECT_EQ(lazy.chargeRef(victim, now), written.chargeRef(victim, now));
}

TEST(DoseOnlyRows, CommitPastTheEarlyOutMatchesAnExplicitlyZeroedRow)
{
    const DeviceConfig cfg = testutil::tinyPlain();
    const dram::SubarrayMap map(cfg);
    dram::Bank lazy(cfg, map, 0);
    dram::Bank written(cfg, map, 0);
    const RowAddr victim = 60, aggr = 61;
    const dram::NanoTime now = 1000;
    for (dram::Bank *bk : {&lazy, &written})
        bk->chargeRef(aggr, now).fill(true);
    written.chargeRef(victim, now).fill(false);

    for (dram::Bank *bk : {&lazy, &written})
        bk->registerAggressorDwell(aggr, 400000.0, 36.0, now);
    ASSERT_EQ(lazy.chargeVectors(), 1u);  // The victim holds dose only.
    for (dram::Bank *bk : {&lazy, &written})
        bk->commitRow(victim, now);
    EXPECT_EQ(lazy.chargeVectors(), 2u);  // The commit gave it a vector.
    EXPECT_GT(lazy.stats().disturbFlips, 10u);
    EXPECT_EQ(lazy.stats().disturbFlips, written.stats().disturbFlips);
    EXPECT_EQ(lazy.chargeRef(victim, now), written.chargeRef(victim, now));
}

TEST(DoseOnlyRows, RetentionScanStampsARowWithoutAVector)
{
    // A scan of a row without a vector finds nothing to decay, but
    // must still stamp the row: a write inside the window after it
    // is not scanned again until the window has passed.
    DeviceConfig cfg = testutil::tinyPlain();
    cfg.temperatureC = 95.0;  // So that 2 s decays most cells.
    const dram::SubarrayMap map(cfg);
    dram::Bank bank(cfg, map, 0);
    const RowAddr row = 60;
    const auto window_ns =
        dram::NanoTime(cfg.retention.minEvalElapsedMs * 1.0e6);
    dram::NanoTime now = 1000;
    bank.restoreRow(row, now);
    now += 2'000'000'000;
    bank.commitRow(row, now);  // Scans, past the window.
    ASSERT_EQ(bank.chargeVectors(), 0u);
    bank.chargeRef(row, now).fill(true);
    now += window_ns / 2;
    bank.commitRow(row, now);  // Inside the window: skipped.
    EXPECT_EQ(bank.stats().retentionFlips, 0u);
    EXPECT_EQ(bank.chargeRef(row, now).popcount(), size_t(cfg.rowBits));

    // Past the window the scan runs and finds the decayed cells.
    now += window_ns;
    bank.commitRow(row, now);
    EXPECT_GT(bank.stats().retentionFlips, 0u);
}

} // namespace
} // namespace dramscope
