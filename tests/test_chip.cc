/**
 * @file
 * Chip FSM, coupled-row activation, remapping and violation tests.
 */

#include <gtest/gtest.h>

#include "bender/host.h"
#include "dram/chip.h"
#include "test_common.h"

namespace dramscope {
namespace {

using dram::DeviceConfig;
using dram::RowAddr;

TEST(Chip, ReadWriteRoundtripThroughSwizzle)
{
    DeviceConfig cfg = testutil::tinyPlain();
    dram::Chip chip(cfg);
    bender::Host host(chip);

    std::vector<uint64_t> cols(cfg.columnsPerRow());
    for (size_t c = 0; c < cols.size(); ++c)
        cols[c] = 0xA5A5A5A5ULL ^ (uint64_t(c) * 0x9E3779B9ULL);
    for (auto &c : cols)
        c &= (1ULL << cfg.rdDataBits) - 1;

    host.writeRow(0, 7, cols);
    EXPECT_EQ(host.readRow(0, 7), cols);
}

TEST(Chip, RowsAreIndependent)
{
    DeviceConfig cfg = testutil::tinyPlain();
    dram::Chip chip(cfg);
    bender::Host host(chip);
    host.writeRowPattern(0, 5, ~0ULL);
    host.writeRowPattern(0, 6, 0);
    EXPECT_EQ(host.readRowBits(0, 5).popcount(), size_t(cfg.rowBits));
    EXPECT_EQ(host.readRowBits(0, 6).popcount(), 0u);
}

TEST(Chip, BanksAreIndependent)
{
    DeviceConfig cfg = testutil::tinyPlain();
    dram::Chip chip(cfg);
    bender::Host host(chip);
    host.writeRowPattern(0, 5, ~0ULL);
    host.writeRowPattern(1, 5, 0);
    EXPECT_EQ(host.readRowBits(0, 5).popcount(), size_t(cfg.rowBits));
    EXPECT_EQ(host.readRowBits(1, 5).popcount(), 0u);
}

TEST(Chip, InternalRemapAffectsPhysicalPlacement)
{
    // With the Mfr. A scheme, logical rows 4..7 land on physical
    // 7..4; hammering logical 4 (phys 7) must hit the rows at
    // physical 6 and 8, whose logical addresses are 5 and 8... the
    // observable: flips appear in logical rows 5 and 8, not 3 and 5.
    DeviceConfig cfg = testutil::tinyPlain();
    cfg.rowRemap = dram::RowRemapScheme::MfrA8Blk;
    dram::Chip chip(cfg);
    bender::Host host(chip);

    EXPECT_EQ(chip.toPhysical(20), RowAddr(23));
    EXPECT_EQ(chip.toPhysical(23), RowAddr(20));
    EXPECT_EQ(chip.toPhysical(16), RowAddr(16));

    for (RowAddr r = 16; r <= 28; ++r)
        host.writeRowPattern(0, r, r == 20 ? 0 : ~0ULL);
    host.hammer(0, 20, 400000);  // Physical row 23.

    // Physical neighbours 22 and 24 are logical rows 21 and 24.
    std::vector<size_t> flips(29, 0);
    for (RowAddr r = 16; r <= 28; ++r) {
        if (r == 20)
            continue;
        const BitVec row = host.readRowBits(0, r);
        flips[r] = row.size() - row.popcount();
    }
    EXPECT_GT(flips[21], 4u);
    EXPECT_GT(flips[24], 4u);
    EXPECT_EQ(flips[19], 0u);
    EXPECT_EQ(flips[22], 0u);
    EXPECT_EQ(flips[23], 0u);
}

TEST(Chip, CoupledRowActivationDisturbsPartnerNeighbors)
{
    // O3: tiny couples rows at distance 512.
    DeviceConfig cfg = testutil::tinyPlain();
    cfg.coupledRowDistance = 512;
    dram::Chip chip(cfg);
    bender::Host host(chip);

    const RowAddr aggr = 20, partner = 532;
    host.writeRowPattern(0, partner - 1, ~0ULL);
    host.writeRowPattern(0, partner + 1, ~0ULL);
    host.writeRowPattern(0, partner, 0);
    host.writeRowPattern(0, aggr, 0);
    host.hammer(0, aggr, 400000);

    for (RowAddr r : {partner - 1, partner + 1}) {
        const BitVec row = host.readRowBits(0, r);
        EXPECT_GT(row.size() - row.popcount(), 4u) << "row " << r;
    }
}

TEST(Chip, UncoupledChipsDoNotDisturbAtDistance)
{
    DeviceConfig cfg = testutil::tinyPlain();  // No coupling.
    dram::Chip chip(cfg);
    bender::Host host(chip);

    host.writeRowPattern(0, 531, ~0ULL);
    host.writeRowPattern(0, 533, ~0ULL);
    host.writeRowPattern(0, 20, 0);
    host.hammer(0, 20, 400000);
    for (RowAddr r : {531u, 533u}) {
        const BitVec row = host.readRowBits(0, r);
        EXPECT_EQ(row.size() - row.popcount(), 0u);
    }
}

TEST(Chip, CoupledPartnerUsesXorRelation)
{
    DeviceConfig cfg = dram::makeTinyConfig();
    dram::Chip chip(cfg);
    EXPECT_EQ(chip.coupledPartner(10), RowAddr(522));
    EXPECT_EQ(chip.coupledPartner(522), RowAddr(10));
    DeviceConfig plain = testutil::tinyPlain();
    dram::Chip chip2(plain);
    EXPECT_FALSE(chip2.coupledPartner(10).has_value());
}

TEST(Chip, WordlineCostDoublesForEdgeAndCoupled)
{
    // SS VI-C: edge-subarray and coupled activations cost extra
    // wordlines — the power side channel.
    DeviceConfig cfg = testutil::tinyPlain();
    dram::Chip chip(cfg);
    bender::Host host(chip);

    bender::Program p;
    p.act(0, 60).sleepNs(35).pre(0).sleepNs(15);   // Typical row.
    host.run(p);
    const uint64_t typical = chip.stats().wordlinesDriven;

    bender::Program q;
    q.act(0, 10).sleepNs(35).pre(0).sleepNs(15);   // Edge subarray.
    host.run(q);
    const uint64_t edge = chip.stats().wordlinesDriven - typical;
    EXPECT_EQ(typical, 1u);
    EXPECT_EQ(edge, 2u);

    DeviceConfig coupled_cfg = dram::makeTinyConfig();
    coupled_cfg.rowRemap = dram::RowRemapScheme::None;
    dram::Chip coupled(coupled_cfg);
    bender::Host host2(coupled);
    bender::Program r;
    r.act(0, 60).sleepNs(35).pre(0).sleepNs(15);
    host2.run(r);
    // Coupled: two wordlines (row 60 + partner 572), both typical.
    EXPECT_EQ(coupled.stats().wordlinesDriven, 2u);
}

TEST(Chip, ViolationsAreRecorded)
{
    DeviceConfig cfg = testutil::tinyPlain();
    dram::Chip chip(cfg);
    bender::Host host(chip);

    bender::Program p;
    p.act(0, 5).act(0, 6);  // Second ACT hits an open bank.
    host.run(p);
    EXPECT_GE(chip.violationCount(), 1u);

    bender::Program q;
    q.rd(0, 0);  // Read with no open row.
    host.run(q);
    EXPECT_GE(chip.violationCount(), 2u);
}

TEST(Chip, RowCopyIsReportedAsViolation)
{
    DeviceConfig cfg = testutil::tinyPlain();
    dram::Chip chip(cfg);
    bender::Host host(chip);
    host.writeRowPattern(0, 10, ~0ULL);
    const uint64_t before = chip.violationCount();
    host.rowCopy(0, 10, 12);
    EXPECT_GT(chip.violationCount(), before);
    EXPECT_GE(chip.bank(0).stats().rowCopyEvents, 1u);
}

TEST(Chip, ActManyMatchesIteratedHammer)
{
    // The bulk fast path must be observationally identical to an
    // unrolled ACT-PRE sequence.
    auto run = [](bool bulk) {
        DeviceConfig cfg = testutil::tinyPlain();
        dram::Chip chip(cfg);
        bender::Host host(chip);
        host.writeRowPattern(0, 20, ~0ULL);
        host.writeRowPattern(0, 21, 0);
        if (bulk) {
            host.hammer(0, 21, 40000);
        } else {
            // Unrolled: no loop instruction, so no fast path.
            bender::Program p;
            for (int k = 0; k < 40000; ++k)
                p.act(0, 21).sleepNs(33.75).pre(0).sleepNs(13.75);
            host.run(p);
        }
        // Top up to a flip-producing dose through the normal path.
        host.hammer(0, 21, 260000);
        return host.readRowBits(0, 20);
    };
    EXPECT_EQ(run(true), run(false));
}

TEST(Chip, RefreshRequiresIdleBanks)
{
    DeviceConfig cfg = testutil::tinyPlain();
    dram::Chip chip(cfg);
    bender::Host host(chip);
    bender::Program p;
    p.act(0, 5).ref();
    host.run(p);
    EXPECT_GE(chip.violationCount(), 1u);
}

TEST(Chip, StatsCountCommands)
{
    DeviceConfig cfg = testutil::tinyPlain();
    dram::Chip chip(cfg);
    bender::Host host(chip);
    host.writeRowPattern(0, 3, ~0ULL);
    host.readRow(0, 3);
    const auto &s = chip.stats();
    EXPECT_EQ(s.acts, 2u);
    EXPECT_EQ(s.pres, 2u);
    EXPECT_EQ(s.reads, cfg.columnsPerRow());
    EXPECT_EQ(s.writes, cfg.columnsPerRow());
}

TEST(Chip, OnlyReadRowsHoldChargeVectors)
{
    // ACT/RD/PRE over rows at least 3 apart: every PRE gives dose to
    // two neighbours of its own, which materialize without a charge
    // vector; only the rows read allocate one.
    const DeviceConfig cfg = testutil::tinyPlain();
    dram::Chip chip(cfg);
    const dram::SubarrayMap &map = chip.bank(0).subarrayMap();
    dram::NanoTime now = 1000;
    size_t acted = 0;
    for (RowAddr row = 1; acted < 100; row += 3) {
        if (!map.neighbor(row, false) || !map.neighbor(row, true))
            continue;  // Subarray edge: one neighbour only.
        chip.act(0, row, now);
        chip.read(0, 0, now + 20);
        chip.pre(0, now + 40);
        now += 1000;
        ++acted;
    }
    EXPECT_EQ(chip.violationCount(), 0u);
    EXPECT_EQ(chip.bank(0).chargeVectors(), 100u);
    EXPECT_EQ(chip.bank(0).materializedRows(), 300u);
}

} // namespace
} // namespace dramscope
