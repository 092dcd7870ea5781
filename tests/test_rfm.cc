/**
 * @file
 * RFM interface tests (SS VI-B): in-DRAM tracking plus MC-side RFM
 * cadence protect coupled rows without the MC knowing the relation.
 */

#include <gtest/gtest.h>

#include "bender/host.h"
#include "core/protect/mitigation.h"
#include "dram/chip.h"
#include "test_common.h"

namespace dramscope {
namespace {

using dram::RowAddr;

TEST(SpaceSavingTable, TracksTheHottestRow)
{
    core::SpaceSavingTable table(4);
    EXPECT_FALSE(table.hottest().has_value());
    table.account(10, 100);
    table.account(20, 500);
    table.account(30, 50);
    EXPECT_EQ(table.hottest(), RowAddr(20));

    // The RFM those 650 ACTs trigger refreshes row 20's two physical
    // neighbours, in-DRAM.
    const auto cfg = testutil::tinyPlain();
    dram::Chip chip(cfg);
    bender::Host host(chip);
    core::RfmMitigation rfm(cfg, 650, 4);
    rfm.onActivate(0, 10, 100);
    rfm.onActivate(0, 20, 500);
    rfm.onActivate(0, 30, 50);
    const auto seqs = rfm.pendingCommands();
    ASSERT_EQ(seqs.size(), 1u);
    EXPECT_EQ(seqs[0].neutralized, (std::vector<RowAddr>{20}));
    EXPECT_EQ(core::executeSequence(host, seqs[0]), 2u);
}

TEST(SpaceSavingTable, InheritsTheFloor)
{
    core::SpaceSavingTable table(2);
    table.account(1, 100);
    table.account(2, 200);
    // Table full: row 3 evicts the minimum (row 1) and inherits 100.
    table.account(3, 1);
    EXPECT_EQ(table.hottest(), RowAddr(2));  // Row 2 is still the max.
    // 100 + 1 + 100 = 201 beats row 2 only because of the floor.
    table.account(3, 100);
    EXPECT_EQ(table.hottest(), RowAddr(3));
}

TEST(RfmMitigation, IssuesAtTheRaaimtCadence)
{
    core::RfmMitigation rfm(testutil::tinyPlain(), 1000, 16);
    rfm.onActivate(0, 5, 999);
    EXPECT_EQ(rfm.fired(), 0u);
    rfm.onActivate(0, 5, 1);
    EXPECT_EQ(rfm.fired(), 1u);
    rfm.onActivate(0, 5, 3000);
    EXPECT_EQ(rfm.fired(), 4u);
}

TEST(Rfm, ProtectsAgainstTheCoupledSplitAttack)
{
    // The MC never learns the coupled relation; the in-DRAM refresh
    // resolves it (SS VI-B's recommended deployment).
    dram::DeviceConfig cfg = dram::makeTinyConfig();
    cfg.rowRemap = dram::RowRemapScheme::None;
    dram::Chip chip(cfg);
    bender::Host host(chip);
    core::RfmMitigation rfm(cfg, 2000, 16);

    const RowAddr aggr = 60, partner = 572;
    for (const RowAddr v : {aggr - 1, aggr + 1, partner - 1, partner + 1})
        host.writeRowPattern(0, v, ~0ULL);
    host.writeRowPattern(0, aggr, 0);
    host.writeRowPattern(0, partner, 0);

    // Split attack in chunks, mirrored to the MC hook.
    for (int round = 0; round < 6; ++round) {
        for (const RowAddr a : {aggr, partner}) {
            host.hammer(0, a, 1950);
            rfm.onActivate(0, a, 1950);
            for (const auto &seq : rfm.pendingCommands())
                core::executeSequence(host, seq);
        }
    }
    EXPECT_GT(rfm.fired(), 0u);
    for (const RowAddr v :
         {aggr - 1, aggr + 1, partner - 1, partner + 1}) {
        const BitVec row = host.readRowBits(0, v);
        EXPECT_EQ(row.size() - row.popcount(), 0u) << "victim " << v;
    }
}

TEST(Rfm, WithoutRfmTheSameAttackFlips)
{
    dram::DeviceConfig cfg = dram::makeTinyConfig();
    cfg.rowRemap = dram::RowRemapScheme::None;
    dram::Chip chip(cfg);
    bender::Host host(chip);

    const RowAddr aggr = 60, partner = 572;
    for (const RowAddr v : {aggr - 1, aggr + 1, partner - 1, partner + 1})
        host.writeRowPattern(0, v, ~0ULL);
    host.writeRowPattern(0, aggr, 0);
    host.writeRowPattern(0, partner, 0);
    for (int round = 0; round < 6; ++round) {
        for (const RowAddr a : {aggr, partner})
            host.hammer(0, a, 1950);
    }
    size_t flips = 0;
    for (const RowAddr v :
         {aggr - 1, aggr + 1, partner - 1, partner + 1}) {
        const BitVec row = host.readRowBits(0, v);
        flips += row.size() - row.popcount();
    }
    EXPECT_GT(flips, 0u);
}

TEST(Rfm, InDramRefreshFindsTheTrueVictimsOnARemappedChip)
{
    // SS VI-B on a chip with the Mfr. A internal row remap: logical
    // row 59's physical neighbours are logical rows 58 and 63.  The
    // in-DRAM refresh resolves that; the same sequences run as MC-side
    // ACT..PRE cycles of the logical +-1 rows leave row 63 exposed.
    const dram::DeviceConfig cfg = dram::makeTinyConfig();
    const RowAddr aggr = 59;
    const RowAddr victims[] = {58, 63};

    enum class Mode { None, InDram, Program };
    const auto flips = [&](Mode mode) {
        dram::Chip chip(cfg);
        bender::Host host(chip);
        for (const RowAddr v : victims)
            host.writeRowPattern(0, v, ~0ULL);
        host.writeRowPattern(0, aggr, 0);
        core::RfmMitigation rfm(cfg, 2000, 16);
        for (uint64_t done = 0; done < 100000; done += 500) {
            host.hammer(0, aggr, 500);
            if (mode == Mode::None)
                continue;
            rfm.onActivate(0, aggr, 500);
            for (const auto &seq : rfm.pendingCommands()) {
                if (mode == Mode::InDram)
                    core::executeSequence(host, seq);
                else
                    host.run(seq.program(cfg));
            }
        }
        std::vector<size_t> out;
        for (const RowAddr v : victims) {
            const BitVec row = host.readRowBits(0, v);
            out.push_back(row.size() - row.popcount());
        }
        return out;
    };

    const auto unmitigated = flips(Mode::None);
    EXPECT_GT(unmitigated[0], 0u);
    EXPECT_GT(unmitigated[1], 0u);
    EXPECT_EQ(flips(Mode::InDram), (std::vector<size_t>{0, 0}));
    const auto logical = flips(Mode::Program);
    EXPECT_EQ(logical[0], 0u);  // Logical 58 is also a true neighbour.
    EXPECT_GT(logical[1], 0u);  // Physical-only neighbour 63 flips.
}

} // namespace
} // namespace dramscope
