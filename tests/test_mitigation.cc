/**
 * @file
 * Unified-mitigation-interface tests: the DRAMSCOPE_MITIGATIONS
 * registry, the factory, per-kind firing/cadence/indirection
 * semantics, sequence-program cleanliness, and the shared
 * hammerThroughMitigation chunking path.
 */

#include <gtest/gtest.h>

#include "bender/host.h"
#include "bender/lint.h"
#include "bender/trace.h"
#include "core/protect/mitigation.h"
#include "dram/chip.h"
#include "test_common.h"
#include "util/registry.h"

namespace dramscope {
namespace {

using core::MitigationKind;
using core::MitigationOptions;
using core::MitigationSequence;
using dram::RowAddr;

// ---------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------

TEST(MitigationRegistry, RoundTripsAndRejectsUnknownIds)
{
    EXPECT_EQ(core::mitigationTable().size(), 5u);
    for (const auto &info : core::mitigationTable()) {
        EXPECT_STREQ(core::mitigationId(info.kind), info.id);
        EXPECT_EQ(registry::find(core::mitigationTable(), info.id), &info)
            << info.id;
    }
    EXPECT_STREQ(core::mitigationId(MitigationKind::None), "none");
    EXPECT_STREQ(core::mitigationId(MitigationKind::Graphene),
                 "graphene");
    EXPECT_STREQ(core::mitigationId(MitigationKind::RowSwap), "rowswap");
    EXPECT_EQ(registry::find(core::mitigationTable(), "para"), nullptr);
    // None leads the registry so its sweep block keeps shard index 0.
    EXPECT_EQ(core::mitigationTable()[0].kind, MitigationKind::None);
}

TEST(MitigationRegistry, FactoryBuildsEveryKindAndNoneIsNull)
{
    const auto cfg = testutil::tinyPlain();
    const MitigationOptions opts;
    EXPECT_EQ(core::makeMitigation(MitigationKind::None, cfg, opts),
              nullptr);
    for (const auto &info : core::mitigationTable()) {
        if (info.kind == MitigationKind::None)
            continue;
        const auto mit = core::makeMitigation(info.kind, cfg, opts);
        ASSERT_NE(mit, nullptr) << info.id;
        EXPECT_EQ(mit->kind(), info.kind) << info.id;
        EXPECT_GE(mit->accountingChunk(), 1u) << info.id;
        EXPECT_EQ(mit->fired(), 0u) << info.id;
        EXPECT_TRUE(mit->pendingCommands().empty()) << info.id;
    }
}

// ---------------------------------------------------------------------
// Victim-row geometry.
// ---------------------------------------------------------------------

TEST(MitigationVictims, EdgeRowsClampAndCoupledPartnerAppends)
{
    const auto plain = testutil::tinyPlain();
    EXPECT_EQ(core::victimRows(plain, 10, false),
              (std::vector<RowAddr>{9, 11}));
    EXPECT_EQ(core::victimRows(plain, 0, false),
              (std::vector<RowAddr>{1}));
    const RowAddr last = plain.rowsPerBank - 1;
    EXPECT_EQ(core::victimRows(plain, last, false),
              (std::vector<RowAddr>{last - 1}));

    // Device-aware on a coupled config: the partner's victims ride
    // along (deduplicated).
    auto coupled = dram::makeTinyConfig();
    coupled.rowRemap = dram::RowRemapScheme::None;
    const auto v = core::victimRows(coupled, 20, true);
    EXPECT_EQ(v, (std::vector<RowAddr>{19, 21, 531, 533}));
    // Not device-aware: the MC view has no partner.
    EXPECT_EQ(core::victimRows(coupled, 20, false),
              (std::vector<RowAddr>{19, 21}));
}

// ---------------------------------------------------------------------
// Sequence programs.
// ---------------------------------------------------------------------

TEST(MitigationSequences, ProgramsAreInSpecAndCostMatches)
{
    const auto cfg = testutil::tinyPlain();
    MitigationSequence seq;
    seq.kind = MitigationKind::Graphene;
    seq.bank = 1;
    seq.rows = core::victimRows(cfg, 40, false);
    seq.extraPs = 12345;

    const auto p = seq.program(cfg);
    EXPECT_TRUE(p.expectedViolations().empty());
    const auto report = bender::lint::lint(p, cfg);
    EXPECT_TRUE(report.diags.empty());

    // The program lasts one ACT..PRE cycle per row (two command slots
    // plus the tRAS and tRP waits) and then the extra wait.
    const auto &t = cfg.timing;
    const auto cycle = 2 * int64_t(std::llround(t.tCkNs * 1000)) +
                       int64_t(std::llround(t.tRasNs * 1000)) +
                       int64_t(std::llround(t.tRpNs * 1000));
    EXPECT_EQ(report.durationPs,
              int64_t(seq.rows.size()) * cycle + 12345);
}

// ---------------------------------------------------------------------
// Per-kind semantics.
// ---------------------------------------------------------------------

TEST(GrapheneMitigation, FiresAtThresholdAndRefreshWindowResets)
{
    const auto cfg = testutil::tinyPlain();
    MitigationOptions opts;
    opts.graphene.threshold = 10;
    const auto mit =
        core::makeMitigation(MitigationKind::Graphene, cfg, opts);

    for (int k = 0; k < 9; ++k)
        mit->onActivate(0, 40);
    EXPECT_TRUE(mit->pendingCommands().empty());
    mit->onActivate(0, 40);
    const auto fired = mit->pendingCommands();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].bank, 0u);
    EXPECT_EQ(fired[0].rows, (std::vector<RowAddr>{39, 41}));
    EXPECT_EQ(fired[0].neutralized, (std::vector<RowAddr>{40}));
    EXPECT_EQ(mit->fired(), 1u);
    // Draining is destructive.
    EXPECT_TRUE(mit->pendingCommands().empty());

    // A refresh window clears the counters: 9 more ACTs stay silent.
    mit->onActivate(0, 40, 9);
    mit->onRefreshWindow();
    mit->onActivate(0, 40, 9);
    EXPECT_TRUE(mit->pendingCommands().empty());
}

TEST(GrapheneMitigation, BanksTrackIndependently)
{
    const auto cfg = testutil::tinyPlain();
    MitigationOptions opts;
    opts.graphene.threshold = 10;
    const auto mit =
        core::makeMitigation(MitigationKind::Graphene, cfg, opts);
    mit->onActivate(0, 7, 9);
    mit->onActivate(1, 7, 9);
    EXPECT_TRUE(mit->pendingCommands().empty());
    mit->onActivate(1, 7, 1);
    const auto fired = mit->pendingCommands();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].bank, 1u);
}

TEST(RfmMitigation, RaaCadenceTargetsTheHottestRow)
{
    auto cfg = dram::makeTinyConfig();
    cfg.rowRemap = dram::RowRemapScheme::None;
    MitigationOptions opts;
    opts.raaimt = 100;
    const auto mit = core::makeMitigation(MitigationKind::Rfm, cfg, opts);
    EXPECT_EQ(mit->accountingChunk(), 25u);

    // The space-saving table must pick the majority row when the
    // RAA counter reaches the management threshold.
    mit->onActivate(0, 200, 30);
    mit->onActivate(0, 20, 69);
    EXPECT_TRUE(mit->pendingCommands().empty());
    mit->onActivate(0, 20, 1);  // RAA hits 100: RFM fires.
    const auto fired = mit->pendingCommands();
    ASSERT_EQ(fired.size(), 1u);
    // In-DRAM view: row 20's victims plus its coupled partner's.
    EXPECT_EQ(fired[0].rows, (std::vector<RowAddr>{19, 21, 531, 533}));
    EXPECT_EQ(fired[0].neutralized, (std::vector<RowAddr>{20, 532}));
}

TEST(DrfmMitigation, RefreshesTheSampledRowEveryInterval)
{
    auto cfg = dram::makeTinyConfig();
    cfg.rowRemap = dram::RowRemapScheme::None;
    MitigationOptions opts;
    opts.drfmInterval = 50;
    const auto mit =
        core::makeMitigation(MitigationKind::Drfm, cfg, opts);

    mit->onActivate(0, 100, 49);
    mit->onActivate(0, 60, 1);  // Interval reached; sample is row 60.
    const auto fired = mit->pendingCommands();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].rows, (std::vector<RowAddr>{59, 61, 571, 573}));
    EXPECT_EQ(mit->fired(), 1u);
}

TEST(RowSwapMitigation, IndirectionMovesTheHotRowPerBank)
{
    const auto cfg = testutil::tinyPlain();
    MitigationOptions opts;
    opts.rowswap.threshold = 20;
    opts.rowswap.spareBase = 900;
    const auto mit =
        core::makeMitigation(MitigationKind::RowSwap, cfg, opts);

    EXPECT_EQ(mit->resolve(0, 5), 5u);
    mit->onActivate(0, 5, 20);
    const auto fired = mit->pendingCommands();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].rows, (std::vector<RowAddr>{5, 900}));
    EXPECT_EQ(fired[0].neutralized, (std::vector<RowAddr>{5}));
    EXPECT_GT(fired[0].extraPs, 0);  // The data burst costs time.
    EXPECT_EQ(mit->resolve(0, 5), 900u);
    // The indirection is per bank.
    EXPECT_EQ(mit->resolve(1, 5), 5u);
}

// ---------------------------------------------------------------------
// The shared adversarial-hammer path.
// ---------------------------------------------------------------------

TEST(HammerThroughMitigation, ChunksAccountEverythingAndFiresInline)
{
    // Logs each ACT the device is sent, by row.
    struct ActLog : obs::TraceSink
    {
        std::vector<RowAddr> rows;
        void onCommand(const obs::TraceRecord &rec) override
        {
            if (rec.cmd == obs::TraceCmd::Act)
                rows.push_back(rec.row);
        }
    };

    const auto cfg = testutil::tinyPlain();
    dram::Chip chip(cfg);
    bender::Host host(chip);
    ActLog log;
    host.setTrace(&log);
    MitigationOptions opts;
    opts.graphene.threshold = 100;
    const auto mit =
        core::makeMitigation(MitigationKind::Graphene, cfg, opts);

    core::hammerThroughMitigation(host, *mit, 0, 30, 350);

    // 350 activations at threshold 100: three firings, none skipped
    // by chunking (chunk = threshold / 4 <= trigger spacing), each
    // refreshing rows 29 and 31 right after the 100th, 200th and
    // 300th aggressor ACT.
    EXPECT_EQ(mit->fired(), 3u);
    std::vector<size_t> aggressorActsBeforeRefresh;
    size_t aggressorActs = 0;
    for (size_t i = 0; i < log.rows.size(); ++i) {
        if (log.rows[i] == 30) {
            ++aggressorActs;
        } else if (log.rows[i] == 29) {
            ASSERT_LT(i + 1, log.rows.size());
            EXPECT_EQ(log.rows[i + 1], RowAddr(31));
            aggressorActsBeforeRefresh.push_back(aggressorActs);
        }
    }
    EXPECT_EQ(aggressorActs, 350u);
    EXPECT_EQ(aggressorActsBeforeRefresh,
              (std::vector<size_t>{100, 200, 300}));
    EXPECT_EQ(log.rows.size(), 350u + 3 * 2);
    // Nothing left pending after the loop.
    EXPECT_TRUE(mit->pendingCommands().empty());
}

TEST(HammerThroughMitigation, DefaultHandlerRunsTheProgramOnTheHost)
{
    // Victim refresh through the device: armed victims survive a
    // 100k-ACT hammer that flips bits without the mitigation.
    auto cfg = dram::makeTinyConfig();
    cfg.rowRemap = dram::RowRemapScheme::None;
    const RowAddr aggr = 60;

    const auto flipsWith = [&](MitigationKind kind) {
        dram::Chip chip(cfg);
        bender::Host host(chip);
        for (const RowAddr v : {aggr - 1, aggr + 1})
            host.writeRowPattern(0, v, ~0ULL);
        host.writeRowPattern(0, aggr, 0);
        MitigationOptions opts;
        opts.graphene.threshold = 6000;
        if (kind == MitigationKind::None) {
            host.hammer(0, aggr, 100000);
        } else {
            const auto mit = core::makeMitigation(kind, cfg, opts);
            core::hammerThroughMitigation(host, *mit, 0, aggr, 100000);
            EXPECT_GT(mit->fired(), 0u);
        }
        size_t flips = 0;
        for (const RowAddr v : {aggr - 1, aggr + 1}) {
            const BitVec row = host.readRowBits(0, v);
            flips += row.size() - row.popcount();
        }
        return flips;
    };

    EXPECT_GT(flipsWith(MitigationKind::None), 0u);
    EXPECT_EQ(flipsWith(MitigationKind::Graphene), 0u);
}

} // namespace
} // namespace dramscope
