/**
 * @file
 * Edge-case and error-path tests across modules: bounds checks,
 * option validation, HBM2 stack composition, and a handful of
 * behaviours not covered by the main suites.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>

#include "bender/host.h"
#include "core/protect/ecc.h"
#include "core/protect/mitigation.h"
#include "core/re_retention.h"
#include "core/re_swizzle.h"
#include "dram/hbm_stack.h"
#include "test_common.h"

namespace dramscope {
namespace {

using dram::RowAddr;

TEST(HbmStack, ChannelsAreIndependentSilicon)
{
    dram::HbmStack stack(dram::makePreset("HBM2_A"), 4);
    EXPECT_EQ(stack.channelCount(), 4u);

    // Same attack on two channels flips different cells (independent
    // process variation), but a comparable number of them.
    auto attack = [&](uint32_t c) {
        bender::Host host(stack.channel(c));
        host.writeRowPattern(0, 1000, ~0ULL);
        host.writeRowPattern(0, 1001, 0);
        host.hammer(0, 1001, 2000000);  // Compensates the 25C dose.
        return host.readRowBits(0, 1000);
    };
    const BitVec a = attack(0);
    const BitVec b = attack(1);
    EXPECT_NE(a, b);
    const size_t fa = a.size() - a.popcount();
    const size_t fb = b.size() - b.popcount();
    EXPECT_GT(fa, 10u);
    EXPECT_GT(fb, 10u);
    EXPECT_LT(fa, 3 * fb);
    EXPECT_LT(fb, 3 * fa);
}

TEST(HbmStack, PowerAccountingAggregates)
{
    dram::HbmStack stack(dram::makePreset("HBM2_A"), 2);
    bender::Host h0(stack.channel(0));
    bender::Host h1(stack.channel(1));
    // Row 1000 sits in a typical (non-edge) subarray; HBM2 rows
    // couple, so every ACT drives two wordlines.
    const auto total = [&] {
        uint64_t sum = 0;
        for (uint32_t c = 0; c < stack.channelCount(); ++c)
            sum += stack.channel(c).stats().wordlinesDriven;
        return sum;
    };
    h0.hammer(0, 1000, 10);
    h1.hammer(0, 1000, 5);
    EXPECT_EQ(total(), 2u * 15u);
    // An edge-subarray row doubles again (tandem structure).
    h0.hammer(0, 100, 10);
    EXPECT_EQ(total(), 2u * 15u + 4u * 10u);
}

TEST(HbmStack, RejectsZeroChannels)
{
    EXPECT_DEATH(dram::HbmStack(dram::makePreset("HBM2_A"), 0),
                 "channels");
}

TEST(EdgeCases, UnknownPresetDies)
{
    EXPECT_DEATH(dram::makePreset("Z_x9_1999"), "unknown");
}

TEST(EdgeCases, InvalidConfigDies)
{
    dram::DeviceConfig cfg = testutil::tinyPlain();
    cfg.subarrayPattern = {{3, 100}};  // 300 does not divide 1024.
    EXPECT_DEATH(cfg.validate(), "pattern");

    dram::DeviceConfig bad_perm = testutil::tinyPlain();
    bad_perm.swizzlePerm = {0, 0, 2, 3, 4, 5, 6, 7};
    EXPECT_DEATH(bad_perm.validate(), "permutation");

    dram::DeviceConfig bad_coupled = testutil::tinyPlain();
    bad_coupled.coupledRowDistance = 100;
    EXPECT_DEATH(bad_coupled.validate(), "coupled");
}

TEST(EdgeCases, ZeroDivisorsFailInsteadOfCrashing)
{
    // Each would divide by zero (SIGFPE, no message) if validate()
    // divided before it checked.
    dram::DeviceConfig cfg = testutil::tinyPlain();
    cfg.edgeSectionRows = 0;
    EXPECT_DEATH(cfg.validate(), "tiny-plain: zero edgeSectionRows");

    cfg = testutil::tinyPlain();
    cfg.matWidth = 0;
    EXPECT_DEATH(cfg.validate(), "tiny-plain: zero matWidth");

    cfg = testutil::tinyPlain();
    cfg.rowBits = 0;
    EXPECT_DEATH(cfg.validate(), "tiny-plain: zero rowBits");

    cfg = testutil::tinyPlain();
    cfg.rdDataBits = 0;
    EXPECT_DEATH(cfg.validate(), "tiny-plain: rdDataBits must be in");
}

TEST(EdgeCases, BurstsWiderThan64BitsDie)
{
    // Consistent in every other respect (two bursts of 4 MATs x 32
    // bits per 256-bit row), but a burst is one uint64_t.
    dram::DeviceConfig cfg = testutil::tinyPlain();
    cfg.rdDataBits = 128;
    cfg.swizzlePerm.resize(cfg.groupBits());
    std::iota(cfg.swizzlePerm.begin(), cfg.swizzlePerm.end(), 0u);
    EXPECT_DEATH(cfg.validate(), "tiny-plain: rdDataBits must be in");

    cfg.rdDataBits = 64;
    cfg.swizzlePerm.resize(cfg.groupBits());
    cfg.validate();
}

TEST(EdgeCases, RowAddressBoundsAreEnforced)
{
    dram::DeviceConfig cfg = testutil::tinyPlain();
    dram::Chip chip(cfg);
    EXPECT_DEATH(chip.act(0, cfg.rowsPerBank, 1000), "out of range");
    chip.act(0, 5, 1000);
    EXPECT_DEATH(chip.read(0, cfg.columnsPerRow(), 1100), "column");
}

TEST(EdgeCases, MitigationAtBankEdgeSkipsMissingNeighbours)
{
    // Victim refresh of row 0 must not touch row -1.
    dram::DeviceConfig cfg = testutil::tinyPlain();
    dram::Chip chip(cfg);
    bender::Host host(chip);
    core::TrackerOptions opts;
    opts.threshold = 100;
    core::GrapheneMitigation mit(cfg, opts);
    // Fires mitigations for row 0.
    core::hammerThroughMitigation(host, mit, 0, 0, 500);
    EXPECT_GT(mit.tracker(0).mitigations(), 0u);
    // Reaching here without a panic is the assertion.
}

TEST(EdgeCases, SwizzleReverserValidatesOptions)
{
    dram::DeviceConfig cfg = testutil::tinyPlain();
    dram::Chip chip(cfg);
    bender::Host host(chip);
    core::SwizzleOptions opts;  // Missing subarrayBoundary.
    EXPECT_DEATH(core::SwizzleReverser(host, opts), "subarrayBoundary");

    core::SwizzleOptions edge_col;
    edge_col.subarrayBoundary = 48;
    edge_col.probeColumn = 0;  // No left neighbour column.
    EXPECT_DEATH(core::SwizzleReverser(host, edge_col), "probe column");
}

TEST(EdgeCases, RetentionProfilerValidatesSweep)
{
    dram::DeviceConfig cfg = testutil::tinyPlain();
    dram::Chip chip(cfg);
    bender::Host host(chip);
    core::RetentionOptions empty;
    empty.waitsMs = {};
    EXPECT_DEATH(core::RetentionProfiler(host, empty), "empty");
    core::RetentionOptions unsorted;
    unsorted.waitsMs = {100, 50};
    EXPECT_DEATH(core::RetentionProfiler(host, unsorted), "ascend");
}

TEST(EdgeCases, EccMemoryPassesThroughUnmanagedRows)
{
    dram::DeviceConfig cfg = testutil::tinyPlain();
    dram::Chip chip(cfg);
    bender::Host host(chip);
    core::EccMemory ecc(host);
    host.writeRowPattern(0, 11, 0xABCD1234ULL);  // Raw write.
    const BitVec read = ecc.readRowBits(0, 11);
    EXPECT_EQ(read, host.readRowBits(0, 11));
    EXPECT_EQ(ecc.stats().wordsRead, 0u);
}

TEST(EdgeCases, EccStatsCountEveryReadWord)
{
    dram::DeviceConfig cfg = testutil::tinyPlain();
    dram::Chip chip(cfg);
    bender::Host host(chip);
    core::EccMemory ecc(host);
    EXPECT_EQ(ecc.stats().wordsRead, 0u);
    ecc.writeRowBits(0, 9, BitVec(cfg.rowBits, true));
    ecc.readRowBits(0, 9);
    const uint64_t words = ecc.stats().wordsRead;
    EXPECT_GT(words, 0u);
    ecc.readRowBits(0, 9);
    EXPECT_EQ(ecc.stats().wordsRead, 2 * words);
}

TEST(EdgeCases, MisspeltFastPathEnvIsFatal)
{
    // The death statement runs in a child process, so the variable
    // never leaks into the rest of the suite.
    EXPECT_DEATH(
        {
            setenv("DRAMSCOPE_FASTPATH", "analytic", 1);
            dram::fastPathModeFromEnv();
        },
        "DRAMSCOPE_FASTPATH='analytic'.*off\\|exact");
}

TEST(EdgeCases, MisspeltLintEnvIsFatal)
{
    EXPECT_DEATH(
        {
            setenv("DRAMSCOPE_LINT", "errror", 1);
            bender::lint::modeFromEnv();
        },
        "DRAMSCOPE_LINT='errror'");
}

TEST(EdgeCases, HostRowCopySelfIsHarmless)
{
    dram::DeviceConfig cfg = testutil::tinyPlain();
    dram::Chip chip(cfg);
    bender::Host host(chip);
    host.writeRowPattern(0, 10, 0x1234ULL);
    host.rowCopy(0, 10, 10);
    for (const auto col : host.readRow(0, 10))
        EXPECT_EQ(col, 0x1234ULL);
}

TEST(EdgeCases, WriteRowValidatesColumnCount)
{
    dram::DeviceConfig cfg = testutil::tinyPlain();
    dram::Chip chip(cfg);
    bender::Host host(chip);
    EXPECT_DEATH(host.writeRow(0, 5, std::vector<uint64_t>(3)),
                 "column count");
    EXPECT_DEATH(host.writeRowBits(0, 5, BitVec(10)), "size mismatch");
}

TEST(EdgeCases, HbmTckDiffersFromDdr4)
{
    // SS III-A: 1.25ns for DDR4, 1.67ns for HBM2.
    dram::Chip ddr4(dram::makePreset("A_x4_2016"));
    dram::Chip hbm(dram::makePreset("HBM2_A"));
    bender::Host h4(ddr4);
    bender::Host hh(hbm);
    const auto t4 = h4.now();
    const auto th = hh.now();
    bender::Program p;
    p.nop(100);
    h4.run(p);
    hh.run(p);
    EXPECT_EQ(h4.now() - t4, 125);
    EXPECT_EQ(hh.now() - th, 167);
}

} // namespace
} // namespace dramscope
