/**
 * @file
 * Host/program executor tests, and the DRAMSCOPE_LINT pre-flight
 * modes.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "bender/host.h"
#include "dram/chip.h"
#include "test_common.h"
#include "util/metrics.h"

namespace dramscope {
namespace {

using bender::Opcode;
using bender::Program;

class HostTest : public ::testing::Test
{
  protected:
    HostTest() : cfg_(testutil::tinyPlain()), chip_(cfg_), host_(chip_)
    {
    }

    dram::DeviceConfig cfg_;
    dram::Chip chip_;
    bender::Host host_;
};

TEST_F(HostTest, ProgramBuilderShapes)
{
    Program p;
    p.act(0, 1).nop(3).rd(0, 2).wr(0, 3, 0xFF).pre(0).ref().sleepNs(5.5);
    ASSERT_EQ(p.size(), 7u);
    EXPECT_EQ(p.instrs()[0].op, Opcode::Act);
    EXPECT_EQ(p.instrs()[1].count, 3u);
    EXPECT_EQ(p.instrs()[3].data, 0xFFu);
    p.validate();
}

TEST_F(HostTest, LoopsExpandCorrectly)
{
    // A counting loop of writes: each iteration writes a different...
    // writes are constant here; verify command count instead.
    Program p;
    p.act(0, 1).sleepNs(cfg_.timing.tRcdNs);
    p.loopBegin(5).rd(0, 0).loopEnd();
    p.pre(0);
    const auto result = host_.run(p);
    EXPECT_EQ(result.reads.size(), 5u);
    EXPECT_EQ(result.commandsIssued, 2u + 5u);
}

TEST_F(HostTest, NestedLoops)
{
    Program p;
    p.act(0, 1).sleepNs(cfg_.timing.tRcdNs);
    p.loopBegin(3).loopBegin(4).rd(0, 1).loopEnd().loopEnd();
    p.pre(0);
    const auto result = host_.run(p);
    EXPECT_EQ(result.reads.size(), 12u);
}

TEST_F(HostTest, ClockAdvancesWithProgram)
{
    const auto t0 = host_.now();
    Program p;
    p.nop(8);  // 8 * 1.25ns.
    host_.run(p);
    EXPECT_EQ(host_.now() - t0, 10);
}

TEST_F(HostTest, HammerLoopUsesBulkPathTime)
{
    // 1000 iterations of a 50ns kernel (35ns open + PRE slot + tRP).
    const auto t0 = host_.now();
    host_.hammer(0, 21, 1000);
    const double elapsed = double(host_.now() - t0);
    EXPECT_NEAR(elapsed, 1000 * 50.0, 100.0);
}

TEST_F(HostTest, BulkClockExactAfterLongWait)
{
    // The picosecond clock must not lose precision at large absolute
    // times: after 64 seconds of simulated wait the default hammer
    // kernel (35ns open + 1.25ns PRE slot + 13.75ns tRP = 50ns) still
    // advances now() by *exactly* count * 50ns.  A double-ns clock
    // fails this — at 6.4e10ns the ULP exceeds the sub-ns kernel
    // terms and the sum drifts.
    host_.waitMs(64.0 * 1e3);
    const auto t0 = host_.now();
    const uint64_t count = 12345;
    host_.hammer(0, 21, count);
    EXPECT_EQ(host_.now() - t0, dram::NanoTime(count * 50));
}

TEST_F(HostTest, SleepDurationRoundedOnceAtBuildTime)
{
    // sleepNs() stores integer picoseconds in the instruction, rounded
    // once when the program is built; the executor then only adds
    // integers.  0.333ns must round to exactly 333ps, and looping the
    // sleep 3000 times must advance the clock by exactly 999ns — a
    // per-iteration double-to-ps conversion would accumulate drift.
    Program p;
    p.loopBegin(3000).sleepNs(0.333).loopEnd();
    ASSERT_EQ(p.instrs()[1].op, Opcode::SleepNs);
    EXPECT_EQ(p.instrs()[1].ps, 333);

    const auto t0 = host_.now();
    host_.run(p);
    EXPECT_EQ(host_.now() - t0, dram::NanoTime(999));
}

TEST_F(HostTest, SleepNsRoundsHalfAwayFromZero)
{
    Program p;
    p.sleepNs(0.0005).sleepNs(1.0 / 3.0).sleepNs(7800.0);
    EXPECT_EQ(p.instrs()[0].ps, 1);
    EXPECT_EQ(p.instrs()[1].ps, 333);
    EXPECT_EQ(p.instrs()[2].ps, 7800000);
}

TEST_F(HostTest, WriteReadRowBitsRoundtrip)
{
    BitVec bits(cfg_.rowBits);
    for (size_t i = 0; i < bits.size(); i += 3)
        bits.set(i, true);
    host_.writeRowBits(0, 9, bits);
    EXPECT_EQ(host_.readRowBits(0, 9), bits);
}

TEST_F(HostTest, WriteRowPatternAppliesPerColumn)
{
    host_.writeRowPattern(0, 4, 0x12345678ULL);
    for (uint64_t col_data : host_.readRow(0, 4))
        EXPECT_EQ(col_data, 0x12345678ULL);
}

TEST_F(HostTest, RunReturnsTiming)
{
    Program p;
    p.act(0, 0).sleepNs(100).pre(0);
    const auto r = host_.run(p);
    EXPECT_GT(r.endNs, r.startNs);
    EXPECT_EQ(r.commandsIssued, 2u);
}

TEST_F(HostTest, WaitMsAdvancesClock)
{
    const auto t0 = host_.now();
    host_.waitMs(3.0);
    EXPECT_EQ(host_.now() - t0, 3000000);
}

TEST_F(HostTest, ReadsInsideLoopDisableFastPath)
{
    // A loop body containing RD cannot use the bulk path, but must
    // still execute correctly.
    host_.writeRowPattern(0, 2, ~0ULL);
    Program p;
    p.loopBegin(10)
        .act(0, 2)
        .sleepNs(cfg_.timing.tRcdNs)
        .rd(0, 0)
        .sleepNs(cfg_.timing.tRasNs)
        .pre(0)
        .sleepNs(cfg_.timing.tRpNs)
        .loopEnd();
    const auto r = host_.run(p);
    ASSERT_EQ(r.reads.size(), 10u);
    const uint64_t mask = (1ULL << cfg_.rdDataBits) - 1;
    for (auto v : r.reads)
        EXPECT_EQ(v & mask, mask);
}

TEST_F(HostTest, UnbalancedLoopDies)
{
    Program p;
    p.loopBegin(2).act(0, 1);
    EXPECT_DEATH(p.validate(), "unbalanced");
}

/**
 * Sets DRAMSCOPE_LINT for one scope and then restores the caller's
 * value: CI runs this binary in one process.
 */
class ScopedLintMode
{
  public:
    explicit ScopedLintMode(const char *mode)
    {
        const char *outer = std::getenv(kVar);
        had_outer_ = outer != nullptr;
        saved_ = had_outer_ ? outer : "";
        setenv(kVar, mode, 1);
    }

    ~ScopedLintMode()
    {
        if (had_outer_)
            setenv(kVar, saved_.c_str(), 1);
        else
            unsetenv(kVar);
    }

  private:
    static constexpr const char *kVar = "DRAMSCOPE_LINT";
    bool had_outer_ = false;
    std::string saved_;
};

/** An unannotated ACT then PRE inside tRAS: one tras error, slot 1. */
Program
prematurePre()
{
    Program p;
    p.act(0, 10).pre(0);
    return p;
}

TEST(HostPreflight, WarnLogsAndCountsButRuns)
{
    const ScopedLintMode mode("warn");
    dram::Chip chip(testutil::tinyPlain());
    bender::Host host(chip);
    obs::MetricsRegistry metrics;
    host.setMetrics(&metrics);
    testing::internal::CaptureStderr();
    host.run(prematurePre());
    const std::string log = testing::internal::GetCapturedStderr();
    EXPECT_NE(log.find("lint: [tras] slot 1: "), std::string::npos)
        << log;
    EXPECT_EQ(chip.stats().acts, 1u);
    EXPECT_EQ(chip.stats().pres, 1u);
    const auto snap = metrics.snapshot();
    EXPECT_EQ(snap.counterOr0("lint.programs"), 1u);
    EXPECT_EQ(snap.counterOr0("lint.errors"), 1u);
}

TEST(HostPreflight, ErrorModeFatalsOnUnannotatedErrors)
{
    // The death statement runs in a child process, so the variable
    // never leaks into the rest of the suite.
    EXPECT_DEATH(
        {
            setenv("DRAMSCOPE_LINT", "error", 1);
            dram::Chip chip(testutil::tinyPlain());
            bender::Host host(chip);
            host.run(prematurePre());
        },
        "lint: \\[tras\\] slot 1: ");
}

TEST(HostPreflight, ErrorModeRunsDeclaredViolations)
{
    // RowCopy's ACT inside tRP is declared, so it lints clean.
    const ScopedLintMode mode("error");
    dram::Chip chip(testutil::tinyPlain());
    bender::Host host(chip);
    obs::MetricsRegistry metrics;
    host.setMetrics(&metrics);
    host.rowCopy(0, 10, 11);
    EXPECT_EQ(chip.stats().acts, 2u);
    const auto snap = metrics.snapshot();
    EXPECT_EQ(snap.counterOr0("lint.programs"), 1u);
    EXPECT_EQ(snap.counterOr0("lint.errors"), 0u);
}

} // namespace
} // namespace dramscope
