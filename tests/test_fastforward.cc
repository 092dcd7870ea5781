/**
 * @file
 * Proof harness for the batched fast-forward engine:
 * FastPathMode::Exact is *bit-identical* to the step-wise reference
 * engine (FastPathMode::Off) — same victim bits, same violation log,
 * same clock, same command count — on every backend (Chip, Dimm, HBM
 * channel), for every lint-certifiable kernel shape, entered with its
 * bank precharged or still open.  Proven differentially with the
 * property-based fuzzer of test_common.h (failures log the draw seed).
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bender/host.h"
#include "dram/chip.h"
#include "dram/hbm_stack.h"
#include "mapping/dimm.h"
#include "test_common.h"

namespace dramscope {
namespace {

using dram::FastPathMode;

/** Everything two engine modes must agree on after one kernel. */
struct RunSnapshot
{
    dram::NanoTime clock = 0;
    uint64_t commands = 0;
    std::vector<dram::TimingViolation> violations;
    std::vector<BitVec> window;  //!< Rows row-2 .. row+2 (and partner).
};

/** A fresh device per run, so no state leaks across modes. */
using DeviceMaker =
    std::function<std::unique_ptr<dram::Device>(const dram::DeviceConfig &)>;

/**
 * The row an open-bank draw leaves open before its loop: the
 * aggressor itself or the row two away on either side (drawn from a
 * stream drawFuzzHammer does not use, so the kernel is unchanged).
 */
dram::RowAddr
openEntryRow(const testutil::FuzzHammer &f)
{
    const auto side = int64_t(hashUniform(f.seed, 6) * 3.0) % 3;
    return dram::RowAddr(int64_t(f.row) + 2 * side - 2);
}

RunSnapshot
runFuzzKernel(const DeviceMaker &make, const dram::DeviceConfig &cfg,
              const testutil::FuzzHammer &f, FastPathMode mode,
              bool open_entry)
{
    auto dev = make(cfg);
    bender::Host host(*dev);
    host.setFastPathMode(mode);
    // Victims charged, aggressor discharged: the paper's worst case.
    for (int d = -2; d <= 2; ++d)
        host.writeRowPattern(f.bank, f.row + d, d == 0 ? 0 : ~0ULL);
    if (open_entry) {
        // An ACT with no PRE: the loop's first ACT finds the bank
        // open, and its first PRE closes the entry row.
        bender::Program open;
        open.act(f.bank, openEntryRow(f)).sleepNs(cfg.timing.tRasNs);
        host.run(open);
    }
    const auto res = host.run(testutil::fuzzHammerProgram(cfg, f));
    RunSnapshot s;
    s.clock = host.now();
    s.commands = res.commandsIssued;
    s.violations = dev->violationLog();
    for (int d = -2; d <= 2; ++d)
        s.window.push_back(host.readRowBits(f.bank, f.row + d));
    if (cfg.coupledRowDistance) {
        // Coupled-row devices drive a partner wordline per ACT; widen
        // the compared window to its neighbourhood too (the XOR is
        // the physical-space pair relation — under row remap this is
        // a nearby window rather than the exact partner, which only
        // adds coverage; equality must hold for every row anyway).
        const dram::RowAddr partner = f.row ^ *cfg.coupledRowDistance;
        if (partner >= 2 && partner + 2 < cfg.rowsPerBank) {
            for (int d = -2; d <= 2; ++d)
                s.window.push_back(host.readRowBits(f.bank, partner + d));
        }
    }
    return s;
}

void
expectSnapshotsEqual(const RunSnapshot &got, const RunSnapshot &want,
                     const testutil::FuzzHammer &f, bool open_entry)
{
    // GTest prints this block on any failure below; the seed alone
    // replays the draw through drawFuzzHammer.
    SCOPED_TRACE(::testing::Message()
                 << "fuzz seed=" << f.seed << " bank=" << int(f.bank)
                 << " row=" << f.row << " count=" << f.count
                 << " openNs=" << f.openNs << " nopBody=" << f.nopBody
                 << (open_entry ? " openEntryRow=" : "")
                 << (open_entry ? std::to_string(openEntryRow(f)) : ""));
    EXPECT_EQ(got.clock, want.clock);
    EXPECT_EQ(got.commands, want.commands);
    ASSERT_EQ(got.violations.size(), want.violations.size());
    for (size_t i = 0; i < want.violations.size(); ++i) {
        EXPECT_EQ(got.violations[i].what, want.violations[i].what) << i;
        EXPECT_EQ(got.violations[i].when, want.violations[i].when) << i;
    }
    ASSERT_EQ(got.window.size(), want.window.size());
    for (size_t i = 0; i < want.window.size(); ++i)
        EXPECT_TRUE(got.window[i] == want.window[i]) << "window row " << i;
}

void
fuzzBackend(const DeviceMaker &make, const dram::DeviceConfig &cfg,
            uint64_t seeds, bool open_entry = false)
{
    for (uint64_t seed = 1; seed <= seeds; ++seed) {
        const auto f = testutil::drawFuzzHammer(cfg, seed);
        const auto fast =
            runFuzzKernel(make, cfg, f, FastPathMode::Exact, open_entry);
        const auto slow =
            runFuzzKernel(make, cfg, f, FastPathMode::Off, open_entry);
        expectSnapshotsEqual(fast, slow, f, open_entry);
    }
}

DeviceMaker
chipMaker()
{
    return [](const dram::DeviceConfig &cfg) -> std::unique_ptr<dram::Device> {
        return std::make_unique<dram::Chip>(cfg);
    };
}

DeviceMaker
dimmMaker()
{
    return [](const dram::DeviceConfig &cfg) -> std::unique_ptr<dram::Device> {
        return std::make_unique<mapping::Dimm>(cfg);
    };
}

/**
 * An HBM channel is a Chip with stack-derived process variation;
 * runs must agree on that derived seed, not the template's.
 */
DeviceMaker
hbmChannelMaker()
{
    return [](const dram::DeviceConfig &cfg) -> std::unique_ptr<dram::Device> {
        dram::HbmStack stack(cfg, 4);
        return std::make_unique<dram::Chip>(stack.channel(2).config());
    };
}

TEST(FastForwardFuzz, ChipExactMatchesStepwise)
{
    fuzzBackend(chipMaker(), testutil::tinyPlain(), 40);
}

TEST(FastForwardFuzz, ChipWithRemapAndCouplingExactMatchesStepwise)
{
    // The unmodified tiny config keeps row remap and the coupled-row
    // pair: the batched path must restore and dose the partner
    // wordline exactly as per-ACT execution does.
    fuzzBackend(chipMaker(), dram::makeTinyConfig(), 25);
}

TEST(FastForwardFuzz, DimmExactMatchesStepwise)
{
    fuzzBackend(dimmMaker(), testutil::tinyPlain(), 10);
}

TEST(FastForwardFuzz, HbmChannelExactMatchesStepwise)
{
    fuzzBackend(hbmChannelMaker(), testutil::tinyPlain(), 10);
}

TEST(FastForwardFuzz, OpenBankEntryExactMatchesStepwise)
{
    // Step-wise, a loop entered with its bank open starts with an
    // ACT-to-open-bank violation that keeps the entry row open, and
    // its first PRE closes that row: the batched path must replay
    // the train command by command rather than drop or batch it.
    fuzzBackend(chipMaker(), testutil::tinyPlain(), 12, true);
    fuzzBackend(chipMaker(), dram::makeTinyConfig(), 12, true);
    fuzzBackend(dimmMaker(), testutil::tinyPlain(), 6, true);
    fuzzBackend(hbmChannelMaker(), testutil::tinyPlain(), 6, true);
}

} // namespace
} // namespace dramscope
