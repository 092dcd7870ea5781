/**
 * @file
 * Sweep engine tests: the shard loop's scheduling and failure
 * handling, plus the determinism contract — parallel
 * (DRAMSCOPE_JOBS=4) results must be bit-identical to serial
 * (DRAMSCOPE_JOBS=1) for every sweep-routed figure entry point.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/charact.h"
#include "core/sweep.h"
#include "dram/chip.h"
#include "test_common.h"
#include "util/metrics.h"

namespace dramscope {
namespace {

using core::CharactOptions;
using core::Characterization;
using core::ShardContext;
using core::SweepOptions;
using core::SweepRunner;
using dram::AibMechanism;

// ---------------------------------------------------------------------
// SweepRunner unit tests.
// ---------------------------------------------------------------------

TEST(SweepJobs, ExplicitRequestWins)
{
    EXPECT_EQ(core::resolveJobs(3), 3u);
    EXPECT_EQ(core::resolveJobs(1), 1u);
}

TEST(SweepJobs, EnvironmentKnobParses)
{
    // The caller's value is restored at the end: CI runs the suite at
    // DRAMSCOPE_JOBS=4 in one process.
    const char *outer = std::getenv("DRAMSCOPE_JOBS");
    const bool had_outer = outer != nullptr;
    const std::string saved = had_outer ? outer : "";
    ASSERT_EQ(unsetenv("DRAMSCOPE_JOBS"), 0);
    const unsigned hardware = core::resolveJobs();
    EXPECT_GE(hardware, 1u);
    ASSERT_EQ(setenv("DRAMSCOPE_JOBS", "5", 1), 0);
    EXPECT_EQ(core::resolveJobs(), 5u);
    for (const char *value : {"", "0"}) {
        ASSERT_EQ(setenv("DRAMSCOPE_JOBS", value, 1), 0);
        EXPECT_EQ(core::resolveJobs(), hardware) << "'" << value << "'";
    }

    // Any other value that is not a decimal integer fitting unsigned
    // is fatal, not a silent fallback.  The death statement runs in a
    // child process, so the variable never leaks into the suite.
    for (const char *bad :
         {"not-a-number", "-2", "4abc", "+4", " 4", "4294967297"}) {
        EXPECT_DEATH(
            {
                setenv("DRAMSCOPE_JOBS", bad, 1);
                (void)core::resolveJobs();
            },
            "DRAMSCOPE_JOBS='.*' is not a job count")
            << "'" << bad << "'";
    }
    if (had_outer)
        ASSERT_EQ(setenv("DRAMSCOPE_JOBS", saved.c_str(), 1), 0);
    else
        ASSERT_EQ(unsetenv("DRAMSCOPE_JOBS"), 0);
}

class SweepRunnerTest : public ::testing::Test
{
  protected:
    SweepRunnerTest()
        : cfg_(testutil::tinyPlain()), chip_(cfg_), host_(chip_)
    {
    }

    dram::DeviceConfig cfg_;
    dram::Chip chip_;
    bender::Host host_;
};

TEST_F(SweepRunnerTest, ResultsArriveInShardOrder)
{
    SweepRunner serial(host_, SweepOptions{1, 0x5eedULL});
    SweepRunner parallel(host_, SweepOptions{4, 0x5eedULL});
    const auto unit = [](ShardContext &ctx) -> uint32_t {
        return ctx.shard * 10 + ctx.shardCount;
    };
    const auto a = serial.map<uint32_t>(9, unit);
    const auto b = parallel.map<uint32_t>(9, unit);
    ASSERT_EQ(a.size(), 9u);
    for (uint32_t s = 0; s < 9; ++s)
        EXPECT_EQ(a[s], s * 10 + 9);
    EXPECT_EQ(a, b);
}

TEST_F(SweepRunnerTest, RngStreamIsSplitByShardIndexNotSchedule)
{
    const auto unit = [](ShardContext &ctx) { return ctx.rng.next(); };
    SweepRunner serial(host_, SweepOptions{1, 1234});
    SweepRunner parallel(host_, SweepOptions{4, 1234});
    const auto a = serial.map<uint64_t>(32, unit);
    // Run the parallel sweep twice: scheduling varies, streams do not.
    const auto b = parallel.map<uint64_t>(32, unit);
    const auto c = parallel.map<uint64_t>(32, unit);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, c);

    // A different base seed yields different streams.
    SweepRunner other(host_, SweepOptions{1, 99});
    EXPECT_NE(a, other.map<uint64_t>(32, unit));
}

TEST_F(SweepRunnerTest, ZeroShardsIsANoOp)
{
    SweepRunner runner(host_, SweepOptions{4, 0});
    bool ran = false;
    runner.forEachShard(0, [&](ShardContext &) { ran = true; });
    EXPECT_FALSE(ran);
    EXPECT_TRUE(runner.map<int>(0, [](ShardContext &) { return 1; })
                    .empty());
}

TEST_F(SweepRunnerTest, ReplicasMatchTheLegacyHostDevice)
{
    // A self-contained unit (write before read) must observe the same
    // device on a replica as on the legacy serial host.
    const auto unit = [](ShardContext &ctx) -> uint64_t {
        const dram::RowAddr row = 100 + 4 * ctx.shard;
        ctx.host.writeRowPattern(0, row, 0xDEADBEEFULL);
        ctx.host.writeRowPattern(0, row + 1, 0);
        ctx.host.hammer(0, row + 1, 200000, 35.0);
        return ctx.host.readRowBits(0, row).popcount();
    };
    SweepRunner serial(host_, SweepOptions{1, 0});
    SweepRunner parallel(host_, SweepOptions{4, 0});
    EXPECT_EQ(serial.map<uint64_t>(12, unit),
              parallel.map<uint64_t>(12, unit));
}

TEST_F(SweepRunnerTest, ParallelMetricsMergeMatchesSerial)
{
    // Commands issued per shard are program-determined, and every
    // histogram sample is a time delta within one shard (windows
    // reset at shard boundaries), so the merged parallel registry
    // must equal the serial one bit for bit.
    const auto unit = [](ShardContext &ctx) {
        const dram::RowAddr row = 100 + 4 * ctx.shard;
        ctx.host.writeRowPattern(0, row, ~0ULL);
        ctx.host.hammer(0, row + 1, 50 + ctx.shard, 35.0);
        (void)ctx.host.readRow(0, row);
    };

    obs::MetricsRegistry serial_metrics;
    host_.setMetrics(&serial_metrics);
    SweepRunner serial(host_, SweepOptions{1, 0});
    serial.forEachShard(10, unit);

    obs::MetricsRegistry parallel_metrics;
    host_.setMetrics(&parallel_metrics);
    SweepRunner parallel(host_, SweepOptions{4, 0});
    parallel.forEachShard(10, unit);
    host_.setMetrics(nullptr);

    EXPECT_EQ(serial_metrics.snapshot(), parallel_metrics.snapshot());
    // Spot-check the aggregate: per shard s, 1 ACT (setup write) +
    // (50+s) hammer ACTs + 1 ACT (read-back) = 20 + 545 over 10 shards.
    EXPECT_EQ(serial_metrics.snapshot().counterOr0("cmd.act"), 565u);
}

TEST_F(SweepRunnerTest, ReplicaRegistriesDrainOncePerSweep)
{
    // Replica registries are reset after each drain; a second sweep on
    // the same runner must add exactly one more run's worth of counts.
    const auto unit = [](ShardContext &ctx) {
        ctx.host.hammer(0, 50, 100, 35.0);
    };
    obs::MetricsRegistry metrics;
    host_.setMetrics(&metrics);
    SweepRunner runner(host_, SweepOptions{4, 0});
    runner.forEachShard(8, unit);
    const uint64_t once = metrics.snapshot().counterOr0("cmd.act");
    EXPECT_EQ(once, 800u);
    runner.forEachShard(8, unit);
    host_.setMetrics(nullptr);
    EXPECT_EQ(metrics.snapshot().counterOr0("cmd.act"), 2 * once);
}

/** How often one sweep of @p runner ran each of @p shards shards. */
std::vector<int>
shardRunCounts(SweepRunner &runner, uint32_t shards)
{
    std::vector<std::atomic<int>> runs(shards);
    runner.forEachShard(shards, [&](ShardContext &ctx) {
        runs[ctx.shard].fetch_add(1, std::memory_order_relaxed);
    });
    return std::vector<int>(runs.begin(), runs.end());
}

TEST_F(SweepRunnerTest, EveryShardRunsExactlyOnce)
{
    SweepRunner runner(host_, SweepOptions{4, 0});
    for (const uint32_t shards : {1u, 3u, 7u, 64u, 1000u}) {
        EXPECT_EQ(shardRunCounts(runner, shards),
                  std::vector<int>(shards, 1))
            << shards << " shards";
    }
}

TEST_F(SweepRunnerTest, BuildsAtMostOneReplicaPerWorker)
{
    std::atomic<int> built{0};
    SweepRunner runner(
        host_, SweepOptions{4, 0,
                            [&](const dram::DeviceConfig &cfg)
                                -> std::unique_ptr<dram::Device> {
                                built.fetch_add(1);
                                return std::make_unique<dram::Chip>(cfg);
                            }});
    // At most min(jobs, shards) workers, each building its replica
    // once; the replicas persist across sweeps.
    (void)shardRunCounts(runner, 2);
    EXPECT_GE(built.load(), 1);
    EXPECT_LE(built.load(), 2);
    (void)shardRunCounts(runner, 3);
    EXPECT_LE(built.load(), 3);
    for (int i = 0; i < 3; ++i)
        (void)shardRunCounts(runner, 64);
    EXPECT_LE(built.load(), 4);
}

TEST_F(SweepRunnerTest, RethrowsTheLowestIndexedFailureAfterEveryShardRan)
{
    // One failure contract, serial and parallel: every shard runs,
    // then the lowest-indexed failure is rethrown.
    for (const unsigned jobs : {1u, 4u}) {
        SweepRunner runner(host_, SweepOptions{jobs, 0});
        std::atomic<int> completed{0};
        try {
            runner.forEachShard(16, [&](ShardContext &ctx) {
                if (ctx.shard == 3) {
                    // Fail last in wall-clock order: the rethrown
                    // failure must still be this one.
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(20));
                    throw std::runtime_error("boom-3");
                }
                if (ctx.shard == 10)
                    throw std::runtime_error("boom-10");
                completed.fetch_add(1);
            });
            FAIL() << "expected an exception at jobs=" << jobs;
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "boom-3") << "jobs=" << jobs;
        }
        EXPECT_EQ(completed.load(), 14) << "jobs=" << jobs;
    }
}

TEST_F(SweepRunnerTest, RunsEveryShardAgainAfterASweepInWhichAllThrew)
{
    SweepRunner runner(host_, SweepOptions{4, 0});
    std::atomic<int> attempted{0};
    EXPECT_THROW(runner.forEachShard(100,
                                     [&](ShardContext &) {
                                         attempted.fetch_add(1);
                                         throw std::runtime_error("flood");
                                     }),
                 std::runtime_error);
    EXPECT_EQ(attempted.load(), 100);
    EXPECT_EQ(shardRunCounts(runner, 100), std::vector<int>(100, 1));
}

// ---------------------------------------------------------------------
// Serial-vs-parallel equivalence of the figure entry points.
// ---------------------------------------------------------------------

class SweepEquivalenceTest : public ::testing::Test
{
  protected:
    SweepEquivalenceTest() : cfg_(testutil::tinyPlain())
    {
    }

    /** Builds a fresh device + suite with the given job count. */
    struct Rig
    {
        dram::Chip chip;
        bender::Host host;
        Characterization charact;

        Rig(const dram::DeviceConfig &cfg, unsigned jobs)
            : chip(cfg), host(chip),
              charact(host,
                      core::PhysMap::fromSwizzle(chip.swizzle(),
                                                 cfg.columnsPerRow(),
                                                 cfg.rdDataBits),
                      makeOpts(jobs))
        {
        }

        static CharactOptions
        makeOpts(unsigned jobs)
        {
            CharactOptions opts;
            opts.victimRows = 16;
            opts.baseRow = 300;
            opts.jobs = jobs;
            return opts;
        }
    };

    dram::DeviceConfig cfg_;
};

TEST_F(SweepEquivalenceTest, RunAttackFlipsAreBitIdentical)
{
    Rig serial(cfg_, 1), parallel(cfg_, 4);
    const BitVec victim(cfg_.rowBits, true);
    const BitVec aggr(cfg_.rowBits, false);
    const auto a = serial.charact.runAttack(true, true, victim, aggr,
                                            300000, 35.0);
    const auto b = parallel.charact.runAttack(true, true, victim, aggr,
                                              300000, 35.0);
    EXPECT_EQ(a.flipsPerHostBit, b.flipsPerHostBit);
    EXPECT_EQ(a.rows, b.rows);
    EXPECT_EQ(a.cellsPerRow, b.cellsPerRow);
    EXPECT_EQ(a.physRows, b.physRows);
}

TEST_F(SweepEquivalenceTest, BerVsPhysIndexVectorsAreIdentical)
{
    Rig serial(cfg_, 1), parallel(cfg_, 4);
    for (const bool data_one : {false, true}) {
        for (const bool upper : {false, true}) {
            const auto a = serial.charact.berVsPhysIndex(
                AibMechanism::RowHammer, data_one, upper);
            const auto b = parallel.charact.berVsPhysIndex(
                AibMechanism::RowHammer, data_one, upper);
            EXPECT_EQ(a, b) << "panel data=" << data_one
                            << " upper=" << upper;
        }
    }
    const auto a = serial.charact.berVsPhysIndex(
        AibMechanism::RowPress, true, true);
    const auto b = parallel.charact.berVsPhysIndex(
        AibMechanism::RowPress, true, true);
    EXPECT_EQ(a, b);
}

TEST_F(SweepEquivalenceTest, PatternBerValuesAreIdentical)
{
    Rig serial(cfg_, 1), parallel(cfg_, 4);
    for (const auto &[vic, aggr] :
         {std::pair<uint8_t, uint8_t>{0xF, 0x0},
          std::pair<uint8_t, uint8_t>{0x3, 0xC},
          std::pair<uint8_t, uint8_t>{0x5, 0xA}}) {
        EXPECT_EQ(serial.charact.patternBer(vic, aggr),
                  parallel.charact.patternBer(vic, aggr))
            << "victim=" << int(vic) << " aggr=" << int(aggr);
    }
}

TEST_F(SweepEquivalenceTest, GateTypeBerIsIdentical)
{
    Rig serial(cfg_, 1), parallel(cfg_, 4);
    const auto a = serial.charact.gateTypeBer(AibMechanism::RowHammer);
    const auto b = parallel.charact.gateTypeBer(AibMechanism::RowHammer);
    EXPECT_EQ(a.dischargedGateA, b.dischargedGateA);
    EXPECT_EQ(a.dischargedGateB, b.dischargedGateB);
    EXPECT_EQ(a.chargedGateA, b.chargedGateA);
    EXPECT_EQ(a.chargedGateB, b.chargedGateB);
}

TEST_F(SweepEquivalenceTest, EdgeVsTypicalIsIdentical)
{
    Rig serial(cfg_, 1), parallel(cfg_, 4);
    const std::vector<dram::RowAddr> edge = {4, 12, 20, 28};
    const std::vector<dram::RowAddr> typical = {52, 60, 68, 76};
    const auto a = serial.charact.edgeVsTypical(typical, edge);
    const auto b = parallel.charact.edgeVsTypical(typical, edge);
    EXPECT_EQ(a.typicalAggr0Vic1, b.typicalAggr0Vic1);
    EXPECT_EQ(a.edgeAggr0Vic1, b.edgeAggr0Vic1);
    EXPECT_EQ(a.typicalAggr1Vic0, b.typicalAggr1Vic0);
    EXPECT_EQ(a.edgeAggr1Vic0, b.edgeAggr1Vic0);
}

TEST_F(SweepEquivalenceTest, RelativeBerAndHcntAreIdentical)
{
    Rig serial(cfg_, 1), parallel(cfg_, 4);
    EXPECT_EQ(serial.charact.relativeBerVictimNeighbors(false, true,
                                                        true),
              parallel.charact.relativeBerVictimNeighbors(false, true,
                                                          true));
    EXPECT_EQ(serial.charact.relativeBerAggrNeighbors(false, true,
                                                      false, false),
              parallel.charact.relativeBerAggrNeighbors(false, true,
                                                        false, false));
    EXPECT_EQ(serial.charact.relativeHcnt(false, false, true),
              parallel.charact.relativeHcnt(false, false, true));
}

TEST_F(SweepEquivalenceTest, MergedMetricsAreIdenticalAcrossAllEntryPoints)
{
    // The acceptance contract of the observability layer: with a
    // metrics registry attached, a DRAMSCOPE_JOBS=1 run and a
    // DRAMSCOPE_JOBS=4 run of every sweep-routed figure entry point
    // produce identical merged snapshots.
    Rig serial(cfg_, 1), parallel(cfg_, 4);
    obs::MetricsRegistry serial_metrics, parallel_metrics;
    serial.host.setMetrics(&serial_metrics);
    parallel.host.setMetrics(&parallel_metrics);

    const auto exercise = [this](Characterization &charact) {
        const BitVec victim(cfg_.rowBits, true);
        const BitVec aggr(cfg_.rowBits, false);
        (void)charact.runAttack(true, true, victim, aggr, 50000, 35.0);
        (void)charact.berVsPhysIndex(AibMechanism::RowHammer, true, true);
        (void)charact.berVsPhysIndex(AibMechanism::RowPress, false, true);
        (void)charact.gateTypeBer(AibMechanism::RowHammer);
        (void)charact.edgeVsTypical({52, 60}, {4, 12});
        (void)charact.relativeBerVictimNeighbors(false, true, true);
        (void)charact.relativeBerAggrNeighbors(false, true, false, false);
        (void)charact.relativeHcnt(false, false, true);
        (void)charact.patternBer(0x3, 0xC);
    };
    exercise(serial.charact);
    exercise(parallel.charact);

    const auto a = serial_metrics.snapshot();
    const auto b = parallel_metrics.snapshot();
    EXPECT_EQ(a, b);
    // The snapshots actually saw the workload.
    EXPECT_GT(a.counterOr0("cmd.act"), 0u);
    EXPECT_GT(a.counterOr0("bank.act.0"), 0u);
    EXPECT_GT(a.histograms.at("act.open_ns").total, 0u);
}

TEST_F(SweepEquivalenceTest, OddJobCountsAndRemapAlsoMatch)
{
    // Jobs that do not divide the shard count, plus the Mfr. A row
    // remap, on the richer tiny config (coupling + remap enabled).
    dram::DeviceConfig cfg = dram::makeTinyConfig();
    auto opts = Rig::makeOpts(1);
    opts.rowRemap = cfg.rowRemap;

    dram::Chip chip1(cfg);
    bender::Host host1(chip1);
    Characterization serial(
        host1,
        core::PhysMap::fromSwizzle(chip1.swizzle(), cfg.columnsPerRow(),
                                   cfg.rdDataBits),
        opts);

    opts.jobs = 3;
    dram::Chip chip3(cfg);
    bender::Host host3(chip3);
    Characterization parallel(
        host3,
        core::PhysMap::fromSwizzle(chip3.swizzle(), cfg.columnsPerRow(),
                                   cfg.rdDataBits),
        opts);

    EXPECT_EQ(serial.berVsPhysIndex(AibMechanism::RowHammer, true, true),
              parallel.berVsPhysIndex(AibMechanism::RowHammer, true,
                                      true));
    EXPECT_EQ(serial.patternBer(0x3, 0xC), parallel.patternBer(0x3, 0xC));
}

} // namespace
} // namespace dramscope
