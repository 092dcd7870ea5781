/**
 * @file
 * Resilience tests: the FaultSpec grammar, the deterministic fault
 * streams of dram::FaultyDevice, and the failure-containment layer of
 * SweepRunner::runResilient — retry/quarantine, the watchdog, and the
 * JSONL shard journal (checkpoint/resume bit-identity, including a
 * kill-at-every-shard-boundary loop).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bender/host.h"
#include "core/sweep.h"
#include "dram/chip.h"
#include "dram/faulty_device.h"
#include "test_common.h"
#include "util/metrics.h"

namespace dramscope {
namespace {

using core::ResilienceOptions;
using core::ResumeError;
using core::ShardContext;
using core::ShardStatus;
using core::SweepOptions;
using core::SweepReport;
using core::SweepRunner;
using dram::DeviceDeadError;
using dram::FaultSpec;
using dram::FaultyDevice;
using dram::TransientFaultError;

// ---------------------------------------------------------------------
// FaultSpec grammar.
// ---------------------------------------------------------------------

TEST(FaultSpec, EmptyStringParsesToEmptySpec)
{
    const auto spec = FaultSpec::parse("");
    ASSERT_TRUE(spec.has_value());
    EXPECT_TRUE(spec->empty());
    EXPECT_EQ(spec->toString(), "");
}

TEST(FaultSpec, ParsesEveryClauseKind)
{
    const auto spec = FaultSpec::parse(
        "stuck@0.100.3.7=1,flip:1e-06,drop:0.25,die:cmd=50000,seed:9");
    ASSERT_TRUE(spec.has_value());
    ASSERT_EQ(spec->stuck.size(), 1u);
    EXPECT_EQ(spec->stuck[0].bank, 0);
    EXPECT_EQ(spec->stuck[0].row, 100u);
    EXPECT_EQ(spec->stuck[0].col, 3u);
    EXPECT_EQ(spec->stuck[0].bit, 7u);
    EXPECT_TRUE(spec->stuck[0].value);
    EXPECT_DOUBLE_EQ(spec->flipRate, 1e-6);
    EXPECT_DOUBLE_EQ(spec->dropRate, 0.25);
    EXPECT_EQ(spec->dieAfterCommands, 50000u);
    EXPECT_EQ(spec->seed, 9u);
}

TEST(FaultSpec, ToStringRoundTrips)
{
    const std::string canonical =
        "stuck@1.7.2.31=0,flip:0.001,drop:0.5,die:cmd=12,seed:42";
    const auto spec = FaultSpec::parse(canonical);
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(spec->toString(), canonical);
    const auto again = FaultSpec::parse(spec->toString());
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->toString(), canonical);
}

TEST(FaultSpec, RejectsMalformedClauses)
{
    for (const char *bad :
         {"bogus:1", "flip:2.0", "flip:-0.1", "flip:x", "drop:1.5",
          "die:cmd=0", "die:cmd=-3", "stuck@1.2.3=1", "stuck@1.2.3.64=1",
          "stuck@1.2.3.4=2", "seed:abc", "flip:1e-6,,drop:0.1"}) {
        std::string error;
        EXPECT_FALSE(FaultSpec::parse(bad, &error).has_value())
            << "accepted: " << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
}

// ---------------------------------------------------------------------
// FaultyDevice.
// ---------------------------------------------------------------------

TEST(FaultyDevice, EmptySpecIsTransparent)
{
    const auto cfg = testutil::tinyPlain();
    dram::Chip plain(cfg);
    bender::Host ref(plain);
    ref.writeRowPattern(0, 10, 0x5a5a5a5a5a5a5a5aULL);
    const BitVec want = ref.readRowBits(0, 10);

    dram::Chip inner(cfg);
    FaultyDevice faulty(inner, FaultSpec{});
    bender::Host host(faulty);
    host.writeRowPattern(0, 10, 0x5a5a5a5a5a5a5a5aULL);
    const BitVec got = host.readRowBits(0, 10);

    EXPECT_TRUE(got == want);
    EXPECT_EQ(faulty.counts().flips, 0u);
    EXPECT_EQ(faulty.counts().drops, 0u);
    EXPECT_FALSE(faulty.dead());
}

TEST(FaultyDevice, StuckCellForcesReadsOfThatCellOnly)
{
    const auto cfg = testutil::tinyPlain();
    dram::Chip inner(cfg);
    auto spec = *FaultSpec::parse("stuck@0.20.1.5=0");
    FaultyDevice faulty(inner, spec);
    bender::Host host(faulty);

    host.writeRowPattern(0, 20, ~0ULL);
    host.writeRowPattern(0, 21, ~0ULL);
    const BitVec row20 = host.readRowBits(0, 20);
    const BitVec row21 = host.readRowBits(0, 21);

    // Only (row 20, col 1, bit 5) reads back 0.
    EXPECT_EQ(row20.size() - row20.popcount(), 1u);
    EXPECT_FALSE(row20.get(1 * cfg.rdDataBits + 5));
    EXPECT_EQ(row21.popcount(), row21.size());
    EXPECT_EQ(faulty.counts().stuck, 1u);
}

TEST(FaultyDevice, FlipsAreDeterministicPerSeedAndStream)
{
    const auto cfg = testutil::tinyPlain();
    const auto run = [&cfg](const char *spec_str, uint64_t shard) {
        dram::Chip inner(cfg);
        FaultyDevice faulty(inner, *FaultSpec::parse(spec_str));
        faulty.beginShard(shard, 1);
        bender::Host host(faulty);
        host.writeRowPattern(0, 5, 0);
        return host.readRowBits(0, 5);
    };
    // Same seed + same stream => identical corruption.
    EXPECT_TRUE(run("flip:0.01,seed:7", 3) == run("flip:0.01,seed:7", 3));
    // A different stream (other shard) draws different flips.
    EXPECT_FALSE(run("flip:0.01,seed:7", 3) == run("flip:0.01,seed:7", 4));
    // A different base seed draws different flips.
    EXPECT_FALSE(run("flip:0.01,seed:7", 3) == run("flip:0.01,seed:8", 3));
}

TEST(FaultyDevice, DropThrowsTransientFaultError)
{
    const auto cfg = testutil::tinyPlain();
    dram::Chip inner(cfg);
    FaultyDevice faulty(inner, *FaultSpec::parse("drop:1.0"));
    EXPECT_THROW(faulty.act(0, 1, 0), TransientFaultError);
    EXPECT_EQ(faulty.counts().drops, 1u);
    EXPECT_FALSE(faulty.dead());  // Transient faults are not death.
}

TEST(FaultyDevice, DiesAfterConfiguredCommandCountAndStaysDead)
{
    const auto cfg = testutil::tinyPlain();
    dram::Chip inner(cfg);
    FaultyDevice faulty(inner, *FaultSpec::parse("die:cmd=4"));
    dram::NanoTime t = 0;
    for (int i = 0; i < 2; ++i) {
        faulty.act(0, 1, t += 100);
        faulty.pre(0, t += 100);
    }
    EXPECT_FALSE(faulty.dead());
    EXPECT_EQ(faulty.lifetimeCommands(), 4u);
    EXPECT_THROW(faulty.act(0, 1, t += 100), DeviceDeadError);
    EXPECT_TRUE(faulty.dead());
    // A rebased shard stream does not resurrect the device.
    faulty.beginShard(99, 1);
    EXPECT_THROW(faulty.pre(0, t += 100), DeviceDeadError);
    EXPECT_EQ(faulty.counts().deaths, 1u);
}

TEST(FaultyDevice, BulkActTrainForwardsPrefixWhenDeathLandsInside)
{
    const auto cfg = testutil::tinyPlain();
    dram::Chip inner(cfg);
    FaultyDevice faulty(inner, *FaultSpec::parse("die:cmd=10"));
    // 8 ACT/PRE pairs = 16 commands > 10: commands 0..9 (five full
    // pairs) reach the inner chip, then the device dies on command
    // 10 — exactly where a step-wise replay would have stopped.
    dram::ActTrain train;
    train.bank = 0;
    train.row = 1;
    train.count = 8;
    train.startPs = 1'000'000;
    train.openPs = 35'000;
    train.periodPs = 50'000;
    try {
        faulty.actMany(train);
        FAIL() << "expected DeviceDeadError";
    } catch (const DeviceDeadError &e) {
        EXPECT_EQ(e.trainCommandsDone, 10u);
    }
    EXPECT_TRUE(faulty.dead());
    EXPECT_EQ(faulty.lifetimeCommands(), 11u);  // Faulting cmd counted.
    EXPECT_EQ(inner.stats().acts, 5u);
    EXPECT_EQ(inner.stats().pres, 5u);
    EXPECT_EQ(faulty.violationCount(), 0u);  // 35 ns open >= tRAS.
}

/**
 * One hammer run against a fresh faulty device: setup writes to both
 * neighbors, then @p count ACT-PRE pairs on the aggressor, catching
 * any injected fault.  Everything a cross-mode determinism test needs
 * to compare lands in the returned snapshot.
 */
struct FaultReplay
{
    bool threw = false;
    dram::NanoTime clock = 0;     //!< Host clock after the fault.
    uint64_t lifetime = 0;        //!< Device-side command count.
    uint64_t drops = 0;
    uint64_t deaths = 0;
    uint64_t innerActs = 0;       //!< Commands that reached the chip.
    uint64_t innerPres = 0;
};

FaultReplay
replayHammer(const char *spec, dram::FastPathMode mode, uint64_t count)
{
    const auto cfg = testutil::tinyPlain();
    dram::Chip inner(cfg);
    FaultyDevice faulty(inner, *FaultSpec::parse(spec));
    bender::Host host(faulty);
    host.setFastPathMode(mode);
    FaultReplay r;
    try {
        host.writeRowPattern(0, 99, ~0ULL);
        host.writeRowPattern(0, 101, ~0ULL);
        host.hammer(0, 100, count);
    } catch (const dram::FaultError &) {
        r.threw = true;
    }
    r.clock = host.now();
    r.lifetime = faulty.lifetimeCommands();
    r.drops = faulty.counts().drops;
    r.deaths = faulty.counts().deaths;
    r.innerActs = inner.stats().acts;
    r.innerPres = inner.stats().pres;
    return r;
}

TEST(FaultyDevice, DropLandsAtSameCommandIndexBulkVsStepwise)
{
    // The drop draw is a pure function of (seed, stream position), so
    // the batched train must fault on exactly the command step-wise
    // execution faults on: same surviving prefix, same device-side
    // command count, and the host clock parked on the same slot.
    // Seed 2's first drop draw fires at stream position 355 — well
    // inside the 4000-command train, past the ~20 setup commands.
    const char *spec = "drop:0.005,seed:2";
    const auto fast = replayHammer(spec, dram::FastPathMode::Exact, 2000);
    const auto slow = replayHammer(spec, dram::FastPathMode::Off, 2000);
    ASSERT_TRUE(fast.threw);
    ASSERT_TRUE(slow.threw);
    EXPECT_EQ(fast.clock, slow.clock);
    EXPECT_EQ(fast.lifetime, slow.lifetime);
    EXPECT_EQ(fast.drops, 1u);
    EXPECT_EQ(slow.drops, 1u);
    EXPECT_EQ(fast.innerActs, slow.innerActs);
    EXPECT_EQ(fast.innerPres, slow.innerPres);
    // The drop landed inside the hammer train, not in the setup
    // writes (~20 commands), so the batched path really was aborted
    // mid-train.
    EXPECT_GT(fast.lifetime, 30u);
}

TEST(FaultyDevice, DeathMidTrainMatchesStepwiseReplay)
{
    // die:cmd=75 lands inside the 200-command hammer train (setup
    // issues ~20).  The offset is odd relative to the train start, so
    // the bulk path must also forward the lone trailing ACT that
    // step-wise execution issues before the fatal PRE.
    const char *spec = "die:cmd=75";
    const auto fast = replayHammer(spec, dram::FastPathMode::Exact, 100);
    const auto slow = replayHammer(spec, dram::FastPathMode::Off, 100);
    ASSERT_TRUE(fast.threw);
    ASSERT_TRUE(slow.threw);
    EXPECT_EQ(fast.clock, slow.clock);
    EXPECT_EQ(fast.lifetime, slow.lifetime);
    EXPECT_EQ(fast.lifetime, 76u);
    EXPECT_EQ(fast.deaths, 1u);
    EXPECT_EQ(slow.deaths, 1u);
    EXPECT_EQ(fast.innerActs, slow.innerActs);
    EXPECT_EQ(fast.innerPres, slow.innerPres);
}

TEST(FaultyDevice, ExportsMetricsCounters)
{
    const auto cfg = testutil::tinyPlain();
    dram::Chip inner(cfg);
    FaultyDevice faulty(inner, *FaultSpec::parse("flip:0.05"));
    obs::MetricsRegistry metrics;
    faulty.setMetrics(&metrics);
    bender::Host host(faulty);
    host.writeRowPattern(0, 3, 0);
    host.readRowBits(0, 3);
    const auto snap = metrics.snapshot();
    EXPECT_EQ(snap.counterOr0("faults.injected.flip"),
              faulty.counts().flips);
    EXPECT_GT(faulty.counts().flips, 0u);
}

// ---------------------------------------------------------------------
// runResilient: retry, quarantine, watchdog.
// ---------------------------------------------------------------------

/** Host + runner fixture over the tiny config. */
class ResilientSweepTest : public ::testing::Test
{
  protected:
    ResilientSweepTest()
        : cfg_(testutil::tinyPlain()), chip_(cfg_), host_(chip_)
    {
    }

    SweepRunner makeRunner(unsigned jobs)
    {
        return SweepRunner(host_, SweepOptions(jobs, 0x5eedULL));
    }

    dram::DeviceConfig cfg_;
    dram::Chip chip_;
    bender::Host host_;
};

TEST_F(ResilientSweepTest, AllShardsSucceedWithoutRetries)
{
    auto runner = makeRunner(1);
    const auto report = runner.runResilient(4, [](ShardContext &ctx) {
        return "shard " + std::to_string(ctx.shard);
    });
    ASSERT_EQ(report.shards.size(), 4u);
    EXPECT_TRUE(report.complete());
    EXPECT_EQ(report.executed, 4u);
    EXPECT_EQ(report.retries, 0u);
    for (uint32_t s = 0; s < 4; ++s) {
        EXPECT_EQ(report.shards[s].status, ShardStatus::Ok);
        EXPECT_EQ(report.shards[s].attempts, 1u);
        EXPECT_EQ(report.shards[s].payload,
                  "shard " + std::to_string(s));
    }
}

TEST_F(ResilientSweepTest, TransientFailureIsRetriedThenSucceeds)
{
    auto runner = makeRunner(1);
    const auto report = runner.runResilient(3, [](ShardContext &ctx) {
        if (ctx.shard == 1 && ctx.attempt < 3)
            throw TransientFaultError("flaky");
        return std::string("ok");
    });
    EXPECT_TRUE(report.complete());
    EXPECT_EQ(report.retries, 2u);
    EXPECT_EQ(report.shards[1].attempts, 3u);
    EXPECT_EQ(report.shards[1].status, ShardStatus::Ok);
    EXPECT_EQ(report.shards[0].attempts, 1u);
}

TEST_F(ResilientSweepTest, PersistentFailureQuarantinesWithoutAborting)
{
    auto runner = makeRunner(1);
    ResilienceOptions opts;
    opts.retry.maxAttempts = 2;
    const auto report = runner.runResilient(
        3,
        [](ShardContext &ctx) -> std::string {
            if (ctx.shard == 1)
                throw std::runtime_error("broken shard");
            return "ok";
        },
        opts);
    EXPECT_FALSE(report.complete());
    EXPECT_EQ(report.quarantined, 1u);
    EXPECT_EQ(report.executed, 2u);
    EXPECT_EQ(report.shards[1].status, ShardStatus::Quarantined);
    EXPECT_EQ(report.shards[1].attempts, 2u);
    EXPECT_EQ(report.shards[1].error, "broken shard");
    EXPECT_TRUE(report.shards[1].payload.empty());
    // The healthy shards around it still produced results.
    EXPECT_EQ(report.shards[0].payload, "ok");
    EXPECT_EQ(report.shards[2].payload, "ok");
}

TEST_F(ResilientSweepTest, DeviceDeathQuarantinesImmediately)
{
    auto runner = makeRunner(1);
    ResilienceOptions opts;
    opts.retry.maxAttempts = 5;
    const auto report = runner.runResilient(
        2,
        [](ShardContext &ctx) -> std::string {
            if (ctx.shard == 0)
                throw DeviceDeadError("dead");
            return "ok";
        },
        opts);
    // Hard death is not retriable: one attempt, straight to
    // quarantine.
    EXPECT_EQ(report.shards[0].status, ShardStatus::Quarantined);
    EXPECT_EQ(report.shards[0].attempts, 1u);
    EXPECT_EQ(report.retries, 0u);
}

TEST_F(ResilientSweepTest, WatchdogTimesOutSlowShards)
{
    auto runner = makeRunner(1);
    ResilienceOptions opts;
    opts.retry.maxAttempts = 2;
    opts.shardTimeoutMs = 1;
    const auto report = runner.runResilient(
        2,
        [](ShardContext &ctx) -> std::string {
            if (ctx.shard == 1) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
            }
            return "ok";
        },
        opts);
    EXPECT_EQ(report.shards[0].status, ShardStatus::Ok);
    EXPECT_EQ(report.shards[1].status, ShardStatus::Quarantined);
    EXPECT_EQ(report.timeouts, 2u);  // Both attempts over budget.
}

TEST_F(ResilientSweepTest, BackoffScheduleIsDeterministic)
{
    core::RetryPolicy policy;
    policy.backoffBaseMs = 10;
    policy.backoffCapMs = 50;
    EXPECT_EQ(policy.delayMsBefore(1), 0u);   // First attempt: none.
    EXPECT_EQ(policy.delayMsBefore(2), 10u);  // base
    EXPECT_EQ(policy.delayMsBefore(3), 20u);  // base << 1
    EXPECT_EQ(policy.delayMsBefore(4), 40u);  // base << 2
    EXPECT_EQ(policy.delayMsBefore(5), 50u);  // capped
    EXPECT_EQ(policy.delayMsBefore(9), 50u);  // still capped
    core::RetryPolicy off;
    EXPECT_EQ(off.delayMsBefore(4), 0u);      // base 0 = no delay.
}

TEST_F(ResilientSweepTest, RecordsShardMetrics)
{
    obs::MetricsRegistry metrics;
    host_.setMetrics(&metrics);
    auto runner = makeRunner(1);
    ResilienceOptions opts;
    opts.retry.maxAttempts = 2;
    runner.runResilient(
        3,
        [](ShardContext &ctx) -> std::string {
            if (ctx.shard == 2)
                throw std::runtime_error("always fails");
            if (ctx.shard == 1 && ctx.attempt == 1)
                throw TransientFaultError("once");
            return "ok";
        },
        opts);
    const auto snap = metrics.snapshot();
    EXPECT_EQ(snap.counterOr0("sweep.shards.executed"), 2u);
    EXPECT_EQ(snap.counterOr0("sweep.shards.retried"), 2u);
    EXPECT_EQ(snap.counterOr0("sweep.shards.quarantined"), 1u);
    EXPECT_EQ(snap.counterOr0("sweep.shards.resumed"), 0u);
    host_.setMetrics(nullptr);
}

// ---------------------------------------------------------------------
// Checkpoint / resume.
// ---------------------------------------------------------------------

/** Unique-per-test temp journal path, removed on destruction. */
class TempJournal
{
  public:
    TempJournal()
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        path_ = ::testing::TempDir() + "dramscope_journal_" +
                info->test_suite_name() + "_" + info->name() + ".jsonl";
        std::remove(path_.c_str());
    }
    ~TempJournal() { std::remove(path_.c_str()); }

    const std::string &path() const { return path_; }

    std::vector<std::string> lines() const
    {
        std::vector<std::string> out;
        std::FILE *f = std::fopen(path_.c_str(), "r");
        if (!f)
            return out;
        char buf[4096];
        while (std::fgets(buf, sizeof(buf), f)) {
            std::string line(buf);
            while (!line.empty() &&
                   (line.back() == '\n' || line.back() == '\r'))
                line.pop_back();
            out.push_back(line);
        }
        std::fclose(f);
        return out;
    }

    void writeLines(const std::vector<std::string> &lines,
                    const std::string &partial_tail = "")
    {
        std::FILE *f = std::fopen(path_.c_str(), "w");
        ASSERT_NE(f, nullptr);
        for (const auto &line : lines)
            std::fprintf(f, "%s\n", line.c_str());
        if (!partial_tail.empty())
            std::fprintf(f, "%s", partial_tail.c_str());
        std::fclose(f);
    }

  private:
    std::string path_;
};

/** A deterministic payload unit touching real device state. */
std::string
berUnit(ShardContext &ctx)
{
    const auto aggr = dram::RowAddr(8 + 4 * ctx.shard);
    ctx.host.writeRowPattern(0, aggr - 1, ~0ULL);
    ctx.host.writeRowPattern(0, aggr + 1, ~0ULL);
    ctx.host.writeRowPattern(0, aggr, 0);
    ctx.host.hammer(0, aggr, 30000);
    uint64_t flips = 0;
    for (const auto victim : {aggr - 1, aggr + 1}) {
        const BitVec bits = ctx.host.readRowBits(0, victim);
        flips += bits.size() - bits.popcount();
    }
    return "shard=" + std::to_string(ctx.shard) +
           " flips=" + std::to_string(flips);
}

TEST_F(ResilientSweepTest, ResumeSkipsJournaledShardsBitIdentically)
{
    constexpr uint32_t kShards = 5;
    TempJournal journal;
    ResilienceOptions opts;
    opts.checkpointPath = journal.path();
    opts.tag = "resume-test";

    auto runner = makeRunner(1);
    const auto full = runner.runResilient(kShards, berUnit, opts);
    ASSERT_TRUE(full.complete());
    // Header + one record per shard.
    EXPECT_EQ(journal.lines().size(), 1u + kShards);

    dram::Chip chip2(cfg_);
    bender::Host host2(chip2);
    SweepRunner runner2(host2, SweepOptions(1, 0x5eedULL));
    ResilienceOptions ropts = opts;
    ropts.resume = true;
    const auto resumed = runner2.runResilient(kShards, berUnit, ropts);
    EXPECT_EQ(resumed.resumed, kShards);
    EXPECT_EQ(resumed.executed, 0u);
    EXPECT_EQ(resumed.payloads(), full.payloads());
    for (const auto &rec : resumed.shards)
        EXPECT_EQ(rec.status, ShardStatus::Resumed);
}

TEST_F(ResilientSweepTest, KillAtEveryShardBoundaryResumesIdentically)
{
    constexpr uint32_t kShards = 4;
    TempJournal journal;
    ResilienceOptions opts;
    opts.checkpointPath = journal.path();
    opts.tag = "kill-loop";

    auto runner = makeRunner(1);
    const auto full = runner.runResilient(kShards, berUnit, opts);
    ASSERT_TRUE(full.complete());
    const auto all_lines = journal.lines();
    ASSERT_EQ(all_lines.size(), 1u + kShards);

    // Simulate a kill after each completed shard: truncate the journal
    // to header + k records and resume.  Merged payloads must be
    // bit-identical to the uninterrupted run every time.
    for (uint32_t k = 0; k <= kShards; ++k) {
        journal.writeLines(std::vector<std::string>(
            all_lines.begin(), all_lines.begin() + 1 + k));
        dram::Chip chip2(cfg_);
        bender::Host host2(chip2);
        SweepRunner runner2(host2, SweepOptions(1, 0x5eedULL));
        ResilienceOptions ropts = opts;
        ropts.resume = true;
        const auto resumed =
            runner2.runResilient(kShards, berUnit, ropts);
        EXPECT_TRUE(resumed.complete()) << "kill point " << k;
        EXPECT_EQ(resumed.resumed, k) << "kill point " << k;
        EXPECT_EQ(resumed.payloads(), full.payloads())
            << "kill point " << k;
    }
}

TEST_F(ResilientSweepTest, ResumeToleratesTornTrailingRecord)
{
    constexpr uint32_t kShards = 3;
    TempJournal journal;
    ResilienceOptions opts;
    opts.checkpointPath = journal.path();
    opts.tag = "torn";

    auto runner = makeRunner(1);
    const auto full = runner.runResilient(kShards, berUnit, opts);
    const auto lines = journal.lines();
    ASSERT_EQ(lines.size(), 1u + kShards);

    // A record cut mid-write (no trailing newline, truncated JSON) is
    // what a kill during append leaves behind.
    journal.writeLines({lines[0], lines[1]},
                       "{\"kind\":\"shard\",\"shard\":2,\"att");
    dram::Chip chip2(cfg_);
    bender::Host host2(chip2);
    SweepRunner runner2(host2, SweepOptions(1, 0x5eedULL));
    ResilienceOptions ropts = opts;
    ropts.resume = true;
    const auto resumed = runner2.runResilient(kShards, berUnit, ropts);
    EXPECT_EQ(resumed.resumed, 1u);
    EXPECT_EQ(resumed.payloads(), full.payloads());
}

TEST_F(ResilientSweepTest, SecondResumeAfterATornPayloadIsBitIdentical)
{
    constexpr uint32_t kShards = 4;
    TempJournal journal;
    ResilienceOptions opts;
    opts.checkpointPath = journal.path();
    opts.tag = "torn-payload";

    auto runner = makeRunner(1);
    const auto full = runner.runResilient(kShards, berUnit, opts);
    const auto lines = journal.lines();
    ASSERT_EQ(lines.size(), 1u + kShards);

    // A serial run journals in shard order; kill it inside the third
    // record's payload.  The first resume appends after that torn
    // tail, and the second must read those appends as records of
    // their own.
    const size_t cut = lines[3].find("flips") + 5;
    ASSERT_LT(cut, lines[3].size());
    journal.writeLines({lines[0], lines[1], lines[2]},
                       lines[3].substr(0, cut));
    ResilienceOptions ropts = opts;
    ropts.resume = true;
    for (const uint64_t want_resumed : {uint64_t(2), uint64_t(kShards)}) {
        dram::Chip chip2(cfg_);
        bender::Host host2(chip2);
        SweepRunner runner2(host2, SweepOptions(1, 0x5eedULL));
        const auto resumed = runner2.runResilient(kShards, berUnit, ropts);
        EXPECT_EQ(resumed.resumed, want_resumed);
        EXPECT_EQ(resumed.payloads(), full.payloads());
    }
}

TEST_F(ResilientSweepTest, ResumeRefusesConfigHashMismatch)
{
    constexpr uint32_t kShards = 2;
    TempJournal journal;
    ResilienceOptions opts;
    opts.checkpointPath = journal.path();
    opts.tag = "experiment-a";

    auto runner = makeRunner(1);
    runner.runResilient(kShards, berUnit, opts);

    // Same journal, different experiment tag: refuse.
    ResilienceOptions other = opts;
    other.tag = "experiment-b";
    other.resume = true;
    EXPECT_THROW(runner.runResilient(kShards, berUnit, other),
                 ResumeError);
    // Same tag, different shard count: refuse.
    ResilienceOptions grown = opts;
    grown.resume = true;
    EXPECT_THROW(runner.runResilient(kShards + 1, berUnit, grown),
                 ResumeError);
    // The matching run still resumes.
    ResilienceOptions same = opts;
    same.resume = true;
    const auto resumed = runner.runResilient(kShards, berUnit, same);
    EXPECT_EQ(resumed.resumed, kShards);
}

TEST_F(ResilientSweepTest, ResumeWithMissingJournalStartsFresh)
{
    TempJournal journal;
    ResilienceOptions opts;
    opts.checkpointPath = journal.path();
    opts.resume = true;  // Nothing to resume from yet.
    auto runner = makeRunner(1);
    const auto report = runner.runResilient(2, berUnit, opts);
    EXPECT_EQ(report.resumed, 0u);
    EXPECT_EQ(report.executed, 2u);
    EXPECT_EQ(journal.lines().size(), 3u);
}

TEST_F(ResilientSweepTest, JournalRoundTripsHostilePayloadBytes)
{
    TempJournal journal;
    ResilienceOptions opts;
    opts.checkpointPath = journal.path();
    const std::string hostile =
        "quote:\" backslash:\\ newline:\n tab:\t cr:\r ctl:\x01 end";

    auto runner = makeRunner(1);
    const auto full = runner.runResilient(
        1, [&](ShardContext &) { return hostile; }, opts);
    ASSERT_EQ(full.shards[0].payload, hostile);

    ResilienceOptions ropts = opts;
    ropts.resume = true;
    const auto resumed = runner.runResilient(
        1,
        [](ShardContext &) -> std::string {
            ADD_FAILURE() << "journaled shard must not re-run";
            return "";
        },
        ropts);
    EXPECT_EQ(resumed.shards[0].payload, hostile);
}

// ---------------------------------------------------------------------
// Fault injection under the sweep: serial/parallel and rerun
// determinism.
// ---------------------------------------------------------------------

/** Builds a fault-wrapped host + runner and collects payloads. */
std::vector<std::string>
faultSweepPayloads(const dram::DeviceConfig &cfg, const FaultSpec &spec,
                   unsigned jobs, uint32_t shards,
                   obs::MetricsRegistry *metrics = nullptr)
{
    dram::Chip chip(cfg);
    FaultyDevice faulty(chip, spec);
    bender::Host host(faulty);
    if (metrics)
        host.setMetrics(metrics);
    SweepOptions sopts(jobs, 0x5eedULL,
                       [&spec](const dram::DeviceConfig &c) {
                           return std::make_unique<FaultyDevice>(
                               std::make_unique<dram::Chip>(c), spec);
                       });
    SweepRunner runner(host, sopts);
    const auto report = runner.runResilient(shards, berUnit);
    EXPECT_TRUE(report.complete());
    return report.payloads();
}

TEST(FaultySweep, SameSeedRerunsAreByteIdentical)
{
    const auto cfg = testutil::tinyPlain();
    const auto spec = *FaultSpec::parse("flip:1e-4,seed:11");
    const auto a = faultSweepPayloads(cfg, spec, 1, 4);
    const auto b = faultSweepPayloads(cfg, spec, 1, 4);
    EXPECT_EQ(a, b);
}

TEST(FaultySweep, ParallelMatchesSerialWithFaultsInjected)
{
    const auto cfg = testutil::tinyPlain();
    const auto spec = *FaultSpec::parse("flip:1e-4,stuck@0.9.0.3=0,seed:11");
    obs::MetricsRegistry serial_metrics;
    obs::MetricsRegistry parallel_metrics;
    const auto serial =
        faultSweepPayloads(cfg, spec, 1, 6, &serial_metrics);
    const auto parallel =
        faultSweepPayloads(cfg, spec, 4, 6, &parallel_metrics);
    EXPECT_EQ(serial, parallel);
    // The merged fault counters match the serial run exactly.
    EXPECT_EQ(
        serial_metrics.snapshot().counterOr0("faults.injected.flip"),
        parallel_metrics.snapshot().counterOr0("faults.injected.flip"));
}

TEST(FaultySweep, TransientDropsRetryToCompletion)
{
    // A small drop rate: some attempt somewhere fails, but retries
    // (fresh fault streams) finish the sweep.  With drop:0 as control
    // the payloads must be unaffected by retries.
    const auto cfg = testutil::tinyPlain();
    obs::MetricsRegistry metrics;
    dram::Chip chip(cfg);
    FaultyDevice faulty(chip, *FaultSpec::parse("drop:2e-6,seed:3"));
    bender::Host host(faulty);
    host.setMetrics(&metrics);
    SweepRunner runner(host, SweepOptions(1, 0x5eedULL));
    ResilienceOptions opts;
    opts.retry.maxAttempts = 10;
    const auto report = runner.runResilient(4, berUnit, opts);
    EXPECT_TRUE(report.complete());
    const auto control = faultSweepPayloads(cfg, FaultSpec{}, 1, 4);
    EXPECT_EQ(report.payloads(), control);
}

} // namespace
} // namespace dramscope
