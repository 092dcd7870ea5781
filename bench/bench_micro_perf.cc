/**
 * @file
 * google-benchmark microbenchmarks of the simulator itself: command
 * throughput of the paths every experiment is built from.
 */

#include <benchmark/benchmark.h>

#include "bender/host.h"
#include "bender/trace.h"
#include "core/charact.h"
#include "core/re_subarray.h"
#include "dram/chip.h"
#include "util/metrics.h"

using namespace dramscope;

namespace {

dram::DeviceConfig
benchConfig()
{
    return dram::makePreset("A_x4_2016");
}

void
BM_RowWrite(benchmark::State &state)
{
    dram::Chip chip(benchConfig());
    bender::Host host(chip);
    dram::RowAddr row = 1000;
    for (auto _ : state) {
        host.writeRowPattern(0, row, 0xA5A5A5A5ULL);
        row = (row + 1) % 4096;
    }
    state.SetItemsProcessed(state.iterations() *
                            chip.config().rowBits);
}
BENCHMARK(BM_RowWrite);

void
BM_RowRead(benchmark::State &state)
{
    dram::Chip chip(benchConfig());
    bender::Host host(chip);
    host.writeRowPattern(0, 1000, 0xA5A5A5A5ULL);
    for (auto _ : state)
        benchmark::DoNotOptimize(host.readRow(0, 1000));
    state.SetItemsProcessed(state.iterations() *
                            chip.config().rowBits);
}
BENCHMARK(BM_RowRead);

void
BM_BulkHammer(benchmark::State &state)
{
    dram::Chip chip(benchConfig());
    bender::Host host(chip);
    host.writeRowPattern(0, 1000, ~0ULL);
    host.writeRowPattern(0, 1001, 0);
    const auto count = uint64_t(state.range(0));
    for (auto _ : state) {
        host.hammer(0, 1001, count);
        host.refresh();  // Reset accumulation between iterations.
    }
    state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_BulkHammer)->Arg(10000)->Arg(300000);

/**
 * Device-interface guard for the bulk fast path: the hammer loop via
 * a devirtualizable dram::Chip call against the same loop through a
 * dram::Device reference (what bender::Host actually holds).  actMany
 * folds the whole ACT-PRE train into ONE virtual call, so /interface
 * must stay within noise of /direct — a regression here means a
 * per-iteration virtual call crept back onto the fast path.
 */
void
BM_BulkHammerDevirt(benchmark::State &state)
{
    dram::Chip chip(benchConfig());
    bender::Host host(chip);
    host.writeRowPattern(0, 1000, ~0ULL);
    dram::ActTrain train;
    train.bank = 0;
    train.row = 1001;
    train.count = 100000;
    train.openPs = 35000;  // Whole-ns open/period: the batched path.
    train.periodPs = 50000;
    const uint64_t count = train.count;
    if (state.range(0) == 0) {
        // Direct call on the concrete type (static dispatch).
        for (auto _ : state) {
            train.startPs = int64_t(host.now()) * 1000;
            chip.actMany(train);
            chip.refresh(host.now());
        }
    } else {
        // Same loop through the abstract interface.  DoNotOptimize on
        // the pointer keeps the compiler from proving the dynamic
        // type and devirtualizing the call.
        dram::Device *dev = &chip;
        benchmark::DoNotOptimize(dev);
        for (auto _ : state) {
            train.startPs = int64_t(host.now()) * 1000;
            dev->actMany(train);
            dev->refresh(host.now());
        }
    }
    state.SetLabel(state.range(0) ? "interface" : "direct");
    state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_BulkHammerDevirt)->Arg(0)->Arg(1);

void
BM_IteratedHammer(benchmark::State &state)
{
    // The slow path: an unrolled ACT-PRE program (no loop detection).
    dram::Chip chip(benchConfig());
    bender::Host host(chip);
    host.writeRowPattern(0, 1000, ~0ULL);
    bender::Program p;
    for (int k = 0; k < 1000; ++k)
        p.act(0, 1001).sleepNs(33.75).pre(0).sleepNs(13.75);
    for (auto _ : state)
        host.run(p);
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_IteratedHammer);

void
BM_DisturbCommit(benchmark::State &state)
{
    // Cost of evaluating a victim row's accumulated dose (the hot
    // path of every characterization experiment).
    dram::Chip chip(benchConfig());
    bender::Host host(chip);
    host.writeRowPattern(0, 1000, ~0ULL);
    for (auto _ : state) {
        host.hammer(0, 1001, 100000);
        benchmark::DoNotOptimize(host.readRowBits(0, 1000));
    }
    state.SetItemsProcessed(state.iterations() *
                            chip.config().rowBits);
}
BENCHMARK(BM_DisturbCommit);

void
BM_RowCopy(benchmark::State &state)
{
    dram::Chip chip(benchConfig());
    bender::Host host(chip);
    host.writeRowPattern(0, 1000, 0x12345678ULL);
    for (auto _ : state)
        host.rowCopy(0, 1000, 1010);
    state.SetItemsProcessed(state.iterations() *
                            chip.config().rowBits);
}
BENCHMARK(BM_RowCopy);

void
BM_ProbeCopyClassification(benchmark::State &state)
{
    // One boundary probe of the Table III scan.
    dram::Chip chip(benchConfig());
    bender::Host host(chip);
    core::SubarrayMapper mapper(host);
    for (auto _ : state)
        benchmark::DoNotOptimize(mapper.probeCopy(1000, 1001));
}
BENCHMARK(BM_ProbeCopyClassification);

/**
 * Sweep-routed figure workload: one Figure 12 BER panel through the
 * parallel sweep engine.  The Arg is the job count — compare
 * /1 vs /4 real time for the parallel speedup (results are
 * bit-identical at every job count; see core/sweep.h).
 */
void
BM_SweepBerPanel(benchmark::State &state)
{
    dram::Chip chip(benchConfig());
    bender::Host host(chip);
    core::CharactOptions opts;
    opts.victimRows = 64;
    opts.baseRow = 1024;
    opts.jobs = unsigned(state.range(0));
    core::Characterization charact(
        host,
        core::PhysMap::fromSwizzle(chip.swizzle(),
                                   chip.config().columnsPerRow(),
                                   chip.config().rdDataBits),
        opts);
    for (auto _ : state) {
        benchmark::DoNotOptimize(charact.berVsPhysIndex(
            dram::AibMechanism::RowHammer, true, true));
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            opts.victimRows);
}
BENCHMARK(BM_SweepBerPanel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/** Sweep-routed Figure 16 pattern cell (two wordline parities). */
void
BM_SweepPatternBer(benchmark::State &state)
{
    dram::Chip chip(benchConfig());
    bender::Host host(chip);
    core::CharactOptions opts;
    opts.victimRows = 32;
    opts.baseRow = 1024;
    opts.jobs = unsigned(state.range(0));
    core::Characterization charact(
        host,
        core::PhysMap::fromSwizzle(chip.swizzle(),
                                   chip.config().columnsPerRow(),
                                   chip.config().rdDataBits),
        opts);
    for (auto _ : state)
        benchmark::DoNotOptimize(charact.patternBer(0x3, 0xC));
    state.SetItemsProcessed(int64_t(state.iterations()) * 2 *
                            opts.victimRows);
}
BENCHMARK(BM_SweepPatternBer)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * Observability overhead on the bulk hammer path: /0 runs with the
 * metrics registry detached (the disabled-check baseline every sweep
 * benchmark above also pays), /1 with per-command metrics enabled.
 * The bulk path folds a whole ACT-PRE loop into O(1) metric updates,
 * so both should be within noise of BM_BulkHammer.
 */
void
BM_BulkHammerMetrics(benchmark::State &state)
{
    dram::Chip chip(benchConfig());
    bender::Host host(chip);
    obs::MetricsRegistry metrics;
    if (state.range(0))
        host.setMetrics(&metrics);
    host.writeRowPattern(0, 1000, ~0ULL);
    for (auto _ : state) {
        host.hammer(0, 1001, 100000);
        host.refresh();
    }
    state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_BulkHammerMetrics)->Arg(0)->Arg(1);

/** Per-command cost of the slot path with metrics + ring tracing. */
void
BM_SlotPathObserved(benchmark::State &state)
{
    dram::Chip chip(benchConfig());
    bender::Host host(chip);
    obs::MetricsRegistry metrics;
    obs::CommandTracer tracer(4096);
    if (state.range(0)) {
        host.setMetrics(&metrics);
        host.setTrace(&tracer);
    }
    host.writeRowPattern(0, 1000, 0xA5A5A5A5ULL);
    for (auto _ : state)
        benchmark::DoNotOptimize(host.readRow(0, 1000));
    state.SetItemsProcessed(state.iterations() *
                            chip.config().columnsPerRow());
}
BENCHMARK(BM_SlotPathObserved)->Arg(0)->Arg(1);

void
BM_RetentionScan(benchmark::State &state)
{
    dram::Chip chip(benchConfig());
    bender::Host host(chip);
    for (auto _ : state) {
        host.writeRowPattern(0, 1000, ~0ULL);
        host.waitMs(4000.0);
        benchmark::DoNotOptimize(host.readRowBits(0, 1000));
    }
    state.SetItemsProcessed(state.iterations() *
                            chip.config().rowBits);
}
BENCHMARK(BM_RetentionScan);

/**
 * One ACT+PRE and one REF after N ACTs to every other row of bank 0
 * (about 4N rows materialized, with neighbours and coupled partners):
 * a REF should cost what changed since the previous one, not N.
 */
void
BM_Refresh(benchmark::State &state)
{
    dram::Chip chip(benchConfig());
    const auto n = dram::RowAddr(state.range(0));
    dram::NanoTime now = 1000;
    auto act_pre = [&](dram::RowAddr row) {
        chip.act(0, row, now);
        chip.pre(0, now + 40);
        now += 100;
    };
    for (dram::RowAddr row = 0; row < n; ++row)
        act_pre(2 * row);
    chip.refresh(now);
    dram::RowAddr row = 0;
    for (auto _ : state) {
        now += 400;
        act_pre(2 * row);
        chip.refresh(now);
        row = (row + 1) % n;
    }
    state.counters["rows"] = double(chip.bank(0).materializedRows());
}
BENCHMARK(BM_Refresh)->Arg(1024)->Arg(16384);

} // namespace

BENCHMARK_MAIN();
