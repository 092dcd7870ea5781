/**
 * @file
 * google-benchmark microbenchmarks of the memory-controller layer:
 * scheduling throughput per open-row policy (requests scheduled per
 * second) and the end-to-end schedule-plus-execute path.  A decision
 * costs O(banks): each bank caches the position of its first row hit,
 * and its 64-entry hit window is scanned only after that bank's ACT or
 * a served column command.  This file is where a regression in that
 * bookkeeping shows up.
 */

#include <benchmark/benchmark.h>

#include "bender/host.h"
#include "dram/chip.h"
#include "dram/config.h"
#include "mc/mc.h"
#include "mc/workload.h"

using namespace dramscope;

namespace {

dram::DeviceConfig
benchConfig()
{
    return dram::makePreset("A_x4_2016");
}

std::vector<mc::Request>
benchWorkload(mc::WorkloadKind kind, size_t n)
{
    mc::WorkloadOptions opt;
    opt.requests = n;
    opt.seed = 0xbe7c;
    return mc::makeWorkload(kind, benchConfig(), opt);
}

void
scheduleOnly(benchmark::State &state, mc::WorkloadKind kind,
             mc::RowPolicy policy)
{
    const auto cfg = benchConfig();
    const auto reqs = benchWorkload(kind, size_t(state.range(0)));
    mc::SchedulerOptions opt;
    opt.policy = policy;
    for (auto _ : state)
        benchmark::DoNotOptimize(mc::schedule(reqs, cfg, opt));
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

void
BM_ScheduleStreamingOpen(benchmark::State &state)
{
    scheduleOnly(state, mc::WorkloadKind::Streaming,
                 mc::RowPolicy::Open);
}
BENCHMARK(BM_ScheduleStreamingOpen)->Arg(1000)->Arg(10000);

void
BM_ScheduleChaseClosed(benchmark::State &state)
{
    scheduleOnly(state, mc::WorkloadKind::PointerChase,
                 mc::RowPolicy::Closed);
}
BENCHMARK(BM_ScheduleChaseClosed)->Arg(1000)->Arg(10000);

void
BM_ScheduleZipfianCap(benchmark::State &state)
{
    scheduleOnly(state, mc::WorkloadKind::Zipfian,
                 mc::RowPolicy::HitCap);
}
BENCHMARK(BM_ScheduleZipfianCap)->Arg(1000)->Arg(10000);

/** The whole pipeline: generate, schedule, execute on a chip. */
void
BM_ScheduleAndExecuteZipfian(benchmark::State &state)
{
    const auto cfg = benchConfig();
    const auto reqs =
        benchWorkload(mc::WorkloadKind::Zipfian, size_t(state.range(0)));
    for (auto _ : state) {
        auto result = mc::schedule(reqs, cfg, {});
        dram::Chip chip(cfg);
        bender::Host host(chip);
        benchmark::DoNotOptimize(host.run(result.program));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ScheduleAndExecuteZipfian)->Arg(1000);

} // namespace

BENCHMARK_MAIN();
