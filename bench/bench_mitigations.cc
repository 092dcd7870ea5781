/**
 * @file
 * Mitigation cost/efficacy table and scheduling-throughput guard.
 *
 * One row per DRAMSCOPE_MITIGATIONS entry: FR-FCFS scheduling
 * throughput (requests/s of wall clock, schedule() only — no device
 * execution), injected-sequence counts, the exposure bound achieved
 * (max ACTs any row collected in one refresh window), and the span
 * overhead versus the unmitigated baseline.
 *
 * Like bench_fastforward this is a pass/fail tool, guarding the
 * byte-identity contract's performance half: wiring the mitigation
 * hooks into the scheduler must not tax the None path.  After one
 * untimed warm-up schedule(), None and an armed-but-never-firing
 * Graphene run are timed in interleaved pairs (alternating which
 * goes first), so neither side pays for cold caches or run order.
 * It exits non-zero when None's median throughput drops below an
 * absolute floor, or when the ratio of medians (inert Graphene over
 * None) exceeds 2x (the hook overhead bound).
 */

#include <cinttypes>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "core/protect/mitigation.h"
#include "mc/mc.h"
#include "mc/workload.h"
#include "util/stats.h"
#include "util/table.h"

using namespace dramscope;

namespace {

/** One schedule() wall clock in seconds; @p stats gets its stats. */
double
scheduleSeconds(const std::vector<mc::Request> &reqs,
                const dram::DeviceConfig &cfg,
                const mc::SchedulerOptions &opt,
                mc::ScheduleStats *stats = nullptr)
{
    benchutil::WallTimer timer;
    auto res = mc::schedule(reqs, cfg, opt);
    const double s = timer.seconds();
    if (stats)
        *stats = res.stats;
    return s;
}

} // namespace

int
main()
{
    benchutil::header("mitigation cost under scheduled traffic",
                      "defense efficacy priced in delayed demand, not "
                      "free victim refreshes");

    const auto cfg = dram::makePreset("A_x8_2018");
    const size_t requests = benchutil::scaled(60000, 5000);
    mc::WorkloadOptions wopt;
    wopt.requests = requests;
    const auto reqs =
        mc::makeWorkload(mc::WorkloadKind::Zipfian, cfg, wopt);
    const int reps = 3;
    const int pairs = 5;

    // The closed policy turns the Zipfian hot set into repeated
    // activations (FR-FCFS coalesces them under open), and the
    // thresholds are low enough that every kind fires on this stream.
    core::MitigationOptions knobs;
    knobs.graphene.threshold = 5;
    knobs.raaimt = 2000;
    knobs.drfmInterval = 4000;
    knobs.rowswap.threshold = 200;

    mc::SchedulerOptions base;
    base.policy = mc::RowPolicy::Closed;
    // An armed Graphene whose threshold is never reached exercises
    // every mitigation branch without ever injecting a command.
    mc::SchedulerOptions inert = base;
    inert.mitigation = core::MitigationKind::Graphene;
    inert.mitigationOptions.graphene.threshold = 1u << 30;

    scheduleSeconds(reqs, cfg, base);  // Untimed warm-up.
    mc::ScheduleStats noneStats;
    std::vector<double> noneSecs, inertSecs;
    for (int p = 0; p < pairs; ++p) {
        const bool noneFirst = p % 2 == 0;
        if (!noneFirst)
            inertSecs.push_back(scheduleSeconds(reqs, cfg, inert));
        noneSecs.push_back(scheduleSeconds(reqs, cfg, base, &noneStats));
        if (noneFirst)
            inertSecs.push_back(scheduleSeconds(reqs, cfg, inert));
    }
    const double noneSec = median(noneSecs);
    const double inertSec = median(inertSecs);

    Table table({"mitigation", "reqs/s", "fired", "mit-cmds",
                 "max-row-acts", "span-overhead"});
    table.addRow({"none", Table::num(double(requests) / noneSec),
                  "0", "0", Table::num(double(noneStats.maxRowActsPerRefWindow)),
                  "1.00"});
    for (const auto &info : core::mitigationTable()) {
        if (info.kind == core::MitigationKind::None)
            continue;
        mc::SchedulerOptions opt = base;
        opt.mitigation = info.kind;
        opt.mitigationOptions = knobs;
        mc::ScheduleStats st;
        std::vector<double> secs;
        for (int r = 0; r < reps; ++r)
            secs.push_back(scheduleSeconds(reqs, cfg, opt, &st));
        table.addRow({info.id, Table::num(double(requests) / median(secs)),
                      Table::num(double(st.mitFired)),
                      Table::num(double(st.mitCmds)),
                      Table::num(double(st.maxRowActsPerRefWindow)),
                      Table::num(double(st.spanPs) /
                                 double(noneStats.spanPs))});
    }
    table.print();
    benchutil::maybeWriteCsv(table, "mitigation_cost");

    // Guard 1: absolute throughput floor on the unmitigated path.
    const double noneRate = double(requests) / noneSec;
    std::printf("none scheduling: %.0f reqs/s, median of %d "
                "(guard: >= 200000)\n",
                noneRate, pairs);
    if (noneRate < 200000.0) {
        std::printf("FAIL: None scheduling below the throughput floor\n");
        return 1;
    }

    // Guard 2: hook overhead, as the ratio of the interleaved medians.
    std::printf("inert graphene: %.2fx none wall clock, ratio of "
                "medians (guard: <= 2x)\n",
                inertSec / noneSec);
    if (inertSec > 2.0 * noneSec) {
        std::printf("FAIL: mitigation hooks tax the scheduler\n");
        return 1;
    }
    std::printf("PASS\n");
    return 0;
}
