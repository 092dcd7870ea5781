/**
 * @file
 * The policy x workload sweep unit.
 */

#include "mc/sweep.h"

#include <sstream>
#include <stdexcept>

#include "bender/lint.h"
#include "util/rng.h"

namespace dramscope {
namespace mc {

std::vector<SweepCell>
sweepPlan(const std::vector<core::MitigationKind> &mitigations)
{
    std::vector<SweepCell> cells;
    for (const auto mitigation : mitigations)
        for (const auto &workload : workloadTable())
            for (const auto &policy : policyTable())
                cells.push_back({workload.kind, policy.policy, mitigation});
    return cells;
}

ScheduleResult
buildSweepCellSchedule(const SweepCell &cell, uint32_t shard,
                       const dram::DeviceConfig &cfg,
                       const McSweepOptions &opt)
{
    WorkloadOptions wopt;
    wopt.requests = opt.requests;
    // Split by shard index, not a live RNG: the workload must be the
    // same bytes on every attempt and under every job count.  The
    // index is folded modulo the workload x policy block, so every
    // mitigation block of the grid faces identical traffic (and the
    // leading None block keeps its historical seeds).
    const uint64_t block =
        uint64_t(workloadTable().size()) * policyTable().size();
    wopt.seed = hashCombine(opt.seed, shard % block);
    const auto reqs = makeWorkload(cell.workload, cfg, wopt);

    SchedulerOptions sopt;
    sopt.policy = cell.policy;
    sopt.mitigation = cell.mitigation;
    return schedule(reqs, cfg, sopt);
}

std::string
runSweepCell(core::ShardContext &ctx, const SweepCell &cell,
             const McSweepOptions &opt)
{
    const auto &cfg = ctx.host.config();
    auto result = buildSweepCellSchedule(cell, ctx.shard, cfg, opt);

    const auto report = bender::lint::lint(result.program, cfg);
    for (const auto &d : report.diags) {
        if (!d.expected) {
            std::ostringstream os;
            os << "mc shard " << ctx.shard << " ("
               << workloadId(cell.workload) << "/"
               << policyId(cell.policy);
            if (cell.mitigation != core::MitigationKind::None)
                os << "/" << core::mitigationId(cell.mitigation);
            os << "): scheduler emitted an out-of-spec program: "
               << d.message;
            throw std::runtime_error(os.str());
        }
    }

    ctx.host.run(result.program);
    if (ctx.host.metrics() != nullptr)
        result.stats.publish(*ctx.host.metrics());

    std::ostringstream os;
    os << "workload=" << workloadId(cell.workload)
       << " policy=" << policyId(cell.policy);
    if (cell.mitigation != core::MitigationKind::None)
        os << " mitigation=" << core::mitigationId(cell.mitigation);
    os << " " << result.stats.summary();
    return os.str();
}

core::SweepReport
runMcSweep(core::SweepRunner &runner, const McSweepOptions &opt,
           const core::ResilienceOptions &ropts)
{
    const auto plan = sweepPlan(opt.mitigations);
    return runner.runResilient(
        uint32_t(plan.size()),
        [&](core::ShardContext &ctx) {
            return runSweepCell(ctx, plan.at(ctx.shard), opt);
        },
        ropts);
}

} // namespace mc
} // namespace dramscope
