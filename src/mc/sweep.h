/**
 * @file
 * Policy x workload sweep over the memory-controller layer, built on
 * core::SweepRunner so sharding, resilience (retry / quarantine /
 * checkpoint-resume) and fault injection all apply unchanged.
 *
 * One shard = one (workload, policy) cell: generate the workload,
 * schedule it FR-FCFS, lint the emitted program, execute it on the
 * shard's device replica, and return a deterministic payload line.
 * The same unit backs the `dramscope_cli mcsweep` subcommand and the
 * serial==parallel equivalence tests.
 */

#ifndef DRAMSCOPE_MC_SWEEP_H
#define DRAMSCOPE_MC_SWEEP_H

#include <string>
#include <vector>

#include "core/sweep.h"
#include "mc/mc.h"
#include "mc/workload.h"

namespace dramscope {
namespace mc {

/** One cell of the mitigation x workload x policy grid. */
struct SweepCell
{
    WorkloadKind workload;
    RowPolicy policy;
    core::MitigationKind mitigation = core::MitigationKind::None;
};

/**
 * The grid, mitigation-major: one full workload x policy block per
 * entry of @p mitigations, in the given order, each block
 * workload-major (all policies of one workload are adjacent shards).
 * Shard index == position in this vector, so a `{None}` grid keeps
 * the shard indices (and so workload seeds, journals and payload
 * bytes) of the grid before the mitigation axis existed.
 */
std::vector<SweepCell>
sweepPlan(const std::vector<core::MitigationKind> &mitigations);

/** Knobs of the mc sweep. */
struct McSweepOptions
{
    size_t requests = 1000;   //!< Requests per cell.
    uint64_t seed = 0x5eedULL;  //!< Workload-generation base seed.

    /** Mitigation axis of the grid (one block per entry). */
    std::vector<core::MitigationKind> mitigations = {
        core::MitigationKind::None};
};

/**
 * Runs one cell on @p ctx's device: generates the workload with a
 * seed split by shard index (stable across attempts and job counts),
 * schedules it, lints the program (throws on any unexpected
 * diagnostic — in-spec by construction is part of the contract),
 * executes it, publishes the ScheduleStats into the host's attached
 * metrics registry, and returns the payload line
 * `workload=<id> policy=<id> <stats summary>` (with
 * ` mitigation=<id>` inserted after the policy when the cell carries
 * one — None cells keep the historical payload bytes).
 */
std::string runSweepCell(core::ShardContext &ctx, const SweepCell &cell,
                         const McSweepOptions &opt);

/**
 * The schedule a grid cell emits, without executing it: the same
 * per-shard workload seed split runSweepCell applies (@p shard is the
 * cell's index in the plan), scheduled under the cell's policy and
 * mitigation.  This is the program-export path the static certifier
 * uses — `dramscope_cli certify --grid` and the cross-validation
 * harness certify every cell's program before (or without) running it.
 */
ScheduleResult buildSweepCellSchedule(const SweepCell &cell,
                                      uint32_t shard,
                                      const dram::DeviceConfig &cfg,
                                      const McSweepOptions &opt);

/**
 * Runs the whole grid through @p runner.runResilient and returns its
 * report: payloads in shard order, bit-identical for any job count.
 */
core::SweepReport runMcSweep(core::SweepRunner &runner,
                             const McSweepOptions &opt,
                             const core::ResilienceOptions &ropts = {});

} // namespace mc
} // namespace dramscope

#endif // DRAMSCOPE_MC_SWEEP_H
