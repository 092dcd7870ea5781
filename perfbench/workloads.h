/**
 * @file
 * The benchmark's workloads and the per-round bookkeeping they share.
 *
 * A run repeats rounds.  Each round builds its devices from scratch
 * (the set-up phase), runs the workload's fixed list of operations
 * (the timed phase) and reads the simulated counts back.  The same
 * seed gives the same operations, digests and simulated counts in
 * every round, traced or not.
 */

#ifndef DRAMSCOPE_PERFBENCH_WORKLOADS_H
#define DRAMSCOPE_PERFBENCH_WORKLOADS_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "dram/chip.h"
#include "spans.h"

namespace perfbench {

/** Simulated work of one round: exact, run to run and traced or not. */
struct SimCounts
{
    uint64_t cmds = 0;  //!< Device commands (mc_certify: certified ones).
    uint64_t acts = 0;
    uint64_t disturbFlips = 0;
    uint64_t retentionFlips = 0;
    uint64_t violations = 0;

    /** Adds @p chip's command, flip and violation counters. */
    void addChip(dramscope::dram::Chip &chip);
};

/** Outcome of one operation. */
struct OpRecord
{
    std::string name;
    uint64_t digest = 0;
    bool ok = true;
    std::string error;  //!< Why the check failed (empty when ok).
};

/** Everything one round measured. */
struct RoundResult
{
    double setupS = 0.0;  //!< Construction before the first operation.
    double wallS = 0.0;   //!< The timed phase.
    double cpuS = 0.0;    //!< Process CPU seconds of the timed phase.
    SimCounts sim;
    std::vector<OpRecord> ops;
    std::map<std::string, double> counts;  //!< Exact per-layer counts.
    std::vector<Span> spans;               //!< Traced rounds only.
    DeviceTally device;                    //!< Traced rounds only.
    std::vector<double> replicaBusyS;      //!< Device seconds per replica.
};

/** FNV-1a digest of an operation's outputs. */
class Digest
{
  public:
    Digest &add(uint64_t v);
    Digest &add(double v);
    Digest &add(const std::string &s);
    uint64_t value() const { return h_; }

  private:
    void bytes(const void *p, size_t n);
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** One round in progress: timing phases, operations and spans. */
class Round
{
  public:
    /**
     * @p first marks a run's round 0, which is not timed, so its
     * set-up also runs the workload's one-off checks.
     */
    Round(bool traced, bool first);

    bool traced() const { return tracer_.enabled(); }
    bool first() const { return first_; }
    Tracer &tracer() { return tracer_; }

    /** Ends set-up and starts the timed phase. */
    void beginTimed();

    /** Ends the timed phase. */
    void endTimed();

    /**
     * Runs one operation.  @p body returns the operation's digest
     * and reports a failed output check through fail().
     */
    void op(const std::string &name, const std::function<uint64_t()> &body);

    /** Marks the running operation failed with @p why. */
    void fail(const std::string &why);

    /** Adds @p v to the exact per-layer count @p key. */
    void count(const std::string &key, double v) { result_.counts[key] += v; }

    RoundResult &result() { return result_; }

  private:
    using Clock = std::chrono::steady_clock;

    Tracer tracer_;
    bool first_;
    RoundResult result_;
    Clock::time_point start_;
    Clock::time_point timedStart_;
    double cpuStart_ = 0.0;
    OpRecord *current_ = nullptr;
};

/** Settings every workload reads. */
struct Settings
{
    uint64_t seed;
};

/** Sweep jobs of a parallelSweep workload: the reference host's CPUs. */
constexpr unsigned kSweepJobs = 4;

/** A named workload: one round of it runs into a Round. */
struct WorkloadDef
{
    const char *name;
    std::function<void(const Settings &, Round &)> run;

    /**
     * Runs a SweepRunner at kSweepJobs.  Its replicas' flip totals
     * then depend on which worker ran which shard: rows no output
     * reads commit flips at other shards' barriers.  Outputs, command
     * and violation counts stay exact; flip totals do not.
     */
    bool parallelSweep = false;
};

/** The benchmark's workloads, in BENCHMARK.json order. */
const std::vector<WorkloadDef> &workloads();

} // namespace perfbench

#endif // DRAMSCOPE_PERFBENCH_WORKLOADS_H
