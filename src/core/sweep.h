/**
 * @file
 * Parallel sweep engine: shards a characterization experiment into
 * independent units and runs each against a thread-local device
 * replica, with results bit-identical to the serial path.
 *
 * Determinism contract
 * --------------------
 * The device model is pure: all per-cell randomness is a stateless
 * hash of (variationSeed, cell coordinate), and all physics depends
 * only on time *deltas* within a command sequence.  A sweep unit must
 * therefore be **self-contained**: it writes every row it will read
 * before hammering and reading it, and never touches rows another
 * unit reads afterwards without rewriting them.  Under that contract
 * a unit produces the same bits on a fresh replica as on the shared
 * serial host, so
 *
 *   - results are merged in *shard order* (never completion order),
 *   - each shard's Rng stream is split from the base seed by *shard
 *     index* (never by worker or scheduling order),
 *   - replicas are built from the configuration the legacy host's
 *     device was built from (same variationSeed; see DeviceFactory),
 *   - a sweep over a dram::FaultyDevice whose spec has a `die` clause
 *     runs on that one device at any job count: death is lifetime
 *     state of one device, and on replicas which shard meets it would
 *     depend on scheduling,
 *
 * and DRAMSCOPE_JOBS=N output is bit-identical to DRAMSCOPE_JOBS=1
 * for the same config and seed (locked down by tests/test_sweep.cc).
 *
 * Resilience (docs/RESILIENCE.md): long campaigns survive flaky
 * shards and killed processes through runResilient(), which layers
 * per-shard exception capture, bounded retry, quarantine with
 * partial-result reporting (SweepReport), a per-shard wall-clock
 * watchdog, and an fsync'd JSONL shard journal enabling
 * checkpoint/resume with bit-identical merged output.  Fault
 * injection behind any backend is provided by dram::FaultyDevice;
 * the runner rebases its deterministic fault streams at every shard
 * attempt.  runResilient() is the engine behind both the figure
 * sweeps and the memory-controller policy x workload grid
 * (mc::runMcSweep, src/mc/sweep.h) — any client whose shards derive
 * their seed from the shard index (never ctx.rng or attempt count)
 * inherits the full retry/checkpoint/bit-identity story.
 *
 * Observability (util/metrics.h): when the legacy host has a metrics
 * registry attached, each replica records into a private registry
 * that the runner drains into the caller's after every sweep, in
 * replica order.  Metric values are exact integer counts and
 * observation windows reset at shard boundaries, so the merged
 * snapshot is bit-identical to a serial run's.  Command *tracing*
 * (bender/trace.h) is not replicated: a trace sink on the legacy
 * host sees sweep commands only on the serial path (jobs = 1), where
 * units run directly on that host.
 */

#ifndef DRAMSCOPE_CORE_SWEEP_H
#define DRAMSCOPE_CORE_SWEEP_H

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bender/host.h"
#include "util/rng.h"

namespace dramscope {
namespace core {

/** Per-shard execution context handed to each sweep unit. */
struct ShardContext
{
    /** Device under test: a thread-local replica when parallel, the
     *  legacy shared host when serial. */
    bender::Host &host;

    /** Deterministic stream split by shard index from the base seed. */
    Rng rng;

    uint32_t shard = 0;       //!< This unit's index.
    uint32_t shardCount = 1;  //!< Total units in the sweep.

    /** Execution attempt of this shard, starting at 1 (resilient
     *  sweeps retry failed shards; plain sweeps always pass 1). */
    uint32_t attempt = 1;
};

/**
 * Builds one worker-private device replica.  It receives the legacy
 * host's config(); the default (an empty function) builds a
 * dram::Chip from it.  For a mapping::Dimm that config() is the rank
 * view, which cannot rebuild the rank, so a factory for any backend
 * other than a Chip must capture the configuration its device was
 * built from and ignore the argument.  The factory must return
 * silicon equivalent to the legacy host's device — replicas exist
 * only for parallelism and results stay bit-identical to serial.
 */
using DeviceFactory =
    std::function<std::unique_ptr<dram::Device>(const dram::DeviceConfig &)>;

/** Sweep engine options. */
struct SweepOptions
{
    /**
     * Worker count: 0 resolves the DRAMSCOPE_JOBS environment knob
     * (default: hardware concurrency); 1 runs every shard on the
     * caller's host, on the caller's thread.  A host whose device is
     * a dram::FaultyDevice with a `die` clause always runs with 1
     * (see the determinism contract above).
     */
    unsigned jobs = 0;

    /** Base seed of the per-shard Rng streams. */
    uint64_t seed = 0x5eedULL;

    /** Replica backend factory (empty: dram::Chip replicas). */
    DeviceFactory deviceFactory;

    SweepOptions() = default;
    SweepOptions(unsigned jobs_arg, uint64_t seed_arg,
                 DeviceFactory factory = {})
        : jobs(jobs_arg), seed(seed_arg),
          deviceFactory(std::move(factory))
    {
    }
};

/**
 * Resolves the effective job count: an explicit @p requested value
 * wins, then a positive integer in DRAMSCOPE_JOBS, then hardware
 * concurrency (at least 1).  An unset, empty or `0` DRAMSCOPE_JOBS
 * keeps the default; any other value that is not a decimal integer
 * fitting `unsigned` is fatal.
 */
unsigned resolveJobs(unsigned requested = 0);

/** Terminal status of one shard in a resilient sweep. */
enum class ShardStatus : uint8_t
{
    Ok,           //!< Executed (possibly after retries) and succeeded.
    Resumed,      //!< Skipped: result recovered from the journal.
    Quarantined,  //!< Failed every permitted attempt; result missing.
};

/** Lower-case status name ("ok", "resumed", "quarantined"). */
const char *toString(ShardStatus status);

/** Outcome of one shard of a resilient sweep. */
struct ShardRecord
{
    uint32_t shard = 0;
    ShardStatus status = ShardStatus::Ok;
    uint32_t attempts = 0;  //!< Executions performed (0 when resumed).
    std::string payload;    //!< Unit result; empty when quarantined.
    std::string error;      //!< Last failure message (quarantined).
};

/**
 * Partial-result report of a resilient sweep: one record per shard,
 * in shard order.  A quarantined shard no longer aborts the sweep —
 * callers inspect complete() / the per-shard statuses instead.
 */
struct SweepReport
{
    std::vector<ShardRecord> shards;  //!< Indexed by shard.
    uint64_t executed = 0;     //!< Shards that ran to success here.
    uint64_t retries = 0;      //!< Extra attempts beyond the first.
    uint64_t resumed = 0;      //!< Shards recovered from the journal.
    uint64_t quarantined = 0;  //!< Shards with no result.
    uint64_t timeouts = 0;     //!< Attempts failed by the watchdog.

    /** True when every shard has a result (none quarantined). */
    bool complete() const { return quarantined == 0; }

    /**
     * Payloads in shard order (empty strings for quarantined
     * shards): the merge input, bit-identical between interrupted-
     * then-resumed and uninterrupted runs.
     */
    std::vector<std::string> payloads() const;
};

/** Durability and containment options of a resilient sweep. */
struct ResilienceOptions
{
    /** Attempts per shard before quarantine (0 and 1: no retry). */
    uint32_t maxAttempts = 3;

    /**
     * Per-shard wall-clock watchdog (ms); 0 disables it.  Checked
     * after the unit returns: an over-budget attempt is treated as a
     * failure (retried, then quarantined).  Wall-clock based, so runs
     * using it trade some determinism for liveness reporting.
     */
    uint64_t shardTimeoutMs = 0;

    /**
     * JSONL shard-journal path; empty disables checkpointing.  Every
     * completed shard is appended and fsync'd, so a killed process
     * loses at most the shard in flight.
     */
    std::string checkpointPath;

    /**
     * Resume from an existing journal at checkpointPath: journaled
     * shards are skipped (status Resumed) and the merged payloads are
     * bit-identical to an uninterrupted run.  A journal written under
     * a different config hash refuses to resume (ResumeError).  A
     * missing journal file starts a fresh run.
     */
    bool resume = false;

    /**
     * Experiment tag mixed into the config hash, so journals of
     * different experiments over the same device never cross-resume.
     */
    std::string tag;
};

/** Refusal to resume from an incompatible or corrupt journal. */
class ResumeError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * A resilient sweep unit: returns the shard's result serialized as a
 * byte string (journaled verbatim; merge = concatenation in shard
 * order).  Failures are signalled by throwing.
 */
using ResilientUnit = std::function<std::string(ShardContext &)>;

/**
 * Runs sweep units through one claim loop: with one job, inline on
 * the caller's thread and host; otherwise on up to jobs() threads
 * started for each call, one lazily built device replica per thread.
 * The replicas persist across calls, so repeated figure entry points
 * build them once.
 */
class SweepRunner
{
  public:
    /**
     * @param host Legacy host: serial shards run directly on it, and
     *        parallel replicas are built from its config() (see
     *        DeviceFactory).  Borrowed; must outlive the runner.
     * @param opts Job count and base seed.
     */
    explicit SweepRunner(bender::Host &host, SweepOptions opts = {});
    ~SweepRunner();

    SweepRunner(const SweepRunner &) = delete;
    SweepRunner &operator=(const SweepRunner &) = delete;

    /** Effective worker count (1 = the caller's host and thread). */
    unsigned jobs() const { return jobs_; }

    /** Base seed of the per-shard Rng streams. */
    uint64_t seed() const { return seed_; }

    /**
     * Runs @p unit once per shard and returns the results in shard
     * order.  @p unit must honor the self-containment contract above
     * and must not touch the legacy host (use ctx.host).
     */
    template <typename R>
    std::vector<R>
    map(uint32_t shards, const std::function<R(ShardContext &)> &unit)
    {
        std::vector<R> out(shards);
        forEachShard(shards,
                     [&](ShardContext &ctx) { out[ctx.shard] = unit(ctx); });
        return out;
    }

    /** Runs @p unit once per shard; results via side effects into
     *  shard-indexed slots (no two shards may share a slot).  A
     *  throwing shard does not stop the sweep: once every shard ran,
     *  serial or parallel, the lowest-indexed failure is rethrown. */
    void forEachShard(uint32_t shards,
                      const std::function<void(ShardContext &)> &unit);

    /**
     * Runs @p unit once per shard with failure containment: a
     * throwing or (watchdog) over-budget shard is retried up to
     * @p opts.maxAttempts attempts in all, then quarantined — it
     * never propagates out of its worker or aborts the sweep.  A
     * dram::DeviceDeadError quarantines immediately (hard faults are
     * not retriable).  With a checkpoint path set, completed shards
     * are journaled (fsync per record) and opts.resume skips them on
     * a rerun, keeping the merged payloads bit-identical to an
     * uninterrupted run.  Counters sweep.shards.{executed,retried,
     * resumed,quarantined,timeout} are recorded on an attached
     * metrics registry.
     *
     * When the device under test (legacy host or replica) is a
     * dram::FaultyDevice, its fault stream is rebased per shard
     * attempt, so fault injection is deterministic per seed
     * regardless of scheduling.
     *
     * @throws ResumeError when opts.resume finds a journal written
     *         under a different config hash (never silently mixes
     *         incompatible runs).
     */
    SweepReport runResilient(uint32_t shards, const ResilientUnit &unit,
                             const ResilienceOptions &opts = {});

    /**
     * Hash identifying a sweep for journal compatibility: covers the
     * base seed, shard count, tag, device geometry/variation and any
     * active fault spec — but not the job count, so a serial run may
     * resume a parallel one's journal and vice versa.
     */
    uint64_t configHash(uint32_t shards, const std::string &tag) const;

  private:
    struct Replica;  //!< Thread-local Device + Host pair.

    /**
     * Starts one attempt of @p shard on @p host: resets its metrics
     * window, rebases a FaultyDevice's fault stream to (shard,
     * attempt) and returns the shard's context.
     */
    ShardContext beginShard(bender::Host &host, uint32_t shard,
                            uint32_t shards, uint32_t attempt) const;

    bender::Host &host_;
    unsigned jobs_;
    uint64_t seed_;
    DeviceFactory factory_;
    std::vector<std::unique_ptr<Replica>> replicas_;
};

} // namespace core
} // namespace dramscope

#endif // DRAMSCOPE_CORE_SWEEP_H
