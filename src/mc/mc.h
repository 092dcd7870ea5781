/**
 * @file
 * Memory-controller front end (`dramscope::mc`): transaction-level
 * requests scheduled into in-spec Bender command programs.
 *
 * Every other layer of the repo drives the device with hand-written
 * command sequences — the DRAM Bender vantage point.  Real systems
 * reach DRAM through a memory controller that *reorders* transactions
 * behind per-bank queues, and that reordering is exactly what decides
 * disturbance exposure under realistic traffic.  This layer closes the
 * gap: a `Request{addr, type, arrivalPs}` stream is decoded against
 * the device geometry, queued per bank, and scheduled FR-FCFS
 * (first-ready, first-come-first-served: ready row hits beat older
 * row misses) into one flat `bender::Program` whose command issue
 * times satisfy every timing rule of `bender::lint` *by construction*
 * — the scheduler computes earliest legal issue times from the same
 * `dram::TimingParams` (tRCD/tRP/tRAS/tRC/tRRD/tFAW) the linter
 * checks, and pads gaps with exact integer-picosecond sleeps.
 *
 * The open-row policy is configurable; the registry of policies lives
 * in the DRAMSCOPE_MC_POLICIES X-macro below, and the table in
 * docs/MC.md is machine-checked against it by tools/check_docs.py
 * (the same treatment as docs/LINT_RULES.md).
 */

#ifndef DRAMSCOPE_MC_MC_H
#define DRAMSCOPE_MC_MC_H

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bender/program.h"
#include "core/protect/mitigation.h"
#include "dram/config.h"
#include "util/metrics.h"

namespace dramscope {
namespace mc {

/** Transaction kind of one request. */
enum class ReqType : uint8_t
{
    Read,
    Write,
};

/** One transaction presented to the controller. */
struct Request
{
    /**
     * Flat device address in RD-burst (column) units; decoded by
     * AddrDecoder.  Addresses wrap modulo the device's address space,
     * so a recorded trace replays on any geometry.
     */
    uint64_t addr = 0;
    ReqType type = ReqType::Read;
    int64_t arrivalPs = 0;  //!< Arrival time at the controller.

    bool operator==(const Request &) const = default;
};

/**
 * The open-row policy registry: X(enumerator, "keyword", "knobs",
 * "summary").  tools/check_docs.py parses these entries and requires
 * docs/MC.md to list exactly this set, in this order, with these
 * knob strings.
 */
#define DRAMSCOPE_MC_POLICIES(X)                                            \
    X(Open, "open", "-",                                                    \
      "keep the row open until a conflicting request or a refresh "         \
      "forces a precharge")                                                 \
    X(Closed, "closed", "-",                                                \
      "precharge as soon as no arrived request hits the open row")          \
    X(Timeout, "timeout", "max_row_idle=200ns",                             \
      "precharge once the open row has been idle for max_row_idle")         \
    X(HitCap, "cap", "max_row_hits=4",                                      \
      "precharge after max_row_hits consecutive row hits, so one hot "      \
      "row cannot starve the bank queue")

/** Open-row policy ids. */
enum class RowPolicy : uint8_t
{
#define X(name, id, knobs, summary) name,
    DRAMSCOPE_MC_POLICIES(X)
#undef X
};

/** Static description of one policy. */
struct PolicyInfo
{
    RowPolicy policy;
    const char *id;       //!< Stable keyword ("open", "cap", ...).
    const char *knobs;    //!< Knob summary with defaults ("-" if none).
    const char *summary;  //!< One-line description (doc table).
};

/** The full registry, indexed by RowPolicy enumerator order. */
std::span<const PolicyInfo> policyTable();

/** Stable keyword of @p policy ("open", "closed", ...). */
const char *policyId(RowPolicy policy);

/**
 * Flat-address decode against one device geometry.  The mapping is
 * RoBaCo (row : bank : column, column fastest): sequential addresses
 * walk the columns of one row, then the same row of the next bank, so
 * streaming traffic both row-buffer-hits and bank-interleaves — the
 * layout real controllers pick for exactly that reason.
 */
class AddrDecoder
{
  public:
    explicit AddrDecoder(const dram::DeviceConfig &cfg);

    /** One decoded request address. */
    struct Decoded
    {
        dram::BankId bank = 0;
        dram::RowAddr row = 0;
        dram::ColAddr col = 0;
    };

    /** Decodes @p addr (wraps modulo addressSpace()). */
    Decoded decode(uint64_t addr) const;

    /** Inverse of decode() for in-range coordinates. */
    uint64_t encode(dram::BankId bank, dram::RowAddr row,
                    dram::ColAddr col) const;

    uint32_t banks() const { return banks_; }
    uint32_t columns() const { return columns_; }
    uint32_t rows() const { return rows_; }

    /** Distinct flat addresses (banks * rows * columns). */
    uint64_t addressSpace() const { return space_; }

  private:
    uint32_t banks_;
    uint32_t columns_;
    uint32_t rows_;
    uint64_t space_;
};

/**
 * Latest request arrival schedule() accepts, in ps (about 53 days).
 * Issue times run past the last arrival by the program's span, so half
 * the int64_t range keeps the ps clock from overflowing.  readTrace()
 * enforces the same limit on `arrival_ps`.
 */
inline constexpr int64_t kMaxArrivalPs = INT64_MAX / 2;

/** Longest maxRowIdleNs or refreshIntervalNs schedule() accepts, in ns
 *  (about 26 days): added to an issue time, it still fits. */
inline constexpr int64_t kMaxIntervalNs = kMaxArrivalPs / 2000;

/** Scheduler knobs (see docs/MC.md for the policy table). */
struct SchedulerOptions
{
    RowPolicy policy = RowPolicy::Open;

    /** Timeout policy: close the row after this much idle time
     *  (0 to kMaxIntervalNs). */
    double maxRowIdleNs = 200.0;

    /** HitCap policy: consecutive hits before a forced precharge
     *  (at least 1). */
    uint32_t maxRowHits = 4;

    /**
     * Auto-refresh insertion interval in whole nanoseconds: < 0
     * selects the config's tREFI, 0 disables REF insertion, > 0
     * overrides (up to kMaxIntervalNs).  Each REF is preceded by
     * precharging every open bank and followed by a tRFC wait, and it
     * closes one aggressor-exposure window.
     */
    int64_t refreshIntervalNs = -1;

    /**
     * RowHammer mitigation active inside the scheduler (see the
     * DRAMSCOPE_MITIGATIONS registry in core/protect/mitigation.h).
     * The mitigation observes every demand ACT and each REF, and its
     * command sequences are injected into the per-bank queues under
     * the same FR-FCFS timing math as demand traffic — so defense
     * cost shows up as delayed reads and lost row hits.  None keeps
     * the scheduler byte-identical to the unmitigated one.
     */
    core::MitigationKind mitigation = core::MitigationKind::None;

    /** Knobs of the selected mitigation. */
    core::MitigationOptions mitigationOptions;
};

/** Row-buffer outcome and command counts of one scheduling run. */
struct ScheduleStats
{
    uint64_t reads = 0;         //!< RD requests served.
    uint64_t writes = 0;        //!< WR requests served.
    uint64_t rowHits = 0;       //!< Served from the open row.
    uint64_t rowMisses = 0;     //!< Bank was precharged: ACT needed.
    uint64_t rowConflicts = 0;  //!< Another row open: PRE + ACT.
    uint64_t acts = 0;
    uint64_t pres = 0;
    uint64_t refs = 0;
    int64_t spanPs = 0;  //!< First-issue to end-of-program time.

    /// @name Mitigation accounting (all zero when mitigation is None).
    /// @{

    /** Mitigation active during the run (gates summary/publish). */
    core::MitigationKind mitigation = core::MitigationKind::None;

    /** Command sequences the mitigation injected. */
    uint64_t mitFired = 0;

    /** ACT/PRE commands issued on behalf of the mitigation (not
     *  counted in acts/pres/bankActs or the exposure windows). */
    uint64_t mitCmds = 0;

    /** Arrived row hits discarded because mitigation work forced the
     *  row closed — the tracker-false-positive cost in lost hits. */
    uint64_t mitLostRowHits = 0;

    /// @}

    /**
     * Aggressor-row exposure: the maximum number of ACTs any single
     * (bank, row) received inside one refresh window — the quantity a
     * RowHammer mitigation has to bound.
     */
    uint64_t maxRowActsPerRefWindow = 0;

    /// @name Per-bank breakdowns, indexed by bank id.
    /// @{
    std::vector<uint64_t> bankHits;
    std::vector<uint64_t> bankMisses;
    std::vector<uint64_t> bankConflicts;
    std::vector<uint64_t> bankActs;
    /// @}

    /** Served requests (reads + writes). */
    uint64_t served() const { return reads + writes; }

    /** rowHits / served(), 0 when nothing was served. */
    double rowHitRate() const;

    /** ACT commands per microsecond of program span. */
    double actRatePerUs() const;

    /**
     * Publishes the additive counters (mc.req.rd, mc.req.wr,
     * mc.rowhit, mc.rowmiss, mc.rowconflict, mc.act, mc.pre, mc.ref,
     * mc.bank<b>.act, mc.bank<b>.rowhit — plus
     * mc.mitigation.{fired,cmds,lost_rowhits} when a mitigation is
     * active) and the per-(row, window)
     * exposure histogram mc.exposure.row_acts into @p m.  Everything
     * published is an exact integer add, so merged parallel-sweep
     * registries equal serial ones bit for bit.
     */
    void publish(obs::MetricsRegistry &m) const;

    /** One-line deterministic summary (CLI / sweep payloads). */
    std::string summary() const;

    /** Exposure-histogram samples recorded by the scheduler: one
     *  ACT-count per (bank, row, refresh-window) touched. */
    std::vector<uint64_t> exposureSamples;
};

/** A scheduling run: the emitted program plus its statistics. */
struct ScheduleResult
{
    bender::Program program;
    ScheduleStats stats;
};

/**
 * Schedules @p reqs against the geometry/timing of @p cfg and returns
 * a flat command program whose issue times are in spec by
 * construction — `bender::lint::lint(result.program, cfg)` reports
 * zero diagnostics (locked down by tests/test_mc.cc on every device
 * backend).
 *
 * Scheduling model (FR-FCFS):
 *  1. Per bank, the oldest *arrived* request hitting the open row is
 *     the hit candidate; without one, the oldest queued request is.
 *  2. Each bank's next command (RD/WR on a hit, PRE on a conflict or
 *     a policy-forced close, ACT on a miss) gets its earliest legal
 *     issue time from the bank FSM and the global tRRD/tFAW windows,
 *     rounded up to a whole nanosecond so the device's ns-resolution
 *     timing checker agrees with the ps-resolution linter.
 *  3. The globally earliest command issues; ties prefer column
 *     commands (row hits) over ACT/PRE, then the older request, then
 *     the lower bank.  Auto-refresh preempts when its deadline is
 *     reached: all banks precharge, REF issues, tRFC elapses.
 *  4. At end of stream every open row is precharged (no open-at-end
 *     lint warnings) — the program is replayable as-is.
 *
 * Requests are processed in arrival order (stable-sorted by
 * arrivalPs).  The scheduler is deterministic: equal inputs produce
 * byte-identical programs and stats.
 *
 * @throws std::invalid_argument naming the request index when a
 *         request arrives after kMaxArrivalPs, or naming the field
 *         when @p opt holds a zero maxRowHits under the cap policy or
 *         an interval knob outside its documented range.
 */
ScheduleResult schedule(const std::vector<Request> &reqs,
                        const dram::DeviceConfig &cfg,
                        const SchedulerOptions &opt = {});

} // namespace mc
} // namespace dramscope

#endif // DRAMSCOPE_MC_MC_H
