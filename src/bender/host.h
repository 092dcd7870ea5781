/**
 * @file
 * The host controller: executes Bender programs against a device with
 * a cycle clock, and provides the convenience operations every
 * reverse-engineering tool is built from (row read/write, hammer,
 * press, RowCopy, retention waits).
 *
 * The host sees only the command/data interface (dram::Device) —
 * exactly the vantage point of the paper's FPGA platform.  It never
 * touches device internals, and it runs unchanged whether the device
 * is a single chip, a DIMM rank, or an HBM channel.
 *
 * The clock is an integer picosecond counter: command steps (tCK,
 * tRCD, 35 ns hammer opens) accumulate exactly even after
 * multi-minute retention waits, where a double nanosecond clock would
 * start rounding sub-ns steps.
 */

#ifndef DRAMSCOPE_BENDER_HOST_H
#define DRAMSCOPE_BENDER_HOST_H

#include <cmath>
#include <vector>

#include "bender/lint.h"
#include "bender/program.h"
#include "bender/trace.h"
#include "dram/device.h"
#include "util/bitvec.h"
#include "util/metrics.h"

namespace dramscope {
namespace bender {

/** Result of executing a program. */
struct ExecResult
{
    std::vector<uint64_t> reads;  //!< RD results in program order.
    dram::NanoTime startNs = 0;
    dram::NanoTime endNs = 0;
    uint64_t commandsIssued = 0;
};

/** Host controller bound to one device. */
class Host
{
  public:
    /** @param dev Device under test (borrowed; must outlive Host). */
    explicit Host(dram::Device &dev);

    /** Current host clock (ns, truncated from picoseconds). */
    dram::NanoTime now() const { return dram::NanoTime(now_ps_ / 1000); }

    /** Advances the clock by milliseconds (retention tests). */
    void waitMs(double ms) { now_ps_ += int64_t(std::llround(ms * 1.0e9)); }

    /**
     * Executes a program.  Loops that bender::lint certifies as
     * constant-duration hammer kernels (lint::certifyHammerLoop) run
     * through the device's bit-exact batched replay, Device::actMany
     * (FastPathMode::Exact, the default); FastPathMode::Off and all
     * uncertified loops execute slot by slot.  The mode comes from the
     * DRAMSCOPE_FASTPATH environment variable at construction and
     * can be overridden with setFastPathMode().
     *
     * When the environment selects a lint mode (DRAMSCOPE_LINT=warn
     * or =error, read once at Host construction), every program is
     * statically analyzed before it executes: unexpected violations
     * are logged (warn) or fatal (error), and lint.programs /
     * lint.errors / lint.warnings counters are updated on an
     * attached metrics registry.  See bender/lint.h.
     */
    ExecResult run(const Program &prog);

    /// @name Program factories.
    /// The exact programs the convenience operations below execute,
    /// exposed so the linter, the CLI `lint` subcommand, and tests
    /// can analyze them without a device.  Deliberately out-of-spec
    /// steps carry expectViolation() annotations here — the single
    /// place where intent is declared.
    /// @{

    /** ACT, tRCD, one WR per entry of @p cols, tRAS, PRE, tRP. */
    static Program makeWriteRowProgram(const dram::DeviceConfig &cfg,
                                       dram::BankId b, dram::RowAddr row,
                                       const std::vector<uint64_t> &cols);

    /** ACT, tRCD, one RD per column of the row, tRAS, PRE, tRP. */
    static Program makeReadRowProgram(const dram::DeviceConfig &cfg,
                                      dram::BankId b, dram::RowAddr row);

    /** writeRow restricted to @p cols (all written as @p rd_data). */
    static Program
    makeWriteColumnsProgram(const dram::DeviceConfig &cfg, dram::BankId b,
                            dram::RowAddr row,
                            const std::vector<dram::ColAddr> &cols,
                            uint64_t rd_data);

    /** readRow restricted to @p cols. */
    static Program
    makeReadColumnsProgram(const dram::DeviceConfig &cfg, dram::BankId b,
                           dram::RowAddr row,
                           const std::vector<dram::ColAddr> &cols);

    /**
     * @p count ACT..PRE pairs with @p open_ns of open time.  Opens
     * shorter than tRAS are a deliberate probe and annotated as an
     * expected tRAS violation; the paper-default 35 ns hammer and
     * 7.8 us press kernels are fully in spec and carry none.
     */
    static Program makeHammerProgram(const dram::DeviceConfig &cfg,
                                     dram::BankId b, dram::RowAddr row,
                                     uint64_t count, double open_ns);

    /**
     * The RowCopy kernel: ACT @p src, PRE, then ACT @p dst inside
     * tRP so the bitlines charge-share into @p dst.  Annotated as an
     * expected tRP + tRC violation — that *is* the operation.
     */
    static Program makeRowCopyProgram(const dram::DeviceConfig &cfg,
                                      dram::BankId b, dram::RowAddr src,
                                      dram::RowAddr dst);

    /** REF followed by tRFC. */
    static Program makeRefreshProgram(const dram::DeviceConfig &cfg);

    /// @}

    /// @name Convenience operations (legal timing auto-inserted).
    /// @{

    /** Writes one RD_data value to every column of a row. */
    void writeRowPattern(dram::BankId b, dram::RowAddr row,
                         uint64_t rd_data);

    /** Writes per-column RD_data values (size = columnsPerRow). */
    void writeRow(dram::BankId b, dram::RowAddr row,
                  const std::vector<uint64_t> &cols);

    /** Reads every column of a row. */
    std::vector<uint64_t> readRow(dram::BankId b, dram::RowAddr row);

    /**
     * Writes @p rd_data to a subset of columns only (cheap probes
     * that do not need the whole row).
     */
    void writeColumns(dram::BankId b, dram::RowAddr row,
                      const std::vector<dram::ColAddr> &cols,
                      uint64_t rd_data);

    /** Reads a subset of columns. */
    std::vector<uint64_t>
    readColumns(dram::BankId b, dram::RowAddr row,
                const std::vector<dram::ColAddr> &cols);

    /**
     * Reads a row as host-order bits: bit index = col * rdDataBits +
     * rd_bit.
     */
    BitVec readRowBits(dram::BankId b, dram::RowAddr row);

    /** Writes a row from host-order bits. */
    void writeRowBits(dram::BankId b, dram::RowAddr row,
                      const BitVec &bits);

    /** The bank the RE tools and the characterization suite probe. */
    static constexpr dram::BankId kProbeBank = 0;

    /** The paper's open-row times: RowHammer 35 ns, RowPress 7.8 us. */
    static constexpr double kHammerOpenNs = 35.0;
    static constexpr double kPressOpenNs = 7800.0;

    /**
     * Single-sided RowHammer: @p count ACT-PRE pairs with @p open_ns
     * of open-row time each (paper: 300K x 35ns).
     */
    ExecResult hammer(dram::BankId b, dram::RowAddr row, uint64_t count,
                      double open_ns = kHammerOpenNs);

    /**
     * RowPress: @p count activations each held open for @p open_ns
     * (paper: 8K x 7.8us).
     */
    ExecResult press(dram::BankId b, dram::RowAddr row, uint64_t count,
                     double open_ns = kPressOpenNs);

    /**
     * RowCopy: activates @p src, precharges, then re-activates
     * @p dst inside tRP so the bitlines charge-share into @p dst.
     */
    ExecResult rowCopy(dram::BankId b, dram::RowAddr src,
                       dram::RowAddr dst);

    /** Issues a refresh (and waits tRFC). */
    ExecResult refresh();

    /// @}

    /// @name Observability (see util/metrics.h and bender/trace.h).
    /// @{

    /**
     * Attaches (or detaches, with nullptr) a metrics registry.  Every
     * subsequently issued command updates per-kind and per-bank
     * counters, open-row-time and ACT-to-ACT interval histograms, and
     * the timing-violation counter.  The registry is borrowed and
     * must outlive the attachment.  Counter/histogram handles resolve
     * once here, so the per-command cost is an increment — and a
     * single branch when detached.
     */
    void setMetrics(obs::MetricsRegistry *metrics);

    /** The attached metrics registry (nullptr when detached). */
    obs::MetricsRegistry *metrics() const { return metrics_; }

    /**
     * Attaches (or detaches) a command trace sink receiving one
     * record per issued command.  Borrowed; must outlive use.
     */
    void setTrace(obs::TraceSink *trace) { trace_ = trace; }

    /** The attached trace sink (nullptr when detached). */
    obs::TraceSink *trace() const { return trace_; }

    /**
     * Forgets per-bank open-row / last-ACT interval state so the next
     * ACT starts a fresh observation window.  SweepRunner calls this
     * at shard boundaries: intervals never span shards, which keeps
     * parallel merged histograms identical to serial ones regardless
     * of how shards land on replicas.
     */
    void resetMetricsWindow();

    /// @}

    /**
     * Overrides the fast-forward mode (see run()).  SweepRunner
     * copies the caller host's mode onto every replica, so a sweep
     * runs one mode end to end regardless of sharding.
     */
    void setFastPathMode(dram::FastPathMode mode) { fastpath_mode_ = mode; }

    /** The active fast-forward mode. */
    dram::FastPathMode fastPathMode() const { return fastpath_mode_; }

    /** The device under test. */
    dram::Device &device() { return dev_; }
    const dram::Device &device() const { return dev_; }

    const dram::DeviceConfig &config() const { return dev_.config(); }

  private:
    /** Clock as a double ns value (observability timestamps). */
    double nowNsF() const { return double(now_ps_) / 1000.0; }

    /**
     * Executes instrs [begin, end); returns the slot after the range.
     */
    void execRange(const std::vector<Instr> &instrs, size_t begin,
                   size_t end, ExecResult &result);

    /**
     * Hands one certified loop to the device's bulk fast path and
     * advances the clock by exactly count * period.  When a fault
     * aborts the train, each command the train completed and the
     * faulting one go through observe(), and the clock rests on the
     * faulting command's issue slot before rethrowing: what, and
     * where, step-wise execution would have observed and stopped.
     */
    void execCertifiedLoop(const lint::LoopCertificate &cert,
                           uint64_t count, ExecResult &result);

    /**
     * Lints @p prog before execution (mode Warn or Error): updates
     * lint counters on an attached registry, logs or fatal()s on
     * unexpected findings.
     */
    void preflight(const Program &prog);

    /** True when any observability consumer is attached. */
    bool observing() const { return metrics_ != nullptr || trace_ != nullptr; }

    /**
     * Records one issued command (metrics + trace) at issue time
     * @p ns.  Only called when observing().
     */
    void observe(obs::TraceCmd cmd, dram::BankId b, dram::RowAddr row,
                 dram::ColAddr col, double ns);

    /**
     * Records the bulk fast path's @p count ACT-PRE pairs without
     * expanding them per iteration for metrics (tracing, which is
     * per-record by nature, still emits every pair).
     */
    void observeBulkHammer(dram::BankId b, dram::RowAddr row,
                           uint64_t count, double open_ns,
                           double period_ns, double start_ns);

    /** Folds new device timing violations into the violation counter. */
    void observeViolations();

    dram::Device &dev_;
    int64_t now_ps_ = 1'000'000;  //!< Start past 0 to keep gaps positive.
    int64_t tck_ps_;
    lint::Mode lint_mode_;  //!< Pre-flight mode (env, read once).
    dram::FastPathMode fastpath_mode_;  //!< Loop engine (env, read once).

    obs::MetricsRegistry *metrics_ = nullptr;
    obs::TraceSink *trace_ = nullptr;

    /// @name Handles resolved by setMetrics (valid iff metrics_).
    /// @{
    obs::Counter *cmd_counters_[5] = {};     //!< Indexed by TraceCmd.
    obs::Counter *violation_counter_ = nullptr;
    std::vector<obs::Counter *> bank_act_counters_;
    Histogram *open_row_hist_ = nullptr;     //!< PRE - ACT per open.
    Histogram *act_gap_hist_ = nullptr;      //!< Same-bank ACT gaps.
    /// @}

    std::vector<double> last_act_ns_;   //!< Per bank; < 0 = none yet.
    std::vector<double> open_since_ns_; //!< Per bank; < 0 = closed.
    uint64_t violations_seen_ = 0;      //!< Device count already folded.
};

} // namespace bender
} // namespace dramscope

#endif // DRAMSCOPE_BENDER_HOST_H
