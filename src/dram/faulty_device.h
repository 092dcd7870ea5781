/**
 * @file
 * Deterministic fault injection behind the Device interface.
 *
 * Real characterization campaigns (the paper's 376 chips, hours of
 * unattended runs) meet misbehaving silicon: cells stuck at one
 * value, transient read errors, commands lost on the bus, and chips
 * that die outright partway through.  FaultyDevice is a Device
 * decorator that reproduces those failure modes *deterministically*
 * in front of any backend (Chip, Dimm rank, HBM channel), so the
 * resilience machinery above it — shard retry, quarantine,
 * checkpoint/resume (core/sweep.h) — can be exercised and regression
 * tested bit-for-bit.
 *
 * Determinism contract
 * --------------------
 * Every fault decision is a stateless hash of
 * (spec seed, shard stream, command index [, bit index]) — never of
 * wall-clock time or scheduling.  SweepRunner rebases the stream via
 * beginShard(shard, attempt) at every shard attempt, so a parallel
 * sweep injects exactly the faults a serial sweep does, and a retried
 * attempt sees a *fresh* fault stream (a transiently dropped command
 * does not re-drop forever).  The hard-death counter is lifetime
 * (never rebased): a dead device stays dead.  So a sweep whose spec
 * has a die clause runs on this one device at any job count, never
 * on replicas: on replicas, which shard meets the death would depend
 * on scheduling.
 *
 * Fault grammar: one comma-separated spec string of the clauses in
 * DRAMSCOPE_FAULT_CLAUSES below, shared by the CLI `--faults=` flag,
 * the tests and docs/RESILIENCE.md.
 *
 * Example: "stuck@0.100.3.7=1,flip:1e-6,die:cmd=50000"
 */

#ifndef DRAMSCOPE_DRAM_FAULTY_DEVICE_H
#define DRAMSCOPE_DRAM_FAULTY_DEVICE_H

#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "dram/device.h"
#include "util/metrics.h"

namespace dramscope {
namespace dram {

/**
 * Clause registry of the fault grammar: X(Enumerator, "keyword",
 * "syntax", "summary").  A clause starts with its keyword, and then
 * with its syntax up to the first placeholder ("die:cmd=" for
 * "die:cmd=N"); FaultSpec::parse dispatches through this table.
 * docs/RESILIENCE.md documents exactly these keywords and syntaxes,
 * in this order — tools/check_docs.py fails CI on drift.
 */
#define DRAMSCOPE_FAULT_CLAUSES(X)                                      \
    X(Stuck, "stuck", "stuck@B.R.C.BIT=V",                              \
      "the cell (bank B, row R, col C, RD bit BIT) always reads V")     \
    X(Flip, "flip", "flip:RATE",                                        \
      "each read bit flips with probability RATE")                      \
    X(Drop, "drop", "drop:RATE",                                        \
      "each command throws TransientFaultError with probability RATE")  \
    X(Die, "die", "die:cmd=N",                                          \
      "the device dies after N commands; every later command throws "   \
      "DeviceDeadError")                                                \
    X(Seed, "seed", "seed:S",                                           \
      "base seed of the fault streams (default 1)")

/** Fault clause kinds. */
enum class FaultClause : uint8_t
{
#define X(name, id, syntax, summary) name,
    DRAMSCOPE_FAULT_CLAUSES(X)
#undef X
};

/** Static description of one fault clause. */
struct FaultClauseInfo
{
    FaultClause clause;
    const char *id;      //!< The clause keyword ("stuck", "die", ...).
    const char *syntax;  //!< Its syntax ("die:cmd=N"; docs table).
};

/** The clause registry, indexed by FaultClause enumerator order. */
std::span<const FaultClauseInfo> faultClauseTable();

/** Base class of every injected-fault error. */
class FaultError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;

    /**
     * Commands of an aborted bulk train that executed before the
     * fault (0 for single-command faults).  bender::Host uses it to
     * observe those commands and the faulting one, and to rewind its
     * clock to the faulting command's issue slot, exactly where
     * step-wise execution would have stopped.
     */
    uint64_t trainCommandsDone = 0;
};

/**
 * A transiently dropped/erroring command (retriable: a fresh attempt
 * with a rebased fault stream may succeed).
 */
class TransientFaultError : public FaultError
{
  public:
    using FaultError::FaultError;
};

/**
 * Hard device death (permanent: the sweep layer quarantines the
 * shard immediately instead of retrying).
 */
class DeviceDeadError : public FaultError
{
  public:
    using FaultError::FaultError;
};

/** One stuck-at cell: (bank, logical row, column, RD bit) reads V. */
struct StuckCell
{
    BankId bank = 0;
    RowAddr row = 0;
    ColAddr col = 0;
    uint32_t bit = 0;   //!< RD_data bit index.
    bool value = false; //!< The value the cell is stuck at.

    bool operator==(const StuckCell &) const = default;
};

/** Parsed fault specification (see the grammar above). */
struct FaultSpec
{
    std::vector<StuckCell> stuck;
    double flipRate = 0.0;          //!< Per-read-bit flip probability.
    double dropRate = 0.0;          //!< Per-command error probability.
    uint64_t dieAfterCommands = 0;  //!< 0 = never dies.
    uint64_t seed = 1;              //!< Base seed of the fault streams.

    /** True when the spec injects nothing. */
    bool empty() const
    {
        return stuck.empty() && flipRate == 0.0 && dropRate == 0.0 &&
               dieAfterCommands == 0;
    }

    /** Canonical spec string (parse(toString()) round-trips). */
    std::string toString() const;

    /**
     * Parses a spec string.  Returns nullopt on a malformed clause
     * and, when @p error is non-null, stores a one-line diagnostic.
     * The empty string parses to an empty spec.
     */
    static std::optional<FaultSpec> parse(const std::string &spec,
                                          std::string *error = nullptr);
};

/** Counts of faults injected so far (also exported as metrics). */
struct FaultCounts
{
    uint64_t flips = 0;   //!< Transient read bits flipped.
    uint64_t stuck = 0;   //!< Reads forced by a stuck-at cell.
    uint64_t drops = 0;   //!< Commands dropped (TransientFaultError).
    uint64_t deaths = 0;  //!< 1 once the device has died.
};

/**
 * Device decorator injecting the faults of a FaultSpec in front of
 * any backend.  Forwarding is exact when the spec is empty: a
 * FaultyDevice with no faults is bit-identical to its inner device.
 */
class FaultyDevice final : public Device
{
  public:
    /** Wraps a borrowed device (must outlive the decorator). */
    FaultyDevice(Device &inner, FaultSpec spec);

    /** Wraps and owns a device (replica-factory construction). */
    FaultyDevice(std::unique_ptr<Device> inner, FaultSpec spec);

    const DeviceConfig &config() const override;

    void act(BankId b, RowAddr row, NanoTime now) override;
    void pre(BankId b, NanoTime now) override;
    uint64_t read(BankId b, ColAddr col, NanoTime now) override;
    void write(BankId b, ColAddr col, uint64_t data,
               NanoTime now) override;
    void refresh(NanoTime now) override;

    /**
     * Bulk-train forwarding only where it is exact: a train none of
     * whose 2 * count commands would fault (faultFree) forwards whole.
     * Otherwise the train is issued command by command through act()
     * and pre(), so the fault is raised by onCommand() exactly as in
     * step-wise execution, with trainCommandsDone set on the way out.
     */
    void actMany(const ActTrain &train) override;

    uint64_t violationCount() const override;
    std::vector<TimingViolation> violationLog() const override;
    uint32_t refreshAggressorNeighbors(BankId b, RowAddr row,
                                       NanoTime now) override;

    /** The active fault specification. */
    const FaultSpec &spec() const { return spec_; }

    /** Faults injected so far. */
    const FaultCounts &counts() const { return counts_; }

    /** True once the device has died (die:cmd=N reached). */
    bool dead() const { return dead_; }

    /** Commands issued over the device's lifetime (incl. dropped). */
    uint64_t lifetimeCommands() const { return lifetime_commands_; }

    /**
     * Rebases the fault stream for one shard attempt: stream =
     * hash(spec seed, shard, attempt).  SweepRunner calls this at
     * every attempt boundary so fault injection is keyed by shard
     * index (never by scheduling) and a retry draws fresh faults.
     * The lifetime command counter (hard death) is NOT rebased.
     */
    void beginShard(uint64_t shard, uint32_t attempt);

    /**
     * Attaches (or detaches) a metrics registry receiving the
     * faults.injected.{flip,stuck,drop} and faults.device.dead
     * counters.  Borrowed; must outlive the attachment.
     */
    void setMetrics(obs::MetricsRegistry *metrics);

  private:
    /**
     * Per-command bookkeeping of every command, a faulted train's
     * included: advances the lifetime and stream counters, throws
     * DeviceDeadError when dead, and throws TransientFaultError on a
     * dropped command.  The one place that raises and counts either.
     * @return The stream index assigned to this command.
     */
    uint64_t onCommand();

    /**
     * True when the next @p commands commands would all pass
     * onCommand(): no death (by arithmetic) and no drop (by the
     * per-index hash scan).
     */
    bool faultFree(uint64_t commands) const;

    /** Applies flip + stuck-at faults to one RD_data burst. */
    uint64_t corruptRead(BankId b, ColAddr col, uint64_t data,
                         uint64_t cmd_seq);

    void countFlip(uint64_t n);
    void countStuck(uint64_t n);

    Device *inner_;
    std::unique_ptr<Device> owned_;  //!< Non-null when owning.
    FaultSpec spec_;
    FaultCounts counts_;

    uint64_t stream_key_;          //!< hash(seed, shard, attempt).
    uint64_t stream_commands_ = 0; //!< Commands in the current stream.
    uint64_t lifetime_commands_ = 0;
    bool dead_ = false;

    /** Mirror of the open logical row per bank (stuck-at lookup). */
    std::vector<std::optional<RowAddr>> open_row_;

    obs::Counter *flip_counter_ = nullptr;
    obs::Counter *stuck_counter_ = nullptr;
    obs::Counter *drop_counter_ = nullptr;
    obs::Counter *dead_counter_ = nullptr;
};

} // namespace dram
} // namespace dramscope

#endif // DRAMSCOPE_DRAM_FAULTY_DEVICE_H
