/**
 * @file
 * Static analyzer for Bender command programs (`bender::lint`).
 *
 * DRAMScope's methodology is to issue *deliberately* out-of-spec
 * command sequences (RowCopy's ACT inside tRP) while keeping every
 * other timing in spec — an accidental slip silently corrupts a
 * characterization run and is only discovered after execution, from
 * the device's violation log or from garbage figures.  The linter is
 * the missing pre-flight tool: an abstract interpreter that walks a
 * Program *without executing it*, tracking a symbolic integer-
 * picosecond clock and a per-bank FSM (closed / open) through loop
 * bodies, and proves the program's timing intent up front.  The FSM
 * and the timing rules are dram::TimingRules, the engine mc::schedule
 * issues by; like the device, it drops an ACT to an open bank (only
 * act-open fires) and a PRE to a precharged bank.
 *
 * Intent is expressed with Program::expectViolation(Rule): a builder
 * that means to break tRP says so, the matching diagnostics demote to
 * expected notes, and the program lints clean — while the same slip
 * in an unannotated program stays an error.  Annotations that never
 * fire are flagged too (stale-expectation), so they cannot rot.
 *
 * Loop bodies have constant duration (the ISA has no data-dependent
 * timing), so the interpreter simulates the first few iterations of
 * every loop — enough for cross-iteration effects (loop tail to head
 * spacing, the four-ACT tFAW window) to reach steady state — then
 * advances the clock and per-bank timestamps arithmetically for the
 * rest.  Linting a 300K-iteration hammer costs the same as linting
 * four iterations; duplicate (rule, slot) findings collapse to one.
 *
 * The rule set is defined once in DRAMSCOPE_LINT_RULES below; the
 * table in docs/LINT_RULES.md is machine-checked against it by
 * tools/check_docs.py (the same treatment as the O1-O14 map).
 */

#ifndef DRAMSCOPE_BENDER_LINT_H
#define DRAMSCOPE_BENDER_LINT_H

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bender/program.h"
#include "dram/config.h"

namespace dramscope {
namespace bender {
namespace lint {

/** Diagnostic severities, weakest first. */
enum class Severity : uint8_t
{
    Note,     //!< Expected (annotated) violation; informational.
    Warning,  //!< Suspicious but executable (zero loops, budget).
    Error,    //!< Unannotated spec violation or structural break.
};

/**
 * The rule registry: X(enumerator, "rule-id", DefaultSeverity,
 * "summary").  tools/check_docs.py parses these entries and requires
 * docs/LINT_RULES.md to list exactly this set with these severities.
 */
#define DRAMSCOPE_LINT_RULES(X)                                             \
    X(TRcd, "trcd", Error,                                                  \
      "RD/WR issued before tRCD has elapsed after the bank's ACT")          \
    X(TRp, "trp", Error,                                                    \
      "ACT issued before tRP has elapsed after the bank's PRE")             \
    X(TRas, "tras", Error,                                                  \
      "PRE issued before tRAS has elapsed after the bank's ACT")            \
    X(TRc, "trc", Error,                                                    \
      "same-bank ACT-to-ACT interval shorter than tRC (tRAS + tRP)")        \
    X(TRrd, "trrd", Error,                                                  \
      "any-bank ACT-to-ACT interval shorter than tRRD")                     \
    X(TFaw, "tfaw", Error,                                                  \
      "more than four ACTs issued inside one tFAW window")                  \
    X(ActOpen, "act-open", Error,                                           \
      "ACT issued while the bank already has an open row")                  \
    X(RwClosed, "rw-closed", Error,                                         \
      "RD/WR issued while the bank is precharged (no open row)")            \
    X(RefOpen, "ref-open", Error,                                           \
      "REF issued while at least one bank has an open row")                 \
    X(UnbalancedLoop, "unbalanced-loop", Error,                             \
      "LoopBegin and LoopEnd slots do not match up")                        \
    X(ZeroLoop, "zero-loop", Warning,                                       \
      "loop has a zero iteration count and never runs")                     \
    X(DeadCode, "dead-code", Warning,                                       \
      "command slots can never execute (zero-count loop body)")             \
    X(OpenAtEnd, "open-at-end", Warning,                                    \
      "program ends with a row still open (missing final PRE)")             \
    X(RefreshBudget, "refresh-budget", Warning,                             \
      "program spans more than tREFW with too few REFs to stay "            \
      "within the refresh budget")                                          \
    X(StaleExpectation, "stale-expectation", Warning,                       \
      "expectViolation() annotation matched no diagnostic")                 \
    X(ExposureBound, "exposure-bound", Error,                               \
      "proven per-row activation bound exceeds the RowHammer "              \
      "threshold within one refresh window")                                \
    X(PowerWindow, "power-window", Error,                                   \
      "rolling-window average power exceeds the device budget "             \
      "(the energy generalization of tFAW)")                               \
    X(EnergyEstimate, "energy-estimate", Note,                              \
      "per-command energy and average-power estimate of the program")

/** Rule ids (underlying type matches the forward decl in program.h). */
enum class Rule : uint8_t
{
#define X(name, id, sev, summary) name,
    DRAMSCOPE_LINT_RULES(X)
#undef X
};

/** Static description of one rule. */
struct RuleInfo
{
    Rule rule;
    const char *id;        //!< Stable kebab-case identifier.
    Severity severity;     //!< Default severity before demotion.
    const char *summary;   //!< One-line description (doc table).
};

/** The full registry, indexed by Rule enumerator order. */
std::span<const RuleInfo> ruleTable();

/** Registry entry for @p rule. */
const RuleInfo &ruleInfo(Rule rule);

/** Stable identifier of @p rule ("trp", "zero-loop", ...). */
const char *ruleId(Rule rule);

/**
 * True for rules only the whole-program effect analyzer (certify())
 * evaluates — exposure-bound, power-window, energy-estimate.  Plain
 * lint() neither fires nor stale-flags annotations of these rules:
 * it cannot tell whether they would hold.
 */
bool certifyOnlyRule(Rule rule);

/** Pretty name of @p severity ("note", "warning", "error"). */
const char *toString(Severity sev);

/** One finding of the analyzer. */
struct Diagnostic
{
    Rule rule;
    Severity severity;  //!< After demotion of expected violations.
    size_t slot;        //!< Program slot index the finding anchors to.
    bool expected = false;  //!< Covered by expectViolation().
    int64_t atPs = 0;   //!< Symbolic program time of the finding.
    std::string message;
};

/** Result of linting one program. */
struct Report
{
    std::vector<Diagnostic> diags;

    /** Symbolic duration of the whole program (loops expanded). */
    int64_t durationPs = 0;

    /** Commands issued when the program runs (loops expanded). */
    uint64_t commandCount = 0;

    /** REF commands issued (loops expanded). */
    uint64_t refCount = 0;

    /** Diagnostics at exactly @p sev. */
    size_t count(Severity sev) const;

    /** True when any unexpected Error-severity diagnostic remains. */
    bool hasErrors() const { return count(Severity::Error) > 0; }
};

/**
 * Lints @p prog against the timing/geometry of @p cfg.  Never
 * executes on a device and never fatal()s: structural breakage is
 * reported as UnbalancedLoop diagnostics (the walk stops at the
 * broken structure).
 */
Report lint(const Program &prog, const dram::DeviceConfig &cfg);

/**
 * Structure-only pass (no device config needed): loop balance,
 * zero-count loops, dead code.  Program::validate() fatal()s on the
 * Error entries of this list.
 */
std::vector<Diagnostic> structuralDiagnostics(const Program &prog);

/**
 * A certified constant-duration hammer-loop body: the handshake
 * between the linter and bender::Host's fast-forward engine.  The
 * certificate pins everything the batched train needs — the constant
 * bank/row and the body's integer-picosecond open time and period,
 * summed from the slots' stored integers so a fast-forwarded clock
 * lands exactly where slot-by-slot execution would.
 */
struct LoopCertificate
{
    dram::BankId bank = 0;
    dram::RowAddr row = 0;
    int64_t openPs = 0;    //!< ACT-to-PRE issue distance.
    int64_t periodPs = 0;  //!< Whole-body (ACT-to-ACT) duration.
};

/**
 * Certifies a loop body as a constant-address, constant-duration,
 * side-effect-regular hammer kernel that fast-forwarding replays
 * exactly: Act(b, r) {Nop|SleepNs}* Pre(b) {Nop|SleepNs}* and
 * nothing else.  @p begin / @p end delimit the body (exclusive of
 * the Loop markers).  Returns nullopt for any other shape.
 */
std::optional<LoopCertificate>
certifyHammerLoop(const std::vector<Instr> &instrs, size_t begin,
                  size_t end, const dram::DeviceConfig &cfg);

/** Knobs of the whole-program effect analyzer (certify()). */
struct CertifyOptions
{
    /**
     * RowHammer exposure threshold: a proven bound above this many
     * ACTs to one (bank, row) inside one refresh window raises
     * exposure-bound.  0 selects the device's weakest-cell
     * disturbance threshold (DisturbParams::thresholdMin).
     */
    uint64_t exposureThreshold = 0;

    /** Power budget in mW; <= 0 selects EnergyParams::maxAvgPowerMw. */
    double powerBudgetMw = 0.0;

    /** Rolling window in ns; <= 0 selects EnergyParams::powerWindowNs. */
    double powerWindowNs = 0.0;
};

/**
 * The whole-program effect certificate: everything certify() proves
 * about a program without executing a single command.  The exposure
 * bound is an upper bound on the ACTs any single (bank, row) receives
 * inside one refresh window (windows are delimited by REF commands,
 * matching the scheduler's dynamic mc.exposure accounting, so
 * `maxRowActs >= ScheduleStats::maxRowActsPerRefWindow` always
 * holds); it is exact when `exact` is set — constant-address loop
 * bodies fold through fast-forwarding by exact multiplication — and
 * conservative (still an upper bound) otherwise.
 */
struct Certificate
{
    Report report;  //!< Timing diags + certify-only rules.

    /// @name Exposure.
    /// @{
    uint64_t maxRowActs = 0;     //!< Proven max ACTs/row/refresh-window.
    dram::BankId hottestBank = 0;
    dram::RowAddr hottestRow = 0;
    bool exact = true;           //!< Bound proven exact, not conservative.
    uint64_t exposureThreshold = 0;  //!< Resolved threshold applied.
    /// @}

    /// @name Energy and power.
    /// @{
    double commandEnergyPj = 0.0;     //!< Sum of per-command energies.
    double backgroundEnergyPj = 0.0;  //!< backgroundMw over durationPs.
    double avgPowerMw = 0.0;          //!< Whole-program average.
    double peakWindowPowerMw = 0.0;   //!< Hottest rolling window.
    double powerBudgetMw = 0.0;       //!< Resolved budget applied.
    double powerWindowNs = 0.0;       //!< Resolved window applied.
    /// @}

    /** Total estimated energy (commands + background), pJ. */
    double totalEnergyPj() const
    {
        return commandEnergyPj + backgroundEnergyPj;
    }

    /** No unexpected errors: the program is certified. */
    bool certified() const { return !report.hasErrors(); }

    /** One-line deterministic summary (CLI / test payloads). */
    std::string summary() const;
};

/**
 * Certifies @p prog: a full lint() pass extended with the effect
 * analysis — per-(bank, row) symbolic activation counters with
 * refresh-window segmentation, per-command energy accounting from
 * cfg.energy, and the rolling power-window check.  The report gains
 * an energy-estimate note on every run plus exposure-bound /
 * power-window diagnostics where the proven quantities exceed the
 * (resolved) thresholds of @p opts.  expectViolation() demotion
 * applies to the new rules exactly as to timing rules, so
 * deliberately over-threshold programs (hammer kernels) certify
 * clean when annotated.
 */
Certificate certify(const Program &prog, const dram::DeviceConfig &cfg,
                    const CertifyOptions &opts = {});

/**
 * Pre-flight mode registry of bender::Host (env DRAMSCOPE_LINT):
 * X(Enumerator, "keyword", "summary").
 */
#define DRAMSCOPE_LINT_MODES(X)                                             \
    X(Off, "off", "no pre-flight (the default)")                            \
    X(Warn, "warn", "lint every run(); log unexpected errors")              \
    X(Error, "error", "lint every run(); fatal() on unexpected errors")

/** Pre-flight modes of bender::Host. */
enum class Mode : uint8_t
{
#define X(name, id, summary) name,
    DRAMSCOPE_LINT_MODES(X)
#undef X
};

/** Static description of one pre-flight mode. */
struct ModeInfo
{
    Mode mode;
    const char *id;  //!< The DRAMSCOPE_LINT keyword.
};

/** The mode registry, indexed by Mode enumerator order. */
std::span<const ModeInfo> modeTable();

/**
 * Reads DRAMSCOPE_LINT from the environment: a mode keyword selects
 * that mode, and unset or empty is Off.  Any other value is a fatal()
 * user error, so a misspelt mode cannot silently disable the gate.
 */
Mode modeFromEnv();

} // namespace lint
} // namespace bender
} // namespace dramscope

#endif // DRAMSCOPE_BENDER_LINT_H
