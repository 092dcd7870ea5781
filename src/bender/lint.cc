/**
 * @file
 * The Bender program linter: structural pass + abstract timing
 * interpreter.  See bender/lint.h for the model.
 */

#include "bender/lint.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "dram/timing.h"
#include "util/log.h"
#include "util/registry.h"

namespace dramscope {
namespace bender {
namespace lint {

std::span<const RuleInfo>
ruleTable()
{
    static constexpr RuleInfo kTable[] = {
#define X(name, id, sev, summary) {Rule::name, id, Severity::sev, summary},
        DRAMSCOPE_LINT_RULES(X)
#undef X
    };
    return kTable;
}

const RuleInfo &
ruleInfo(Rule rule)
{
    const auto idx = size_t(rule);
    panicIf(idx >= ruleTable().size(), "lint: rule out of range");
    return ruleTable()[idx];
}

const char *
ruleId(Rule rule)
{
    return ruleInfo(rule).id;
}

bool
certifyOnlyRule(Rule rule)
{
    return rule == Rule::ExposureBound || rule == Rule::PowerWindow ||
           rule == Rule::EnergyEstimate;
}

const char *
toString(Severity sev)
{
    switch (sev) {
      case Severity::Note:    return "note";
      case Severity::Warning: return "warning";
      case Severity::Error:   return "error";
    }
    return "?";
}

size_t
Report::count(Severity sev) const
{
    size_t n = 0;
    for (const auto &d : diags) {
        if (d.severity == sev)
            ++n;
    }
    return n;
}

std::span<const ModeInfo>
modeTable()
{
    static constexpr ModeInfo kTable[] = {
#define X(name, id, summary) {Mode::name, id},
        DRAMSCOPE_LINT_MODES(X)
#undef X
    };
    return kTable;
}

Mode
modeFromEnv()
{
    return registry::fromEnv("DRAMSCOPE_LINT", modeTable(), "lint mode",
                             Mode::Off);
}

namespace {

/** Formats a picosecond quantity as "12.345 ns". */
std::string
fmtNs(int64_t ps)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.3f ns", double(ps) / 1000.0);
    return buf;
}

/**
 * The abstract interpreter.  Tracks a symbolic integer-picosecond
 * clock through the program and checks and applies every ACT and PRE
 * through dram::TimingRules, the engine mc::schedule issues by; loop
 * bodies have constant duration, so after a few simulated iterations
 * the rest of a loop is fast-forwarded arithmetically (timestamps
 * written inside the loop shift with the clock; pre-loop timestamps
 * stay absolute).
 */
class Interp
{
  public:
    Interp(const Program &prog, const dram::DeviceConfig &cfg,
           Report &report, Certificate *cert = nullptr)
        : instrs_(prog.instrs()), cfg_(cfg), report_(report), cert_(cert),
          rules_(cfg.timing, cfg.numBanks), banks_(cfg.numBanks)
    {
        // Structural findings are already in the report; never emit
        // the same (rule, slot) twice.
        for (const auto &d : report_.diags)
            seen_.insert({uint8_t(d.rule), d.slot});
        if (cert_ != nullptr) {
            window_ps_ =
                std::max<int64_t>(dram::psFromNs(cert_->powerWindowNs), 1);
            background_mw_ = cfg.energy.backgroundMw;
        }
    }

    void
    run()
    {
        walk(0, instrs_.size());
        report_.durationPs = clock_ps_;
        finishOpenAtEnd();
        finishRefreshBudget();
        if (cert_ != nullptr)
            finishCertificate();
    }

  private:
    /**
     * Iterations of a loop simulated slot-by-slot before fast-
     * forwarding: enough for every cross-iteration pattern the rules
     * can see (tail-to-head spacing needs 2, the four-ACT tFAW
     * window needs 5) to reach steady state.
     */
    static constexpr uint64_t kSimIters = 6;

    /** Symbolic ACT count of one (bank, row) in the current window. */
    struct RowActs
    {
        uint64_t acts = 0;
        size_t lastSlot = 0;  //!< Slot of the latest ACT.
    };

    /** What the messages name about a bank's open row. */
    struct BankState
    {
        dram::RowAddr openRow = 0;
        size_t openSlot = 0;     //!< Slot of the opening ACT.
    };

    void
    diag(Rule rule, size_t slot, std::string msg)
    {
        if (!seen_.insert({uint8_t(rule), slot}).second)
            return;
        report_.diags.push_back({rule, ruleInfo(rule).severity, slot,
                                 false, clock_ps_, std::move(msg)});
    }

    /** Key of the per-(bank, row) symbolic activation counter. */
    static uint64_t
    rowKey(dram::BankId bank, dram::RowAddr row)
    {
        return (uint64_t(bank) << 32) | uint64_t(row);
    }

    /** Effect analysis: one more ACT lands on (bank, row). */
    void
    trackAct(const Instr &ins, size_t slot)
    {
        if (cert_ == nullptr)
            return;
        const uint64_t key = rowKey(ins.bank, ins.row);
        RowActs &row = row_acts_[key];
        const uint64_t n = ++row.acts;
        row.lastSlot = slot;
        if (n > max_row_acts_) {
            max_row_acts_ = n;
            max_key_ = key;
            max_slot_ = slot;
        }
    }

    /**
     * Effect analysis: a command costing @p pj issues at the current
     * clock.  Maintains the rolling power window (the energy
     * generalization of the four-ACT tFAW window) and its peak.
     */
    void
    trackEnergy(size_t slot, double pj)
    {
        if (cert_ == nullptr)
            return;
        cmd_energy_pj_ += pj;
        const int64_t t = clock_ps_;
        pwr_.emplace_back(t, pj);
        pwr_sum_pj_ += pj;
        while (!pwr_.empty() && pwr_.front().first <= t - window_ps_) {
            pwr_sum_pj_ -= pwr_.front().second;
            pwr_.pop_front();
        }
        // pJ/ps is W, so the window average in mW is 1000 * sum/len.
        const double mw =
            1000.0 * pwr_sum_pj_ / double(window_ps_) + background_mw_;
        if (mw > peak_window_mw_) {
            peak_window_mw_ = mw;
            peak_slot_ = slot;
        }
    }

    /**
     * Raises @p rule when the clock is short of its @p bound, which
     * lies @p limit after the command the rule measures from.  The
     * message is head() (built only then), the time since that
     * command, @p since, and the limit.
     */
    template <typename Head>
    void
    checkBound(Rule rule, size_t slot, int64_t bound, int64_t limit,
               const Head &head, const char *since)
    {
        if (clock_ps_ < bound) {
            diag(rule, slot,
                 head() + fmtNs(clock_ps_ - (bound - limit)) + since +
                     fmtNs(limit));
        }
    }

    /** An ACT to an open bank is dropped, as the device drops it:
     *  act-open is its only finding, and it restarts no clock. */
    void
    onAct(const Instr &ins, size_t slot)
    {
        const dram::BankId b = ins.bank;
        const auto act = [&] { return "ACT bank " + std::to_string(b); };
        const auto act_row = [&] {
            return act() + " row " + std::to_string(ins.row) + ": ";
        };
        const auto act_colon = [&] { return act() + ": "; };
        if (rules_.open(b)) {
            diag(Rule::ActOpen, slot,
                 act_row() + "row " + std::to_string(banks_[b].openRow) +
                     " is still open");
            return;
        }
        checkBound(Rule::TRp, slot, rules_.trpBound(b), rules_.trp,
                   act_row, " since PRE, tRP is ");
        checkBound(Rule::TRc, slot, rules_.trcBound(b), rules_.trc,
                   act_colon,
                   " since the previous same-bank ACT, tRC is ");
        checkBound(Rule::TRrd, slot, rules_.trrdBound(), rules_.trrd,
                   act_colon, " since the previous ACT, tRRD is ");
        checkBound(Rule::TFaw, slot, rules_.tfawBound(), rules_.tfaw,
                   [&] { return act() + ": fifth ACT "; },
                   " after the fourth-most-recent one, tFAW is ");
        rules_.applyAct(b, clock_ps_);
        banks_[b] = {ins.row, slot};
    }

    /** A PRE to a precharged bank is a dropped NOP. */
    void
    onPre(const Instr &ins, size_t slot)
    {
        if (!rules_.open(ins.bank))
            return;
        checkBound(Rule::TRas, slot, rules_.earliestPre(ins.bank),
                   rules_.tras,
                   [&] {
                       return "PRE bank " + std::to_string(ins.bank) + ": ";
                   },
                   " since ACT, tRAS is ");
        rules_.applyPre(ins.bank, clock_ps_);
    }

    void
    onRw(const Instr &ins, size_t slot, const char *verb)
    {
        const auto head = [&] {
            return std::string(verb) + " bank " + std::to_string(ins.bank) +
                   " col " + std::to_string(ins.col) + ": ";
        };
        if (!rules_.open(ins.bank)) {
            diag(Rule::RwClosed, slot,
                 head() + "bank is precharged (no open row)");
            return;
        }
        checkBound(Rule::TRcd, slot, rules_.earliestRw(ins.bank),
                   rules_.trcd, head, " since ACT, tRCD is ");
    }

    void
    onRef(size_t slot)
    {
        for (size_t b = 0; b < banks_.size(); ++b) {
            if (rules_.open(uint32_t(b))) {
                diag(Rule::RefOpen, slot,
                     "REF: bank " + std::to_string(b) + " row " +
                         std::to_string(banks_[b].openRow) +
                         " is still open");
                break;
            }
        }
        ++report_.refCount;
        // Refresh-window segmentation: REF restores every row, so the
        // per-row exposure counters start over (the running max is
        // the bound across windows).  Matches the scheduler's dynamic
        // mc.exposure accounting, which closes all windows at REF.
        if (cert_ != nullptr)
            row_acts_.clear();
    }

    /**
     * Fast-forwards the interpreter state over @p skipped further
     * identical loop iterations of duration @p iter_ps that issued
     * @p iter_cmds commands and @p iter_refs REFs each.  Timestamps
     * written at or after @p loop_start_ps belong to the loop and
     * shift with the clock; older ones are absolute and stay.
     *
     * In certify mode @p iter_pj is the body's constant per-iteration
     * command energy and @p acts0 snapshots the per-row counters from
     * just before the last simulated iteration: REF-free bodies fold
     * exactly by per-key delta multiplication, while bodies with REFs
     * leave the steady-state counters as-is (every window pattern was
     * covered by the simulated iterations, so the running max is
     * already the bound) and drop the exactness claim.
     */
    void
    fastForward(uint64_t skipped, int64_t iter_ps, uint64_t iter_cmds,
                uint64_t iter_refs, int64_t loop_start_ps,
                double iter_pj,
                const std::map<uint64_t, RowActs> &acts0)
    {
        const int64_t shift = int64_t(skipped) * iter_ps;
        clock_ps_ += shift;
        report_.commandCount += skipped * iter_cmds;
        report_.refCount += skipped * iter_refs;
        rules_.shift(loop_start_ps, shift);
        if (cert_ == nullptr)
            return;
        cmd_energy_pj_ += double(skipped) * iter_pj;
        for (auto &ev : pwr_)
            ev.first += ev.first >= loop_start_ps ? shift : 0;
        if (iter_refs == 0) {
            for (auto &[key, row] : row_acts_) {
                const auto it0 = acts0.find(key);
                const uint64_t before =
                    it0 == acts0.end() ? 0 : it0->second.acts;
                const uint64_t delta = row.acts - before;
                if (delta == 0)
                    continue;
                row.acts += delta * skipped;
                if (row.acts > max_row_acts_) {
                    max_row_acts_ = row.acts;
                    max_key_ = key;
                    max_slot_ = row.lastSlot;
                }
            }
        } else {
            exact_ = false;
        }
    }

    /** What every command costs: its energy, its count and one tCK. */
    void
    issued(size_t slot, double pj)
    {
        trackEnergy(slot, pj);
        ++report_.commandCount;
        clock_ps_ += rules_.tck;
    }

    /** Interprets slots [begin, end) once. */
    void
    walk(size_t begin, size_t end)
    {
        for (size_t i = begin; i < end; ++i) {
            const Instr &ins = instrs_[i];
            switch (ins.op) {
              case Opcode::Act:
                onAct(ins, i);
                trackAct(ins, i);
                issued(i, cfg_.energy.eActPj);
                break;
              case Opcode::Pre:
                onPre(ins, i);
                issued(i, cfg_.energy.ePrePj);
                break;
              case Opcode::Rd:
                onRw(ins, i, "RD");
                issued(i, cfg_.energy.eRdPj);
                break;
              case Opcode::Wr:
                onRw(ins, i, "WR");
                issued(i, cfg_.energy.eWrPj);
                break;
              case Opcode::Ref:
                onRef(i);
                issued(i, cfg_.energy.eRefPj);
                break;
              case Opcode::Nop:
                clock_ps_ += int64_t(ins.count) * rules_.tck;
                break;
              case Opcode::SleepNs:
                clock_ps_ += ins.ps;
                break;
              case Opcode::LoopBegin: {
                // Unbalanced structure is reported by the structural
                // pass; lint() skips the timing walk entirely then.
                const size_t body_end = matchingLoopEnd(instrs_, i, end);
                const int64_t loop_start_ps = clock_ps_;
                uint64_t sim = std::min(ins.count, kSimIters);
                int64_t iter_ps = 0;
                uint64_t iter_cmds = 0;
                uint64_t iter_refs = 0;
                double iter_pj = 0.0;
                std::map<uint64_t, RowActs> acts0;
                for (uint64_t k = 0; k < sim; ++k) {
                    if (cert_ != nullptr && k + 1 == sim)
                        acts0 = row_acts_;
                    const int64_t t0 = clock_ps_;
                    const uint64_t c0 = report_.commandCount;
                    const uint64_t r0 = report_.refCount;
                    const double e0 = cmd_energy_pj_;
                    walk(i + 1, body_end);
                    iter_ps = clock_ps_ - t0;
                    iter_cmds = report_.commandCount - c0;
                    iter_refs = report_.refCount - r0;
                    iter_pj = cmd_energy_pj_ - e0;
                    // Certify mode must see every rolling power
                    // window the real run would: when the body is
                    // shorter than the window, simulate enough extra
                    // iterations for one window to fill before fast-
                    // forwarding (duration is constant by ISA, so the
                    // coverage count is known after one iteration).
                    if (cert_ != nullptr && k == 0 &&
                        ins.count > sim && iter_ps > 0) {
                        const uint64_t cover =
                            uint64_t(window_ps_ / iter_ps) + 2;
                        if (cover > sim)
                            sim = std::min(ins.count, cover);
                    }
                }
                if (ins.count > sim) {
                    fastForward(ins.count - sim, iter_ps, iter_cmds,
                                iter_refs, loop_start_ps, iter_pj,
                                acts0);
                }
                i = body_end;
                break;
              }
              case Opcode::LoopEnd:
                panic("lint: stray LoopEnd in walk");
            }
        }
    }

    void
    finishOpenAtEnd()
    {
        for (size_t b = 0; b < banks_.size(); ++b) {
            if (rules_.open(uint32_t(b))) {
                diag(Rule::OpenAtEnd, banks_[b].openSlot,
                     "bank " + std::to_string(b) + " row " +
                         std::to_string(banks_[b].openRow) +
                         " is still open at program end");
            }
        }
    }

    void
    finishRefreshBudget()
    {
        const int64_t window_ps =
            int64_t(std::llround(cfg_.timing.refreshWindowMs * 1.0e9));
        if (report_.durationPs <= window_ps)
            return;
        const double duration_ns = double(report_.durationPs) / 1000.0;
        const auto needed =
            uint64_t(duration_ns / cfg_.timing.tRefiNs);
        if (report_.refCount >= needed)
            return;
        diag(Rule::RefreshBudget, 0,
             "program spans " + fmtNs(report_.durationPs) +
                 " (> tREFW of " + fmtNs(window_ps) + ") but issues " +
                 std::to_string(report_.refCount) + " REF(s); ~" +
                 std::to_string(needed) +
                 " needed to keep every row refreshed");
    }

    /** Fills in the certificate and raises the certify-only rules. */
    void
    finishCertificate()
    {
        Certificate &c = *cert_;
        c.maxRowActs = max_row_acts_;
        c.hottestBank = dram::BankId(max_key_ >> 32);
        c.hottestRow = dram::RowAddr(max_key_ & 0xffffffffULL);
        c.exact = exact_;
        c.commandEnergyPj = cmd_energy_pj_;
        // mW over ps: 1 mW = 1e-3 pJ/ps.
        c.backgroundEnergyPj =
            background_mw_ * double(report_.durationPs) * 1.0e-3;
        c.avgPowerMw =
            report_.durationPs > 0
                ? 1000.0 * c.totalEnergyPj() / double(report_.durationPs)
                : background_mw_;
        c.peakWindowPowerMw = std::max(peak_window_mw_, background_mw_);
        if (max_row_acts_ > c.exposureThreshold) {
            diag(Rule::ExposureBound, max_slot_,
                 "proven bound of " + std::to_string(max_row_acts_) +
                     " ACTs to bank " + std::to_string(c.hottestBank) +
                     " row " + std::to_string(c.hottestRow) +
                     " in one refresh window exceeds the RowHammer "
                     "threshold of " +
                     std::to_string(c.exposureThreshold) +
                     (exact_ ? " (bound is exact)"
                             : " (bound is conservative)"));
        }
        if (c.peakWindowPowerMw > c.powerBudgetMw) {
            char buf[160];
            std::snprintf(buf, sizeof buf,
                          "peak rolling-window power %.2f mW over %s ns "
                          "exceeds the %.2f mW budget",
                          c.peakWindowPowerMw,
                          dram::nsText(c.powerWindowNs).c_str(),
                          c.powerBudgetMw);
            diag(Rule::PowerWindow, peak_slot_, buf);
        }
        diag(Rule::EnergyEstimate, 0, c.summary());
    }

    const std::vector<Instr> &instrs_;
    const dram::DeviceConfig &cfg_;
    Report &report_;
    Certificate *cert_;  //!< Effect analysis on when non-null.

    int64_t clock_ps_ = 0;
    dram::TimingRules rules_;
    std::vector<BankState> banks_;
    std::set<std::pair<uint8_t, size_t>> seen_;

    /// @name Effect analysis (certify mode only).
    /// @{
    int64_t window_ps_ = 1;    //!< Rolling power-window length.
    double background_mw_ = 0.0;
    /** Symbolic per-(bank, row) ACTs since the last REF (std::map:
     *  iterated when fast-forwarding, so the order must be stable). */
    std::map<uint64_t, RowActs> row_acts_;
    uint64_t max_row_acts_ = 0;  //!< Running max across all windows.
    uint64_t max_key_ = 0;
    size_t max_slot_ = 0;
    double cmd_energy_pj_ = 0.0;
    std::deque<std::pair<int64_t, double>> pwr_;  //!< (issue ps, pJ).
    double pwr_sum_pj_ = 0.0;  //!< Energy inside the rolling window.
    double peak_window_mw_ = 0.0;
    size_t peak_slot_ = 0;
    bool exact_ = true;
    /// @}
};

/**
 * Demotes diagnostics covered by expectViolation() to expected notes
 * and flags annotations that never fired.  Duplicate annotations of
 * one rule collapse to a single pass (and at most one stale flag), so
 * the outcome is deterministic however often the builder repeated the
 * call.  In lint mode the certify-only rules are skipped entirely —
 * lint() cannot tell whether they would hold, so their annotations
 * are neither demoted nor flagged stale.
 */
void
applyExpectations(const Program &prog, Report &report, bool certifying)
{
    bool dead_code = false;
    for (const auto &d : report.diags)
        dead_code = dead_code || d.rule == Rule::DeadCode;

    std::set<Rule> handled;
    for (const auto rule : prog.expectedViolations()) {
        if (!handled.insert(rule).second)
            continue;
        if (!certifying && certifyOnlyRule(rule))
            continue;
        bool fired = false;
        for (auto &d : report.diags) {
            if (d.rule == rule) {
                d.severity = Severity::Note;
                d.expected = true;
                fired = true;
            }
        }
        if (!fired) {
            std::string msg = std::string("expectViolation(") +
                              ruleId(rule) + ") matched no diagnostic";
            if (dead_code) {
                msg += " (a zero-count loop leaves part of the "
                       "program dead, which may be why)";
            }
            report.diags.push_back(
                {Rule::StaleExpectation,
                 ruleInfo(Rule::StaleExpectation).severity, 0, false, 0,
                 std::move(msg)});
        }
    }
}

/** The lint()/certify() shared driver; effects on when cert != null. */
Report
analyze(const Program &prog, const dram::DeviceConfig &cfg,
        Certificate *cert)
{
    Report report;
    report.diags = structuralDiagnostics(prog);

    bool unbalanced = false;
    for (const auto &d : report.diags)
        unbalanced = unbalanced || d.rule == Rule::UnbalancedLoop;
    if (!unbalanced)
        Interp(prog, cfg, report, cert).run();

    applyExpectations(prog, report, cert != nullptr);
    std::stable_sort(report.diags.begin(), report.diags.end(),
                     [](const Diagnostic &a, const Diagnostic &b) {
                         return a.slot < b.slot;
                     });
    return report;
}

} // namespace

std::vector<Diagnostic>
structuralDiagnostics(const Program &prog)
{
    std::vector<Diagnostic> diags;
    const auto &instrs = prog.instrs();
    std::vector<std::pair<size_t, uint64_t>> stack;  // (slot, count).
    for (size_t i = 0; i < instrs.size(); ++i) {
        if (instrs[i].op == Opcode::LoopBegin) {
            stack.emplace_back(i, instrs[i].count);
        } else if (instrs[i].op == Opcode::LoopEnd) {
            if (stack.empty()) {
                diags.push_back(
                    {Rule::UnbalancedLoop, Severity::Error, i, false, 0,
                     "unbalanced loops: LoopEnd at slot " +
                         std::to_string(i) + " has no LoopBegin"});
                continue;
            }
            const auto [begin, count] = stack.back();
            stack.pop_back();
            if (count == 0) {
                diags.push_back(
                    {Rule::ZeroLoop, Severity::Warning, begin, false, 0,
                     "loop at slot " + std::to_string(begin) +
                         " has a zero iteration count"});
                if (i > begin + 1) {
                    diags.push_back(
                        {Rule::DeadCode, Severity::Warning, begin + 1,
                         false, 0,
                         "slots " + std::to_string(begin + 1) + ".." +
                             std::to_string(i - 1) +
                             " never execute (zero-count loop body)"});
                }
            }
        }
    }
    for (const auto &[begin, count] : stack) {
        (void)count;
        diags.push_back(
            {Rule::UnbalancedLoop, Severity::Error, begin, false, 0,
             "unbalanced loops: LoopBegin at slot " +
                 std::to_string(begin) + " is never closed"});
    }
    return diags;
}

Report
lint(const Program &prog, const dram::DeviceConfig &cfg)
{
    return analyze(prog, cfg, nullptr);
}

std::string
Certificate::summary() const
{
    char buf[320];
    std::snprintf(
        buf, sizeof buf,
        "exposure: max %llu ACTs/row/window (bank %u row %u, %s, "
        "threshold %llu); energy: %.1f pJ commands + %.1f pJ "
        "background; power: avg %.2f mW, peak %.2f mW over %s ns "
        "(budget %.2f mW)",
        (unsigned long long)maxRowActs, unsigned(hottestBank),
        unsigned(hottestRow), exact ? "exact" : "upper bound",
        (unsigned long long)exposureThreshold, commandEnergyPj,
        backgroundEnergyPj, avgPowerMw, peakWindowPowerMw,
        dram::nsText(powerWindowNs).c_str(), powerBudgetMw);
    return buf;
}

Certificate
certify(const Program &prog, const dram::DeviceConfig &cfg,
        const CertifyOptions &opts)
{
    Certificate cert;
    cert.exposureThreshold =
        opts.exposureThreshold != 0
            ? opts.exposureThreshold
            : uint64_t(std::llround(cfg.disturb.thresholdMin));
    cert.powerBudgetMw = opts.powerBudgetMw > 0.0
                             ? opts.powerBudgetMw
                             : cfg.energy.maxAvgPowerMw;
    cert.powerWindowNs = opts.powerWindowNs > 0.0
                             ? opts.powerWindowNs
                             : cfg.energy.powerWindowNs;
    cert.report = analyze(prog, cfg, &cert);
    return cert;
}

std::optional<LoopCertificate>
certifyHammerLoop(const std::vector<Instr> &instrs, size_t begin,
                  size_t end, const dram::DeviceConfig &cfg)
{
    // The ISA has no data-dependent timing, so a body of this shape
    // is constant-duration by construction; the only state it touches
    // per iteration is its own bank's ACT-PRE cycle (side-effect
    // regular).  Anything else — other opcodes, nested loops, a
    // second bank — falls back to slot-by-slot execution.
    const int64_t tck_ps = dram::psFromNs(cfg.timing.tCkNs);
    size_t i = begin;
    if (i >= end || instrs[i].op != Opcode::Act)
        return std::nullopt;
    LoopCertificate cert;
    cert.bank = instrs[i].bank;
    cert.row = instrs[i].row;
    int64_t t = tck_ps;  // The ACT slot itself.
    // Steps i over the idle slots (Nop, SleepNs) that follow it,
    // adding their time to t.
    const auto idle_after = [&] {
        for (++i; i < end && (instrs[i].op == Opcode::Nop ||
                              instrs[i].op == Opcode::SleepNs);
             ++i) {
            t += instrs[i].op == Opcode::Nop
                     ? int64_t(instrs[i].count) * tck_ps
                     : instrs[i].ps;
        }
    };
    idle_after();
    if (i >= end || instrs[i].op != Opcode::Pre ||
        instrs[i].bank != cert.bank) {
        return std::nullopt;
    }
    cert.openPs = t;
    t += tck_ps;
    idle_after();
    if (i != end)
        return std::nullopt;
    cert.periodPs = t;
    return cert;
}

} // namespace lint
} // namespace bender
} // namespace dramscope
