/**
 * @file
 * Host executor implementation.
 */

#include "bender/host.h"

#include <algorithm>

#include "dram/faulty_device.h"
#include "dram/timing.h"
#include "util/log.h"

namespace dramscope {
namespace bender {

Host::Host(dram::Device &dev)
    : dev_(dev), tck_ps_(dram::psFromNs(dev.config().timing.tCkNs)),
      lint_mode_(lint::modeFromEnv()),
      fastpath_mode_(dram::fastPathModeFromEnv())
{
}

void
Host::setMetrics(obs::MetricsRegistry *metrics)
{
    metrics_ = metrics;
    if (!metrics_) {
        for (auto *&c : cmd_counters_)
            c = nullptr;
        violation_counter_ = nullptr;
        bank_act_counters_.clear();
        open_row_hist_ = nullptr;
        act_gap_hist_ = nullptr;
        return;
    }
    cmd_counters_[size_t(obs::TraceCmd::Act)] = &metrics_->counter("cmd.act");
    cmd_counters_[size_t(obs::TraceCmd::Pre)] = &metrics_->counter("cmd.pre");
    cmd_counters_[size_t(obs::TraceCmd::Rd)] = &metrics_->counter("cmd.rd");
    cmd_counters_[size_t(obs::TraceCmd::Wr)] = &metrics_->counter("cmd.wr");
    cmd_counters_[size_t(obs::TraceCmd::Ref)] = &metrics_->counter("cmd.ref");
    violation_counter_ = &metrics_->counter("timing.violations");
    bank_act_counters_.clear();
    for (uint32_t b = 0; b < config().numBanks; ++b) {
        bank_act_counters_.push_back(
            &metrics_->counter("bank.act." + std::to_string(b)));
    }
    // Fixed shapes so per-shard histograms merge; out-of-range samples
    // clamp to the edge bins.  Covers the paper's attack parameters
    // (35ns hammer, 7.8us press opens; ~50ns hammer periods).
    open_row_hist_ = &metrics_->histogram("act.open_ns", 64, 0.0, 8000.0);
    act_gap_hist_ = &metrics_->histogram("act.gap_ns", 64, 0.0, 1600.0);
    resetMetricsWindow();
    violations_seen_ = dev_.violationCount();
}

void
Host::resetMetricsWindow()
{
    last_act_ns_.assign(config().numBanks, -1.0);
    open_since_ns_.assign(config().numBanks, -1.0);
}

void
Host::observe(obs::TraceCmd cmd, dram::BankId b, dram::RowAddr row,
              dram::ColAddr col, double ns)
{
    if (metrics_) {
        cmd_counters_[size_t(cmd)]->add();
        if (cmd == obs::TraceCmd::Act && b < bank_act_counters_.size()) {
            bank_act_counters_[b]->add();
            if (last_act_ns_[b] >= 0.0)
                act_gap_hist_->add(ns - last_act_ns_[b]);
            last_act_ns_[b] = ns;
            open_since_ns_[b] = ns;
        } else if (cmd == obs::TraceCmd::Pre &&
                   b < open_since_ns_.size() && open_since_ns_[b] >= 0.0) {
            open_row_hist_->add(ns - open_since_ns_[b]);
            open_since_ns_[b] = -1.0;
        }
    }
    if (trace_)
        trace_->onCommand({ns, cmd, b, row, col});
}

void
Host::observeBulkHammer(dram::BankId b, dram::RowAddr row, uint64_t count,
                        double open_ns, double period_ns, double start_ns)
{
    if (metrics_) {
        cmd_counters_[size_t(obs::TraceCmd::Act)]->add(count);
        cmd_counters_[size_t(obs::TraceCmd::Pre)]->add(count);
        if (b < bank_act_counters_.size()) {
            bank_act_counters_[b]->add(count);
            if (last_act_ns_[b] >= 0.0)
                act_gap_hist_->add(start_ns - last_act_ns_[b]);
            if (count > 1)
                act_gap_hist_->addMany(period_ns, count - 1);
            open_row_hist_->addMany(open_ns, count);
            last_act_ns_[b] = start_ns + double(count - 1) * period_ns;
            open_since_ns_[b] = -1.0;  // The loop ends precharged.
        }
    }
    if (trace_) {
        for (uint64_t k = 0; k < count; ++k) {
            const double t = start_ns + double(k) * period_ns;
            trace_->onCommand({t, obs::TraceCmd::Act, b, row, 0});
            trace_->onCommand({t + open_ns, obs::TraceCmd::Pre, b, 0, 0});
        }
    }
}

void
Host::observeViolations()
{
    const uint64_t total = dev_.violationCount();
    violation_counter_->add(total - violations_seen_);
    violations_seen_ = total;
}

void
Host::execCertifiedLoop(const lint::LoopCertificate &cert, uint64_t count,
                        ExecResult &result)
{
    dram::ActTrain train;
    train.bank = cert.bank;
    train.row = cert.row;
    train.count = count;
    train.startPs = now_ps_;
    train.openPs = cert.openPs;
    train.periodPs = cert.periodPs;
    const double start_ns = nowNsF();
    try {
        dev_.actMany(train);
    } catch (const dram::FaultError &e) {
        // Step-wise execution observes each completed command and the
        // faulting one, and stops with the clock on the faulting
        // command's issue slot.
        const uint64_t done = e.trainCommandsDone;
        for (uint64_t j = 0; j <= done; ++j) {
            now_ps_ = train.startPs + int64_t(j / 2) * train.periodPs +
                      (j % 2 ? train.openPs : 0);
            if (observing())
                observe(j % 2 ? obs::TraceCmd::Pre : obs::TraceCmd::Act,
                        train.bank, j % 2 ? 0 : train.row, 0, nowNsF());
        }
        result.commandsIssued += done;
        throw;
    }
    now_ps_ += int64_t(count) * train.periodPs;
    result.commandsIssued += 2 * count;
    if (observing()) {
        observeBulkHammer(train.bank, train.row, count, train.openNs(),
                          train.periodNs(), start_ns);
    }
}

void
Host::execRange(const std::vector<Instr> &instrs, size_t begin, size_t end,
                ExecResult &result)
{
    size_t i = begin;
    while (i < end) {
        const Instr &ins = instrs[i];
        switch (ins.op) {
          case Opcode::Act:
            if (observing())
                observe(obs::TraceCmd::Act, ins.bank, ins.row, 0, nowNsF());
            dev_.act(ins.bank, ins.row, now());
            now_ps_ += tck_ps_;
            ++result.commandsIssued;
            ++i;
            break;
          case Opcode::Pre:
            if (observing())
                observe(obs::TraceCmd::Pre, ins.bank, 0, 0, nowNsF());
            dev_.pre(ins.bank, now());
            now_ps_ += tck_ps_;
            ++result.commandsIssued;
            ++i;
            break;
          case Opcode::Rd:
            if (observing())
                observe(obs::TraceCmd::Rd, ins.bank, 0, ins.col, nowNsF());
            result.reads.push_back(dev_.read(ins.bank, ins.col, now()));
            now_ps_ += tck_ps_;
            ++result.commandsIssued;
            ++i;
            break;
          case Opcode::Wr:
            if (observing())
                observe(obs::TraceCmd::Wr, ins.bank, 0, ins.col, nowNsF());
            dev_.write(ins.bank, ins.col, ins.data, now());
            now_ps_ += tck_ps_;
            ++result.commandsIssued;
            ++i;
            break;
          case Opcode::Ref:
            if (observing())
                observe(obs::TraceCmd::Ref, 0, 0, 0, nowNsF());
            dev_.refresh(now());
            now_ps_ += tck_ps_;
            ++result.commandsIssued;
            ++i;
            break;
          case Opcode::Nop:
            now_ps_ += int64_t(ins.count) * tck_ps_;
            ++i;
            break;
          case Opcode::SleepNs:
            now_ps_ += ins.ps;
            ++i;
            break;
          case Opcode::LoopBegin: {
            const size_t body_end = matchingLoopEnd(instrs, i, end);
            std::optional<lint::LoopCertificate> cert;
            if (fastpath_mode_ != dram::FastPathMode::Off && ins.count > 0)
                cert = lint::certifyHammerLoop(instrs, i + 1, body_end,
                                               config());
            if (cert) {
                execCertifiedLoop(*cert, ins.count, result);
            } else {
                for (uint64_t k = 0; k < ins.count; ++k)
                    execRange(instrs, i + 1, body_end, result);
            }
            i = body_end + 1;
            break;
          }
          case Opcode::LoopEnd:
            panic("Host: stray LoopEnd");
        }
    }
}

void
Host::preflight(const Program &prog)
{
    const auto report = lint::lint(prog, config());
    const size_t errors = report.count(lint::Severity::Error);
    const size_t warnings = report.count(lint::Severity::Warning);
    if (metrics_) {
        metrics_->counter("lint.programs").add();
        metrics_->counter("lint.errors").add(errors);
        metrics_->counter("lint.warnings").add(warnings);
    }
    for (const auto &d : report.diags) {
        // Unbalanced loops break the executor itself: always fatal,
        // exactly as Program::validate() would have been.
        if (d.rule == lint::Rule::UnbalancedLoop)
            fatal("Program: " + d.message);
        if (d.severity != lint::Severity::Error)
            continue;
        const std::string msg = "lint: [" + std::string(ruleId(d.rule)) +
                                "] slot " + std::to_string(d.slot) +
                                ": " + d.message;
        if (lint_mode_ == lint::Mode::Error)
            fatal(msg);
        warn(msg);
    }
}

ExecResult
Host::run(const Program &prog)
{
    if (lint_mode_ != lint::Mode::Off)
        preflight(prog);
    else
        prog.validate();
    ExecResult result;
    result.startNs = now();
    execRange(prog.instrs(), 0, prog.instrs().size(), result);
    result.endNs = now();
    if (metrics_)
        observeViolations();
    return result;
}

/**
 * One row session: ACT @p row, tRCD, `bursts(p)`, tRAS, PRE, tRP.  The
 * frame of the four row read and write programs; @p bursts appends the
 * RD/WR slots and is inlined, so the frame adds no call or copy.
 */
template <typename Bursts>
static Program
rowSession(const dram::DeviceConfig &cfg, dram::BankId b, dram::RowAddr row,
           const Bursts &bursts)
{
    Program p;
    p.act(b, row).sleepNs(cfg.timing.tRcdNs);
    bursts(p);
    p.sleepNs(cfg.timing.tRasNs).pre(b).sleepNs(cfg.timing.tRpNs);
    return p;
}

Program
Host::makeWriteRowProgram(const dram::DeviceConfig &cfg, dram::BankId b,
                          dram::RowAddr row,
                          const std::vector<uint64_t> &cols)
{
    return rowSession(cfg, b, row, [&](Program &p) {
        for (dram::ColAddr c = 0; c < cols.size(); ++c)
            p.wr(b, c, cols[c]);
    });
}

Program
Host::makeReadRowProgram(const dram::DeviceConfig &cfg, dram::BankId b,
                         dram::RowAddr row)
{
    return rowSession(cfg, b, row, [&](Program &p) {
        for (dram::ColAddr c = 0; c < cfg.columnsPerRow(); ++c)
            p.rd(b, c);
    });
}

Program
Host::makeWriteColumnsProgram(const dram::DeviceConfig &cfg,
                              dram::BankId b, dram::RowAddr row,
                              const std::vector<dram::ColAddr> &cols,
                              uint64_t rd_data)
{
    return rowSession(cfg, b, row, [&](Program &p) {
        for (const auto c : cols)
            p.wr(b, c, rd_data);
    });
}

Program
Host::makeReadColumnsProgram(const dram::DeviceConfig &cfg,
                             dram::BankId b, dram::RowAddr row,
                             const std::vector<dram::ColAddr> &cols)
{
    return rowSession(cfg, b, row, [&](Program &p) {
        for (const auto c : cols)
            p.rd(b, c);
    });
}

Program
Host::makeHammerProgram(const dram::DeviceConfig &cfg, dram::BankId b,
                        dram::RowAddr row, uint64_t count, double open_ns)
{
    const auto &t = cfg.timing;
    // The close interval honours tRP and, for short open times, pads
    // up to tRC so an ACT-to-ACT period never goes out of spec: a
    // tAggON probe deliberately shortens the open (restore) time, not
    // the activation rate.  For open_ns >= tRC - tCK - tRP (every
    // in-tree caller) this is exactly tRP.
    const double close_ns =
        std::max(t.tRpNs, t.tRcNs() - open_ns - t.tCkNs);
    Program p;
    p.loopBegin(count)
        .act(b, row)
        .sleepNs(open_ns - t.tCkNs)
        .pre(b)
        .sleepNs(close_ns)
        .loopEnd();
    // Sub-tRAS open times (tAggON probes) are a deliberate choice of
    // the experiment, not a slip.
    if (open_ns < t.tRasNs)
        p.expectViolation(lint::Rule::TRas);
    return p;
}

Program
Host::makeRowCopyProgram(const dram::DeviceConfig &cfg, dram::BankId b,
                         dram::RowAddr src, dram::RowAddr dst)
{
    const auto &t = cfg.timing;
    Program p;
    p.act(b, src)
        .sleepNs(t.tRasNs)
        .pre(b)
        .sleepNs(1.0)  // Way inside tRP: bitlines still hold src.
        .act(b, dst)
        .sleepNs(t.tRasNs)
        .pre(b)
        .sleepNs(t.tRpNs);
    // The whole point of RowCopy: the second ACT lands inside tRP
    // (and therefore inside tRC of the first ACT).
    p.expectViolation(lint::Rule::TRp).expectViolation(lint::Rule::TRc);
    return p;
}

Program
Host::makeRefreshProgram(const dram::DeviceConfig &cfg)
{
    Program p;
    p.ref().sleepNs(cfg.timing.tRfcNs);
    return p;
}

void
Host::writeRow(dram::BankId b, dram::RowAddr row,
               const std::vector<uint64_t> &cols)
{
    fatalIf(cols.size() != config().columnsPerRow(),
            "writeRow: column count mismatch");
    run(makeWriteRowProgram(config(), b, row, cols));
}

void
Host::writeRowPattern(dram::BankId b, dram::RowAddr row, uint64_t rd_data)
{
    writeRow(b, row,
             std::vector<uint64_t>(config().columnsPerRow(), rd_data));
}

void
Host::writeColumns(dram::BankId b, dram::RowAddr row,
                   const std::vector<dram::ColAddr> &cols,
                   uint64_t rd_data)
{
    run(makeWriteColumnsProgram(config(), b, row, cols, rd_data));
}

std::vector<uint64_t>
Host::readColumns(dram::BankId b, dram::RowAddr row,
                  const std::vector<dram::ColAddr> &cols)
{
    return run(makeReadColumnsProgram(config(), b, row, cols)).reads;
}

std::vector<uint64_t>
Host::readRow(dram::BankId b, dram::RowAddr row)
{
    return run(makeReadRowProgram(config(), b, row)).reads;
}

BitVec
Host::readRowBits(dram::BankId b, dram::RowAddr row)
{
    return BitVec::fromBursts(readRow(b, row), config().rdDataBits);
}

void
Host::writeRowBits(dram::BankId b, dram::RowAddr row, const BitVec &bits)
{
    const uint32_t w = config().rdDataBits;
    fatalIf(bits.size() != size_t(config().columnsPerRow()) * w,
            "writeRowBits: size mismatch");
    std::vector<uint64_t> cols(config().columnsPerRow());
    for (size_t c = 0; c < cols.size(); ++c)
        cols[c] = bits.getBits(c * w, w);
    writeRow(b, row, cols);
}

ExecResult
Host::hammer(dram::BankId b, dram::RowAddr row, uint64_t count,
             double open_ns)
{
    return run(makeHammerProgram(config(), b, row, count, open_ns));
}

ExecResult
Host::press(dram::BankId b, dram::RowAddr row, uint64_t count,
            double open_ns)
{
    return hammer(b, row, count, open_ns);
}

ExecResult
Host::rowCopy(dram::BankId b, dram::RowAddr src, dram::RowAddr dst)
{
    return run(makeRowCopyProgram(config(), b, src, dst));
}

ExecResult
Host::refresh()
{
    return run(makeRefreshProgram(config()));
}

} // namespace bender
} // namespace dramscope
