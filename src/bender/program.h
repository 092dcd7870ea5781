/**
 * @file
 * DRAM Bender-style command programs.
 *
 * A Program is a flat list of command slots with explicit timing
 * (NOPs and sleeps) plus counted, nestable loops — the same
 * abstraction the FPGA infrastructure exposes.  Out-of-spec timing is
 * deliberately expressible; that is the whole point of the tool
 * (RowCopy needs an ACT issued inside tRP).  A builder that *means*
 * to break a rule says so with expectViolation(), so the static
 * linter (bender/lint.h) can tell intent from accident.
 */

#ifndef DRAMSCOPE_BENDER_PROGRAM_H
#define DRAMSCOPE_BENDER_PROGRAM_H

#include <cstdint>
#include <vector>

#include "dram/types.h"

namespace dramscope {
namespace bender {

namespace lint {
/** Lint rule ids; enumerators live in bender/lint.h. */
enum class Rule : uint8_t;
} // namespace lint

/** Command opcodes of the mini-ISA. */
enum class Opcode
{
    Act,        //!< Activate (bank, row).
    Pre,        //!< Precharge (bank).
    Rd,         //!< Read (bank, col); result appended to ExecResult.
    Wr,         //!< Write (bank, col, data).
    Ref,        //!< Refresh (all banks).
    Nop,        //!< Wait count * tCK.
    SleepNs,    //!< Wait an arbitrary duration (stored as integer ps).
    LoopBegin,  //!< Repeat until matching LoopEnd, count times.
    LoopEnd,
};

/** One program slot. */
struct Instr
{
    Opcode op = Opcode::Nop;
    dram::BankId bank = 0;
    dram::RowAddr row = 0;
    dram::ColAddr col = 0;
    uint64_t data = 0;
    uint64_t count = 1;  //!< NOP cycles or loop iterations.

    /**
     * SleepNs duration in integer picoseconds, rounded once at build
     * time.  Storing the rounded integer (rather than the double ns
     * the builder was given) makes the executor's clock and the
     * linter's symbolic clock agree exactly: both consume the same
     * integer, so there is no second rounding to disagree on.
     */
    int64_t ps = 0;
};

/** Fluent builder for command programs. */
class Program
{
  public:
    Program &act(dram::BankId b, dram::RowAddr r);
    Program &pre(dram::BankId b);
    Program &rd(dram::BankId b, dram::ColAddr c);
    Program &wr(dram::BankId b, dram::ColAddr c, uint64_t data);
    Program &ref();
    Program &nop(uint64_t cycles = 1);
    Program &sleepNs(double ns);
    /** sleepNs without the ns->ps rounding: exact integer wait. */
    Program &sleepPs(int64_t ps);
    Program &loopBegin(uint64_t count);
    Program &loopEnd();

    /**
     * Declares that this program deliberately violates @p rule
     * (RowCopy's ACT inside tRP, hammer variants probing tRAS, ...).
     * The linter demotes matching diagnostics to expected notes and
     * treats the program as clean; unannotated violations stay
     * errors.  Annotating a rule that never fires is itself flagged
     * (stale-expectation), so annotations cannot rot silently.
     */
    Program &expectViolation(lint::Rule rule);

    /** Rules this program declares it violates on purpose. */
    const std::vector<lint::Rule> &expectedViolations() const
    {
        return expected_;
    }

    const std::vector<Instr> &instrs() const { return instrs_; }

    /**
     * fatal()s on structural errors (unbalanced loops).  Runs the
     * linter's structural pass (lint::structuralDiagnostics) and
     * reports the first error; warnings (zero-count loops, dead
     * code) are left to the full linter.
     */
    void validate() const;

    /** Number of slots (not expanded for loops). */
    size_t size() const { return instrs_.size(); }

  private:
    std::vector<Instr> instrs_;
    std::vector<lint::Rule> expected_;
};

/**
 * The slot of the LoopEnd that closes the LoopBegin at @p begin,
 * searched in [begin + 1, end).  Panics when the loop is not closed
 * there: Program::validate() and the linter's structural pass reject
 * such a program before anything walks it.
 */
size_t matchingLoopEnd(const std::vector<Instr> &instrs, size_t begin,
                       size_t end);

} // namespace bender
} // namespace dramscope

#endif // DRAMSCOPE_BENDER_PROGRAM_H
