/**
 * @file
 * Program builder implementation.
 */

#include "bender/program.h"

#include "bender/lint.h"
#include "dram/timing.h"
#include "util/log.h"

namespace dramscope {
namespace bender {

Program &
Program::act(dram::BankId b, dram::RowAddr r)
{
    Instr i;
    i.op = Opcode::Act;
    i.bank = b;
    i.row = r;
    instrs_.push_back(i);
    return *this;
}

Program &
Program::pre(dram::BankId b)
{
    Instr i;
    i.op = Opcode::Pre;
    i.bank = b;
    instrs_.push_back(i);
    return *this;
}

Program &
Program::rd(dram::BankId b, dram::ColAddr c)
{
    Instr i;
    i.op = Opcode::Rd;
    i.bank = b;
    i.col = c;
    instrs_.push_back(i);
    return *this;
}

Program &
Program::wr(dram::BankId b, dram::ColAddr c, uint64_t data)
{
    Instr i;
    i.op = Opcode::Wr;
    i.bank = b;
    i.col = c;
    i.data = data;
    instrs_.push_back(i);
    return *this;
}

Program &
Program::ref()
{
    Instr i;
    i.op = Opcode::Ref;
    instrs_.push_back(i);
    return *this;
}

Program &
Program::nop(uint64_t cycles)
{
    Instr i;
    i.op = Opcode::Nop;
    i.count = cycles;
    instrs_.push_back(i);
    return *this;
}

Program &
Program::sleepNs(double ns)
{
    Instr i;
    i.op = Opcode::SleepNs;
    i.ps = dram::psFromNs(ns);
    instrs_.push_back(i);
    return *this;
}

Program &
Program::sleepPs(int64_t ps)
{
    Instr i;
    i.op = Opcode::SleepNs;
    i.ps = ps;
    instrs_.push_back(i);
    return *this;
}

Program &
Program::loopBegin(uint64_t count)
{
    Instr i;
    i.op = Opcode::LoopBegin;
    i.count = count;
    instrs_.push_back(i);
    return *this;
}

Program &
Program::loopEnd()
{
    Instr i;
    i.op = Opcode::LoopEnd;
    instrs_.push_back(i);
    return *this;
}

Program &
Program::expectViolation(lint::Rule rule)
{
    expected_.push_back(rule);
    return *this;
}

void
Program::validate() const
{
    for (const auto &d : lint::structuralDiagnostics(*this)) {
        if (d.severity == lint::Severity::Error)
            fatal("Program: " + d.message);
    }
}

size_t
matchingLoopEnd(const std::vector<Instr> &instrs, size_t begin, size_t end)
{
    size_t depth = 1;
    for (size_t i = begin + 1; i < end; ++i) {
        if (instrs[i].op == Opcode::LoopBegin)
            ++depth;
        else if (instrs[i].op == Opcode::LoopEnd && --depth == 0)
            return i;
    }
    panic("unbalanced loop at slot " + std::to_string(begin));
}

} // namespace bender
} // namespace dramscope
