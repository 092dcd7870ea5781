/**
 * @file
 * Deterministic fault-injection decorator implementation.
 */

#include "dram/faulty_device.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/registry.h"
#include "util/rng.h"

namespace dramscope {
namespace dram {

namespace {

/** Stream-tag constants keeping drop and flip draws independent. */
constexpr uint64_t kDropTag = 0xD40Full;
constexpr uint64_t kFlipTag = 0xF119ull;

/** Sets @p *error to @p msg (when requested) and returns nullopt. */
std::optional<FaultSpec>
parseFail(std::string *error, const std::string &msg)
{
    if (error)
        *error = msg;
    return std::nullopt;
}

/**
 * Parses an unsigned decimal no larger than @p max at @p p; true on
 * success with @p p advanced past the digits.
 */
bool
parseU64(const char *&p, uint64_t &out, uint64_t max = UINT64_MAX)
{
    const auto [end, ec] = std::from_chars(p, p + std::strlen(p), out);
    if (ec != std::errc() || out > max)
        return false;
    p = end;
    return true;
}

/** Parses a probability in [0, 1] at @p p. */
bool
parseRate(const char *&p, double &out)
{
    char *end = nullptr;
    out = std::strtod(p, &end);
    if (end == p || !(out >= 0.0) || out > 1.0)
        return false;
    p = end;
    return true;
}

} // namespace

std::string
FaultSpec::toString() const
{
    std::string out;
    const auto sep = [&out] {
        if (!out.empty())
            out += ',';
    };
    for (const auto &cell : stuck) {
        sep();
        char buf[96];
        std::snprintf(buf, sizeof(buf), "stuck@%u.%u.%u.%u=%d",
                      unsigned(cell.bank), unsigned(cell.row),
                      unsigned(cell.col), unsigned(cell.bit),
                      cell.value ? 1 : 0);
        out += buf;
    }
    if (flipRate > 0.0) {
        sep();
        char buf[48];
        std::snprintf(buf, sizeof(buf), "flip:%g", flipRate);
        out += buf;
    }
    if (dropRate > 0.0) {
        sep();
        char buf[48];
        std::snprintf(buf, sizeof(buf), "drop:%g", dropRate);
        out += buf;
    }
    if (dieAfterCommands > 0) {
        sep();
        out += "die:cmd=" + std::to_string(dieAfterCommands);
    }
    if (seed != 1) {
        sep();
        out += "seed:" + std::to_string(seed);
    }
    return out;
}

std::span<const FaultClauseInfo>
faultClauseTable()
{
    static constexpr FaultClauseInfo kTable[] = {
#define X(name, id, syntax, summary) {FaultClause::name, id, syntax},
        DRAMSCOPE_FAULT_CLAUSES(X)
#undef X
    };
    return kTable;
}

namespace {

/**
 * The literal head of a clause: its syntax up to the first
 * placeholder, which is the first upper-case letter ("die:cmd=").
 */
std::string_view
clauseHead(const FaultClauseInfo &info)
{
    const std::string_view syntax = info.syntax;
    return syntax.substr(0,
                         syntax.find_first_of("ABCDEFGHIJKLMNOPQRSTUVWXYZ"));
}

} // namespace

std::optional<FaultSpec>
FaultSpec::parse(const std::string &spec, std::string *error)
{
    FaultSpec out;
    size_t pos = 0;
    while (pos < spec.size()) {
        size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string clause = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (clause.empty())
            return parseFail(error, "empty fault clause");

        // The keyword is the clause's leading run of lowercase letters.
        const auto *info = registry::find(
            faultClauseTable(),
            std::string_view(clause).substr(
                0, clause.find_first_not_of("abcdefghijklmnopqrstuvwxyz")));
        if (!info || !clause.starts_with(clauseHead(*info))) {
            return parseFail(error,
                             "unknown fault clause '" + clause + "' (" +
                                 registry::join(faultClauseTable(),
                                                clauseHead) +
                                 ")");
        }
        const char *p = clause.c_str() + clauseHead(*info).size();
        switch (info->clause) {
          case FaultClause::Stuck: {
            StuckCell cell;
            uint64_t bank = 0, row = 0, col = 0, bit = 0, value = 0;
            if (!parseU64(p, bank, 0xFFFF) || *p++ != '.' ||
                !parseU64(p, row, UINT32_MAX) || *p++ != '.' ||
                !parseU64(p, col, UINT32_MAX) || *p++ != '.' ||
                !parseU64(p, bit, 63) || *p++ != '=' ||
                !parseU64(p, value, 1) || *p != '\0') {
                return parseFail(error,
                                 "bad stuck clause '" + clause +
                                     "' (stuck@B.R.C.BIT=V)");
            }
            cell.bank = BankId(bank);
            cell.row = RowAddr(row);
            cell.col = ColAddr(col);
            cell.bit = uint32_t(bit);
            cell.value = value != 0;
            out.stuck.push_back(cell);
            break;
          }
          case FaultClause::Flip:
            if (!parseRate(p, out.flipRate) || *p != '\0')
                return parseFail(error, "bad flip rate in '" + clause +
                                            "' (flip:RATE in [0,1])");
            break;
          case FaultClause::Drop:
            if (!parseRate(p, out.dropRate) || *p != '\0')
                return parseFail(error, "bad drop rate in '" + clause +
                                            "' (drop:RATE in [0,1])");
            break;
          case FaultClause::Die:
            if (!parseU64(p, out.dieAfterCommands) || *p != '\0' ||
                out.dieAfterCommands == 0) {
                return parseFail(error, "bad die clause '" + clause +
                                            "' (die:cmd=N, N > 0)");
            }
            break;
          case FaultClause::Seed:
            if (!parseU64(p, out.seed) || *p != '\0')
                return parseFail(error,
                                 "bad seed in '" + clause + "'");
            break;
        }
    }
    return out;
}

FaultyDevice::FaultyDevice(Device &inner, FaultSpec spec)
    : inner_(&inner), spec_(std::move(spec))
{
    open_row_.resize(inner_->config().numBanks);
    beginShard(0, 1);
}

FaultyDevice::FaultyDevice(std::unique_ptr<Device> inner, FaultSpec spec)
    : inner_(inner.get()), owned_(std::move(inner)), spec_(std::move(spec))
{
    open_row_.resize(inner_->config().numBanks);
    beginShard(0, 1);
}

const DeviceConfig &
FaultyDevice::config() const
{
    return inner_->config();
}

void
FaultyDevice::beginShard(uint64_t shard, uint32_t attempt)
{
    stream_key_ = hashCombine(hashCombine(spec_.seed, shard), attempt);
    stream_commands_ = 0;
}

void
FaultyDevice::setMetrics(obs::MetricsRegistry *metrics)
{
    if (!metrics) {
        flip_counter_ = stuck_counter_ = drop_counter_ = dead_counter_ =
            nullptr;
        return;
    }
    flip_counter_ = &metrics->counter("faults.injected.flip");
    stuck_counter_ = &metrics->counter("faults.injected.stuck");
    drop_counter_ = &metrics->counter("faults.injected.drop");
    dead_counter_ = &metrics->counter("faults.device.dead");
}

void
FaultyDevice::countFlip(uint64_t n)
{
    counts_.flips += n;
    if (flip_counter_)
        flip_counter_->add(n);
}

void
FaultyDevice::countStuck(uint64_t n)
{
    counts_.stuck += n;
    if (stuck_counter_)
        stuck_counter_->add(n);
}

uint64_t
FaultyDevice::onCommand()
{
    if (dead_)
        throw DeviceDeadError("device is dead (die:cmd=" +
                              std::to_string(spec_.dieAfterCommands) +
                              " reached)");
    const uint64_t cmd_seq = stream_commands_;
    ++stream_commands_;
    ++lifetime_commands_;
    if (spec_.dieAfterCommands > 0 &&
        lifetime_commands_ > spec_.dieAfterCommands) {
        dead_ = true;
        counts_.deaths = 1;
        if (dead_counter_ && dead_counter_->value == 0)
            dead_counter_->add(1);
        throw DeviceDeadError(
            "device died after " +
            std::to_string(spec_.dieAfterCommands) + " commands");
    }
    if (spec_.dropRate > 0.0) {
        if (hashUniform(hashCombine(stream_key_, kDropTag), cmd_seq) <
            spec_.dropRate) {
            ++counts_.drops;
            if (drop_counter_)
                drop_counter_->add(1);
            throw TransientFaultError("command dropped (injected)");
        }
    }
    return cmd_seq;
}

uint64_t
FaultyDevice::corruptRead(BankId b, ColAddr col, uint64_t data,
                          uint64_t cmd_seq)
{
    if (spec_.flipRate > 0.0) {
        const uint64_t key = hashCombine(stream_key_, kFlipTag);
        const uint32_t bits = inner_->config().rdDataBits;
        for (uint32_t i = 0; i < bits; ++i) {
            if (hashUniform(key, hashCombine(cmd_seq, i)) <
                spec_.flipRate) {
                data ^= 1ULL << i;
                countFlip(1);
            }
        }
    }
    if (!spec_.stuck.empty() && b < open_row_.size() && open_row_[b]) {
        const RowAddr row = *open_row_[b];
        for (const auto &cell : spec_.stuck) {
            if (cell.bank != b || cell.row != row || cell.col != col)
                continue;
            const uint64_t mask = 1ULL << cell.bit;
            const uint64_t forced =
                cell.value ? (data | mask) : (data & ~mask);
            if (forced != data) {
                data = forced;
                countStuck(1);
            }
        }
    }
    return data;
}

void
FaultyDevice::act(BankId b, RowAddr row, NanoTime now)
{
    onCommand();
    inner_->act(b, row, now);
    // Mirror the chip FSM: ACT to an already-open bank is a recorded
    // violation that leaves the open row unchanged.
    if (b < open_row_.size() && !open_row_[b])
        open_row_[b] = row;
}

void
FaultyDevice::pre(BankId b, NanoTime now)
{
    onCommand();
    inner_->pre(b, now);
    if (b < open_row_.size())
        open_row_[b].reset();
}

uint64_t
FaultyDevice::read(BankId b, ColAddr col, NanoTime now)
{
    const uint64_t cmd_seq = onCommand();
    return corruptRead(b, col, inner_->read(b, col, now), cmd_seq);
}

void
FaultyDevice::write(BankId b, ColAddr col, uint64_t data, NanoTime now)
{
    onCommand();
    inner_->write(b, col, data, now);
}

void
FaultyDevice::refresh(NanoTime now)
{
    onCommand();
    inner_->refresh(now);
}

bool
FaultyDevice::faultFree(uint64_t commands) const
{
    // A dead device has counted one command past its limit, so the
    // death arithmetic also refuses every train it is handed.
    if (spec_.dieAfterCommands > 0 &&
        lifetime_commands_ + commands > spec_.dieAfterCommands)
        return false;
    if (spec_.dropRate > 0.0) {
        const uint64_t key = hashCombine(stream_key_, kDropTag);
        for (uint64_t j = 0; j < commands; ++j) {
            if (hashUniform(key, stream_commands_ + j) < spec_.dropRate)
                return false;
        }
    }
    return true;
}

void
FaultyDevice::actMany(const ActTrain &train)
{
    const uint64_t total = 2 * train.count;
    if (faultFree(total)) {
        stream_commands_ += total;
        lifetime_commands_ += total;
        inner_->actMany(train);
        // Every train ends on a PRE.
        if (total > 0 && train.bank < open_row_.size())
            open_row_[train.bank].reset();
        return;
    }
    // A fault lands inside the train: issue it command by command,
    // exactly as step-wise execution does, until onCommand() raises it.
    uint64_t done = 0;
    try {
        for (; done < total; ++done) {
            if (done % 2 == 0)
                act(train.bank, train.row, train.actNs(done / 2));
            else
                pre(train.bank, train.preNs(done / 2));
        }
    } catch (FaultError &e) {
        e.trainCommandsDone = done;
        throw;
    }
}

uint64_t
FaultyDevice::violationCount() const
{
    return inner_->violationCount();
}

std::vector<TimingViolation>
FaultyDevice::violationLog() const
{
    return inner_->violationLog();
}

uint32_t
FaultyDevice::refreshAggressorNeighbors(BankId b, RowAddr row,
                                        NanoTime now)
{
    onCommand();
    return inner_->refreshAggressorNeighbors(b, row, now);
}

} // namespace dram
} // namespace dramscope
