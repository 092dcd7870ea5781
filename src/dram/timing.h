/**
 * @file
 * The rank's command-timing rules in integer picoseconds: the one
 * engine behind mc::schedule, which issues every command at its
 * earliest legal time, and bender::lint, which checks each command
 * against the same bounds.
 *
 * Queries return the first time a rule allows a command (Ramulator's
 * check/get_next); applyAct and applyPre record an issued command
 * (its update).  Like dram::Chip, the engine drops an ACT to an open
 * bank and a PRE to a precharged bank: neither changes any state, so
 * a dropped ACT restarts no clock and enters neither tRRD nor tFAW.
 */

#ifndef DRAMSCOPE_DRAM_TIMING_H
#define DRAMSCOPE_DRAM_TIMING_H

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "dram/config.h"

namespace dramscope {
namespace dram {

/** Nanoseconds to picoseconds, rounded to the nearest: exact for any
 *  value given to the picosecond, as every preset's timing is. */
inline int64_t
psFromNs(double ns)
{
    return int64_t(std::llround(ns * 1000.0));
}

/** @p ns rounded by psFromNs, as text: a whole number of nanoseconds
 *  without a fraction ("200"), any other value to the picosecond
 *  ("2.500"). */
inline std::string
nsText(double ns)
{
    const int64_t ps = psFromNs(ns);
    char buf[32];
    if (ps % 1000 == 0)
        std::snprintf(buf, sizeof buf, "%lld", (long long)(ps / 1000));
    else
        std::snprintf(buf, sizeof buf, "%.3f", double(ps) / 1000.0);
    return buf;
}

/** TimingParams in picoseconds plus the rank's command-timing state. */
class TimingRules
{
  public:
    TimingRules(const TimingParams &tm, uint32_t banks)
        : tck(psFromNs(tm.tCkNs)), trcd(psFromNs(tm.tRcdNs)),
          tras(psFromNs(tm.tRasNs)), trp(psFromNs(tm.tRpNs)),
          trc(psFromNs(tm.tRcNs())), trrd(psFromNs(tm.tRrdNs)),
          tfaw(psFromNs(tm.tFawNs)), trfc(psFromNs(tm.tRfcNs)),
          trefi(psFromNs(tm.tRefiNs)), banks_(banks)
    {
    }

    const int64_t tck, trcd, tras, trp, trc, trrd, tfaw, trfc, trefi;

    /** True while bank @p b holds an open row. */
    bool open(uint32_t b) const { return banks_[b].open; }

    /// @name The rules bounding an ACT to a precharged bank.
    /// @{
    int64_t trpBound(uint32_t b) const { return banks_[b].lastPre + trp; }
    int64_t trcBound(uint32_t b) const { return banks_[b].lastAct + trc; }
    int64_t trrdBound() const { return last_act_any_ + trrd; }
    int64_t tfawBound() const { return faw_[faw_oldest_] + tfaw; }
    /// @}

    /** The first legal ACT to precharged bank @p b: the latest of
     *  the four bounds above. */
    int64_t
    earliestAct(uint32_t b) const
    {
        return std::max({trpBound(b), trcBound(b), trrdBound(), tfawBound()});
    }

    /** tRAS: the first legal PRE of open bank @p b. */
    int64_t earliestPre(uint32_t b) const { return banks_[b].lastAct + tras; }

    /** tRCD: the first legal RD or WR to open bank @p b. */
    int64_t earliestRw(uint32_t b) const { return banks_[b].lastAct + trcd; }

    /** Records an ACT at @p t, or drops it when bank @p b is open. */
    void
    applyAct(uint32_t b, int64_t t)
    {
        Bank &bank = banks_[b];
        if (bank.open)
            return;
        bank.open = true;
        bank.lastAct = t;
        last_act_any_ = t;
        faw_[faw_oldest_] = t;
        faw_oldest_ = (faw_oldest_ + 1) % faw_.size();
    }

    /** Records a PRE at @p t, or drops it when bank @p b is closed. */
    void
    applyPre(uint32_t b, int64_t t)
    {
        Bank &bank = banks_[b];
        if (!bank.open)
            return;
        bank.open = false;
        bank.lastPre = t;
    }

    /** Moves every stamp at or after @p from by @p by: the linter's
     *  fast-forward over identical loop iterations. */
    void
    shift(int64_t from, int64_t by)
    {
        const auto move = [&](int64_t &ts) { ts += ts >= from ? by : 0; };
        for (auto &bank : banks_) {
            move(bank.lastAct);
            move(bank.lastPre);
        }
        move(last_act_any_);
        for (auto &ts : faw_)
            move(ts);
    }

  private:
    /** Stamp of a command never issued: its bounds lie far in the
     *  past, yet adding any timing value cannot overflow. */
    static constexpr int64_t kNone = std::numeric_limits<int64_t>::min() / 4;

    struct Bank
    {
        bool open = false;
        int64_t lastAct = kNone;
        int64_t lastPre = kNone;
    };

    std::vector<Bank> banks_;
    int64_t last_act_any_ = kNone;
    std::array<int64_t, 4> faw_{kNone, kNone, kNone, kNone};
    size_t faw_oldest_ = 0;  //!< Ring slot of the fourth-latest ACT.
};

} // namespace dram
} // namespace dramscope

#endif // DRAMSCOPE_DRAM_TIMING_H
