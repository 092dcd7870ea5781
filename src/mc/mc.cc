/**
 * @file
 * FR-FCFS scheduler implementation.  See mc/mc.h for the model.
 */

#include "mc/mc.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <limits>
#include <stdexcept>
#include <string>

#include "dram/timing.h"
#include "util/log.h"
#include "util/rng.h"

namespace dramscope {
namespace mc {

std::span<const PolicyInfo>
policyTable()
{
    static constexpr PolicyInfo kTable[] = {
#define X(name, id, knobs, summary) {RowPolicy::name, id, knobs, summary},
        DRAMSCOPE_MC_POLICIES(X)
#undef X
    };
    return kTable;
}

const char *
policyId(RowPolicy policy)
{
    return policyTable()[size_t(policy)].id;
}

AddrDecoder::AddrDecoder(const dram::DeviceConfig &cfg)
    : banks_(cfg.numBanks), columns_(cfg.columnsPerRow()),
      rows_(cfg.rowsPerBank), space_(cfg.addressSpace())
{
    fatalIf(space_ == 0, "AddrDecoder: empty address space");
}

AddrDecoder::Decoded
AddrDecoder::decode(uint64_t addr) const
{
    addr %= space_;
    Decoded d;
    d.col = dram::ColAddr(addr % columns_);
    d.bank = dram::BankId((addr / columns_) % banks_);
    d.row = dram::RowAddr(addr / (uint64_t(columns_) * banks_));
    return d;
}

uint64_t
AddrDecoder::encode(dram::BankId bank, dram::RowAddr row,
                    dram::ColAddr col) const
{
    return (uint64_t(row) * banks_ + bank) * columns_ + col;
}

double
ScheduleStats::rowHitRate() const
{
    return served() ? double(rowHits) / double(served()) : 0.0;
}

double
ScheduleStats::actRatePerUs() const
{
    return spanPs > 0 ? double(acts) * 1.0e6 / double(spanPs) : 0.0;
}

void
ScheduleStats::publish(obs::MetricsRegistry &m) const
{
    m.counter("mc.req.rd").add(reads);
    m.counter("mc.req.wr").add(writes);
    m.counter("mc.rowhit").add(rowHits);
    m.counter("mc.rowmiss").add(rowMisses);
    m.counter("mc.rowconflict").add(rowConflicts);
    m.counter("mc.act").add(acts);
    m.counter("mc.pre").add(pres);
    m.counter("mc.ref").add(refs);
    if (mitigation != core::MitigationKind::None) {
        m.counter("mc.mitigation.fired").add(mitFired);
        m.counter("mc.mitigation.cmds").add(mitCmds);
        m.counter("mc.mitigation.lost_rowhits").add(mitLostRowHits);
    }
    for (size_t b = 0; b < bankActs.size(); ++b) {
        const std::string tag = "mc.bank" + std::to_string(b);
        m.counter(tag + ".act").add(bankActs[b]);
        m.counter(tag + ".rowhit").add(bankHits[b]);
    }
    auto &hist = m.histogram("mc.exposure.row_acts", 64, 0.0, 4096.0);
    for (const auto sample : exposureSamples)
        hist.add(double(sample));
}

std::string
ScheduleStats::summary() const
{
    char buf[320];
    const int n = std::snprintf(
        buf, sizeof(buf),
        "reqs=%llu rd=%llu wr=%llu hit=%llu miss=%llu conflict=%llu "
        "act=%llu pre=%llu ref=%llu hit-rate=%.4f act-per-us=%.3f "
        "max-row-acts=%llu span-ns=%lld",
        (unsigned long long)served(), (unsigned long long)reads,
        (unsigned long long)writes, (unsigned long long)rowHits,
        (unsigned long long)rowMisses, (unsigned long long)rowConflicts,
        (unsigned long long)acts, (unsigned long long)pres,
        (unsigned long long)refs, rowHitRate(), actRatePerUs(),
        (unsigned long long)maxRowActsPerRefWindow,
        (long long)(spanPs / 1000));
    // Mitigation fields appear only when one is active, keeping the
    // None summary byte-identical to the unmitigated scheduler's.
    if (mitigation != core::MitigationKind::None && n > 0 &&
        size_t(n) < sizeof(buf)) {
        std::snprintf(buf + n, sizeof(buf) - size_t(n),
                      " mit-fired=%llu mit-cmds=%llu mit-lost-hits=%llu",
                      (unsigned long long)mitFired,
                      (unsigned long long)mitCmds,
                      (unsigned long long)mitLostRowHits);
    }
    return buf;
}

namespace {

/** Rounds an issue time up to a whole nanosecond.  The device's
 *  timing checker works on truncated-ns timestamps; whole-ns issue
 *  times make its deltas exact, so a stream the ps-resolution linter
 *  accepts is also violation-free on the device. */
int64_t
ceilNs(int64_t t)
{
    return (t + 999) / 1000 * 1000;
}

/** How deep into a bank queue the scheduler looks for row hits: the
 *  reorder window of a real controller's scheduler CAM.  Scanned
 *  incrementally (BankSched::hitScan), so a decision costs O(banks). */
constexpr size_t kHitWindow = 64;

constexpr int64_t kNever = std::numeric_limits<int64_t>::max();

/** What the chosen command is (tie-break rank: hits beat row ops). */
enum class Action : uint8_t
{
    Col,  //!< RD or WR of a queued request (row hit).
    Act,  //!< Open the row of the oldest queued request.
    Pre,  //!< Close the row (conflict or policy-forced).
};

struct Candidate
{
    int64_t t = kNever;
    Action action = Action::Col;
    uint32_t bank = 0;
    size_t req = std::numeric_limits<size_t>::max();  //!< Request idx.
    bool mit = false;  //!< Mitigation work (forced close / victim op).

    bool
    beats(const Candidate &o) const
    {
        if (t != o.t)
            return t < o.t;
        // Injected mitigation work wins ties: it models the hardware
        // draining a mandatory RFM/victim refresh before demand.
        if (mit != o.mit)
            return mit;
        if (action != o.action)
            return uint8_t(action) < uint8_t(o.action);
        if (req != o.req)
            return req < o.req;
        return bank < o.bank;
    }
};

struct BankSched
{
    std::deque<size_t> q;  //!< Request indices, arrival order.
    dram::RowAddr openRow = 0;
    /** Entries q[0, hitScan) miss the open row, so q[hitScan] is the
     *  window's first hit when hitScan is inside the window.  A demand
     *  ACT resets it; serving that hit erases q[hitScan], the only
     *  change to q, so the scan resumes where it stopped. */
    size_t hitScan = 0;
    int64_t lastUsePs = 0;        //!< Last ACT/RD/WR issue time.
    uint32_t hitsSinceAct = 0;    //!< Column commands this activation.
    bool conflictPre = false;     //!< Last close was a conflict close.

    /// @name Injected mitigation work (unused when mitigation=None).
    /// @{
    std::deque<dram::RowAddr> mitRows;  //!< Victim ACT..PRE cycles due.
    bool mitOpen = false;         //!< Open row is a mitigation victim.
    int64_t extraPs = 0;          //!< Post-sequence blocking (swaps).
    int64_t blockedUntil = 0;     //!< No ACT before this time.
    /// @}
};

} // namespace

ScheduleResult
schedule(const std::vector<Request> &reqs, const dram::DeviceConfig &cfg,
         const SchedulerOptions &opt)
{
    // Inputs no schedule exists for: a zero hit cap closes every row
    // before it serves a request, and times past the limits would
    // overflow the int64 ps clock.
    const auto reject = [](const std::string &why) {
        throw std::invalid_argument("mc::schedule: " + why);
    };
    if (opt.policy == RowPolicy::HitCap && opt.maxRowHits == 0)
        reject("maxRowHits must be at least 1 under the cap policy");
    if (!(opt.maxRowIdleNs >= 0.0 &&
          opt.maxRowIdleNs <= double(kMaxIntervalNs)))
        reject("maxRowIdleNs must be in [0, " +
               std::to_string(kMaxIntervalNs) + "]");
    if (opt.refreshIntervalNs > kMaxIntervalNs)
        reject("refreshIntervalNs must be at most " +
               std::to_string(kMaxIntervalNs));
    for (size_t i = 0; i < reqs.size(); ++i) {
        if (reqs[i].arrivalPs > kMaxArrivalPs)
            reject("request " + std::to_string(i) + " arrives at " +
                   std::to_string(reqs[i].arrivalPs) +
                   " ps, after the limit of " +
                   std::to_string(kMaxArrivalPs) + " ps");
    }

    const AddrDecoder dec(cfg);
    dram::TimingRules rules(cfg.timing, cfg.numBanks);
    const int64_t idle = dram::psFromNs(opt.maxRowIdleNs);
    const int64_t trefi = opt.refreshIntervalNs < 0
                              ? rules.trefi
                              : opt.refreshIntervalNs * 1000;

    // The active defense; nullptr for None keeps every mitigation
    // branch below dead and the emitted program byte-identical to the
    // unmitigated scheduler.
    const std::unique_ptr<core::Mitigation> mit =
        core::makeMitigation(opt.mitigation, cfg, opt.mitigationOptions);

    ScheduleResult out;
    auto &prog = out.program;
    auto &st = out.stats;
    st.mitigation = opt.mitigation;
    st.bankHits.assign(cfg.numBanks, 0);
    st.bankMisses.assign(cfg.numBanks, 0);
    st.bankConflicts.assign(cfg.numBanks, 0);
    st.bankActs.assign(cfg.numBanks, 0);

    // Arrival order; stable so equal arrivals keep stream order.
    std::vector<size_t> order(reqs.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return reqs[a].arrivalPs < reqs[b].arrivalPs;
    });

    // Decode once; queue per bank in arrival order.  `pos` ranks a
    // request by arrival for the FCFS tie-break.
    std::vector<AddrDecoder::Decoded> where(reqs.size());
    std::vector<size_t> pos(reqs.size());
    std::vector<BankSched> banks(cfg.numBanks);
    for (size_t k = 0; k < order.size(); ++k) {
        const size_t r = order[k];
        where[r] = dec.decode(reqs[r].addr);
        pos[r] = k;
        banks[where[r].bank].q.push_back(r);
    }

    int64_t clock = 0;
    int64_t nextRef = trefi > 0 ? trefi : kNever;
    // One (bank << 32 | row) key per demand ACT of this refresh window.
    std::vector<uint64_t> windowActs;
    size_t pending = reqs.size();

    const auto arrival = [&](size_t r) { return reqs[r].arrivalPs; };

    const auto advanceTo = [&](int64_t t) {
        if (t > clock) {
            prog.sleepPs(t - clock);
            clock = t;
        }
    };

    const auto earliestAct = [&](uint32_t bk) {
        return std::max({clock, banks[bk].blockedUntil,
                         rules.earliestAct(bk)});
    };

    const auto earliestPre = [&](uint32_t bk) {
        return std::max(clock, rules.earliestPre(bk));
    };

    /**
     * Drains the mitigation's pending sequences into per-bank work
     * queues and closes the exposure windows of the neutralized rows
     * (a victim refresh resets a row's accumulated disturbance).
     */
    const auto acceptSequences = [&]() {
        if (!mit)
            return;
        for (const auto &seq : mit->pendingCommands()) {
            ++st.mitFired;
            auto &b = banks[seq.bank];
            for (const auto r : seq.rows)
                b.mitRows.push_back(r);
            b.extraPs += seq.extraPs;
            for (const auto nr : seq.neutralized) {
                const uint64_t acts =
                    std::erase(windowActs, uint64_t(seq.bank) << 32 | nr);
                if (acts == 0)
                    continue;
                st.exposureSamples.push_back(acts);
                st.maxRowActsPerRefWindow =
                    std::max(st.maxRowActsPerRefWindow, acts);
            }
        }
    };

    /**
     * Demand ACT: resolves through the mitigation's indirection (row
     * swap), reports the logical activation, and accepts any newly
     * fired sequences.  @p for_mit issues a victim/migration cycle
     * instead: counted as a mitigation command, invisible to demand
     * stats and exposure windows.
     */
    const auto issueAct = [&](uint32_t bk, dram::RowAddr row,
                              bool for_mit) {
        auto &b = banks[bk];
        advanceTo(ceilNs(earliestAct(bk)));
        const dram::RowAddr phys =
            (!for_mit && mit) ? mit->resolve(dram::BankId(bk), row) : row;
        prog.act(dram::BankId(bk), phys);
        rules.applyAct(bk, clock);
        b.lastUsePs = clock;
        b.hitsSinceAct = 0;
        clock += rules.tck;
        if (for_mit) {
            b.mitOpen = true;
            ++st.mitCmds;
            return;
        }
        b.openRow = row;  // Hit detection stays on logical addresses.
        b.hitScan = 0;
        ++st.acts;
        ++st.bankActs[bk];
        windowActs.push_back(uint64_t(bk) << 32 | phys);
        if (mit) {
            mit->onActivate(dram::BankId(bk), row, 1);
            acceptSequences();
        }
    };

    const auto issuePre = [&](uint32_t bk, int64_t not_before,
                              bool conflict) {
        auto &b = banks[bk];
        advanceTo(ceilNs(std::max(not_before, earliestPre(bk))));
        prog.pre(dram::BankId(bk));
        rules.applyPre(bk, clock);
        clock += rules.tck;
        if (b.mitOpen) {
            // Closing a victim/migration cycle; once the bank's
            // sequence is drained, any data-burst cost blocks the
            // next activation.
            b.mitOpen = false;
            b.conflictPre = false;
            ++st.mitCmds;
            if (b.mitRows.empty() && b.extraPs > 0) {
                b.blockedUntil = clock + b.extraPs;
                b.extraPs = 0;
            }
            return;
        }
        b.conflictPre = conflict;
        ++st.pres;
    };

    /** Arrived hits on @p b's open row that a forced close discards. */
    const auto countLostHits = [&](const BankSched &b) {
        const size_t depth = std::min(b.q.size(), kHitWindow);
        for (size_t k = 0; k < depth; ++k) {
            const size_t r = b.q[k];
            if (where[r].row == b.openRow && arrival(r) <= clock)
                ++st.mitLostRowHits;
        }
    };

    /** True while any bank still owes mitigation commands. */
    const auto anyMitWork = [&]() {
        if (!mit)
            return false;
        for (const auto &b : banks)
            if (b.mitOpen || !b.mitRows.empty())
                return true;
        return false;
    };

    /** Closes every open bank (tRAS-ordered) — REF / end of stream. */
    const auto drainOpenBanks = [&]() {
        for (;;) {
            uint32_t best = cfg.numBanks;
            int64_t best_t = kNever;
            for (uint32_t bk = 0; bk < cfg.numBanks; ++bk) {
                if (!rules.open(bk))
                    continue;
                const int64_t t = ceilNs(earliestPre(bk));
                if (t < best_t) {
                    best_t = t;
                    best = bk;
                }
            }
            if (best == cfg.numBanks)
                return;
            issuePre(best, clock, false);
        }
    };

    /** One sample per (bank, row) key, in key order. */
    const auto closeExposureWindow = [&]() {
        std::sort(windowActs.begin(), windowActs.end());
        for (size_t i = 0; i < windowActs.size();) {
            size_t j = i + 1;
            while (j < windowActs.size() && windowActs[j] == windowActs[i])
                ++j;
            const uint64_t count = j - i;
            st.exposureSamples.push_back(count);
            st.maxRowActsPerRefWindow =
                std::max(st.maxRowActsPerRefWindow, count);
            i = j;
        }
        windowActs.clear();
    };

    /** Request index of @p b's first hit on its open row inside the
     *  scheduler window, or SIZE_MAX when the window holds none. */
    const auto firstHit = [&](BankSched &b) {
        const size_t depth = std::min(b.q.size(), kHitWindow);
        while (b.hitScan < depth && where[b.q[b.hitScan]].row != b.openRow)
            ++b.hitScan;
        return b.hitScan < depth ? b.q[b.hitScan] : SIZE_MAX;
    };

    while (pending > 0 || anyMitWork()) {
        // Per-bank best next command, then the global FR-FCFS pick.
        Candidate best;
        for (uint32_t bk = 0; bk < cfg.numBanks; ++bk) {
            auto &b = banks[bk];
            Candidate c;
            c.bank = bk;
            if (b.mitOpen) {
                // A victim/migration row is open: close it.
                c.action = Action::Pre;
                c.mit = true;
                c.t = ceilNs(earliestPre(bk));
            } else if (!b.mitRows.empty()) {
                // Mitigation work owns the bank until its sequence
                // drains: force the demand row closed, then cycle the
                // victims.
                c.mit = true;
                if (rules.open(bk)) {
                    c.action = Action::Pre;
                    c.t = ceilNs(earliestPre(bk));
                } else {
                    c.action = Action::Act;
                    c.t = ceilNs(earliestAct(bk));
                }
            } else if (!rules.open(bk)) {
                if (b.q.empty())
                    continue;
                const size_t head = b.q.front();
                c.action = Action::Act;
                c.req = pos[head];
                c.t = ceilNs(std::max(earliestAct(bk), arrival(head)));
            } else {
                // Oldest hit within the scheduler window; arrived
                // hits are ready, future ones are prefetch targets.
                // The queue is in arrival order, so its first hit is
                // the oldest one, and no later hit has arrived if this
                // one has not.
                const size_t hit_any = firstHit(b);
                const size_t hit_arrived =
                    hit_any != SIZE_MAX && arrival(hit_any) <= clock
                        ? hit_any
                        : SIZE_MAX;
                const bool cap_hit = opt.policy == RowPolicy::HitCap &&
                                     b.hitsSinceAct >= opt.maxRowHits;
                if (hit_arrived != SIZE_MAX && !cap_hit) {
                    c.action = Action::Col;
                    c.req = pos[hit_arrived];
                    c.t = ceilNs(std::max(clock, rules.earliestRw(bk)));
                } else if (cap_hit && hit_any != SIZE_MAX) {
                    // Hits pending but the cap is exhausted: force a
                    // close so the re-ACT restarts the hit budget.
                    c.action = Action::Pre;
                    c.req = pos[hit_any];
                    c.t = ceilNs(earliestPre(bk));
                } else {
                    // No ready hit.  A future hit can still be worth
                    // waiting for (open/timeout/cap), the oldest
                    // request forces a conflict close, and the policy
                    // may close on its own.
                    int64_t close_at = kNever;
                    size_t close_req = SIZE_MAX;
                    if (!b.q.empty() &&
                        where[b.q.front()].row != b.openRow &&
                        hit_any == SIZE_MAX) {
                        close_at = std::max(arrival(b.q.front()),
                                            earliestPre(bk));
                        close_req = b.q.front();
                    }
                    if (opt.policy == RowPolicy::Closed)
                        close_at = std::min(close_at, earliestPre(bk));
                    else if (opt.policy == RowPolicy::Timeout)
                        close_at =
                            std::min(close_at,
                                     std::max(b.lastUsePs + idle,
                                              earliestPre(bk)));
                    int64_t col_at = kNever;
                    if (hit_any != SIZE_MAX &&
                        opt.policy != RowPolicy::Closed) {
                        col_at = std::max(
                            {arrival(hit_any), clock, rules.earliestRw(bk)});
                    }
                    if (col_at <= close_at && col_at != kNever) {
                        c.action = Action::Col;
                        c.req = pos[hit_any];
                        c.t = ceilNs(col_at);
                    } else if (close_at != kNever) {
                        c.action = Action::Pre;
                        c.req = close_req == SIZE_MAX
                                    ? std::numeric_limits<size_t>::max()
                                    : pos[close_req];
                        c.t = ceilNs(close_at);
                    } else {
                        continue;  // Idle open bank; nothing to do.
                    }
                }
            }
            if (c.beats(best))
                best = c;
        }
        panicIf(best.t == kNever,
                "mc::schedule: pending requests but no candidate");

        // Auto-refresh preempts once its deadline is due before the
        // chosen command would issue.
        if (nextRef != kNever && nextRef <= best.t) {
            drainOpenBanks();
            advanceTo(ceilNs(std::max(clock, nextRef)));
            prog.ref();
            prog.sleepPs(rules.trfc);
            clock += rules.tck + rules.trfc;
            ++st.refs;
            nextRef += trefi;
            closeExposureWindow();
            if (mit) {
                // The refresh-window boundary decays the defense's
                // state in sync with the exposure bookkeeping.
                mit->onRefreshWindow();
                acceptSequences();
            }
            continue;
        }

        auto &b = banks[best.bank];
        switch (best.action) {
          case Action::Act: {
            if (best.mit) {
                const dram::RowAddr victim = b.mitRows.front();
                b.mitRows.pop_front();
                issueAct(best.bank, victim, /*for_mit=*/true);
                break;
            }
            const size_t head = b.q.front();
            advanceTo(ceilNs(std::max(earliestAct(best.bank), arrival(head))));
            issueAct(best.bank, where[head].row, /*for_mit=*/false);
            break;
          }
          case Action::Pre: {
            if (best.mit) {
                // Forced close for mitigation work: arrived hits on
                // the demand row are the tracker's collateral cost.
                if (!b.mitOpen)
                    countLostHits(b);
                issuePre(best.bank, clock, false);
                break;
            }
            const bool conflict =
                !b.q.empty() && where[b.q.front()].row != b.openRow;
            issuePre(best.bank, clock, conflict);
            break;
          }
          case Action::Col: {
            // Serve the picked request: always the window's first hit
            // (it may sit mid-queue).
            const size_t at = b.hitScan;
            panicIf(at >= b.q.size() || pos[b.q[at]] != best.req,
                    "mc::schedule: lost hit candidate");
            const size_t r = b.q[at];
            advanceTo(ceilNs(
                std::max({clock, rules.earliestRw(best.bank), arrival(r)})));
            const auto &w = where[r];
            if (reqs[r].type == ReqType::Read) {
                prog.rd(w.bank, w.col);
                ++st.reads;
            } else {
                prog.wr(w.bank, w.col, splitmix64(reqs[r].addr));
                ++st.writes;
            }
            // Row-buffer outcome: the first column command of an
            // activation inherits the reason the row was opened.
            if (b.hitsSinceAct == 0) {
                if (b.conflictPre) {
                    ++st.rowConflicts;
                    ++st.bankConflicts[best.bank];
                } else {
                    ++st.rowMisses;
                    ++st.bankMisses[best.bank];
                }
                b.conflictPre = false;
            } else {
                ++st.rowHits;
                ++st.bankHits[best.bank];
            }
            ++b.hitsSinceAct;
            b.lastUsePs = clock;
            clock += rules.tck;
            b.q.erase(b.q.begin() + long(at));
            --pending;
            break;
          }
        }
    }

    drainOpenBanks();
    closeExposureWindow();
    st.spanPs = clock;
    return out;
}

} // namespace mc
} // namespace dramscope
