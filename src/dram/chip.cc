/**
 * @file
 * Chip command FSM implementation.
 */

#include "dram/chip.h"

#include "util/log.h"

namespace dramscope {
namespace dram {

Chip::Chip(DeviceConfig cfg)
    : cfg_(std::move(cfg)),
      map_(std::make_unique<SubarrayMap>(cfg_)),
      swizzle_(cfg_)
{
    cfg_.validate();
    for (uint32_t b = 0; b < cfg_.numBanks; ++b)
        banks_.push_back(std::make_unique<Bank>(cfg_, *map_, BankId(b)));
    fsm_.resize(cfg_.numBanks);
}

Bank &
Chip::bank(BankId b)
{
    panicIf(b >= banks_.size(), "Chip::bank out of range");
    return *banks_[b];
}

RowAddr
Chip::toPhysical(RowAddr logical_row) const
{
    panicIf(logical_row >= cfg_.rowsPerBank, "row address out of range");
    return remapRow(cfg_.rowRemap, logical_row);
}

std::optional<RowAddr>
Chip::coupledPartner(RowAddr phys_row) const
{
    if (!cfg_.coupledRowDistance)
        return std::nullopt;
    // The distance is rowsPerBank / 2 (a power of two), so the pair
    // relation is an XOR with the distance.
    return phys_row ^ *cfg_.coupledRowDistance;
}

void
Chip::violate(const char *what, NanoTime now)
{
    ++violation_count_;
    if (violations_.size() < 1024)
        violations_.push_back({what, now});
}

uint64_t
Chip::wordlineCost(RowAddr phys_row) const
{
    // An edge-subarray access drives the tandem structure of the
    // paired edge subarray as well, doubling activation energy (O5,
    // SS VI-C).
    return map_->inEdgeSubarray(phys_row) ? 2 : 1;
}

void
Chip::act(BankId b, RowAddr logical_row, NanoTime now)
{
    BankFsm &f = fsm_.at(b);
    Bank &bk = *banks_[b];
    if (f.state == BankState::Open) {
        violate("ACT to open bank", now);
        return;
    }

    const RowAddr phys = toPhysical(logical_row);
    const auto partner = coupledPartner(phys);

    bk.restoreRow(phys, now);
    if (partner)
        bk.restoreRow(*partner, now);

    // Out-of-spec ACT-PRE-ACT: the bitlines still hold the previous
    // row, so its values charge-share into the new row (RowCopy).
    const double gap_ns = double(now - f.preTime);
    if (f.hasLastRow && gap_ns >= 0 &&
        gap_ns < cfg_.timing.rowCopyMaxGapNs) {
        violate("ACT within tRP (RowCopy)", now);
        bk.applyRowCopy(f.lastRow, phys, now);
        if (partner && f.lastHadPartner)
            bk.applyRowCopy(f.lastPartner, *partner, now);
    }

    f.state = BankState::Open;
    f.openRow = phys;
    f.hasPartner = partner.has_value();
    f.partnerRow = partner.value_or(0);
    f.actTime = now;
    f.wrBarrierDone = false;

    ++stats_.acts;
    stats_.wordlinesDriven += wordlineCost(phys);
    if (partner)
        stats_.wordlinesDriven += wordlineCost(*partner);
}

void
Chip::pre(BankId b, NanoTime now)
{
    BankFsm &f = fsm_.at(b);
    Bank &bk = *banks_[b];
    if (f.state != BankState::Open) {
        // Precharging an idle bank is a harmless NOP (PREA behaviour).
        ++stats_.pres;
        return;
    }
    const double dwell_ns = double(now - f.actTime);
    if (dwell_ns < cfg_.timing.tRasNs)
        violate("PRE within tRAS", now);

    bk.registerAggressorDwell(f.openRow, 1.0, dwell_ns, now);
    if (f.hasPartner)
        bk.registerAggressorDwell(f.partnerRow, 1.0, dwell_ns, now);

    f.hasLastRow = true;
    f.lastRow = f.openRow;
    f.lastHadPartner = f.hasPartner;
    f.lastPartner = f.partnerRow;
    f.preTime = now;
    f.state = BankState::Idle;
    ++stats_.pres;
}

uint64_t
Chip::read(BankId b, ColAddr col, NanoTime now)
{
    BankFsm &f = fsm_.at(b);
    Bank &bk = *banks_[b];
    if (f.state != BankState::Open) {
        violate("RD to closed bank", now);
        return 0;
    }
    if (double(now - f.actTime) < cfg_.timing.tRcdNs)
        violate("RD within tRCD", now);
    panicIf(col >= cfg_.columnsPerRow(), "RD: column out of range");

    const bool invert = !bk.chargeToData(f.openRow, true);
    const uint64_t charge = swizzle_.gather(bk.chargeRef(f.openRow, now), col);
    ++stats_.reads;
    return invert ? charge ^ lowBits(cfg_.rdDataBits) : charge;
}

void
Chip::write(BankId b, ColAddr col, uint64_t data, NanoTime now)
{
    BankFsm &f = fsm_.at(b);
    Bank &bk = *banks_[b];
    if (f.state != BankState::Open) {
        violate("WR to closed bank", now);
        return;
    }
    if (double(now - f.actTime) < cfg_.timing.tRcdNs)
        violate("WR within tRCD", now);
    panicIf(col >= cfg_.columnsPerRow(), "WR: column out of range");

    // Barrier: the open row's data is an input to the pending dose of
    // its AIB neighbours, so commit them before changing it.  While
    // the row stays open the bank cannot activate, so one barrier per
    // activation covers every write of the session.
    if (!f.wrBarrierDone) {
        for (int dir = 0; dir < 2; ++dir) {
            if (auto nb = map_->neighbor(f.openRow, dir == 1))
                bk.commitRow(*nb, now);
        }
        f.wrBarrierDone = true;
    }

    const bool invert = !bk.dataToCharge(f.openRow, true);
    swizzle_.scatter(bk.chargeRef(f.openRow, now), col,
                     invert ? ~data : data);
    ++stats_.writes;
}

void
Chip::refresh(NanoTime now)
{
    for (uint32_t b = 0; b < cfg_.numBanks; ++b) {
        if (fsm_[b].state != BankState::Idle)
            violate("REF with open bank", now);
    }
    for (auto &bk : banks_)
        bk->refreshAll(now);
    ++stats_.refs;
}

bool
Chip::trainBatchable(const ActTrain &t) const
{
    // Per-iteration dwell and gap are differences of truncated-ns
    // timestamps: they are only iteration-independent when the open
    // and period are whole nanoseconds (every in-tree kernel is).
    if (t.openPs % 1000 != 0 || t.periodPs % 1000 != 0)
        return false;
    // A period reaching the retention evaluation window would let
    // mid-train restores find decays the batched math skips.
    return t.periodNs() < cfg_.retention.minEvalElapsedMs * 1.0e6;
}

void
Chip::replayTrain(const ActTrain &t)
{
    for (uint64_t k = 0; k < t.count; ++k) {
        act(t.bank, t.row, t.actNs(k));
        pre(t.bank, t.preNs(k));
    }
}

void
Chip::actMany(const ActTrain &t)
{
    // The batched math starts from a precharged bank; a train entered
    // with the bank open replays, so its first ACT is the step-wise
    // violation and its first PRE closes the open row.
    if (t.count == 0 || fsm_.at(t.bank).state == BankState::Open ||
        !trainBatchable(t)) {
        replayTrain(t);
        return;
    }

    BankFsm &f = fsm_[t.bank];
    Bank &bk = *banks_[t.bank];
    const RowAddr phys = toPhysical(t.row);
    const auto partner = coupledPartner(phys);
    const NanoTime first_act = t.actNs(0);
    const NanoTime first_pre = t.preNs(0);
    const NanoTime last_act = t.lastActNs();
    const double dwell_ns = double(t.openPs / 1000);
    const double gap_ns = double((t.periodPs - t.openPs) / 1000);

    // First ACT: restore, then the boundary RowCopy check against
    // the previous PRE — the exact act() sequence.
    bk.restoreRow(phys, first_act);
    if (partner)
        bk.restoreRow(*partner, first_act);
    const double gap0_ns = double(first_act - f.preTime);
    if (f.hasLastRow && gap0_ns >= 0 &&
        gap0_ns < cfg_.timing.rowCopyMaxGapNs) {
        violate("ACT within tRP (RowCopy)", first_act);
        bk.applyRowCopy(f.lastRow, phys, first_act);
        if (partner && f.lastHadPartner)
            bk.applyRowCopy(f.lastPartner, *partner, first_act);
    }

    // Per-iteration violations keep step-wise order and timestamps.
    // A mid-train ACT inside the RowCopy gap re-activates the row the
    // bitlines already hold: applyRowCopy(r, r) transfers nothing, so
    // only the violation record remains.
    const bool pre_violates = dwell_ns < cfg_.timing.tRasNs;
    const bool act_violates = gap_ns < cfg_.timing.rowCopyMaxGapNs;
    if (pre_violates || act_violates) {
        for (uint64_t k = 0; k < t.count; ++k) {
            if (k > 0 && act_violates)
                violate("ACT within tRP (RowCopy)", t.actNs(k));
            if (pre_violates)
                violate("PRE within tRAS", t.preNs(k));
        }
    }

    // Victims materialize at the first PRE (where the step-wise
    // engine first registers a dwell); pendings are integer sums, so
    // one batched addition is exact.
    bk.registerAggressorDwell(phys, double(t.count), dwell_ns, first_pre);
    if (partner)
        bk.registerAggressorDwell(*partner, double(t.count), dwell_ns,
                                  first_pre);
    if (t.count > 1) {
        // Mid-train restores of the aggressor commit nothing (no
        // pending lands on a single-row train's own aggressor and the
        // retention window exceeds the period); only the final ACT's
        // restore timestamp survives.
        bk.markRestored(phys, last_act);
        if (partner)
            bk.markRestored(*partner, last_act);
    }

    // Leave every FSM field exactly where slot-by-slot execution
    // would: the last ACT wrote the open-row view, the last PRE
    // closed the bank.
    f.openRow = phys;
    f.hasPartner = partner.has_value();
    f.partnerRow = partner.value_or(0);
    f.actTime = last_act;
    f.wrBarrierDone = false;
    f.hasLastRow = true;
    f.lastRow = phys;
    f.lastHadPartner = partner.has_value();
    f.lastPartner = partner.value_or(0);
    f.preTime = t.lastPreNs();
    f.state = BankState::Idle;

    stats_.acts += t.count;
    stats_.pres += t.count;
    uint64_t per_act = wordlineCost(phys);
    if (partner)
        per_act += wordlineCost(*partner);
    stats_.wordlinesDriven += per_act * t.count;
}

uint32_t
Chip::refreshAggressorNeighbors(BankId b, RowAddr logical_row,
                                NanoTime now)
{
    // The device translates through its own remap and knows the
    // coupled relation — exactly why the paper favours in-DRAM
    // RFM/DRFM mitigation for coupled-row protection (SS VI-B).
    uint32_t restored = 0;
    auto restore_around = [&](RowAddr phys_row) {
        for (const bool upper : {false, true}) {
            if (const auto nb = map_->neighbor(phys_row, upper)) {
                bank(b).restoreRow(*nb, now);
                ++restored;
            }
        }
    };
    const RowAddr phys = toPhysical(logical_row);
    restore_around(phys);
    if (const auto partner = coupledPartner(phys))
        restore_around(*partner);
    return restored;
}

} // namespace dram
} // namespace dramscope
