/**
 * @file
 * Bank physics implementation.
 */

#include "dram/bank.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/log.h"
#include "util/rng.h"

namespace dramscope {
namespace dram {

namespace {

/** Hash salts separating the independent per-cell random streams. */
constexpr uint64_t kSaltHammer = 0x68616d6dULL;
constexpr uint64_t kSaltPress = 0x70726573ULL;
constexpr uint64_t kSaltRetention = 0x72657465ULL;
constexpr uint64_t kSaltAnalyticHammer = 0x616e6168ULL;
constexpr uint64_t kSaltAnalyticPress = 0x616e6170ULL;

uint64_t
cellKey(BankId bank, RowAddr row, BitlineIdx bl, uint64_t salt)
{
    return hashCombine(hashCombine(uint64_t(bank) << 32 | row, bl), salt);
}

} // namespace

Bank::Bank(const DeviceConfig &cfg, const SubarrayMap &map, BankId id)
    : cfg_(cfg), map_(map), id_(id)
{
    const auto &dp = cfg_.disturb;
    tempDoseScale_ = std::exp2((cfg_.temperatureC - dp.referenceTempC) /
                               dp.tempDoubleC);
}

RowState &
Bank::rowState(RowAddr row, NanoTime now)
{
    panicIf(row >= cfg_.rowsPerBank, "Bank: row out of range");
    auto it = rows_.find(row);
    if (it == rows_.end()) {
        if (restored_.empty()) {
            pending_ = BitVec(cfg_.rowsPerBank);
            restored_ = BitVec(cfg_.rowsPerBank);
        }
        RowState rs;
        rs.charge = BitVec(cfg_.rowBits, false);  // Power-up: discharged.
        it = rows_.emplace(row, std::move(rs)).first;
        noteRestore(row, it->second, now);
    }
    return it->second;
}

void
Bank::noteRestore(RowAddr row, RowState &rs, NanoTime now)
{
    rs.lastRestoreNs = now;
    restored_.set(row, true);
    oldestRestoreNs_ = std::min(oldestRestoreNs_, now);
}

double
Bank::threshold(RowAddr row, BitlineIdx bl, AibMechanism mech) const
{
    const auto &dp = cfg_.disturb;
    const uint64_t salt =
        mech == AibMechanism::RowHammer ? kSaltHammer : kSaltPress;
    const double u =
        hashUniform(cfg_.variationSeed, cellKey(id_, row, bl, salt));
    return dp.thresholdMin + u * (dp.thresholdMax - dp.thresholdMin);
}

double
Bank::retentionNs(RowAddr row, BitlineIdx bl) const
{
    const auto &rp = cfg_.retention;
    const double median_ms =
        rp.medianRetentionMs *
        std::exp2((cfg_.disturb.referenceTempC - cfg_.temperatureC) /
                  rp.tempHalveC);
    const double mu = std::log(median_ms * 1.0e6);
    return hashLognormal(cfg_.variationSeed,
                         cellKey(id_, row, bl, kSaltRetention), mu,
                         rp.sigmaLog);
}

bool
Bank::sampleFlip(RowAddr row, BitlineIdx bl, double dose, uint64_t salt,
                 uint64_t epoch) const
{
    const auto &dp = cfg_.disturb;
    if (dose < dp.thresholdMin)
        return false;  // p = 0: no threshold in the population is met.
    const double p =
        std::min(1.0, (dose - dp.thresholdMin) /
                          (dp.thresholdMax - dp.thresholdMin));
    const double u = hashUniform(
        cfg_.variationSeed, hashCombine(cellKey(id_, row, bl, salt), epoch));
    // The exact rule flips iff u_cell <= p, u_cell in (0, 1]; the
    // sampled draw uses the same comparison on a fresh stream.
    return u <= p;
}

double
Bank::patternFactor(const BitVec &vic, const BitVec *aggr, BitlineIdx bl,
                    bool victim_charged) const
{
    const auto &dp = cfg_.disturb;
    const int v = victim_charged ? 1 : 0;
    const size_t n = vic.size();
    double f = 1.0;

    // Peripheral circuits (local row decoders, sub-WL drivers)
    // isolate MATs from each other, so horizontal influence never
    // crosses a MAT boundary (SS IV-A).
    const uint32_t mat = bl / cfg_.matWidth;
    auto same_mat = [&](size_t idx) {
        return idx / cfg_.matWidth == mat;
    };

    // Horizontally adjacent victim cells holding the opposite value
    // strengthen the disturbance, distance two more than distance one
    // (O11).  Per-side sqrt so both sides give the full paper factor.
    const double d_factor[2] = {dp.vicDist1Opposite[v],
                                dp.vicDist2Opposite[v]};
    for (int d = 1; d <= 2; ++d) {
        const double side = std::sqrt(d_factor[d - 1]);
        if (bl >= BitlineIdx(d) && same_mat(bl - d) &&
            vic.get(bl - d) != victim_charged) {
            f *= side;
        }
        if (bl + d < n && same_mat(bl + d) &&
            vic.get(bl + d) != victim_charged) {
            f *= side;
        }
    }

    // Aggressor cells matching the victim value weaken the
    // disturbance, strongest for the directly adjacent cell (O12).
    // For the offset cells the suppression needs the aggressor and
    // victim cells at that offset to *jointly* hold the victim's
    // charge state — a local charge environment that absorbs the
    // migrating electrons.  This reproduces Figure 14b (solid victim:
    // the joint condition reduces to the aggressor cell's value),
    // keeps O13's solid-opposite aggressor unsuppressed, and lets the
    // vertically-complementary 0x33/0xCC pattern reach the worst-case
    // BER of Figure 16 instead of being suppressed.
    auto aggr_bit = [&](size_t idx) {
        return aggr ? aggr->get(idx) : false;
    };
    if (aggr_bit(bl) == victim_charged)
        f *= dp.aggr0Same[v];
    const double a_factor[2] = {dp.aggr1Same[v], dp.aggr2Same[v]};
    for (int d = 1; d <= 2; ++d) {
        const double side = std::sqrt(a_factor[d - 1]);
        if (bl >= BitlineIdx(d) && same_mat(bl - d) &&
            aggr_bit(bl - d) == victim_charged &&
            vic.get(bl - d) == victim_charged) {
            f *= side;
        }
        if (bl + d < n && same_mat(bl + d) &&
            aggr_bit(bl + d) == victim_charged &&
            vic.get(bl + d) == victim_charged) {
            f *= side;
        }
    }

    return f;
}

void
Bank::commitDisturb(RowAddr row, RowState &rs, bool analytic)
{
    const auto &dp = cfg_.disturb;
    const double pend_h = rs.pendHammer[0] + rs.pendHammer[1];
    const double pend_p = rs.pendPressNs[0] + rs.pendPressNs[1];
    if (pend_h == 0.0 && pend_p == 0.0)
        return;

    // Small analytic commits replay the exact threshold comparison:
    // sampling only pays off (and only loses bit-exactness) once the
    // dose aggregates enough activations.
    const bool sample = analytic && pend_h >= kAnalyticSampleMinActs;

    // Upper bound of the total per-cell rate factor, for the cheap
    // early-out when the dose cannot reach the smallest threshold.
    const double max_vic =
        std::max(dp.vicDist1Opposite[0], dp.vicDist1Opposite[1]) *
        std::max(dp.vicDist2Opposite[0], dp.vicDist2Opposite[1]);
    const double bound = std::max(1.0, max_vic) * tempDoseScale_;
    const double max_dose_h = pend_h * dp.hammerBase * bound;
    const double max_dose_p = pend_p * dp.pressBase * bound;
    if (max_dose_h < dp.thresholdMin * dp.cutoffSlack &&
        max_dose_p < dp.thresholdMin * dp.cutoffSlack) {
        rs.pendHammer[0] = rs.pendHammer[1] = 0.0;
        rs.pendPressNs[0] = rs.pendPressNs[1] = 0.0;
        return;
    }

    const bool in_edge = map_.inEdgeSubarray(row);

    // Aggressor row charge, per direction (nullptr = all discharged).
    const BitVec *aggr[2] = {nullptr, nullptr};
    for (int dir = 0; dir < 2; ++dir) {
        if (rs.pendHammer[dir] == 0.0 && rs.pendPressNs[dir] == 0.0)
            continue;
        const auto nb = map_.neighbor(row, dir == 1);
        panicIf(!nb, "commitDisturb: pending dose without a neighbour");
        auto it = rows_.find(*nb);
        if (it != rows_.end())
            aggr[dir] = &it->second.charge;
    }

    // Rates must be computed against the row state the dose was
    // accumulated under; flipping cells in place while scanning would
    // let an early flip distort the pattern factors of later cells.
    const BitVec before = rs.charge;
    const size_t n = before.size();
    for (BitlineIdx bl = 0; bl < n; ++bl) {
        const bool charged = before.get(bl);
        double dose_h = 0.0;
        double dose_p = 0.0;
        for (int dir = 0; dir < 2; ++dir) {
            if (rs.pendHammer[dir] == 0.0 && rs.pendPressNs[dir] == 0.0)
                continue;
            const GateType gate = gateType(row, bl, dir == 1);

            // RowHammer: a charged victim is susceptible through its
            // neighboring gate, a discharged one through its passing
            // gate; the off gate keeps a small leak (O8/O9/O10).
            const GateType h_gate = charged ? GateType::Neighboring
                                            : GateType::Passing;
            const double h_gate_f =
                gate == h_gate ? 1.0 : dp.offGateLeak;

            // RowPress: only charged victims flip, through the
            // opposite gate relation to RowHammer (O7, footnote 7).
            double p_gate_f = 0.0;
            if (charged) {
                p_gate_f =
                    gate == GateType::Passing ? 1.0 : dp.offGateLeak;
            }

            double pat = patternFactor(before, aggr[dir], bl, charged);
            if (in_edge) {
                const bool a0 =
                    aggr[dir] ? aggr[dir]->get(bl) : false;
                pat *= a0 ? dp.edgeFactorAggrCharged
                          : dp.edgeFactorAggrDischarged;
            }
            pat *= tempDoseScale_;

            dose_h += rs.pendHammer[dir] * dp.hammerBase * h_gate_f * pat;
            dose_p += rs.pendPressNs[dir] * dp.pressBase * p_gate_f * pat;
        }
        const bool flip_h =
            sample ? sampleFlip(row, bl, dose_h, kSaltAnalyticHammer,
                                rs.analyticEpoch)
                   : dose_h >= threshold(row, bl, AibMechanism::RowHammer);
        const bool flip_p =
            sample ? sampleFlip(row, bl, dose_p, kSaltAnalyticPress,
                                rs.analyticEpoch)
                   : dose_p >= threshold(row, bl, AibMechanism::RowPress);
        if (flip_h || flip_p) {
            rs.charge.flip(bl);
            ++stats_.disturbFlips;
        }
    }
    if (sample)
        ++rs.analyticEpoch;
    rs.pendHammer[0] = rs.pendHammer[1] = 0.0;
    rs.pendPressNs[0] = rs.pendPressNs[1] = 0.0;
}

void
Bank::commitRetention(RowAddr row, RowState &rs, NanoTime now)
{
    const double min_ns = cfg_.retention.minEvalElapsedMs * 1.0e6;
    const double elapsed_ns = double(now - restoreNs(row, rs));
    if (elapsed_ns < min_ns)
        return;
    // The scan is monotone in elapsed time: re-running it within the
    // evaluation window cannot find new decays.
    if (double(now - rs.lastRetentionScanNs) < min_ns)
        return;
    rs.lastRetentionScanNs = now;
    const size_t n = rs.charge.size();
    for (BitlineIdx bl = 0; bl < n; ++bl) {
        if (!rs.charge.get(bl))
            continue;  // Leakage only discharges.
        if (retentionNs(row, bl) < elapsed_ns) {
            rs.charge.set(bl, false);
            ++stats_.retentionFlips;
        }
    }
}

void
Bank::restoreRow(RowAddr row, NanoTime now)
{
    RowState &rs = rowState(row, now);
    commitRetention(row, rs, now);
    commitDisturb(row, rs);
    noteRestore(row, rs, now);
}

void
Bank::commitRow(RowAddr row, NanoTime now)
{
    auto it = rows_.find(row);
    if (it == rows_.end())
        return;  // Untouched rows have nothing pending.
    commitRetention(row, it->second, now);
    commitDisturb(row, it->second);
}

void
Bank::registerAggressorDwell(RowAddr aggressor, double act_count,
                             double open_ns, NanoTime now)
{
    for (int dir = 0; dir < 2; ++dir) {
        const auto victim = map_.neighbor(aggressor, dir == 1);
        if (!victim)
            continue;
        // For the victim below the aggressor, the aggressor is its
        // upper neighbour (pending index 1) and vice versa.
        const int pend_idx = (dir == 1) ? 0 : 1;
        RowState &vs = rowState(*victim, now);
        pending_.set(*victim, true);
        vs.pendHammer[pend_idx] += act_count;
        // Only dwell time beyond the onset stresses the victim the
        // RowPress way; ordinary RowHammer dwells contribute none.
        const double press_ns =
            std::max(0.0, open_ns - cfg_.disturb.pressOnsetNs);
        vs.pendPressNs[pend_idx] += act_count * press_ns;
    }
}

void
Bank::applyAggregateDose(RowAddr aggressor, double act_count,
                         double open_ns, NanoTime now)
{
    registerAggressorDwell(aggressor, act_count, open_ns, now);
    // The data feeding the dose (victim and aggressor charge) cannot
    // change between the train and the next barrier — barriers sit
    // exactly where data changes — so committing here evaluates the
    // same dose the deferred barrier would have.  Retention is not
    // committed: its clock keeps running to the next barrier.
    for (int dir = 0; dir < 2; ++dir) {
        const auto victim = map_.neighbor(aggressor, dir == 1);
        if (!victim)
            continue;
        commitDisturb(*victim, rowState(*victim, now), /*analytic=*/true);
    }
}

void
Bank::markRestored(RowAddr row, NanoTime now)
{
    noteRestore(row, rowState(row, now), now);
}

bool
Bank::applyRowCopy(RowAddr src, RowAddr dst, NanoTime now)
{
    const CopyRelation rel = map_.copyRelation(src, dst);
    if (rel == CopyRelation::None || src == dst)
        return false;

    // Barriers: the source must be evaluated before we read it, and
    // the destination plus its AIB neighbours before its data change.
    commitRow(src, now);
    commitRow(dst, now);
    for (int dir = 0; dir < 2; ++dir) {
        if (auto nb = map_.neighbor(dst, dir == 1))
            commitRow(*nb, now);
    }

    RowState &ss = rowState(src, now);
    // Copy the source charge out first: dst materialization may
    // rehash the map and invalidate references.
    const BitVec src_charge = ss.charge;
    RowState &ds = rowState(dst, now);
    const size_t n = src_charge.size();

    switch (rel) {
      case CopyRelation::SameSubarray:
        // Both stripes hold the source row: full, non-inverted copy.
        ds.charge = src_charge;
        break;
      case CopyRelation::DstAbove:
        // Shared stripe holds the source's odd bitlines; the
        // destination's even bitlines sit on the complementary sense
        // node, so they receive inverted charge.
        for (size_t m = 0; 2 * m + 1 < n; ++m)
            ds.charge.set(2 * m, !src_charge.get(2 * m + 1));
        break;
      case CopyRelation::DstBelow:
        for (size_t m = 0; 2 * m + 1 < n; ++m)
            ds.charge.set(2 * m + 1, !src_charge.get(2 * m));
        break;
      case CopyRelation::EdgePair:
        // The section's edge stripe serves the bottom-edge subarray's
        // even bitlines and the top-edge subarray's odd bitlines.
        if (map_.subarrayOf(dst).topEdge) {
            for (size_t m = 0; 2 * m + 1 < n; ++m)
                ds.charge.set(2 * m + 1, !src_charge.get(2 * m));
        } else {
            for (size_t m = 0; 2 * m + 1 < n; ++m)
                ds.charge.set(2 * m, !src_charge.get(2 * m + 1));
        }
        break;
      case CopyRelation::None:
        break;
    }
    ++stats_.rowCopyEvents;
    return true;
}

BitVec &
Bank::chargeRef(RowAddr row, NanoTime now)
{
    return rowState(row, now).charge;
}

bool
Bank::dataToCharge(RowAddr row, bool data) const
{
    return map_.polarityOf(row) == CellPolarity::True ? data : !data;
}

bool
Bank::chargeToData(RowAddr row, bool charge) const
{
    return map_.polarityOf(row) == CellPolarity::True ? charge : !charge;
}

void
Bank::refreshAll(NanoTime now)
{
    if (rows_.empty())
        return;  // Nothing to restore, and no restore time to bound.
    // Commit in ascending row order: commitDisturb reads neighbour
    // charge, so hash-order iteration would let one row's flips leak
    // into an adjacent row's dose pattern in an order that differs
    // across standard libraries.
    const double min_ns = cfg_.retention.minEvalElapsedMs * 1.0e6;
    if (double(now - oldestRestoreNs_) < min_ns) {
        // No row's retention clock can have reached the evaluation
        // window, so commitRetention would skip every row; and a row
        // without pending dose has nothing to commit.
        pending_.forEachOne([&](size_t row) {
            commitDisturb(RowAddr(row), rows_.find(RowAddr(row))->second);
        });
    } else {
        std::vector<RowAddr> order;
        order.reserve(rows_.size());
        for (const auto &kv : rows_) // determinism-ok: keys sorted below
            order.push_back(kv.first);
        std::sort(order.begin(), order.end());
        for (const RowAddr row : order) {
            RowState &rs = rows_.find(row)->second;
            commitRetention(row, rs, now);
            commitDisturb(row, rs);
        }
    }
    // Every row is now restored at this REF.
    pending_.fill(false);
    restored_.fill(false);
    refreshNs_ = oldestRestoreNs_ = now;
}

} // namespace dram
} // namespace dramscope
