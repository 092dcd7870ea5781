/**
 * @file
 * One DRAM bank: sparse charge-level row storage plus the lazy
 * activate-induced-disturbance and retention physics.
 *
 * Disturbance bookkeeping uses dose accumulation with evaluation
 * barriers: aggressor activity increments per-victim-row pending
 * counters, and flips are committed whenever the data feeding the
 * dose computation is about to change (a write to the victim or an
 * adjacent row), the victim row is restored (ACT/REF), or the row is
 * observed.  Between barriers the victim and aggressor data are
 * constant, so evaluating count * rate at the barrier is exact.
 */

#ifndef DRAMSCOPE_DRAM_BANK_H
#define DRAMSCOPE_DRAM_BANK_H

#include <array>
#include <limits>
#include <unordered_map>

#include "dram/config.h"
#include "dram/geometry.h"
#include "dram/types.h"
#include "util/bitvec.h"

namespace dramscope {
namespace dram {

/** Charge-level state and pending disturbance of one materialized row. */
struct RowState
{
    /**
     * Capacitor state per bitline: true = charged.  Empty while the
     * row has only received dose: every cell is then discharged, and
     * the vector is allocated on first need (a RD/WR, a RowCopy, or a
     * disturbance commit past its early-out).
     */
    BitVec charge;

    /**
     * Pending disturbance from the lower (index 0, row r-1) and
     * upper (index 1, row r+1) aggressor: ACT-PRE pair count and
     * accumulated aggressor open-row time.
     */
    double pendHammer[2] = {0.0, 0.0};
    double pendPressNs[2] = {0.0, 0.0};

    /**
     * Last time an ACT (or materialization) fully restored this row's
     * cells.  Stale once a REF follows it: Bank::restoreNs() says
     * which of the two restored the row last.
     */
    NanoTime lastRestoreNs = 0;

    /**
     * Last time the retention scan ran; re-scans within the minimum
     * evaluation window are redundant (the scan is monotone) and are
     * skipped to keep per-command barriers cheap.
     */
    NanoTime lastRetentionScanNs = 0;
};

/** Counters exposed for tests and the power side-channel analysis. */
struct BankStats
{
    uint64_t rowCopyEvents = 0;      //!< Charge-share copies triggered.
    uint64_t disturbFlips = 0;       //!< Cells flipped by AIB.
    uint64_t retentionFlips = 0;     //!< Cells flipped by leakage.
};

/**
 * Storage and physics of a single bank.  The Chip drives it with
 * physical row addresses; this class never sees logical addresses.
 */
class Bank
{
  public:
    /**
     * @param cfg Device configuration (borrowed; must outlive Bank).
     * @param map Subarray map (borrowed, shared across banks).
     * @param id Bank index (part of the variation hash key).
     */
    Bank(const DeviceConfig &cfg, const SubarrayMap &map, BankId id);

    // The memos below point into this bank's own row map.
    Bank(const Bank &) = delete;
    Bank &operator=(const Bank &) = delete;

    /**
     * Restores row @p row at time @p now: commits pending disturbance
     * and retention flips, clears pending, and refreshes the charge
     * timestamp.  Called on ACT of the row and on REF.
     */
    void restoreRow(RowAddr row, NanoTime now);

    /**
     * Evaluation barrier without a restore: commits pending
     * disturbance and retention flips of @p row but leaves the
     * retention clock running.  Called before data feeding the dose
     * computation changes.
     */
    void commitRow(RowAddr row, NanoTime now);

    /**
     * Registers one aggressor dwell of @p aggressor (ACT..PRE):
     * increments the hammer count and open-time of both AIB
     * neighbours.
     * @param act_count Number of ACT-PRE pairs (bulk hammering).
     * @param open_ns Open-row time per activation.
     */
    void registerAggressorDwell(RowAddr aggressor, double act_count,
                                double open_ns, NanoTime now);

    /**
     * Refreshes the restore timestamp of an already-committed row
     * without re-running the barriers.  The bulk train path uses it
     * to land the aggressor's last restore at the final ACT, exactly
     * where slot-by-slot execution leaves it.
     */
    void markRestored(RowAddr row, NanoTime now);

    /**
     * Applies the RowCopy charge transfer for an ACT of @p dst
     * arriving while the bitlines still hold @p src (out-of-spec
     * ACT-PRE-ACT).  Copies all, half (inverted) or no bits depending
     * on the stripe relation (SS IV-C).
     * @return true when any charge was transferred.
     */
    bool applyRowCopy(RowAddr src, RowAddr dst, NanoTime now);

    /**
     * Direct reference to a row's charge (materializing it).  Hot
     * path of the RD/WR burst loops; the caller must have applied
     * the usual barriers (an ACT of the row does).
     */
    BitVec &chargeRef(RowAddr row, NanoTime now);

    /** Converts a data bit to charge for @p row's polarity. */
    bool dataToCharge(RowAddr row, bool data) const;

    /** Converts a charge bit to data for @p row's polarity. */
    bool chargeToData(RowAddr row, bool charge) const;

    /**
     * Commits and restores every materialized row (REF semantics;
     * the model refreshes the whole bank per REF, see DESIGN.md).
     * Costs only what changed since the previous REF: while no row
     * can have reached the retention evaluation window, it commits
     * the rows with pending dose and leaves the others as they are,
     * their restore time moving to @p now in one step.  Otherwise it
     * walks every materialized row in ascending order.
     */
    void refreshAll(NanoTime now);

    /** Access to counters. */
    const BankStats &stats() const { return stats_; }

    /**
     * Number of materialized rows, with or without a charge vector
     * (tests / memory accounting).
     */
    size_t materializedRows() const { return rows_.size(); }

    /** Number of materialized rows that hold a charge vector. */
    size_t chargeVectors() const { return chargeVectors_; }

    /** The subarray map (convenience for the Chip). */
    const SubarrayMap &subarrayMap() const { return map_; }

  private:
    /** Returns the row state, materializing a dose-only row. */
    RowState &rowState(RowAddr row, NanoTime now);

    /** The row state, or nullptr when @p row is not materialized. */
    RowState *findRow(RowAddr row);

    /** @p rs's charge vector, allocated all-discharged on first need. */
    BitVec &ensureCharge(RowState &rs);

    /** Records that @p row's cells were fully restored at @p now. */
    void noteRestore(RowAddr row, RowState &rs, NanoTime now);

    /**
     * When @p row was last restored: its own ACT restore if one came
     * after the last REF (in command order, not by timestamp), else
     * that REF.
     */
    NanoTime
    restoreNs(RowAddr row, const RowState &rs) const
    {
        return restored_.get(row) ? rs.lastRestoreNs : refreshNs_;
    }

    /** Commits retention flips of @p rs (idempotent discharge). */
    void commitRetention(RowAddr row, RowState &rs, NanoTime now);

    /** Commits disturbance flips of @p rs and clears pending. */
    void commitDisturb(RowAddr row, RowState &rs);

    /** Per-cell disturbance dose factors common to both mechanisms. */
    double patternFactor(const BitVec &vic, const BitVec *aggr,
                         BitlineIdx bl, bool victim_charged) const;

    /** Uniform per-cell flip threshold for a mechanism. */
    double threshold(RowAddr row, BitlineIdx bl,
                     AibMechanism mech) const;

    /** Per-cell retention time in ns at the configured temperature. */
    double retentionNs(RowAddr row, BitlineIdx bl) const;

    const DeviceConfig &cfg_;
    const SubarrayMap &map_;
    BankId id_;
    std::unordered_map<RowAddr, RowState> rows_;
    size_t chargeVectors_ = 0;  //!< Rows in rows_ holding a vector.

    /**
     * Recent row -> state lookups, direct-mapped by the row's low
     * bits, so a step-wise ACT..PRE and the bursts between find the
     * row and its AIB neighbours without hashing.  The pointers stay
     * valid: rows_ never erases, and unordered_map keeps element
     * addresses across a rehash.  An unused entry's row is past any
     * bank and maps to nullptr.
     */
    struct MemoEntry
    {
        RowAddr row = std::numeric_limits<RowAddr>::max();
        RowState *rs = nullptr;
    };
    std::array<MemoEntry, 8> memo_{};

    /**
     * Recent aggressors' AIB victims, so that a repeated dwell skips
     * the neighbour lookups too.  vs[0] is the row below, vs[1] the
     * row above; nullptr past a subarray edge.
     */
    struct DwellMemo
    {
        RowAddr aggressor = std::numeric_limits<RowAddr>::max();
        RowAddr victim[2] = {0, 0};
        RowState *vs[2] = {nullptr, nullptr};
    };
    std::array<DwellMemo, 4> dwellMemo_{};

    BankStats stats_;
    double tempDoseScale_ = 1.0;  //!< Precomputed temperature factor.

    /**
     * Rows that may hold pending dose since the last REF.  Allocated,
     * like restored_, on the first materialization, so an untouched
     * bank costs nothing.
     */
    BitVec pending_;
    /** Rows restored (ACT, materialization) since the last REF. */
    BitVec restored_;
    NanoTime refreshNs_ = 0;  //!< Time of the last REF.
    /** Lower bound on every materialized row's restoreNs(). */
    NanoTime oldestRestoreNs_ = std::numeric_limits<NanoTime>::max();
};

} // namespace dram
} // namespace dramscope

#endif // DRAMSCOPE_DRAM_BANK_H
