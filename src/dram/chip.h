/**
 * @file
 * The DRAM chip: command decoder, per-bank state machine, timing
 * checks, internal row remapping, coupled-row activation and the
 * RD/WR data path through the internal swizzle.
 *
 * The chip accepts any command sequence, including out-of-spec ones,
 * exactly like a real device behind DRAM Bender: violations are
 * recorded and the analog consequences (RowCopy charge sharing) are
 * modeled rather than rejected.
 */

#ifndef DRAMSCOPE_DRAM_CHIP_H
#define DRAMSCOPE_DRAM_CHIP_H

#include <memory>
#include <vector>

#include "dram/bank.h"
#include "dram/config.h"
#include "dram/device.h"
#include "dram/geometry.h"
#include "dram/swizzle.h"
#include "dram/types.h"

namespace dramscope {
namespace dram {

/** Chip-level activity counters. */
struct ChipStats
{
    uint64_t acts = 0;
    uint64_t pres = 0;
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t refs = 0;

    /**
     * Physical wordlines driven by ACTs: coupled-row pairs and edge
     * subarray tandem structures double-count here, which is the
     * power side channel of SS VI-C.
     */
    uint64_t wordlinesDriven = 0;
};

/** A simulated DRAM chip: the native Device implementation. */
class Chip final : public Device
{
  public:
    /** Builds a chip from a configuration (copied and validated). */
    explicit Chip(DeviceConfig cfg);

    const DeviceConfig &config() const override { return cfg_; }

    /** Activates @p logical_row in bank @p b at time @p now (ns). */
    void act(BankId b, RowAddr logical_row, NanoTime now) override;

    /** Precharges bank @p b. */
    void pre(BankId b, NanoTime now) override;

    /**
     * Reads one RD_data burst (rdDataBits bits, LSB = bit 0) from the
     * open row of bank @p b at column @p col.
     */
    uint64_t read(BankId b, ColAddr col, NanoTime now) override;

    /** Writes one RD_data burst to the open row. */
    void write(BankId b, ColAddr col, uint64_t data, NanoTime now) override;

    /**
     * Refresh: commits and restores every materialized row of every
     * bank.  All banks must be precharged.  Each bank commits only
     * the rows that changed since the previous REF unless a row may
     * have reached the retention evaluation window (Bank::refreshAll).
     */
    void refresh(NanoTime now) override;

    /**
     * Bulk hammering fast path, bit-exact: replays the whole train's
     * FSM transitions, per-iteration violation records, physics
     * bookkeeping and stats in one batched update, proven
     * byte-identical to slot-by-slot execution.  Trains whose
     * timestamps the batched math cannot reproduce exactly
     * (sub-picosecond-of-ns timing, periods reaching the retention
     * evaluation window) fall back to an internal per-iteration
     * replay — still exact, just not fast.
     */
    void actMany(const ActTrain &train) override;

    /**
     * Bulk hammering fast path, analytic: same FSM/violation/stats
     * replay, but the disturbance dose commits immediately through
     * Bank::applyAggregateDose (sampled for large trains).
     */
    void actManyAnalytic(const ActTrain &train) override;

    /**
     * In-DRAM RFM/DRFM primitive: restores the AIB neighbours of
     * @p logical_row — translated through the internal remap — and,
     * when the chip couples rows, of its coupled partner too.
     */
    uint32_t refreshAggressorNeighbors(BankId b, RowAddr logical_row,
                                       NanoTime now) override;

    /** True when bank @p b has an open row. */
    bool isOpen(BankId b) const;

    /** Open physical row of bank @p b (panics when closed). */
    RowAddr openPhysicalRow(BankId b) const;

    /** Logical to physical row translation (internal remap). */
    RowAddr toPhysical(RowAddr logical_row) const;

    /** Coupled partner of a physical row, if the chip couples rows. */
    std::optional<RowAddr> coupledPartner(RowAddr phys_row) const;

    const ChipStats &stats() const { return stats_; }

    /** Recorded timing violations (capped at 1024 entries). */
    const std::vector<TimingViolation> &violations() const
    {
        return violations_;
    }

    /** Recorded violations, by value (Device interface). */
    std::vector<TimingViolation> violationLog() const override
    {
        return violations_;
    }

    /** Total violations including those beyond the cap. */
    uint64_t violationCount() const override { return violation_count_; }

    /** White-box access for unit tests and ground-truth checks. */
    Bank &bank(BankId b);
    const SubarrayMap &subarrayMap() const { return *map_; }
    const Swizzle &swizzle() const { return swizzle_; }

  private:
    enum class BankState { Idle, Open };

    struct BankFsm
    {
        BankState state = BankState::Idle;
        RowAddr openRow = 0;           //!< Physical.
        bool hasPartner = false;
        RowAddr partnerRow = 0;        //!< Physical coupled partner.
        NanoTime actTime = 0;
        bool wrBarrierDone = false;  //!< Neighbour barrier this open.
        NanoTime preTime = -1'000'000; //!< Last precharge issue time.
        bool hasLastRow = false;
        RowAddr lastRow = 0;           //!< Physical, for RowCopy.
        RowAddr lastPartner = 0;
        bool lastHadPartner = false;
    };

    /**
     * Counts a violation and logs it while the log has room; the
     * message string is built only when it is logged.
     */
    void violate(const char *what, NanoTime now);

    /** Wordlines driven by activating @p phys_row (edge/coupling). */
    uint64_t wordlineCost(RowAddr phys_row) const;

    /** True when the batched train math is bit-exact for @p train. */
    bool trainBatchable(const ActTrain &train) const;

    /** Per-iteration act()/pre() replay (exact fallback). */
    void replayTrain(const ActTrain &train);

    /** Shared exact/analytic batched train implementation. */
    void runTrain(const ActTrain &train, bool analytic);

    DeviceConfig cfg_;
    std::unique_ptr<SubarrayMap> map_;
    Swizzle swizzle_;
    std::vector<std::unique_ptr<Bank>> banks_;
    std::vector<BankFsm> fsm_;
    ChipStats stats_;
    std::vector<TimingViolation> violations_;
    uint64_t violation_count_ = 0;
};

} // namespace dram
} // namespace dramscope

#endif // DRAMSCOPE_DRAM_CHIP_H
