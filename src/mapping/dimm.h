/**
 * @file
 * A registered DIMM: a rank of identical chips behind an RCD, with
 * per-chip DQ twisting.  The 64-bit data bus splits evenly across
 * chips (16 x4 chips or 8 x8 chips per rank).
 *
 * The rank is itself a dram::Device: commands broadcast to every chip
 * (ACT rows pass through the RCD's per-side address inversion) and
 * the data path exposes the rank as one wide row — device column
 * space is chip-major, so columns [c * columnsPerRow, (c + 1) *
 * columnsPerRow) address chip c and each RD/WR moves one chip's
 * RD_data burst with that chip's DQ twist applied.  The full 64-bit
 * bus view of a beat is the per-chip bursts side by side, which a
 * host reassembles by reading the same chip-relative column from
 * every chip's column range.
 */

#ifndef DRAMSCOPE_MAPPING_DIMM_H
#define DRAMSCOPE_MAPPING_DIMM_H

#include <memory>
#include <vector>

#include "dram/chip.h"
#include "dram/device.h"
#include "mapping/dq_twist.h"
#include "mapping/rcd.h"

namespace dramscope {
namespace mapping {

/** One rank of chips behind an RCD, exposed as a single Device. */
class Dimm final : public dram::Device
{
  public:
    /**
     * @param chip_cfg Configuration shared by every chip.
     * @param rcd_inversion Enable the B-side address inversion.
     * @param identity_twist Route every chip's DQ straight (test aid).
     */
    explicit Dimm(dram::DeviceConfig chip_cfg, bool rcd_inversion = true,
                  bool identity_twist = false);

    /** Number of chips in the rank. */
    uint32_t chipCount() const { return uint32_t(chips_.size()); }

    /** True when chip @p c sits on the RCD's B side. */
    bool isBSide(uint32_t c) const { return c >= chipCount() / 2; }

    /// @name Device interface (rank-level command/data view).
    /// @{

    /**
     * Rank-level geometry: rowBits and matWidth scale by chipCount()
     * (device columns are chip-major), rows/banks/timing match the
     * chip configuration.
     */
    const dram::DeviceConfig &config() const override
    {
        return bus_cfg_;
    }

    /** Broadcast ACT: each chip receives its side's row address. */
    void act(dram::BankId b, dram::RowAddr host_row,
             dram::NanoTime now) override;

    /** Broadcast PRE. */
    void pre(dram::BankId b, dram::NanoTime now) override;

    /** Broadcast REF. */
    void refresh(dram::NanoTime now) override;

    /**
     * Reads one chip's RD_data at device column @p col (chip
     * col / columnsPerRow, chip-relative column col % columnsPerRow),
     * DQ twist applied.
     */
    uint64_t read(dram::BankId b, dram::ColAddr col,
                  dram::NanoTime now) override;

    /** Writes one chip's RD_data at device column @p col. */
    void write(dram::BankId b, dram::ColAddr col, uint64_t data,
               dram::NanoTime now) override;

    /** Broadcast bulk hammer: every chip runs its exact fast path
     *  with its side's row address. */
    void actMany(const dram::ActTrain &train) override;

    /** Sum of per-chip timing violations. */
    uint64_t violationCount() const override;

    /** Per-chip violation logs, concatenated with a chip prefix. */
    std::vector<dram::TimingViolation> violationLog() const override;

    /**
     * In-DRAM mitigation, rank-wide: every chip restores the
     * neighbours of its own (side-translated) view of @p host_row.
     */
    uint32_t refreshAggressorNeighbors(dram::BankId b,
                                       dram::RowAddr host_row,
                                       dram::NanoTime now) override;

    /// @}

    /** Writes per-chip host-visible RD_data (DQ twist applied). */
    void writeChips(dram::BankId b, dram::ColAddr col,
                    const std::vector<uint64_t> &host_data,
                    dram::NanoTime now);

    /** Row address chip @p c receives for host row @p host_row. */
    dram::RowAddr chipRow(uint32_t c, dram::RowAddr host_row) const;

    /** Host row that makes chip @p c see @p chip_row. */
    dram::RowAddr hostRowFor(uint32_t c, dram::RowAddr chip_row) const;

    /** The RCD model. */
    const Rcd &rcd() const { return rcd_; }

    /** DQ twist of chip @p c. */
    const DqTwist &twist(uint32_t c) const { return twists_.at(c); }

    /** Direct chip access (single-chip experiments, tests). */
    dram::Chip &chip(uint32_t c) { return *chips_.at(c); }
    const dram::Chip &chip(uint32_t c) const { return *chips_.at(c); }

    /** Per-chip configuration (the rank view is config()). */
    const dram::DeviceConfig &chipConfig() const { return cfg_; }

  private:
    /** Device column -> (chip, chip-relative column). */
    uint32_t chipOfCol(dram::ColAddr col) const;
    dram::ColAddr chipCol(dram::ColAddr col) const;

    dram::DeviceConfig cfg_;      //!< Per-chip configuration.
    dram::DeviceConfig bus_cfg_;  //!< Rank-level Device view.
    Rcd rcd_;
    std::vector<std::unique_ptr<dram::Chip>> chips_;
    std::vector<DqTwist> twists_;
};

} // namespace mapping
} // namespace dramscope

#endif // DRAMSCOPE_MAPPING_DIMM_H
