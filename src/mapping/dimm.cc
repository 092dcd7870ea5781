/**
 * @file
 * DIMM implementation.
 */

#include "mapping/dimm.h"

#include <bit>

#include "util/log.h"

namespace dramscope {
namespace mapping {

namespace {

uint32_t
rowAddressBits(uint32_t rows_per_bank)
{
    fatalIf(!std::has_single_bit(rows_per_bank),
            "Dimm: rowsPerBank must be a power of two");
    return uint32_t(std::countr_zero(rows_per_bank));
}

} // namespace

Dimm::Dimm(dram::DeviceConfig chip_cfg, bool rcd_inversion,
           bool identity_twist)
    : cfg_(std::move(chip_cfg)),
      rcd_(rowAddressBits(cfg_.rowsPerBank), rcd_inversion)
{
    const uint32_t n_chips = 64 / uint32_t(cfg_.width);
    for (uint32_t c = 0; c < n_chips; ++c) {
        chips_.push_back(std::make_unique<dram::Chip>(cfg_));
        if (identity_twist)
            twists_.emplace_back(cfg_.width, 0u);
        else
            twists_.emplace_back(cfg_.width, c);
    }
    // The rank-level Device view: one wide row per host row, columns
    // chip-major.  Both rowBits and matWidth scale by the chip count,
    // so matsPerRow/groupBits (and with them the swizzle geometry)
    // stay per-chip quantities.
    bus_cfg_ = cfg_;
    bus_cfg_.name = cfg_.name + "/rank";
    bus_cfg_.rowBits = cfg_.rowBits * n_chips;
    bus_cfg_.matWidth = cfg_.matWidth * n_chips;
    bus_cfg_.validate();
}

uint32_t
Dimm::chipOfCol(dram::ColAddr col) const
{
    const uint32_t c = col / cfg_.columnsPerRow();
    panicIf(c >= chipCount(), "Dimm: device column out of range");
    return c;
}

dram::ColAddr
Dimm::chipCol(dram::ColAddr col) const
{
    return col % cfg_.columnsPerRow();
}

dram::RowAddr
Dimm::chipRow(uint32_t c, dram::RowAddr host_row) const
{
    return rcd_.chipRow(host_row, isBSide(c));
}

dram::RowAddr
Dimm::hostRowFor(uint32_t c, dram::RowAddr chip_row) const
{
    return rcd_.hostRowFor(chip_row, isBSide(c));
}

void
Dimm::act(dram::BankId b, dram::RowAddr host_row, dram::NanoTime now)
{
    for (uint32_t c = 0; c < chipCount(); ++c)
        chips_[c]->act(b, chipRow(c, host_row), now);
}

void
Dimm::pre(dram::BankId b, dram::NanoTime now)
{
    for (auto &chip : chips_)
        chip->pre(b, now);
}

void
Dimm::refresh(dram::NanoTime now)
{
    for (auto &chip : chips_)
        chip->refresh(now);
}

uint64_t
Dimm::read(dram::BankId b, dram::ColAddr col, dram::NanoTime now)
{
    const uint32_t c = chipOfCol(col);
    const uint64_t chip_data = chips_[c]->read(b, chipCol(col), now);
    return twists_[c].toHost(chip_data, cfg_.rdDataBits);
}

void
Dimm::write(dram::BankId b, dram::ColAddr col, uint64_t data,
            dram::NanoTime now)
{
    const uint32_t c = chipOfCol(col);
    chips_[c]->write(b, chipCol(col),
                     twists_[c].toChip(data, cfg_.rdDataBits), now);
}

void
Dimm::actMany(const dram::ActTrain &train)
{
    dram::ActTrain chip_train = train;
    for (uint32_t c = 0; c < chipCount(); ++c) {
        chip_train.row = chipRow(c, train.row);
        chips_[c]->actMany(chip_train);
    }
}

uint64_t
Dimm::violationCount() const
{
    uint64_t total = 0;
    for (const auto &chip : chips_)
        total += chip->violationCount();
    return total;
}

std::vector<dram::TimingViolation>
Dimm::violationLog() const
{
    std::vector<dram::TimingViolation> log;
    for (uint32_t c = 0; c < chipCount(); ++c) {
        for (const auto &v : chips_[c]->violations()) {
            log.push_back({"chip" + std::to_string(c) + ": " + v.what,
                           v.when});
        }
    }
    return log;
}

uint32_t
Dimm::refreshAggressorNeighbors(dram::BankId b, dram::RowAddr host_row,
                                dram::NanoTime now)
{
    uint32_t restored = 0;
    for (uint32_t c = 0; c < chipCount(); ++c) {
        restored += chips_[c]->refreshAggressorNeighbors(
            b, chipRow(c, host_row), now);
    }
    return restored;
}

void
Dimm::writeChips(dram::BankId b, dram::ColAddr col,
                 const std::vector<uint64_t> &host_data,
                 dram::NanoTime now)
{
    fatalIf(host_data.size() != chipCount(),
            "Dimm::writeChips: data vector size mismatch");
    for (uint32_t c = 0; c < chipCount(); ++c) {
        chips_[c]->write(b, col,
                         twists_[c].toChip(host_data[c], cfg_.rdDataBits),
                         now);
    }
}

} // namespace mapping
} // namespace dramscope
