/**
 * @file
 * Registered clock driver (RCD) model: B-side address inversion
 * (common pitfall (1), Figure 5).
 *
 * The RCD of an RDIMM/LRDIMM re-drives command/address signals to the
 * two sides of the module.  With the (default-on) inversion feature,
 * B-side chips receive inverted row address bits, which conserves
 * power by balancing simultaneous output switching.  Reverse
 * engineering that ignores this observes phantom effects such as
 * "non-adjacent RowHammer" and "half rows".
 */

#ifndef DRAMSCOPE_MAPPING_RCD_H
#define DRAMSCOPE_MAPPING_RCD_H

#include <cstdint>

#include "dram/types.h"

namespace dramscope {
namespace mapping {

/** RCD address-inversion behaviour. */
class Rcd
{
  public:
    /**
     * @param row_bits Number of row address bits on the bus.
     * @param inversion_enabled JEDEC default is enabled.
     */
    Rcd(uint32_t row_bits, bool inversion_enabled = true)
        : mask_(inversion_enabled ? ((1u << row_bits) - 1) : 0u)
    {
    }

    /** Row address a chip on the given side receives. */
    dram::RowAddr
    chipRow(dram::RowAddr host_row, bool b_side) const
    {
        return b_side ? (host_row ^ mask_) : host_row;
    }

    /**
     * Host row address that makes the chip on the given side see
     * @p chip_row (the inversion is an involution).
     */
    dram::RowAddr
    hostRowFor(dram::RowAddr chip_row, bool b_side) const
    {
        return chipRow(chip_row, b_side);
    }

    /** The inversion mask applied to B-side rows. */
    uint32_t mask() const { return mask_; }

  private:
    uint32_t mask_;
};

} // namespace mapping
} // namespace dramscope

#endif // DRAMSCOPE_MAPPING_RCD_H
