/**
 * @file
 * Chip-internal data swizzling (O1, Figure 7).
 *
 * One RD command returns rdDataBits bits collected from every MAT the
 * row spans: each MAT contributes groupBits() consecutive cells at
 * column offset col * groupBits(), reordered by the vendor-specific
 * intra-group permutation.  The reverse-engineering layer recovers
 * this map through AIB horizontal influence and RowCopy; this class
 * is the hidden ground truth.
 */

#ifndef DRAMSCOPE_DRAM_SWIZZLE_H
#define DRAMSCOPE_DRAM_SWIZZLE_H

#include <vector>

#include "dram/config.h"
#include "dram/types.h"
#include "util/log.h"

namespace dramscope {
namespace dram {

/** Map from RD_data bit positions to bitlines. */
class Swizzle
{
  public:
    /** @param cfg A validated configuration. */
    explicit Swizzle(const DeviceConfig &cfg)
        : group_bits_(cfg.groupBits()), row_bits_(cfg.rowBits),
          col0_bl_(cfg.rdDataBits)
    {
        // rd_bit's MAT is rd_bit % matsPerRow and its intra-group
        // slot is permuted by the vendor swizzle.
        const uint32_t mats = cfg.matsPerRow();
        for (uint32_t rd_bit = 0; rd_bit < col0_bl_.size(); ++rd_bit) {
            col0_bl_[rd_bit] = rd_bit % mats * cfg.matWidth +
                               cfg.swizzlePerm[rd_bit / mats];
        }
    }

    /**
     * Physical bitline of RD_data bit @p rd_bit at column @p col: a
     * column shifts every bit of the burst by groupBits() bitlines.
     */
    BitlineIdx
    physicalBl(ColAddr col, uint32_t rd_bit) const
    {
        panicIf(rd_bit >= col0_bl_.size(), "Swizzle: rd_bit out of range");
        const BitlineIdx bl = col0_bl_[rd_bit] + col * group_bits_;
        panicIf(bl >= row_bits_, "Swizzle: column out of range");
        return bl;
    }

  private:
    uint32_t group_bits_;
    uint32_t row_bits_;
    std::vector<BitlineIdx> col0_bl_;  //!< physicalBl(0, rd_bit).
};

} // namespace dram
} // namespace dramscope

#endif // DRAMSCOPE_DRAM_SWIZZLE_H
