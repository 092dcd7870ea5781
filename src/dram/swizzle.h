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

#include <utility>
#include <vector>

#include "dram/config.h"
#include "dram/types.h"
#include "util/log.h"

namespace dramscope {
namespace dram {

/** Bidirectional map between RD_data bit positions and bitlines. */
class Swizzle
{
  public:
    /** @param cfg A validated configuration. */
    explicit Swizzle(const DeviceConfig &cfg)
        : mats_per_row_(cfg.matsPerRow()), group_bits_(cfg.groupBits()),
          mat_width_(cfg.matWidth), row_bits_(cfg.rowBits),
          inv_perm_(cfg.swizzlePerm.size()), col0_bl_(cfg.rdDataBits)
    {
        const std::vector<uint32_t> &perm = cfg.swizzlePerm;
        for (uint32_t i = 0; i < perm.size(); ++i)
            inv_perm_[perm[i]] = i;
        // rd_bit's MAT is rd_bit % matsPerRow and its intra-group
        // slot is permuted by the vendor swizzle.
        for (uint32_t rd_bit = 0; rd_bit < col0_bl_.size(); ++rd_bit) {
            col0_bl_[rd_bit] = rd_bit % mats_per_row_ * mat_width_ +
                               perm[rd_bit / mats_per_row_];
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

    /** Inverse map: bitline to (column, RD_data bit). */
    std::pair<ColAddr, uint32_t>
    logicalBit(BitlineIdx bl) const
    {
        panicIf(bl >= row_bits_, "Swizzle: bitline out of range");
        const uint32_t mat = bl / mat_width_;
        const uint32_t off = bl % mat_width_;
        const ColAddr col = off / group_bits_;
        const uint32_t intra = inv_perm_[off % group_bits_];
        return {col, intra * mats_per_row_ + mat};
    }

  private:
    uint32_t mats_per_row_;
    uint32_t group_bits_;
    uint32_t mat_width_;
    uint32_t row_bits_;
    std::vector<uint32_t> inv_perm_;
    std::vector<BitlineIdx> col0_bl_;  //!< physicalBl(0, rd_bit).
};

} // namespace dram
} // namespace dramscope

#endif // DRAMSCOPE_DRAM_SWIZZLE_H
