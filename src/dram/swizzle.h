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

#include <array>
#include <span>

#include "dram/config.h"
#include "dram/types.h"
#include "util/bitperm.h"
#include "util/bitvec.h"
#include "util/log.h"

namespace dramscope {
namespace dram {

/** Map from RD_data bit positions to bitlines. */
class Swizzle
{
  public:
    /** @param cfg A validated configuration. */
    explicit Swizzle(const DeviceConfig &cfg)
        : group_bits_(cfg.groupBits()), mats_(cfg.matsPerRow()),
          mat_width_(cfg.matWidth), columns_(cfg.columnsPerRow()),
          rd_bits_(cfg.rdDataBits), slot_(slots(cfg)),
          to_fields_(std::span(slot_.data(), rd_bits_)),
          from_fields_(to_fields_.inverse())
    {
    }

    /**
     * Physical bitline of RD_data bit @p rd_bit at column @p col: a
     * column shifts every bit of the burst by groupBits() bitlines.
     */
    BitlineIdx
    physicalBl(ColAddr col, uint32_t rd_bit) const
    {
        panicIf(rd_bit >= rd_bits_, "Swizzle: rd_bit out of range");
        panicIf(col >= columns_, "Swizzle: column out of range");
        const uint32_t mat = slot_[rd_bit] / group_bits_;
        return mat * mat_width_ + col * group_bits_ +
               slot_[rd_bit] % group_bits_;
    }

    /**
     * Stores the low rdDataBits bits of @p data as the burst at column
     * @p col of @p row: one groupBits() field per MAT.
     */
    void
    scatter(BitVec &row, ColAddr col, uint64_t data) const
    {
        panicIf(col >= columns_, "Swizzle: column out of range");
        const uint64_t fields = to_fields_(data);
        for (uint32_t m = 0; m < mats_; ++m) {
            row.setBits(fieldStart(col, m), group_bits_,
                        fields >> (m * group_bits_));
        }
    }

    /** Loads the burst at column @p col of @p row (inverse of scatter). */
    uint64_t
    gather(const BitVec &row, ColAddr col) const
    {
        panicIf(col >= columns_, "Swizzle: column out of range");
        uint64_t fields = 0;
        for (uint32_t m = 0; m < mats_; ++m) {
            fields |= row.getBits(fieldStart(col, m), group_bits_)
                      << (m * group_bits_);
        }
        return from_fields_(fields);
    }

  private:
    /**
     * Where each RD_data bit sits in the burst's MAT-major word, whose
     * bit mat * groupBits() + s is slot s of that MAT's field: rd_bit's
     * MAT is rd_bit % matsPerRow and its slot is permuted by the
     * vendor swizzle.
     */
    static std::array<uint8_t, 64>
    slots(const DeviceConfig &cfg)
    {
        std::array<uint8_t, 64> slot{};
        const uint32_t mats = cfg.matsPerRow();
        for (uint32_t rd_bit = 0; rd_bit < cfg.rdDataBits; ++rd_bit) {
            slot[rd_bit] = uint8_t(rd_bit % mats * cfg.groupBits() +
                                   cfg.swizzlePerm[rd_bit / mats]);
        }
        return slot;
    }

    /** First bitline of MAT @p mat's field at column @p col. */
    size_t
    fieldStart(ColAddr col, uint32_t mat) const
    {
        return size_t(mat) * mat_width_ + size_t(col) * group_bits_;
    }

    uint32_t group_bits_;
    uint32_t mats_;
    uint32_t mat_width_;
    uint32_t columns_;
    uint32_t rd_bits_;
    std::array<uint8_t, 64> slot_;  //!< MAT-major position of each bit.
    BitPermutation to_fields_;      //!< RD_data -> MAT-major word.
    BitPermutation from_fields_;    //!< MAT-major word -> RD_data.
};

} // namespace dram
} // namespace dramscope

#endif // DRAMSCOPE_DRAM_SWIZZLE_H
