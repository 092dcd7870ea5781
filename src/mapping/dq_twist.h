/**
 * @file
 * Per-chip DQ pin twisting (common pitfall (3), Figure 5c).
 *
 * DIMM routing remaps the DQ lanes between the edge connector and
 * each chip, so the same host data pattern arrives differently
 * arranged at different chips (0x55 may arrive as 0x33, 0xCC, ...).
 * The twist permutes the *lane* of every beat of a burst.
 */

#ifndef DRAMSCOPE_MAPPING_DQ_TWIST_H
#define DRAMSCOPE_MAPPING_DQ_TWIST_H

#include <cstdint>
#include <vector>

#include "dram/types.h"
#include "util/log.h"
#include "util/rng.h"

namespace dramscope {
namespace mapping {

/** Lane permutation between host-side and chip-side data. */
class DqTwist
{
  public:
    /**
     * Builds the twist of chip @p chip_index on a module.  Chip 0 is
     * routed straight; other chips get a deterministic pseudo-random
     * lane permutation derived from the index, reflecting that board
     * routing differs per chip position.
     */
    DqTwist(dram::ChipWidth width, uint32_t chip_index)
        : lanes_(uint32_t(width))
    {
        perm_.resize(lanes_);
        for (uint32_t i = 0; i < lanes_; ++i)
            perm_[i] = i;
        if (chip_index != 0) {
            Rng rng(hashCombine(0xd9d9ULL, chip_index));
            for (uint32_t i = lanes_ - 1; i > 0; --i) {
                const auto j = uint32_t(rng.below(i + 1));
                std::swap(perm_[i], perm_[j]);
            }
        }
        inv_.resize(lanes_);
        for (uint32_t i = 0; i < lanes_; ++i)
            inv_[perm_[i]] = i;
    }

    /** Explicit permutation constructor (tests). */
    DqTwist(dram::ChipWidth width, std::vector<uint32_t> perm)
        : lanes_(uint32_t(width)), perm_(std::move(perm))
    {
        fatalIf(perm_.size() != lanes_, "DqTwist: bad permutation size");
        inv_.resize(lanes_);
        std::vector<bool> seen(lanes_, false);
        for (uint32_t i = 0; i < lanes_; ++i) {
            fatalIf(perm_[i] >= lanes_ || seen[perm_[i]],
                    "DqTwist: not a permutation");
            seen[perm_[i]] = true;
            inv_[perm_[i]] = i;
        }
    }

    /** Converts host-side RD_data to the arrangement the chip sees. */
    uint64_t
    toChip(uint64_t host_data, uint32_t rd_bits) const
    {
        return permute(host_data, rd_bits, perm_);
    }

    /** Converts chip-side RD_data back to the host arrangement. */
    uint64_t
    toHost(uint64_t chip_data, uint32_t rd_bits) const
    {
        return permute(chip_data, rd_bits, inv_);
    }

    /** Host-side bit position of chip-side bit @p chip_bit. */
    uint32_t
    hostBit(uint32_t chip_bit) const
    {
        const uint32_t beat = chip_bit / lanes_;
        const uint32_t lane = chip_bit % lanes_;
        return beat * lanes_ + inv_[lane];
    }

  private:
    uint64_t
    permute(uint64_t data, uint32_t rd_bits,
            const std::vector<uint32_t> &perm) const
    {
        uint64_t out = 0;
        for (uint32_t i = 0; i < rd_bits; ++i) {
            if ((data >> i) & 1ULL) {
                const uint32_t beat = i / lanes_;
                const uint32_t lane = i % lanes_;
                out |= 1ULL << (beat * lanes_ + perm[lane]);
            }
        }
        return out;
    }

    uint32_t lanes_;
    std::vector<uint32_t> perm_;
    std::vector<uint32_t> inv_;
};

} // namespace mapping
} // namespace dramscope

#endif // DRAMSCOPE_MAPPING_DQ_TWIST_H
