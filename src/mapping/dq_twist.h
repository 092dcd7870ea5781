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

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "dram/types.h"
#include "util/bitperm.h"
#include "util/bitvec.h"
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
        : DqTwist(width, routedLanes(uint32_t(width), chip_index))
    {
    }

    /** Explicit permutation constructor (tests). */
    DqTwist(dram::ChipWidth width, const std::vector<uint32_t> &perm)
        : lanes_(uint32_t(width)), to_chip_(overEveryBeat(lanes_, perm)),
          to_host_(to_chip_.inverse())
    {
    }

    /** Converts host-side RD_data to the arrangement the chip sees. */
    uint64_t
    toChip(uint64_t host_data, uint32_t rd_bits) const
    {
        return to_chip_(host_data & lowBits(rd_bits));
    }

    /** Converts chip-side RD_data back to the host arrangement. */
    uint64_t
    toHost(uint64_t chip_data, uint32_t rd_bits) const
    {
        return to_host_(chip_data & lowBits(rd_bits));
    }

    /** Host-side bit position of chip-side bit @p chip_bit. */
    uint32_t
    hostBit(uint32_t chip_bit) const
    {
        const uint32_t lane = chip_bit % lanes_;
        return chip_bit - lane +
               uint32_t(std::countr_zero(to_host_(1ULL << lane)));
    }

  private:
    /** The lane permutation of chip @p chip_index (see above). */
    static std::vector<uint32_t>
    routedLanes(uint32_t lanes, uint32_t chip_index)
    {
        std::vector<uint32_t> perm(lanes);
        for (uint32_t i = 0; i < lanes; ++i)
            perm[i] = i;
        if (chip_index != 0) {
            Rng rng(hashCombine(0xd9d9ULL, chip_index));
            for (uint32_t i = lanes - 1; i > 0; --i) {
                const auto j = uint32_t(rng.below(i + 1));
                std::swap(perm[i], perm[j]);
            }
        }
        return perm;
    }

    /**
     * The word permutation that moves bit beat * lanes + lane to
     * beat * lanes + perm[lane], for every beat of a 64-bit word.
     */
    static BitPermutation
    overEveryBeat(uint32_t lanes, const std::vector<uint32_t> &perm)
    {
        fatalIf(perm.size() != lanes, "DqTwist: bad permutation size");
        std::vector<bool> seen(lanes, false);
        for (const uint32_t p : perm) {
            fatalIf(p >= lanes || seen[p], "DqTwist: not a permutation");
            seen[p] = true;
        }
        std::array<uint8_t, 64> dest{};
        for (uint32_t bit = 0; bit < dest.size(); ++bit) {
            const uint32_t lane = bit % lanes;
            dest[bit] = uint8_t(bit - lane + perm[lane]);
        }
        return BitPermutation(dest);
    }

    uint32_t lanes_;
    BitPermutation to_chip_;
    BitPermutation to_host_;
};

} // namespace mapping
} // namespace dramscope

#endif // DRAMSCOPE_MAPPING_DQ_TWIST_H
