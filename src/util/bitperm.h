/**
 * @file
 * Fixed permutation of the bits of a 64-bit word.
 *
 * The one bit-permutation kernel of the library: the chip's data
 * swizzle (dram::Swizzle) and a DIMM's DQ lane twist
 * (mapping::DqTwist) are both one of these.
 */

#ifndef DRAMSCOPE_UTIL_BITPERM_H
#define DRAMSCOPE_UTIL_BITPERM_H

#include <array>
#include <bit>
#include <cstdint>
#include <span>

#include "util/log.h"

namespace dramscope {

/**
 * Moves bit i of a word to bit dest[i], through one 16-entry lookup
 * table per input nibble: at most 16 lookups per word.  The tables
 * live in the object, so applying the permutation allocates nothing.
 */
class BitPermutation
{
  public:
    /**
     * @param dest dest[i] is where input bit i goes; it must be a
     *     permutation of [0, dest.size()), and dest.size() <= 64.
     *     Input bits at and above dest.size() are dropped.
     */
    explicit BitPermutation(std::span<const uint8_t> dest)
        : bits_(uint8_t(dest.size())),
          nibbles_(uint8_t((dest.size() + 3) / 4))
    {
        panicIf(dest.size() > 64, "BitPermutation: more than 64 bits");
        uint64_t seen = 0;
        for (const uint8_t d : dest) {
            panicIf(d >= dest.size() || ((seen >> d) & 1ULL),
                    "BitPermutation: not a permutation");
            seen |= 1ULL << d;
        }
        // Entry v of nibble j is entry v minus its lowest set bit, plus
        // where that bit goes: one OR per entry.
        for (unsigned j = 0; j < nibbles_; ++j) {
            for (unsigned v = 1; v < 16; ++v) {
                const unsigned i = 4 * j + unsigned(std::countr_zero(v));
                tables_[j][v] = tables_[j][v & (v - 1)] |
                                (i < bits_ ? 1ULL << dest[i] : 0);
            }
        }
    }

    /** Permutes @p x, dropping the bits the permutation does not cover. */
    uint64_t
    operator()(uint64_t x) const
    {
        uint64_t out = 0;
        for (unsigned j = 0; j < nibbles_; ++j)
            out |= tables_[j][(x >> (4 * j)) & 15];
        return out;
    }

    /** The permutation that undoes this one. */
    BitPermutation
    inverse() const
    {
        // Each single-bit entry holds one set bit, so the mask changes
        // nothing; it shows the compiler the index is below 64.
        std::array<uint8_t, 64> src{};
        for (unsigned i = 0; i < bits_; ++i)
            src[std::countr_zero(tables_[i / 4][1U << (i % 4)]) & 63] =
                uint8_t(i);
        return BitPermutation(std::span(src.data(), bits_));
    }

  private:
    uint8_t bits_;
    uint8_t nibbles_;
    std::array<std::array<uint64_t, 16>, 16> tables_{};
};

} // namespace dramscope

#endif // DRAMSCOPE_UTIL_BITPERM_H
