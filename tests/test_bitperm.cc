/**
 * @file
 * Unit tests for BitPermutation.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>
#include <utility>

#include "util/bitperm.h"
#include "util/bitvec.h"
#include "util/rng.h"

namespace dramscope {
namespace {

/** Moves bit i of @p x to @p dest[i], one bit at a time. */
uint64_t
perBit(std::span<const uint8_t> dest, uint64_t x)
{
    uint64_t out = 0;
    for (size_t i = 0; i < dest.size(); ++i) {
        if ((x >> i) & 1ULL)
            out |= 1ULL << dest[i];
    }
    return out;
}

TEST(BitPermutation, MatchesThePerBitLoop)
{
    // Seeded random permutations of every size; all 64 input bits are
    // random, so the bits at and above the size must be dropped.
    Rng rng(17);
    for (unsigned n = 1; n <= 64; ++n) {
        for (int trial = 0; trial < 8; ++trial) {
            std::array<uint8_t, 64> dest{};
            for (unsigned i = 0; i < n; ++i)
                dest[i] = uint8_t(i);
            for (unsigned i = n - 1; i > 0; --i)
                std::swap(dest[i], dest[rng.below(i + 1)]);
            const std::span<const uint8_t> d(dest.data(), n);
            const BitPermutation perm(d);
            const BitPermutation inv = perm.inverse();
            for (int k = 0; k < 16; ++k) {
                const uint64_t x = rng.next();
                ASSERT_EQ(perm(x), perBit(d, x))
                    << n << " bits, trial " << trial;
                ASSERT_EQ(inv(perm(x)), x & lowBits(n));
            }
            for (unsigned i = 0; i < n; ++i)
                ASSERT_EQ(perm(1ULL << i), 1ULL << dest[i]);
        }
    }
}

TEST(BitPermutationDeathTest, RejectsNonPermutations)
{
    const std::array<uint8_t, 3> repeated = {0, 2, 2};
    EXPECT_DEATH(BitPermutation{repeated}, "not a permutation");
    const std::array<uint8_t, 3> outside = {0, 1, 3};
    EXPECT_DEATH(BitPermutation{outside}, "not a permutation");
    const std::array<uint8_t, 65> too_long{};
    EXPECT_DEATH(BitPermutation{too_long}, "more than 64 bits");
}

} // namespace
} // namespace dramscope
