/**
 * @file
 * Unit tests for BitVec.
 */

#include <gtest/gtest.h>

#include "bender/host.h"
#include "dram/chip.h"
#include "mapping/dimm.h"
#include "test_common.h"
#include "util/bitvec.h"
#include "util/rng.h"

namespace dramscope {
namespace {

TEST(BitVec, ConstructFilled)
{
    BitVec zeros(100, false);
    BitVec ones(100, true);
    EXPECT_EQ(zeros.size(), 100u);
    EXPECT_EQ(zeros.popcount(), 0u);
    EXPECT_EQ(ones.popcount(), 100u);
}

TEST(BitVec, SetGetFlip)
{
    BitVec v(130);
    v.set(0, true);
    v.set(64, true);
    v.set(129, true);
    EXPECT_TRUE(v.get(0));
    EXPECT_TRUE(v.get(64));
    EXPECT_TRUE(v.get(129));
    EXPECT_FALSE(v.get(1));
    EXPECT_EQ(v.popcount(), 3u);
    v.flip(0);
    EXPECT_FALSE(v.get(0));
    v.flip(1);
    EXPECT_TRUE(v.get(1));
    EXPECT_EQ(v.popcount(), 3u);
}

TEST(BitVec, TailBitsDontLeak)
{
    // A 70-bit all-ones vector must count exactly 70.
    BitVec v(70, true);
    EXPECT_EQ(v.popcount(), 70u);
    v = v.inverted();
    EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVec, FillPattern)
{
    BitVec v(16);
    v.fillPattern(0b0011, 4);
    for (size_t i = 0; i < 16; ++i)
        EXPECT_EQ(v.get(i), (i % 4) < 2) << i;
}

TEST(BitVec, FillPatternNonDividingWidth)
{
    BitVec v(10);
    v.fillPattern(0b101, 3);
    const bool expect[10] = {true, false, true, true, false,
                             true, true,  false, true, true};
    for (size_t i = 0; i < 10; ++i)
        EXPECT_EQ(v.get(i), expect[i]) << i;
}

TEST(BitVec, HammingDistance)
{
    BitVec a(100), b(100);
    a.set(3, true);
    a.set(50, true);
    b.set(50, true);
    b.set(99, true);
    EXPECT_EQ(a.hammingDistance(b), 2u);
    EXPECT_EQ(a.hammingDistance(a), 0u);
}

TEST(BitVec, XorAssign)
{
    BitVec a(70, true), b(70);
    b.set(5, true);
    a ^= b;
    EXPECT_FALSE(a.get(5));
    EXPECT_EQ(a.popcount(), 69u);
}

TEST(BitVec, Equality)
{
    BitVec a(33), b(33);
    EXPECT_EQ(a, b);
    b.set(32, true);
    EXPECT_NE(a, b);
}

TEST(BitVec, OnesPositions)
{
    BitVec v(200);
    v.set(0, true);
    v.set(63, true);
    v.set(64, true);
    v.set(199, true);
    const auto pos = v.onesPositions();
    ASSERT_EQ(pos.size(), 4u);
    EXPECT_EQ(pos[0], 0u);
    EXPECT_EQ(pos[1], 63u);
    EXPECT_EQ(pos[2], 64u);
    EXPECT_EQ(pos[3], 199u);
}

TEST(BitVec, Inverted)
{
    BitVec v(10);
    v.set(2, true);
    const BitVec inv = v.inverted();
    EXPECT_FALSE(inv.get(2));
    EXPECT_EQ(inv.popcount(), 9u);
}

TEST(BitVec, ToStringTruncates)
{
    BitVec v(300, true);
    const std::string s = v.toString(8);
    EXPECT_EQ(s, "11111111...");
}

TEST(BitVec, FromBurstsMatchesThePerBitLoop)
{
    // Every width, including 1/24/32/64; 37 bursts leave a partial
    // last word, and all 64 bits of each burst are random so the
    // bits above the width must be dropped.
    Rng rng(7);
    std::vector<uint64_t> bursts(37);
    for (auto &b : bursts)
        b = rng.next();
    for (unsigned w = 1; w <= 64; ++w) {
        BitVec want(bursts.size() * w);
        for (size_t c = 0; c < bursts.size(); ++c) {
            for (unsigned i = 0; i < w; ++i)
                want.set(c * w + i, (bursts[c] >> i) & 1ULL);
        }
        EXPECT_EQ(BitVec::fromBursts(bursts, w), want) << "width " << w;
    }
    EXPECT_TRUE(BitVec::fromBursts({}, 24).empty());
}

TEST(BitVec, FieldsMatchThePerBitLoop)
{
    // Every width at every offset of a 3-word vector, so fields start
    // at each bit of a word and straddle into the next one.
    Rng rng(13);
    BitVec base(192);
    for (size_t i = 0; i < base.size(); ++i)
        base.set(i, rng.next() & 1ULL);
    for (unsigned w = 1; w <= 64; ++w) {
        for (size_t pos = 0; pos + w <= base.size(); ++pos) {
            uint64_t want = 0;
            for (unsigned i = 0; i < w; ++i)
                want |= uint64_t(base.get(pos + i)) << i;
            ASSERT_EQ(base.getBits(pos, w), want)
                << "width " << w << " at " << pos;

            // All 64 bits random: those above the width must not land.
            const uint64_t value = rng.next();
            BitVec got = base;
            BitVec expect = base;
            got.setBits(pos, w, value);
            for (unsigned i = 0; i < w; ++i)
                expect.set(pos + i, (value >> i) & 1ULL);
            ASSERT_EQ(got, expect) << "width " << w << " at " << pos;
        }
    }
}

TEST(BitVecDeathTest, FieldsOutOfRange)
{
    BitVec v(130);
    EXPECT_DEATH(v.getBits(67, 64), "getBits out of range");
    EXPECT_DEATH(v.getBits(129, 2), "getBits out of range");
    EXPECT_DEATH(v.getBits(0, 0), "getBits out of range");
    EXPECT_DEATH(v.getBits(0, 65), "getBits out of range");
    EXPECT_DEATH(v.getBits(~size_t(0), 2), "getBits out of range");
    EXPECT_DEATH(v.setBits(67, 64, 0), "setBits out of range");
    EXPECT_DEATH(v.setBits(130, 1, 1), "setBits out of range");
    EXPECT_DEATH(v.setBits(0, 0, 1), "setBits out of range");
    EXPECT_DEATH(BitVec(10).setBits(0, 11, 1), "setBits out of range");
    // The last in-range fields are fine.
    v.setBits(66, 64, ~0ULL);
    EXPECT_EQ(v.getBits(66, 64), ~0ULL);
    EXPECT_EQ(v.getBits(129, 1), 1u);
}

/** Random row bits written through @p dev and read back. */
void
expectRowBitsRoundTrip(dram::Device &dev)
{
    bender::Host host(dev);
    const auto &cfg = host.config();
    BitVec bits(size_t(cfg.columnsPerRow()) * cfg.rdDataBits);
    Rng rng(11);
    for (size_t i = 0; i < bits.size(); ++i)
        bits.set(i, rng.next() & 1ULL);
    host.writeRowBits(0, 7, bits);
    EXPECT_EQ(host.readRowBits(0, 7), bits);
}

TEST(BitVec, RowBitsRoundTripOnAChip)
{
    dram::Chip chip(testutil::tinyPlain());
    expectRowBitsRoundTrip(chip);
}

TEST(BitVec, RowBitsRoundTripOnADimm)
{
    mapping::Dimm dimm(testutil::tinyPlain());
    expectRowBitsRoundTrip(dimm);
}

} // namespace
} // namespace dramscope
