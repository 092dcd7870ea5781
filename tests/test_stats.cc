/**
 * @file
 * Unit tests for the statistics helpers.
 */

#include <gtest/gtest.h>

#include "util/stats.h"

namespace dramscope {
namespace {

TEST(BitErrorRate, Accumulates)
{
    BitErrorRate ber;
    ber.add(3, 100);
    ber.add(7, 100);
    EXPECT_EQ(ber.flipped(), 10u);
    EXPECT_EQ(ber.tested(), 200u);
    EXPECT_DOUBLE_EQ(ber.value(), 0.05);
}

TEST(BitErrorRate, MergeAndEmpty)
{
    BitErrorRate a, b;
    EXPECT_EQ(a.value(), 0.0);
    a.add(1, 10);
    b.add(1, 10);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.value(), 0.1);
}

TEST(Histogram, BucketsAndClamping)
{
    Histogram h(10, 0.0, 10.0);
    h.add(0.5);   // bin 0
    h.add(9.5);   // bin 9
    h.add(-5.0);  // clamps to bin 0
    h.add(50.0);  // clamps to bin 9
    EXPECT_EQ(h.count(0), 2u);
    EXPECT_EQ(h.count(9), 2u);
    EXPECT_EQ(h.total(), 4u);
    h.add(1.0);  // Bins are one unit wide: 1.0 opens bin 1.
    EXPECT_EQ(h.count(1), 1u);
}

TEST(Median, OddAndEven)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

} // namespace
} // namespace dramscope
