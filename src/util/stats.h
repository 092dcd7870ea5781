/**
 * @file
 * Small statistics helpers used by the characterization suite.
 */

#ifndef DRAMSCOPE_UTIL_STATS_H
#define DRAMSCOPE_UTIL_STATS_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/log.h"

namespace dramscope {

/** Ratio of two counters; the core metric behind every BER figure. */
class BitErrorRate
{
  public:
    /** Records @p flipped errors out of @p tested cells. */
    void
    add(uint64_t flipped, uint64_t tested)
    {
        flipped_ += flipped;
        tested_ += tested;
    }

    /** Merges another accumulator. */
    void
    merge(const BitErrorRate &other)
    {
        flipped_ += other.flipped_;
        tested_ += other.tested_;
    }

    /** Total flipped bits. */
    uint64_t flipped() const { return flipped_; }

    /** Total tested bits. */
    uint64_t tested() const { return tested_; }

    /** flipped / tested, 0 when nothing was tested. */
    double
    value() const
    {
        return tested_ ? double(flipped_) / double(tested_) : 0.0;
    }

  private:
    uint64_t flipped_ = 0;
    uint64_t tested_ = 0;
};

/** Fixed-width histogram over [lo, hi). */
class Histogram
{
  public:
    /** @param bins Number of buckets; @param lo/@param hi range. */
    Histogram(size_t bins, double lo, double hi)
        : lo_(lo), hi_(hi), counts_(bins, 0)
    {
        fatalIf(bins == 0 || !(hi > lo), "Histogram: bad shape");
    }

    /** Adds a sample; out-of-range samples clamp to the edge bins. */
    void
    add(double x)
    {
        const double t = (x - lo_) / (hi_ - lo_);
        auto idx = static_cast<int64_t>(t * double(counts_.size()));
        idx = std::clamp<int64_t>(idx, 0, int64_t(counts_.size()) - 1);
        ++counts_[size_t(idx)];
        ++total_;
    }

    /** Adds @p n samples of the same value (bulk fast path). */
    void
    addMany(double x, uint64_t n)
    {
        if (n == 0)
            return;
        const double t = (x - lo_) / (hi_ - lo_);
        auto idx = static_cast<int64_t>(t * double(counts_.size()));
        idx = std::clamp<int64_t>(idx, 0, int64_t(counts_.size()) - 1);
        counts_[size_t(idx)] += n;
        total_ += n;
    }

    /**
     * Adds another histogram's buckets into this one.  Both must have
     * the same shape (bin count and range); counts are exact integers
     * so merging is commutative and order-independent.
     */
    void
    merge(const Histogram &other)
    {
        fatalIf(other.counts_.size() != counts_.size() ||
                    other.lo_ != lo_ || other.hi_ != hi_,
                "Histogram::merge: shape mismatch");
        for (size_t i = 0; i < counts_.size(); ++i)
            counts_[i] += other.counts_[i];
        total_ += other.total_;
    }

    /** Zeroes every bucket, keeping the shape. */
    void
    reset()
    {
        std::fill(counts_.begin(), counts_.end(), 0);
        total_ = 0;
    }

    /** Bucket count. */
    size_t bins() const { return counts_.size(); }

    /** Samples in bucket @p i. */
    uint64_t count(size_t i) const { return counts_.at(i); }

    /** Total samples. */
    uint64_t total() const { return total_; }

    /** Lower bound of the sample range. */
    double lo() const { return lo_; }

    /** Upper bound of the sample range. */
    double hi() const { return hi_; }

  private:
    double lo_, hi_;
    std::vector<uint64_t> counts_;
    uint64_t total_ = 0;
};

/**
 * Median of a sample vector (copies and sorts; characterization data
 * sets here are small).
 */
inline double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

} // namespace dramscope

#endif // DRAMSCOPE_UTIL_STATS_H
