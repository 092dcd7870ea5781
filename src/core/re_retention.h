/**
 * @file
 * Retention-time profiling (the paper's third reverse-engineering
 * technique, SS III-B, generalized).
 *
 * Beyond the true-/anti-cell classification, sweeping refresh-free
 * wait times yields the per-row retention distribution, identifies
 * the weak cells that bound the refresh window, and measures the
 * temperature acceleration of leakage.
 */

#ifndef DRAMSCOPE_CORE_RE_RETENTION_H
#define DRAMSCOPE_CORE_RE_RETENTION_H

#include <vector>

#include "bender/host.h"

namespace dramscope {
namespace core {

/** One point of the retention survival curve. */
struct RetentionPoint
{
    double waitMs = 0;
    uint64_t decayed = 0;  //!< Charged cells lost by this wait.
    uint64_t tested = 0;
    double fraction() const
    {
        return tested ? double(decayed) / double(tested) : 0.0;
    }
};

/** A weak cell found below the target retention time. */
struct WeakCell
{
    dram::RowAddr row;
    uint32_t hostBit;
    double boundMs;  //!< Tightest wait at which it was seen decayed.
};

/** Full profiling result. */
struct RetentionProfile
{
    std::vector<RetentionPoint> curve;
    std::vector<WeakCell> weakCells;

    /** Wait time where half the charged cells have decayed (ms),
     *  interpolated from the curve; 0 when not bracketed. */
    double medianMs = 0;
};

/** Options for the retention profiler. */
struct RetentionOptions
{
    dram::RowAddr baseRow = 64;
    uint32_t rows = 8;

    /** Refresh-free wait times to sweep (ms), ascending. */
    std::vector<double> waitsMs = {250, 500, 1000, 2000, 4000,
                                   8000, 16000, 32000};

    /** Report cells decaying at or below this wait as weak (at most 64). */
    double weakThresholdMs = 500;
};

/** Retention-time sweep through the command interface. */
class RetentionProfiler
{
  public:
    RetentionProfiler(bender::Host &host, RetentionOptions opts = {});

    /** Runs the sweep (each point uses a fresh write + wait). */
    RetentionProfile profile();

  private:
    bender::Host &host_;
    RetentionOptions opts_;
};

} // namespace core
} // namespace dramscope

#endif // DRAMSCOPE_CORE_RE_RETENTION_H
