/**
 * @file
 * Retention profiler implementation.
 */

#include "core/re_retention.h"

#include <algorithm>
#include <cmath>

#include "util/log.h"

namespace dramscope {
namespace core {

namespace {

constexpr size_t kMaxWeakCells = 64;  //!< Cap on reported weak cells.

} // namespace

RetentionProfiler::RetentionProfiler(bender::Host &host,
                                     RetentionOptions opts)
    : host_(host), opts_(opts)
{
    fatalIf(opts_.waitsMs.empty(), "RetentionProfiler: empty sweep");
    fatalIf(!std::is_sorted(opts_.waitsMs.begin(), opts_.waitsMs.end()),
            "RetentionProfiler: waits must ascend");
}

RetentionProfile
RetentionProfiler::profile()
{
    const dram::BankId b = bender::Host::kProbeBank;
    RetentionProfile out;

    for (const double wait_ms : opts_.waitsMs) {
        RetentionPoint point;
        point.waitMs = wait_ms;

        // Fresh charge for every sweep point: write all-ones (the
        // charged state in true-cell rows; anti-cell rows measure the
        // 0 -> 1 direction symmetrically via the inverse pattern).
        for (uint32_t k = 0; k < opts_.rows; ++k)
            host_.writeRowPattern(b, opts_.baseRow + k, ~0ULL);
        host_.waitMs(wait_ms);
        for (uint32_t k = 0; k < opts_.rows; ++k) {
            const dram::RowAddr row = opts_.baseRow + k;
            const BitVec bits = host_.readRowBits(b, row);
            point.tested += bits.size();
            point.decayed += bits.size() - bits.popcount();
            if (wait_ms <= opts_.weakThresholdMs) {
                for (size_t i = 0; i < bits.size() &&
                                   out.weakCells.size() < kMaxWeakCells;
                     ++i) {
                    if (!bits.get(i))
                        out.weakCells.push_back(
                            {row, uint32_t(i), wait_ms});
                }
            }
        }
        out.curve.push_back(point);
    }

    // Interpolate the median retention time in log-time space.
    for (size_t k = 1; k < out.curve.size(); ++k) {
        const double f0 = out.curve[k - 1].fraction();
        const double f1 = out.curve[k].fraction();
        if (f0 <= 0.5 && f1 >= 0.5 && f1 > f0) {
            const double t0 = std::log(out.curve[k - 1].waitMs);
            const double t1 = std::log(out.curve[k].waitMs);
            const double t =
                t0 + (0.5 - f0) / (f1 - f0) * (t1 - t0);
            out.medianMs = std::exp(t);
            break;
        }
    }
    return out;
}

} // namespace core
} // namespace dramscope
