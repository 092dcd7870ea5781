/**
 * @file
 * Coupled-row detector implementation.
 */

#include "core/re_coupled.h"

#include "util/log.h"

namespace dramscope {
namespace core {

namespace {

constexpr uint32_t kWindow = 4;  //!< Victim scan radius.
constexpr size_t kMinFlips = 3;  //!< Flips that confirm a distance.

} // namespace

CoupledRowDetector::CoupledRowDetector(bender::Host &host,
                                       CoupledOptions opts)
    : host_(host), opts_(opts)
{
}

bool
CoupledRowDetector::testDistance(uint32_t distance)
{
    const auto &cfg = host_.config();
    const dram::BankId b = bender::Host::kProbeBank;
    const dram::RowAddr aggr = opts_.probeRow;
    fatalIf(uint64_t(aggr) + distance + kWindow >= cfg.rowsPerBank,
            "testDistance: probe row too high for this distance");
    const dram::RowAddr partner = aggr + distance;

    // Arm victim candidates around the suspected partner with the
    // strong all-ones pattern; the partner itself gets the inverse.
    for (dram::RowAddr r = partner - kWindow; r <= partner + kWindow; ++r) {
        host_.writeRowPattern(b, r, r == partner ? 0 : ~0ULL);
    }
    host_.writeRowPattern(b, aggr, 0);

    host_.hammer(b, aggr, opts_.hammerCount);

    size_t flips = 0;
    for (dram::RowAddr r = partner - kWindow; r <= partner + kWindow; ++r) {
        if (r == partner)
            continue;
        const BitVec bits = host_.readRowBits(b, r);
        flips += bits.size() - bits.popcount();
    }
    return flips >= kMinFlips;
}

std::optional<uint32_t>
CoupledRowDetector::detect()
{
    const uint32_t n_rows = host_.config().rowsPerBank;
    for (uint32_t distance : {n_rows / 2, n_rows / 4, n_rows / 8}) {
        if (testDistance(distance))
            return distance;
    }
    return std::nullopt;
}

} // namespace core
} // namespace dramscope
