/**
 * @file
 * Retention-based polarity classifier implementation.
 */

#include "core/re_polarity.h"

#include "util/log.h"

namespace dramscope {
namespace core {

namespace {

/** Refresh-free wait before reading back (2x the median works). */
constexpr double kWaitMs = 8000.0;

} // namespace

CellTypeClassifier::CellTypeClassifier(bender::Host &host) : host_(host)
{
}

PolarityResult
CellTypeClassifier::classify(const std::vector<dram::RowAddr> &probe_rows)
{
    const dram::BankId b = bender::Host::kProbeBank;
    PolarityResult result;

    // Alternating data: every row holds both ones and zeros, so decay
    // is observable whichever state is the charged one.
    const uint64_t pattern = 0x5555555555555555ULL;
    std::vector<BitVec> written;
    for (auto r : probe_rows) {
        host_.writeRowPattern(b, r, pattern);
        written.push_back(host_.readRowBits(b, r));
    }

    host_.waitMs(kWaitMs);

    for (size_t k = 0; k < probe_rows.size(); ++k) {
        PolarityProbe probe;
        probe.row = probe_rows[k];
        const BitVec after = host_.readRowBits(b, probe_rows[k]);
        for (size_t i = 0; i < after.size(); ++i) {
            const bool before_bit = written[k].get(i);
            const bool after_bit = after.get(i);
            if (before_bit && !after_bit)
                ++probe.onesToZeros;
            else if (!before_bit && after_bit)
                ++probe.zerosToOnes;
        }
        probe.decayed = probe.onesToZeros + probe.zerosToOnes > 0;
        probe.polarity = probe.onesToZeros >= probe.zerosToOnes
                             ? dram::CellPolarity::True
                             : dram::CellPolarity::Anti;
        if (probe.decayed) {
            if (probe.polarity == dram::CellPolarity::True)
                result.allAnti = false;
            else
                result.allTrue = false;
        }
        result.probes.push_back(probe);
    }
    result.mixed = !result.allTrue && !result.allAnti;
    return result;
}

} // namespace core
} // namespace dramscope
