/**
 * @file
 * True-cell / anti-cell classification through retention tests
 * (SS III-B).
 *
 * Charge leaks from the charged state to the discharged state, so
 * after a long refresh-free wait, true cells only show 1 -> 0 flips
 * and anti cells only 0 -> 1 flips.
 */

#ifndef DRAMSCOPE_CORE_RE_POLARITY_H
#define DRAMSCOPE_CORE_RE_POLARITY_H

#include <vector>

#include "bender/host.h"
#include "dram/types.h"

namespace dramscope {
namespace core {

/** Per-probe-row classification. */
struct PolarityProbe
{
    dram::RowAddr row;
    size_t onesToZeros = 0;
    size_t zerosToOnes = 0;
    dram::CellPolarity polarity = dram::CellPolarity::True;
    bool decayed = false;  //!< Any retention flips observed at all.
};

/** Summary over all probe rows. */
struct PolarityResult
{
    std::vector<PolarityProbe> probes;
    bool allTrue = true;
    bool allAnti = true;
    bool mixed = false;  //!< Both polarities present (Mfr. C style).
};

/** Retention-based cell polarity classifier. */
class CellTypeClassifier
{
  public:
    explicit CellTypeClassifier(bender::Host &host);

    /**
     * Writes a half-ones/half-zeros pattern to every probe row, waits
     * without refresh, and classifies each row by its decay
     * direction.
     */
    PolarityResult classify(const std::vector<dram::RowAddr> &probe_rows);

  private:
    bender::Host &host_;
};

} // namespace core
} // namespace dramscope

#endif // DRAMSCOPE_CORE_RE_POLARITY_H
