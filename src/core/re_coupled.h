/**
 * @file
 * Coupled-row activation detection (O3, SS IV-B).
 *
 * In coupled chips, activating row i also activates row i + Nrow/2,
 * so hammering i disturbs the *coupled row's* neighbours as well.
 * The detector hammers a probe row and checks for bitflips around
 * candidate coupled distances.
 */

#ifndef DRAMSCOPE_CORE_RE_COUPLED_H
#define DRAMSCOPE_CORE_RE_COUPLED_H

#include <optional>
#include <vector>

#include "bender/host.h"

namespace dramscope {
namespace core {

/** Options for coupled-row detection. */
struct CoupledOptions
{
    uint64_t hammerCount = 600000;
    dram::RowAddr probeRow = 1024;  //!< Aggressor used for probing.
};

/** Detects the coupled-row relation through AIB side effects. */
class CoupledRowDetector
{
  public:
    CoupledRowDetector(bender::Host &host, CoupledOptions opts = {});

    /**
     * Tests whether hammering the probe row flips bits around
     * probeRow + @p distance.
     */
    bool testDistance(uint32_t distance);

    /**
     * Sweeps candidate distances (Nrow/2, Nrow/4, Nrow/8) and returns
     * the detected coupled distance, or nullopt.
     */
    std::optional<uint32_t> detect();

  private:
    bender::Host &host_;
    CoupledOptions opts_;
};

} // namespace core
} // namespace dramscope

#endif // DRAMSCOPE_CORE_RE_COUPLED_H
