/**
 * @file
 * MC-side activation tracking (Graphene-style Misra-Gries counters)
 * with optional coupled-row awareness (SS VI-A/VI-B).
 *
 * The paper's point: a tracker that does not know the coupled-row
 * relation (O3) can be bypassed by splitting activations across a
 * coupled pair, and its victim refreshes miss the coupled row's
 * neighbours entirely.
 */

#ifndef DRAMSCOPE_CORE_PROTECT_TRACKER_H
#define DRAMSCOPE_CORE_PROTECT_TRACKER_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dram/types.h"

namespace dramscope {
namespace core {

/** Tracker configuration. */
struct TrackerOptions
{
    uint32_t tableSize = 64;

    /** Activation count that triggers a victim refresh. */
    uint64_t threshold = 20000;

    /**
     * When true, every activation is accounted to the canonical
     * representative of its coupled pair and mitigation refreshes the
     * neighbours of both rows.
     */
    bool coupledAware = false;

    /** Coupled distance (rowsPerBank / 2) when aware; 0 otherwise. */
    uint32_t coupledDistance = 0;
};

/** Misra-Gries frequent-row tracker issuing victim-refresh targets. */
class ActivationTracker
{
  public:
    explicit ActivationTracker(TrackerOptions opts);

    /**
     * Accounts @p count activations of @p row and returns the rows
     * whose neighbours must be refreshed now (empty when no counter
     * crossed the threshold).  Counters reset on mitigation.
     */
    std::vector<dram::RowAddr> onActivate(dram::RowAddr row,
                                          uint64_t count = 1);

    /** Clears all counters (refresh-window boundary). */
    void reset();

    /** Mitigations issued so far. */
    uint64_t mitigations() const { return mitigations_; }

  private:
    /** Canonical row under coupled-awareness. */
    dram::RowAddr canonical(dram::RowAddr row) const;

    TrackerOptions opts_;
    std::unordered_map<dram::RowAddr, uint64_t> counters_;
    uint64_t spill_ = 0;  //!< Misra-Gries decrement floor.
    uint64_t mitigations_ = 0;
};

} // namespace core
} // namespace dramscope

#endif // DRAMSCOPE_CORE_PROTECT_TRACKER_H
