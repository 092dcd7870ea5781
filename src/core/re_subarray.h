/**
 * @file
 * Subarray-structure reverse engineering through RowCopy (SS IV-C).
 *
 * RowCopy only transfers charge between rows that share sense-amp
 * stripes: all bits within a subarray, half the bits between
 * stripe-sharing subarrays (the open-bitline structure), and none
 * otherwise.  Scanning consecutive row pairs therefore reveals
 * subarray boundaries (half-copy), section boundaries (no copy), the
 * edge-subarray tandem pairs, and whether copies invert the data.
 */

#ifndef DRAMSCOPE_CORE_RE_SUBARRAY_H
#define DRAMSCOPE_CORE_RE_SUBARRAY_H

#include <vector>

#include "bender/host.h"
#include "dram/geometry.h"
#include "util/rng.h"

namespace dramscope {
namespace core {

/** Classified result of one RowCopy probe. */
enum class CopyOutcome { Full, Half, None };

/** Everything the RowCopy scan uncovers about one device. */
struct SubarrayDiscovery
{
    /** Subarray heights of the first edge section, in row order. */
    std::vector<uint32_t> heights;

    /** Rows per edge section (distance between no-copy boundaries). */
    uint32_t sectionRows = 0;

    /** Half-copies observed => open bitline structure (O5 context). */
    bool openBitline = false;

    /** Cross-subarray copies return inverted data (Mfr. A/B). */
    bool copyInvertsData = false;

    /** RowCopy(first row of section, last row of section) == Half. */
    bool edgePairConfirmed = false;
};

/** Options for the subarray mapper. */
struct SubarrayOptions
{
    /** Internal row remap (for the AIB cross-check addressing). */
    dram::RowRemapScheme rowRemap = dram::RowRemapScheme::None;
};

/** RowCopy-driven structure discovery. */
class SubarrayMapper
{
  public:
    SubarrayMapper(bender::Host &host, SubarrayOptions opts = {});

    /**
     * Probes RowCopy from @p src to @p dst.
     * @param inverted_out When non-null and the outcome is Full or
     *        Half, receives whether copied bits arrived inverted.
     */
    CopyOutcome probeCopy(dram::RowAddr src, dram::RowAddr dst,
                          bool *inverted_out = nullptr);

    /**
     * Scans consecutive row pairs from row 0 until the first no-copy
     * boundary, returning heights, the section size, bitline
     * structure, inversion behaviour and the edge-pair check.
     */
    SubarrayDiscovery discoverFirstSection();

    /**
     * Verifies that the first section's structure repeats across the
     * bank by sampling @p samples random boundary positions.
     */
    bool verifyPeriodicity(const SubarrayDiscovery &d, uint32_t samples,
                           Rng &rng);

    /**
     * AIB cross-validation of a RowCopy-derived boundary (the paper
     * used RowCopy for speed and AIB for validation, SS IV-C): sense
     * amplifiers block disturbance, so hammering the last row below a
     * boundary must flip only its inner neighbour.
     * @param boundary First physical row of a subarray (> 1).
     */
    bool aibCrossCheckBoundary(dram::RowAddr boundary);

  private:
    bender::Host &host_;
    SubarrayOptions opts_;
};

} // namespace core
} // namespace dramscope

#endif // DRAMSCOPE_CORE_RE_SUBARRAY_H
