/**
 * @file
 * Data-swizzling and MAT-structure reverse engineering (SS IV-A,
 * Figures 6 and 7; O1, O2).
 *
 * Three steps, exactly as in the paper:
 *
 *  1. Horizontal AIB influence (O11): flipping one victim bit boosts
 *     the flip rate of its four physically adjacent cells.  A
 *     differential sweep over every bit of a probe column (and its
 *     two neighbour columns) yields the physical adjacency graph of
 *     host data bits.
 *
 *  2. RowCopy across a subarray boundary transfers only the bitlines
 *     served by the shared sense-amp stripe, labelling every host bit
 *     as an even or odd bitline.
 *
 *  3. Parity orients the adjacency chains into physical order;
 *     connected components are MATs, giving the MAT count and width,
 *     and the per-MAT intra-group permutation — the full swizzle.
 */

#ifndef DRAMSCOPE_CORE_RE_SWIZZLE_H
#define DRAMSCOPE_CORE_RE_SWIZZLE_H

#include <cstdint>
#include <optional>
#include <vector>

#include "bender/host.h"
#include "core/physmap.h"
#include "dram/geometry.h"

namespace dramscope {
namespace core {

/** Options for the swizzle reverser. */
struct SwizzleOptions
{
    /** Probe column; default (UINT32_MAX) = middle column. */
    uint32_t probeColumn = UINT32_MAX;

    /** Victim groups (4 rows each: low aggr, victim, up aggr, gap). */
    uint32_t victimGroups = 250;

    /**
     * Hammer count per aggressor per group.  1.2M ACTs at ~49ns fit
     * inside one 64ms refresh window, the honest maximum.
     */
    uint64_t hammerCount = 1'200'000;

    /** First row of the probe region. */
    dram::RowAddr baseRow = 1000;

    /**
     * First subarray boundary row (from SubarrayMapper), used for the
     * even/odd bitline classification.  Must be > 0.  Interpreted as
     * a *physical* row (boundaries are block-aligned, so logical and
     * physical boundaries coincide).
     */
    dram::RowAddr subarrayBoundary = 0;

    /**
     * Internal row remap discovered by the AdjacencyMapper; the
     * reverser addresses physically-consecutive rows through it.
     */
    dram::RowRemapScheme rowRemap = dram::RowRemapScheme::None;
};

/** Everything discovered about the data path. */
struct SwizzleDiscovery
{
    uint32_t rdDataBits = 0;
    uint32_t matsPerRow = 0;   //!< Influence-graph components (O1).
    uint32_t matWidth = 0;     //!< rowBits / matsPerRow (O2).

    /** Component (MAT) of each RD_data bit, canonical ids. */
    std::vector<int> matOfRdBit;

    /** Bitline parity of each RD_data bit (0 even, 1 odd). */
    std::vector<int> blParity;

    /**
     * Recovered intra-group permutation: recoveredPerm[intra] is the
     * physical slot of intra-group index `intra` (matches
     * DeviceConfig::swizzlePerm when the chip is residue-structured).
     */
    std::vector<uint32_t> recoveredPerm;

    /** Parity pattern identical across all columns. */
    bool periodic = false;

    /** Influence-graph components form residue classes mod
     *  matsPerRow (all presets do). */
    bool residueStructured = false;

    /** Full reconstructed host-bit -> bitline map. */
    std::optional<PhysMap> physMap;

    /** Raw influence edges (host-bit pairs) for diagnostics. */
    std::vector<std::pair<uint32_t, uint32_t>> edges;
};

/** AIB + RowCopy based swizzle reverse engineering. */
class SwizzleReverser
{
  public:
    SwizzleReverser(bender::Host &host, SwizzleOptions opts);

    /** Runs the full three-step discovery. */
    SwizzleDiscovery discover();

  private:
    /**
     * One differential influence run: victims hold all zeros except
     * @p candidate (host bit, or none for the baseline); both
     * aggressors of every group are hammered; returns per-host-bit
     * flip counts summed over the victim rows.
     */
    std::vector<uint32_t>
    influenceRun(std::optional<uint32_t> candidate);

    /** Even/odd bitline classification via boundary RowCopy. */
    void classifyParity(SwizzleDiscovery &d);

    /** Builds chains from the edge list and extracts the swizzle. */
    void reconstruct(SwizzleDiscovery &d);

    bender::Host &host_;
    SwizzleOptions opts_;
    uint32_t columns_;
    uint32_t rd_bits_;
    uint32_t probe_col_;
    bool aggressors_written_ = false;
};

} // namespace core
} // namespace dramscope

#endif // DRAMSCOPE_CORE_RE_SWIZZLE_H
