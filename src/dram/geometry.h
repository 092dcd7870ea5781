/**
 * @file
 * Physical geometry of a bank: 6F^2 cell sites, gate types, the
 * subarray map with open-bitline stripes, internal row remapping and
 * cell polarity.
 *
 * All row indices in this module are *physical* (post internal
 * remap); the Chip translates logical addresses before using it.
 */

#ifndef DRAMSCOPE_DRAM_GEOMETRY_H
#define DRAMSCOPE_DRAM_GEOMETRY_H

#include <optional>
#include <vector>

#include "dram/config.h"
#include "dram/types.h"

namespace dramscope {
namespace dram {

/**
 * Returns the 6F^2 site of cell {physRow, bl}: top and bottom cells
 * alternate along the bitline index and the assignment reverses
 * between even and odd wordlines (Figure 11).
 */
inline CellSite
cellSite(RowAddr phys_row, BitlineIdx bl)
{
    return ((phys_row + bl) & 1) == 0 ? CellSite::Bottom : CellSite::Top;
}

/**
 * Gate type that an adjacent aggressor wordline presents to a victim
 * cell.  A bottom cell shares its P-substrate with the wordline above
 * it (upper WL = neighboring gate); a top cell with the one below.
 *
 * @param victim_row Physical row of the victim cell.
 * @param bl Bitline index of the victim cell.
 * @param aggressor_is_upper True when the aggressor row is
 *        victim_row + 1, false when victim_row - 1.
 */
inline GateType
gateType(RowAddr victim_row, BitlineIdx bl, bool aggressor_is_upper)
{
    const bool bottom = cellSite(victim_row, bl) == CellSite::Bottom;
    return (bottom == aggressor_is_upper) ? GateType::Neighboring
                                          : GateType::Passing;
}

/**
 * Internal logical-to-physical row remapping (common pitfall (2)).
 * Both directions, since the schemes used here are involutions.
 */
RowAddr remapRow(RowRemapScheme scheme, RowAddr logical);

/** One subarray of a bank. */
struct Subarray
{
    uint32_t index;      //!< Global index within the bank.
    RowAddr firstRow;    //!< First physical row.
    uint32_t height;     //!< Rows in this subarray.
    uint32_t section;    //!< Edge-section index.
    bool bottomEdge;     //!< First subarray of its section.
    bool topEdge;        //!< Last subarray of its section.

    bool isEdge() const { return bottomEdge || topEdge; }
    RowAddr lastRow() const { return firstRow + height - 1; }
    bool
    contains(RowAddr r) const
    {
        return r >= firstRow && r <= lastRow();
    }
};

/** How two rows relate for the RowCopy charge-sharing operation. */
enum class CopyRelation
{
    SameSubarray,  //!< Full copy, charge preserved.
    DstBelow,      //!< Dst in the subarray below: odd dst BLs, inverted.
    DstAbove,      //!< Dst in the subarray above: even dst BLs, inverted.
    EdgePair,      //!< Dst in the paired edge subarray (shared stripe).
    None,          //!< No shared sense-amp stripe: no copy possible.
};

/**
 * Precomputed subarray layout of one bank with open-bitline stripe
 * relations.  Within a section, consecutive subarrays share a stripe;
 * the first and last subarray of each section share the section's
 * edge stripe and work in tandem (O5).
 */
class SubarrayMap
{
  public:
    explicit SubarrayMap(const DeviceConfig &cfg);

    /** Number of subarrays in the bank. */
    size_t count() const { return subs_.size(); }

    /** Subarray by global index. */
    const Subarray &subarray(size_t idx) const { return subs_.at(idx); }

    /** Subarray containing physical row @p r. */
    const Subarray &subarrayOf(RowAddr r) const;

    /**
     * Physical AIB neighbour of @p r in the given direction, or
     * nullopt at a subarray boundary (sense amplifiers block
     * disturbance, SS IV-C).
     */
    std::optional<RowAddr> neighbor(RowAddr r, bool upper) const;

    /** RowCopy relation between a source and a destination row. */
    CopyRelation copyRelation(RowAddr src, RowAddr dst) const;

    /** True when row @p r lies in an edge subarray (O5/O6). */
    bool inEdgeSubarray(RowAddr r) const;

    /** Cell polarity of row @p r under the configured policy. */
    CellPolarity polarityOf(RowAddr r) const;

  private:
    const DeviceConfig &cfg_;
    std::vector<Subarray> subs_;
    std::vector<uint32_t> rowToSub_;  //!< Physical row -> subarray index.
};

} // namespace dram
} // namespace dramscope

#endif // DRAMSCOPE_DRAM_GEOMETRY_H
