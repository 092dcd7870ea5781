/**
 * @file
 * Subarray map construction and row remapping.
 */

#include "dram/geometry.h"

#include "util/log.h"

namespace dramscope {
namespace dram {

RowAddr
remapRow(RowRemapScheme scheme, RowAddr logical)
{
    switch (scheme) {
      case RowRemapScheme::None:
        return logical;
      case RowRemapScheme::MfrA8Blk:
        // Reflect the upper half of each 8-row block: logical
        // {4,5,6,7} map to physical {7,6,5,4}.  The mapping is an
        // involution, so it also serves as the inverse.
        return (logical & 4) ? (logical ^ 3) : logical;
    }
    panic("remapRow: bad scheme");
}

SubarrayMap::SubarrayMap(const DeviceConfig &cfg)
    : cfg_(cfg)
{
    cfg.validate();
    const uint32_t n_rows = cfg.rowsPerBank;
    rowToSub_.resize(n_rows);

    RowAddr row = 0;
    uint32_t sub_index = 0;
    while (row < n_rows) {
        const uint32_t section = row / cfg.edgeSectionRows;
        for (const auto &entry : cfg.subarrayPattern) {
            for (uint32_t k = 0; k < entry.count; ++k) {
                Subarray sub;
                sub.index = sub_index;
                sub.firstRow = row;
                sub.height = entry.height;
                sub.section = section;
                sub.bottomEdge = (row % cfg.edgeSectionRows) == 0;
                sub.topEdge = ((row + entry.height) %
                               cfg.edgeSectionRows) == 0;
                for (uint32_t r = 0; r < entry.height; ++r)
                    rowToSub_[row + r] = sub_index;
                subs_.push_back(sub);
                row += entry.height;
                ++sub_index;
            }
        }
    }
    panicIf(row != n_rows, "SubarrayMap: pattern overflow");
}

const Subarray &
SubarrayMap::subarrayOf(RowAddr r) const
{
    panicIf(r >= rowToSub_.size(), "subarrayOf: row out of range");
    return subs_[rowToSub_[r]];
}

std::optional<RowAddr>
SubarrayMap::neighbor(RowAddr r, bool upper) const
{
    const Subarray &sub = subarrayOf(r);
    if (upper) {
        if (r == sub.lastRow())
            return std::nullopt;
        return r + 1;
    }
    if (r == sub.firstRow)
        return std::nullopt;
    return r - 1;
}

CopyRelation
SubarrayMap::copyRelation(RowAddr src, RowAddr dst) const
{
    const Subarray &s = subarrayOf(src);
    const Subarray &d = subarrayOf(dst);
    if (s.index == d.index)
        return CopyRelation::SameSubarray;
    if (s.section == d.section) {
        if (d.index == s.index + 1)
            return CopyRelation::DstAbove;
        if (d.index + 1 == s.index)
            return CopyRelation::DstBelow;
        // The two edge subarrays of a section share the section's
        // edge sense-amp stripe and work in tandem (O5).
        if ((s.bottomEdge && d.topEdge) || (s.topEdge && d.bottomEdge))
            return CopyRelation::EdgePair;
    }
    return CopyRelation::None;
}

bool
SubarrayMap::inEdgeSubarray(RowAddr r) const
{
    return subarrayOf(r).isEdge();
}

CellPolarity
SubarrayMap::polarityOf(RowAddr r) const
{
    switch (cfg_.polarityPolicy) {
      case CellPolarityPolicy::AllTrue:
        return CellPolarity::True;
      case CellPolarityPolicy::InterleavedPerSubarray:
        return (subarrayOf(r).index & 1) ? CellPolarity::Anti
                                         : CellPolarity::True;
    }
    panic("polarityOf: bad policy");
}

} // namespace dram
} // namespace dramscope
