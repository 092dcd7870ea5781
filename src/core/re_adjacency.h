/**
 * @file
 * Row-adjacency and internal-remap reverse engineering (common
 * pitfall (2), SS III-C).
 *
 * Method of the paper: single-sided RowHammer on a row; the two rows
 * with the most errors are its physically adjacent rows.  Probing a
 * block of rows reconstructs the chip's internal logical-to-physical
 * row remapping.
 */

#ifndef DRAMSCOPE_CORE_RE_ADJACENCY_H
#define DRAMSCOPE_CORE_RE_ADJACENCY_H

#include <vector>

#include "bender/host.h"
#include "dram/config.h"

namespace dramscope {
namespace core {

/** Error counts observed around a hammered row. */
struct AdjacencyProbe
{
    dram::RowAddr aggressor;
    /** (logical row, flip count), sorted by flips descending. */
    std::vector<std::pair<dram::RowAddr, size_t>> counts;
    /** Logical rows judged physically adjacent (1 or 2 entries). */
    std::vector<dram::RowAddr> neighbors;
};

/** Options for the adjacency mapper. */
struct AdjacencyOptions
{
    uint64_t hammerCount = 600000;
};

/** Discovers physical row adjacency through the command interface. */
class AdjacencyMapper
{
  public:
    AdjacencyMapper(bender::Host &host, AdjacencyOptions opts = {});

    /**
     * Hammers @p aggressor and scans the logical window around it for
     * bitflips.
     */
    AdjacencyProbe probe(dram::RowAddr aggressor);

    /**
     * Identifies the internal remap scheme by probing one aligned
     * 8-row block (plus margins).  @p block_base must be 8-aligned
     * and interior to a subarray.
     */
    dram::RowRemapScheme detectRemapScheme(dram::RowAddr block_base = 16);

  private:
    /** True when @p scheme predicts all measured neighbour sets. */
    bool schemeConsistent(dram::RowRemapScheme scheme,
                          const std::vector<AdjacencyProbe> &probes) const;

    bender::Host &host_;
    AdjacencyOptions opts_;
};

} // namespace core
} // namespace dramscope

#endif // DRAMSCOPE_CORE_RE_ADJACENCY_H
