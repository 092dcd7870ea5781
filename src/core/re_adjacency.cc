/**
 * @file
 * Adjacency mapper implementation.
 */

#include "core/re_adjacency.h"

#include <algorithm>

#include "dram/geometry.h"
#include "util/log.h"

namespace dramscope {
namespace core {

namespace {

constexpr uint32_t kWindow = 4;  //!< Rows scanned on each side.
constexpr size_t kMinFlips = 3;  //!< Flips needed to call a row adjacent.

} // namespace

AdjacencyMapper::AdjacencyMapper(bender::Host &host, AdjacencyOptions opts)
    : host_(host), opts_(opts)
{
}

AdjacencyProbe
AdjacencyMapper::probe(dram::RowAddr aggressor)
{
    const auto &cfg = host_.config();
    const dram::BankId b = bender::Host::kProbeBank;
    AdjacencyProbe result;
    result.aggressor = aggressor;

    // Candidate victims: the logical window around the aggressor.
    std::vector<dram::RowAddr> victims;
    const uint32_t lo = aggressor > kWindow ? aggressor - kWindow : 0;
    const uint32_t hi =
        std::min<uint32_t>(cfg.rowsPerBank - 1, aggressor + kWindow);
    for (dram::RowAddr r = lo; r <= hi; ++r) {
        if (r != aggressor)
            victims.push_back(r);
    }

    // Victims hold all-ones (charged in true-cell chips), the
    // aggressor the inverse: the strongest baseline pattern.
    for (auto v : victims)
        host_.writeRowPattern(b, v, ~0ULL);
    host_.writeRowPattern(b, aggressor, 0);

    host_.hammer(b, aggressor, opts_.hammerCount);

    for (auto v : victims) {
        const BitVec bits = host_.readRowBits(b, v);
        const size_t flips = bits.size() - bits.popcount();
        result.counts.emplace_back(v, flips);
    }
    std::sort(result.counts.begin(), result.counts.end(),
              [](const auto &a, const auto &b2) {
                  return a.second > b2.second;
              });
    for (const auto &[row, flips] : result.counts) {
        if (flips >= kMinFlips && result.neighbors.size() < 2)
            result.neighbors.push_back(row);
    }
    std::sort(result.neighbors.begin(), result.neighbors.end());
    return result;
}

bool
AdjacencyMapper::schemeConsistent(
    dram::RowRemapScheme scheme,
    const std::vector<AdjacencyProbe> &probes) const
{
    for (const auto &p : probes) {
        // Predicted neighbours: the logical rows whose physical
        // address is adjacent to the aggressor's physical address
        // (remap schemes here are involutions).
        const dram::RowAddr phys = remapRow(scheme, p.aggressor);
        std::vector<dram::RowAddr> expect = {
            remapRow(scheme, phys - 1), remapRow(scheme, phys + 1)};
        std::sort(expect.begin(), expect.end());
        if (expect != p.neighbors)
            return false;
    }
    return true;
}

dram::RowRemapScheme
AdjacencyMapper::detectRemapScheme(dram::RowAddr block_base)
{
    fatalIf(block_base % 8 != 0 || block_base < 8,
            "detectRemapScheme: block_base must be 8-aligned, interior");
    std::vector<AdjacencyProbe> probes;
    for (dram::RowAddr r = block_base; r < block_base + 8; ++r)
        probes.push_back(probe(r));

    for (auto scheme :
         {dram::RowRemapScheme::None, dram::RowRemapScheme::MfrA8Blk}) {
        if (schemeConsistent(scheme, probes))
            return scheme;
    }
    warn("detectRemapScheme: no known scheme matches; assuming None");
    return dram::RowRemapScheme::None;
}

} // namespace core
} // namespace dramscope
