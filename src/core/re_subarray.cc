/**
 * @file
 * Subarray mapper implementation.
 */

#include "core/re_subarray.h"

#include <numeric>

#include "util/log.h"

namespace dramscope {
namespace core {

namespace {

/**
 * Columns sampled per probe.  Full/half/none classification only
 * needs a sample; each column contributes an exact even/odd bitline
 * split, so eight columns are ample.
 */
constexpr uint32_t kSampleColumns = 8;

/** Hammer count for the AIB cross-check. */
constexpr uint64_t kCrossCheckHammer = 400000;

} // namespace

SubarrayMapper::SubarrayMapper(bender::Host &host, SubarrayOptions opts)
    : host_(host), opts_(opts)
{
}

CopyOutcome
SubarrayMapper::probeCopy(dram::RowAddr src, dram::RowAddr dst,
                          bool *inverted_out)
{
    const dram::BankId b = bender::Host::kProbeBank;
    const uint32_t all_cols = host_.config().columnsPerRow();
    const uint32_t n_sample = std::min(kSampleColumns, all_cols);
    std::vector<dram::ColAddr> cols;
    for (uint32_t k = 0; k < n_sample; ++k)
        cols.push_back(k * all_cols / n_sample);

    const uint32_t w = host_.config().rdDataBits;

    // Two trials with opposite source data: destination bits that
    // depend on the source are the copied bits, regardless of any
    // inversion the sense-amp structure introduces.
    host_.writeColumns(b, dst, cols, 0);
    host_.writeColumns(b, src, cols, ~0ULL);
    host_.rowCopy(b, src, dst);
    const BitVec d_ones =
        BitVec::fromBursts(host_.readColumns(b, dst, cols), w);

    host_.writeColumns(b, dst, cols, 0);
    host_.writeColumns(b, src, cols, 0);
    host_.rowCopy(b, src, dst);
    const BitVec d_zeros =
        BitVec::fromBursts(host_.readColumns(b, dst, cols), w);

    const size_t n = d_ones.size();
    const size_t changed = d_ones.hammingDistance(d_zeros);

    if (inverted_out && changed > 0) {
        // Copied bits under all-ones source data: a majority of zeros
        // means the copy inverted the data.  Of the changed bits,
        // d_ones holds copied_ones ones and d_zeros the rest; bits
        // equal in both trials add to both popcounts alike.
        const size_t copied_ones =
            (changed + d_ones.popcount() - d_zeros.popcount()) / 2;
        *inverted_out = copied_ones * 2 < changed;
    }

    if (changed >= n - n / 8)
        return CopyOutcome::Full;
    if (changed >= n / 4)
        return CopyOutcome::Half;
    if (changed <= n / 64)
        return CopyOutcome::None;
    warn("probeCopy: ambiguous copy fraction");
    return CopyOutcome::None;
}

SubarrayDiscovery
SubarrayMapper::discoverFirstSection()
{
    SubarrayDiscovery d;
    dram::RowAddr last_boundary = 0;
    for (dram::RowAddr r = 0; r + 1 < host_.config().rowsPerBank; ++r) {
        bool inverted = false;
        const CopyOutcome out = probeCopy(r, r + 1, &inverted);
        if (out == CopyOutcome::Full)
            continue;
        d.heights.push_back(r + 1 - last_boundary);
        last_boundary = r + 1;
        if (out == CopyOutcome::Half) {
            d.openBitline = true;
            d.copyInvertsData = inverted;
            continue;
        }
        // No copy: sense-amp stripes do not span this boundary — the
        // end of the edge section.
        d.sectionRows = r + 1;
        break;
    }
    fatalIf(d.sectionRows == 0,
            "discoverFirstSection: no section boundary within scan "
            "limit");

    // The edge-subarray tandem check (O5): the first and last rows of
    // a section belong to the two edge subarrays sharing the edge
    // sense-amp stripe, so RowCopy between them moves half the bits.
    d.edgePairConfirmed =
        probeCopy(0, d.sectionRows - 1) == CopyOutcome::Half;
    return d;
}

bool
SubarrayMapper::verifyPeriodicity(const SubarrayDiscovery &d,
                                  uint32_t samples, Rng &rng)
{
    const uint32_t n_rows = host_.config().rowsPerBank;
    if (d.sectionRows == 0 || n_rows % d.sectionRows != 0)
        return false;
    const uint32_t n_sections = n_rows / d.sectionRows;

    std::vector<uint32_t> cum(d.heights.size());
    std::partial_sum(d.heights.begin(), d.heights.end(), cum.begin());

    for (uint32_t s = 0; s < samples; ++s) {
        const uint32_t section = uint32_t(rng.below(n_sections));
        const dram::RowAddr base = section * d.sectionRows;
        const size_t bi = size_t(rng.below(cum.size()));
        const dram::RowAddr boundary = base + cum[bi];
        const bool last = bi + 1 == cum.size();
        const CopyOutcome expect =
            last ? CopyOutcome::None : CopyOutcome::Half;
        // At the very top of the bank, wrap to row 0: a different
        // section, so the expected outcome is still None.
        if (probeCopy(boundary - 1, boundary % n_rows) != expect)
            return false;
        // Interior check: a row pair inside a random subarray.
        const dram::RowAddr lo = bi == 0 ? base : base + cum[bi - 1];
        if (cum[bi] - (lo - base) >= 2) {
            if (probeCopy(lo, lo + 1) != CopyOutcome::Full)
                return false;
        }
    }
    return true;
}

bool
SubarrayMapper::aibCrossCheckBoundary(dram::RowAddr boundary)
{
    fatalIf(boundary < 2, "aibCrossCheckBoundary: boundary too low");
    const dram::BankId b = bender::Host::kProbeBank;
    auto logical = [&](dram::RowAddr phys) {
        return dram::remapRow(opts_.rowRemap, phys);
    };

    // Hammer the row just below the boundary: the row above the
    // boundary sits behind a sense-amp stripe and must stay clean,
    // while the inner neighbour flips.
    const dram::RowAddr aggr = boundary - 1;
    host_.writeRowPattern(b, logical(boundary - 2), ~0ULL);
    host_.writeRowPattern(b, logical(boundary), ~0ULL);
    host_.writeRowPattern(b, logical(aggr), 0);
    host_.hammer(b, logical(aggr), kCrossCheckHammer);

    const BitVec inner = host_.readRowBits(b, logical(boundary - 2));
    const BitVec outer = host_.readRowBits(b, logical(boundary));
    const size_t inner_flips = inner.size() - inner.popcount();
    const size_t outer_flips = outer.size() - outer.popcount();
    return inner_flips > 4 && outer_flips == 0;
}

} // namespace core
} // namespace dramscope
