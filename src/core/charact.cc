/**
 * @file
 * Characterization suite implementation.
 */

#include "core/charact.h"

#include <algorithm>

#include "util/log.h"
#include "util/stats.h"

namespace dramscope {
namespace core {

Characterization::Characterization(bender::Host &host, PhysMap map,
                                   CharactOptions opts)
    : host_(host), map_(std::move(map)), opts_(opts),
      sweep_(host, SweepOptions{opts.jobs, opts.sweepSeed,
                                opts.deviceFactory})
{
    row_bits_ = host_.config().rowBits;
    fatalIf(map_.rowBits() != row_bits_,
            "Characterization: PhysMap size mismatch");
}

dram::RowAddr
Characterization::logicalOf(dram::RowAddr phys) const
{
    return dram::remapRow(opts_.rowRemap, phys);
}

AttackResult
Characterization::runAttack(bool upper_aggressor, bool victim_even_wl,
                            const BitVec &victim_bits,
                            const BitVec &aggr_bits, uint64_t count,
                            double open_ns)
{
    const auto &cfg = host_.config();
    const dram::BankId b = bender::Host::kProbeBank;
    AttackResult result;
    result.flipsPerHostBit.assign(row_bits_, 0);
    result.cellsPerRow = row_bits_;

    // Group layout in physical space: victim and its single-sided
    // aggressor, padded so neighbouring groups never interact.  The
    // whole lattice is shifted to pin the victims' wordline parity.
    const uint32_t victim_off = upper_aggressor ? 1 : 2;
    const uint32_t aggr_off = upper_aggressor ? 2 : 1;
    const uint32_t want_parity = victim_even_wl ? 0 : 1;
    const uint32_t shift =
        (want_parity - ((opts_.baseRow + victim_off) & 1)) & 1;

    // Bound-check the whole probe region up front so the failure mode
    // is identical whichever shard would hit it first.
    if (opts_.victimRows > 0) {
        const dram::RowAddr last =
            opts_.baseRow + shift + 4 * (opts_.victimRows - 1) + 2;
        fatalIf(last >= cfg.rowsPerBank,
                "runAttack: probe region exceeds the bank");
    }

    // One self-contained sweep unit per victim group: each writes both
    // of its rows before hammering and reading, so a thread-local
    // replica yields the same bits as the serial shared host.
    const auto diffs = sweep_.map<BitVec>(
        opts_.victimRows, [&](ShardContext &ctx) {
            const dram::RowAddr group =
                opts_.baseRow + shift + 4 * ctx.shard;
            const dram::RowAddr victim_phys = group + victim_off;
            const dram::RowAddr aggr_phys = group + aggr_off;

            ctx.host.writeRowBits(b, logicalOf(victim_phys), victim_bits);
            ctx.host.writeRowBits(b, logicalOf(aggr_phys), aggr_bits);
            ctx.host.hammer(b, logicalOf(aggr_phys), count, open_ns);

            BitVec diff = ctx.host.readRowBits(b, logicalOf(victim_phys));
            diff ^= victim_bits;
            return diff;
        });

    // Merge in shard order.
    for (uint32_t g = 0; g < opts_.victimRows; ++g) {
        for (const size_t i : diffs[g].onesPositions())
            ++result.flipsPerHostBit[i];
        result.physRows.push_back(opts_.baseRow + shift + 4 * g +
                                  victim_off);
        ++result.rows;
    }
    return result;
}

std::vector<double>
Characterization::berVsPhysIndex(dram::AibMechanism mech,
                                 bool victim_data_one, bool upper_aggressor,
                                 uint32_t modulo, bool victim_even_wl)
{
    BitVec victim(row_bits_, victim_data_one);
    BitVec aggr(row_bits_, !victim_data_one);
    const bool hammer = mech == dram::AibMechanism::RowHammer;
    const AttackResult r = runAttack(
        upper_aggressor, victim_even_wl, victim, aggr,
        hammer ? opts_.hammerCount : opts_.pressCount,
        hammer ? bender::Host::kHammerOpenNs : bender::Host::kPressOpenNs);

    std::vector<double> ber(modulo, 0.0);
    std::vector<uint64_t> cells(modulo, 0);
    for (uint32_t i = 0; i < row_bits_; ++i) {
        const uint32_t k = map_.physOf(i) % modulo;
        ber[k] += r.flipsPerHostBit[i];
        cells[k] += r.rows;
    }
    for (uint32_t k = 0; k < modulo; ++k)
        ber[k] = cells[k] ? ber[k] / double(cells[k]) : 0.0;
    return ber;
}

GateTypeBer
Characterization::gateTypeBer(dram::AibMechanism mech)
{
    GateTypeBer out;
    const bool hammer = mech == dram::AibMechanism::RowHammer;
    const uint64_t count = hammer ? opts_.hammerCount : opts_.pressCount;
    const double open_ns =
        hammer ? bender::Host::kHammerOpenNs : bender::Host::kPressOpenNs;

    for (const bool data_one : {false, true}) {
        BitErrorRate ber_a, ber_b;
        for (const bool upper : {false, true}) {
            BitVec victim(row_bits_, data_one);
            BitVec aggr(row_bits_, !data_one);
            const AttackResult r =
                runAttack(upper, true, victim, aggr, count, open_ns);
            for (uint32_t i = 0; i < row_bits_; ++i) {
                const uint32_t bl = map_.physOf(i);
                // 6F^2 analysis (paper Figure 11): for an even WL,
                // even-bitline cells see their upper wordline as one
                // gate type and odd-bitline cells the other.  We
                // label them A and B; the paper cannot determine
                // which physical type each is, and neither can we.
                const bool gate_a = ((bl & 1) == 0) == upper;
                auto &acc = gate_a ? ber_a : ber_b;
                acc.add(r.flipsPerHostBit[i], r.rows);
            }
        }
        if (data_one) {
            out.chargedGateA = ber_a.value();
            out.chargedGateB = ber_b.value();
        } else {
            out.dischargedGateA = ber_a.value();
            out.dischargedGateB = ber_b.value();
        }
    }
    return out;
}

EdgeBerResult
Characterization::edgeVsTypical(
    const std::vector<dram::RowAddr> &typical_aggressors,
    const std::vector<dram::RowAddr> &edge_aggressors)
{
    EdgeBerResult out;
    const dram::BankId b = bender::Host::kProbeBank;

    auto measure = [&](const std::vector<dram::RowAddr> &aggressors,
                       bool victim_one) {
        BitVec victim(row_bits_, victim_one);
        BitVec aggr(row_bits_, !victim_one);
        // One sweep unit per aggressor row; integer flip counts merge
        // associatively, so the shard-order sum is bit-identical to
        // the serial accumulation.
        const auto flips = sweep_.map<uint64_t>(
            uint32_t(aggressors.size()),
            [&](ShardContext &ctx) -> uint64_t {
                const dram::RowAddr aggr_phys = aggressors[ctx.shard];
                const dram::RowAddr victim_phys = aggr_phys + 1;
                ctx.host.writeRowBits(b, logicalOf(victim_phys), victim);
                ctx.host.writeRowBits(b, logicalOf(aggr_phys), aggr);
                ctx.host.hammer(b, logicalOf(aggr_phys), opts_.hammerCount);
                const BitVec read =
                    ctx.host.readRowBits(b, logicalOf(victim_phys));
                return read.hammingDistance(victim);
            });
        BitErrorRate ber;
        for (const uint64_t f : flips)
            ber.add(f, row_bits_);
        return ber.value();
    };

    out.typicalAggr0Vic1 = measure(typical_aggressors, true);
    out.edgeAggr0Vic1 = measure(edge_aggressors, true);
    out.typicalAggr1Vic0 = measure(typical_aggressors, false);
    out.edgeAggr1Vic0 = measure(edge_aggressors, false);
    return out;
}

BitVec
Characterization::lattice(bool vic0, bool d1_opposite,
                          bool d2_opposite) const
{
    // Period-5 physical pattern: position 0 is Vic0, positions 1/4
    // its distance-1 neighbours, positions 2/3 its distance-2
    // neighbours (of the *next* lattice point on the other side).
    uint64_t pattern = 0;
    const bool d1 = vic0 ^ d1_opposite;
    const bool d2 = vic0 ^ d2_opposite;
    const bool bits[5] = {vic0, d1, d2, d2, d1};
    for (int k = 0; k < 5; ++k) {
        if (bits[k])
            pattern |= 1ULL << k;
    }
    return map_.hostBitsForPhysicalPattern(pattern, 5);
}

std::vector<uint32_t>
Characterization::latticePositions() const
{
    std::vector<uint32_t> out;
    for (uint32_t i = 0; i < row_bits_; ++i) {
        if (map_.physOf(i) % 5 == 0)
            out.push_back(i);
    }
    return out;
}

double
Characterization::relativeBerVictimNeighbors(bool vic0_one,
                                             bool dist1_opposite,
                                             bool dist2_opposite)
{
    const auto positions = latticePositions();
    BitVec aggr(row_bits_, !vic0_one);

    auto measure = [&](bool d1, bool d2) {
        const BitVec victim = lattice(vic0_one, d1, d2);
        const AttackResult r = runAttack(true, true, victim, aggr,
                                         opts_.hammerCount,
                                         bender::Host::kHammerOpenNs);
        uint64_t flips = 0;
        for (uint32_t i : positions)
            flips += r.flipsPerHostBit[i];
        return double(flips) / double(positions.size() * r.rows);
    };

    const double base = measure(false, false);
    const double variant = measure(dist1_opposite, dist2_opposite);
    return base > 0 ? variant / base : 0.0;
}

double
Characterization::relativeBerAggrNeighbors(bool vic0_one, bool aggr0_same,
                                           bool aggr1_same,
                                           bool aggr2_same)
{
    const auto positions = latticePositions();
    BitVec victim(row_bits_, vic0_one);

    auto aggr_lattice = [&](bool a0, bool a1, bool a2) {
        // Baseline aggressor value is the inverse of Vic0; selected
        // cells switch to Vic0's value.
        const bool inv = !vic0_one;
        const bool bits[5] = {a0 ? vic0_one : inv, a1 ? vic0_one : inv,
                              a2 ? vic0_one : inv, a2 ? vic0_one : inv,
                              a1 ? vic0_one : inv};
        uint64_t pattern = 0;
        for (int k = 0; k < 5; ++k) {
            if (bits[k])
                pattern |= 1ULL << k;
        }
        return map_.hostBitsForPhysicalPattern(pattern, 5);
    };

    auto measure = [&](bool a0, bool a1, bool a2) {
        const BitVec aggr = aggr_lattice(a0, a1, a2);
        const AttackResult r = runAttack(true, true, victim, aggr,
                                         opts_.hammerCount,
                                         bender::Host::kHammerOpenNs);
        uint64_t flips = 0;
        for (uint32_t i : positions)
            flips += r.flipsPerHostBit[i];
        return double(flips) / double(positions.size() * r.rows);
    };

    const double base = measure(false, false, false);
    const double variant = measure(aggr0_same, aggr1_same, aggr2_same);
    return base > 0 ? variant / base : 0.0;
}

uint64_t
Characterization::hcntForGroup(bender::Host &host,
                               dram::RowAddr victim_phys, bool upper,
                               const BitVec &victim_bits,
                               const BitVec &aggr_bits,
                               const std::vector<uint32_t> &vic0_positions)
{
    const dram::BankId b = bender::Host::kProbeBank;
    const dram::RowAddr aggr_phys =
        upper ? victim_phys + 1 : victim_phys - 1;

    auto probe = [&](uint64_t count) {
        host.writeRowBits(b, logicalOf(victim_phys), victim_bits);
        host.writeRowBits(b, logicalOf(aggr_phys), aggr_bits);
        host.hammer(b, logicalOf(aggr_phys), count);
        const BitVec read = host.readRowBits(b, logicalOf(victim_phys));
        for (uint32_t i : vic0_positions) {
            if (read.get(i) != victim_bits.get(i))
                return true;
        }
        return false;
    };

    uint64_t lo = 1, hi = 1u << 21;  // ~2M ACTs upper bound.
    if (!probe(hi))
        return hi;
    while (lo + 1 < hi) {
        const uint64_t mid = lo + (hi - lo) / 2;
        if (probe(mid))
            hi = mid;
        else
            lo = mid;
    }
    return hi;
}

double
Characterization::relativeHcnt(bool vic0_one, bool dist1_opposite,
                               bool dist2_opposite)
{
    // Paired per-group measurement: the same victim cells are probed
    // under the baseline and the variant pattern, so cell-to-cell
    // threshold variation cancels exactly in the per-group ratio.
    const auto positions = latticePositions();
    const BitVec aggr(row_bits_, !vic0_one);
    const BitVec base_bits = lattice(vic0_one, false, false);
    const BitVec var_bits =
        lattice(vic0_one, dist1_opposite, dist2_opposite);

    const uint32_t groups = std::min<uint32_t>(opts_.victimRows, 24);
    // Each shard measures its group under both patterns on the same
    // device, preserving the exact per-group pairing of the serial
    // path; a negative sentinel marks groups without a baseline.
    const auto raw = sweep_.map<double>(
        groups, [&](ShardContext &ctx) {
            const dram::RowAddr victim_phys =
                opts_.baseRow + 4 * ctx.shard + 1;
            const uint64_t base = hcntForGroup(ctx.host, victim_phys,
                                               true, base_bits, aggr,
                                               positions);
            const uint64_t variant = hcntForGroup(ctx.host, victim_phys,
                                                  true, var_bits, aggr,
                                                  positions);
            return base > 0 ? double(variant) / double(base) : -1.0;
        });
    std::vector<double> ratios;
    for (const double r : raw) {
        if (r >= 0.0)
            ratios.push_back(r);
    }
    return median(std::move(ratios));
}

double
Characterization::patternBer(uint8_t victim_nibble, uint8_t aggr_nibble)
{
    const BitVec victim =
        map_.hostBitsForPhysicalPattern(victim_nibble & 0xF, 4);
    const BitVec aggr =
        map_.hostBitsForPhysicalPattern(aggr_nibble & 0xF, 4);
    // The paper sweeps many victim rows, which mixes both wordline
    // parities; a fixed parity would bias patterns whose charge
    // layout happens to align with one gate phase.
    uint64_t flips = 0, cells = 0;
    for (const bool even_wl : {false, true}) {
        const AttackResult r =
            runAttack(true, even_wl, victim, aggr, opts_.hammerCount,
                      bender::Host::kHammerOpenNs);
        for (uint32_t i = 0; i < row_bits_; ++i)
            flips += r.flipsPerHostBit[i];
        cells += uint64_t(r.rows) * row_bits_;
    }
    return double(flips) / double(cells);
}

} // namespace core
} // namespace dramscope
