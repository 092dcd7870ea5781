/**
 * @file
 * SS VI-A/VI-B reproduction: coupled-row activation vs existing AIB
 * protections — split-activation counter evasion, the row-swapping
 * bypass, the victim-refresh nuance, and DRFM as the fix.
 */

#include <cstdio>
#include <functional>
#include <utility>

#include "bench/bench_common.h"
#include "bender/host.h"
#include "core/protect/mitigation.h"
#include "dram/chip.h"
#include "util/table.h"

using namespace dramscope;

namespace {

constexpr uint64_t kThreshold = 6000;

struct Scenario
{
    std::string name;
    uint64_t mitigations = 0;
    size_t flips = 0;
};

/** Victim rows around both halves of a coupled pair. */
std::vector<dram::RowAddr>
victimRows(dram::RowAddr aggr, uint32_t distance)
{
    const dram::RowAddr partner = aggr ^ distance;
    return {aggr - 1, aggr + 1, partner - 1, partner + 1};
}

size_t
countFlips(bender::Host &host, dram::RowAddr aggr, uint32_t distance)
{
    size_t flips = 0;
    for (const auto v : victimRows(aggr, distance)) {
        const BitVec row = host.readRowBits(0, v);
        flips += row.size() - row.popcount();
    }
    return flips;
}

void
armVictims(bender::Host &host, dram::RowAddr aggr, uint32_t distance)
{
    for (const auto v : victimRows(aggr, distance))
        host.writeRowPattern(0, v, ~0ULL);
    host.writeRowPattern(0, aggr, 0);
    host.writeRowPattern(0, aggr ^ distance, 0);
}

/**
 * Runs @p attack on @p pairs coupled pairs of a fresh chip, each with
 * armed victims, and totals the victim bitflips.
 */
Scenario
attackPairs(std::string name, const dram::DeviceConfig &cfg,
            uint32_t pairs,
            const std::function<void(bender::Host &, dram::RowAddr)> &attack)
{
    dram::Chip chip(cfg);
    bender::Host host(chip);
    const uint32_t distance = *cfg.coupledRowDistance;
    Scenario s{std::move(name)};
    for (uint32_t k = 0; k < pairs; ++k) {
        const dram::RowAddr aggr = 1000 + 8 * k;
        armVictims(host, aggr, distance);
        attack(host, aggr);
        s.flips += countFlips(host, aggr, distance);
    }
    return s;
}

/**
 * The in-DRAM RFM/DRFM cadence: @p count ACTs of @p row in four
 * bursts, each accounted and followed by the sequences it triggered.
 */
void
hammerInBursts(bender::Host &host, core::Mitigation &mit,
               dram::RowAddr row, uint64_t count)
{
    for (int burst = 0; burst < 4; ++burst) {
        host.hammer(0, row, count / 4);
        mit.onActivate(0, row, count / 4);
        for (const auto &seq : mit.pendingCommands())
            core::executeSequence(host, seq);
    }
}

} // namespace

int
main()
{
    benchutil::header(
        "SS VI-A/VI-B: coupled-row activation vs AIB protections",
        "split activations bypass coupled-unaware trackers; MC-side "
        "row swapping is neutralized (only row A is relocated); "
        "victim-refresh stays incidentally safe; coupled-aware "
        "tracking and DRFM stop the attack");

    // Mfr. B x4 2019: a real coupled preset without internal remap.
    const dram::DeviceConfig cfg = dram::makePreset("B_x4_2019");
    const uint32_t distance = *cfg.coupledRowDistance;
    const uint32_t pairs = benchutil::scaled(8, 4);

    std::vector<Scenario> results;

    // --- Scenarios 1-2: split attack vs MC-side trackers.  Each
    // address stays just under the threshold, but the shared
    // wordline sees both halves. ---
    for (const bool aware : {false, true}) {
        core::TrackerOptions topts;
        topts.threshold = kThreshold;
        topts.coupledAware = aware;
        topts.coupledDistance = aware ? distance : 0;
        core::GrapheneMitigation mit(cfg, topts);
        results.push_back(attackPairs(
            aware ? "split attack vs coupled-aware tracker"
                  : "split attack vs unaware tracker",
            cfg, pairs, [&](bender::Host &host, dram::RowAddr aggr) {
                core::hammerThroughMitigation(host, mit, 0, aggr,
                                              kThreshold - 100);
                core::hammerThroughMitigation(host, mit, 0,
                                              aggr ^ distance,
                                              kThreshold - 100);
            }));
        results.back().mitigations = mit.tracker(0).mitigations();
    }

    // --- Scenarios 3-4: row swap, then hammer the partner. ---
    for (const bool aware : {false, true}) {
        core::RowSwapOptions ropts;
        ropts.threshold = kThreshold;
        ropts.spareBase = 40000;
        ropts.coupledAware = aware;
        ropts.coupledDistance = aware ? distance : 0;
        core::RowSwapMitigation mit(cfg, ropts);
        results.push_back(attackPairs(
            aware ? "same attack vs coupled-aware row swap"
                  : "swap-then-hammer-partner vs row swap",
            cfg, pairs, [&](bender::Host &host, dram::RowAddr aggr) {
                // The first hammer triggers the swap.
                core::hammerThroughMitigation(host, mit, 0, aggr,
                                              kThreshold);
                core::hammerThroughMitigation(host, mit, 0,
                                              aggr ^ distance, kThreshold);
            }));
        results.back().mitigations = mit.swaps();
    }

    // --- Scenario 5: straight attack vs victim refresh (nuance). ---
    {
        core::TrackerOptions topts;
        topts.threshold = kThreshold;
        core::GrapheneMitigation mit(cfg, topts);
        results.push_back(attackPairs(
            "straight attack vs victim refresh (unaware)", cfg, pairs,
            [&](bender::Host &host, dram::RowAddr aggr) {
                core::hammerThroughMitigation(host, mit, 0, aggr,
                                              10 * kThreshold);
            }));
        results.back().mitigations = mit.tracker(0).mitigations();
    }

    // --- Scenarios 6-7: split attack vs in-DRAM DRFM and RFM. ---
    const auto splitInDram = [&](const char *name, core::Mitigation &mit) {
        results.push_back(attackPairs(
            name, cfg, pairs, [&](bender::Host &host, dram::RowAddr aggr) {
                for (const dram::RowAddr a : {aggr, aggr ^ distance})
                    hammerInBursts(host, mit, a, kThreshold - 100);
            }));
        results.back().mitigations = mit.fired();
    };
    core::DrfmMitigation drfm(cfg, kThreshold / 2);
    splitInDram("split attack vs DRFM (in-DRAM adjacency)", drfm);
    core::RfmMitigation rfm(cfg, kThreshold / 2, 16);
    splitInDram("split attack vs RFM + in-DRAM tracker", rfm);

    Table t({"Scenario", "Mitigations issued", "Victim bitflips",
             "Attack outcome"});
    for (const auto &s : results) {
        t.addRow({s.name, Table::num(s.mitigations),
                  Table::num(uint64_t(s.flips)),
                  s.flips > 0 ? "SUCCEEDS" : "defeated"});
    }
    t.print();
    benchutil::maybeWriteCsv(t, "protect_coupled");
    std::printf("\nCoupled-row activation (O3) defeats MC-side trackers "
                "and row swapping unless they know the pair relation; "
                "victim-refresh is incidentally safe because its "
                "refresh ACT is coupled too; DRFM mitigates in-DRAM "
                "with true adjacency (SS VI-B).\n");
    return 0;
}
