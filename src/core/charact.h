/**
 * @file
 * The AIB characterization suite: produces the data behind every
 * evaluation figure of the paper (Figures 10, 12, 13, 14, 15, 16/17).
 *
 * All experiments run through the command interface.  Physical bit
 * positions come from a PhysMap (reverse engineered or ground truth —
 * benches state which) and physical row addressing from a row-remap
 * scheme discovered by the AdjacencyMapper.
 */

#ifndef DRAMSCOPE_CORE_CHARACT_H
#define DRAMSCOPE_CORE_CHARACT_H

#include <functional>
#include <vector>

#include "bender/host.h"
#include "core/physmap.h"
#include "core/sweep.h"
#include "dram/geometry.h"
#include "dram/types.h"

namespace dramscope {
namespace core {

/** Options shared by the characterization experiments. */
struct CharactOptions
{
    /** Victim rows per measurement (one per 4-row group). */
    uint32_t victimRows = 128;

    /**
     * Paper attack counts: 300K hammer, 8K press, each at its
     * paper open time (Host::kHammerOpenNs, Host::kPressOpenNs).
     */
    uint64_t hammerCount = 300000;
    uint64_t pressCount = 8192;

    /** First physical row of the probe region. */
    dram::RowAddr baseRow = 1024;

    /** Internal row remap discovered by the AdjacencyMapper. */
    dram::RowRemapScheme rowRemap = dram::RowRemapScheme::None;

    /**
     * Parallel sweep jobs: 0 resolves the DRAMSCOPE_JOBS environment
     * knob (default: hardware concurrency); 1 forces the legacy
     * serial path on the caller's host.  Results are bit-identical
     * either way (see core/sweep.h).
     */
    unsigned jobs = 0;

    /** Base seed of the per-shard RNG streams. */
    uint64_t sweepSeed = 0x5eedULL;

    /**
     * Backend factory for parallel sweep replicas (empty: dram::Chip).
     * Must match the backend of the host the suite is bound to, so
     * parallel shards run on equivalent devices.
     */
    DeviceFactory deviceFactory;
};

/** One attack run's raw outcome. */
struct AttackResult
{
    /** Flip count per host bit, summed over victim rows. */
    std::vector<uint32_t> flipsPerHostBit;
    uint32_t rows = 0;          //!< Victim rows measured.
    uint32_t cellsPerRow = 0;
    /** Physical victim rows measured (for per-cell analyses). */
    std::vector<dram::RowAddr> physRows;
};

/** Gate-type BER summary (Figure 13).  Gate labels A/B as in the
 *  paper: the analysis cannot tell which is passing vs neighboring. */
struct GateTypeBer
{
    double dischargedGateA = 0, dischargedGateB = 0;
    double chargedGateA = 0, chargedGateB = 0;
};

/** Edge-vs-typical BER summary (Figure 10). */
struct EdgeBerResult
{
    double typicalAggr0Vic1 = 0, edgeAggr0Vic1 = 0;
    double typicalAggr1Vic0 = 0, edgeAggr1Vic0 = 0;
};

/** The characterization suite. */
class Characterization
{
  public:
    /**
     * @param host Device under test.
     * @param map Host-bit to bitline map.
     * @param opts Experiment options.
     */
    Characterization(bender::Host &host, PhysMap map,
                     CharactOptions opts = {});

    /**
     * Core runner: victims at physical parity @p victim_even_wl, one
     * aggressor per victim on the chosen side; victim/aggressor rows
     * hold the given host-order patterns.  RowHammer and RowPress are
     * the same command kernel: @p open_ns selects the mechanism.
     */
    AttackResult runAttack(bool upper_aggressor, bool victim_even_wl,
                           const BitVec &victim_bits,
                           const BitVec &aggr_bits, uint64_t count,
                           double open_ns);

    /**
     * Figure 12: average BER per physical bit index (mod @p modulo)
     * for one panel (mechanism x victim data x aggressor direction),
     * even-WL victims.
     */
    std::vector<double> berVsPhysIndex(dram::AibMechanism mech,
                                       bool victim_data_one,
                                       bool upper_aggressor,
                                       uint32_t modulo = 32,
                                       bool victim_even_wl = true);

    /** Figure 13: BER aggregated by gate type and victim data. */
    GateTypeBer gateTypeBer(dram::AibMechanism mech);

    /**
     * Figure 10: BER of typical vs edge subarrays for (aggr, vic)
     * data (0,1) and (1,0).  Aggressor rows are physical addresses;
     * victims are their upper neighbours.
     */
    EdgeBerResult
    edgeVsTypical(const std::vector<dram::RowAddr> &typical_aggressors,
                  const std::vector<dram::RowAddr> &edge_aggressors);

    /**
     * Figure 14a: BER relative to the solid-victim baseline when the
     * distance-1 / distance-2 victim neighbours hold the opposite of
     * Vic0.  Only Vic0 positions (period-5 lattice) are measured.
     */
    double relativeBerVictimNeighbors(bool vic0_one, bool dist1_opposite,
                                      bool dist2_opposite);

    /**
     * Figure 14b: BER relative to the all-opposite-aggressor baseline
     * when the selected aggressor cells (Aggr0 / Aggr+-1 / Aggr+-2)
     * hold the same value as Vic0.
     */
    double relativeBerAggrNeighbors(bool vic0_one, bool aggr0_same,
                                    bool aggr1_same, bool aggr2_same);

    /**
     * Figure 15: Hcnt relative to the solid-victim baseline when the
     * distance-1 / distance-2 victim neighbours hold the opposite of
     * Vic0.  The aggressor row holds the inverse of Vic0 throughout
     * (the figure's setup), keeping Hcnt well inside one refresh
     * window.
     */
    double relativeHcnt(bool vic0_one, bool dist1_opposite,
                        bool dist2_opposite);

    /**
     * Figure 16: whole-victim-row BER when the victim and aggressor
     * rows repeat the given 4-bit physical patterns.
     */
    double patternBer(uint8_t victim_nibble, uint8_t aggr_nibble);

    /** The physical map in use. */
    const PhysMap &physMap() const { return map_; }

    /** Effective sweep worker count (1 = legacy serial path). */
    unsigned sweepJobs() const { return sweep_.jobs(); }

  private:
    /** First-flip search on one group (binary search on count). */
    uint64_t hcntForGroup(bender::Host &host, dram::RowAddr victim_phys,
                          bool upper, const BitVec &victim_bits,
                          const BitVec &aggr_bits,
                          const std::vector<uint32_t> &vic0_positions);

    /** Builds a period-5 Vic0 lattice pattern in host order. */
    BitVec lattice(bool vic0, bool d1_opposite, bool d2_opposite) const;

    /** Host positions whose physical index is on the Vic0 lattice. */
    std::vector<uint32_t> latticePositions() const;

    /** Logical row for a physical row (remap is an involution). */
    dram::RowAddr logicalOf(dram::RowAddr phys) const;

    bender::Host &host_;
    PhysMap map_;
    CharactOptions opts_;
    uint32_t row_bits_;
    SweepRunner sweep_;
};

} // namespace core
} // namespace dramscope

#endif // DRAMSCOPE_CORE_CHARACT_H
