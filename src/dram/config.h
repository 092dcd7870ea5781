/**
 * @file
 * Device configuration: the ground truth that the reverse-engineering
 * layer must recover through memory commands alone.
 *
 * Presets mirror the paper's tested population (Table I) and the
 * microarchitectural structures it uncovered (Table III).
 */

#ifndef DRAMSCOPE_DRAM_CONFIG_H
#define DRAMSCOPE_DRAM_CONFIG_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dram/disturb_params.h"
#include "dram/energy_params.h"
#include "dram/types.h"

namespace dramscope {
namespace dram {

/** One run of equal-height subarrays inside the repeating pattern. */
struct SubarrayPatternEntry
{
    uint32_t count;   //!< Number of consecutive subarrays of this height.
    uint32_t height;  //!< Rows per subarray.
};

/** Command timing parameters (ns).  Defaults model DDR4-1600. */
struct TimingParams
{
    double tCkNs = 1.25;        //!< Minimum command spacing (paper SS III-A).
    double tRcdNs = 13.75;      //!< ACT to RD/WR.
    double tRasNs = 32.0;       //!< ACT to PRE (full restore).
    double tRpNs = 13.75;       //!< PRE to next ACT (full precharge).
    double tRfcNs = 350.0;      //!< REF to next command.
    double tRefiNs = 7800.0;    //!< Nominal refresh command interval.
    double refreshWindowMs = 64.0;  //!< Retention window per JEDEC.
    double tRrdNs = 5.0;        //!< ACT to ACT, different banks.
    double tFawNs = 25.0;       //!< Window holding at most four ACTs.

    /** ACT to ACT on the same bank (tRAS + tRP). */
    double tRcNs() const { return tRasNs + tRpNs; }

    /**
     * ACT issued within this many ns after PRE finds the bitlines
     * still holding the previous row's values, triggering the
     * RowCopy charge transfer (an out-of-spec operation).
     */
    double rowCopyMaxGapNs = 6.0;
};

/** Data retention model parameters. */
struct RetentionParams
{
    /** Median cell retention time at the 75C reference (ms). */
    double medianRetentionMs = 4000.0;
    /** Lognormal sigma of per-cell retention times. */
    double sigmaLog = 1.1;
    /** Retention halves every this many degrees C above reference. */
    double tempHalveC = 10.0;
    /** Skip retention scans when elapsed time is below this (ms). */
    double minEvalElapsedMs = 25.0;
};

/** How true-/anti-cells are assigned. */
enum class CellPolarityPolicy
{
    AllTrue,                 //!< Mfr. A and B: every cell is a true-cell.
    InterleavedPerSubarray,  //!< Mfr. C: alternating per subarray.
};

/** Internal logical-to-physical row remapping scheme of a chip. */
enum class RowRemapScheme
{
    None,      //!< Mfr. B / C: sequential order preserved.
    MfrA8Blk,  //!< Mfr. A: upper half of each 8-row block reflected.
};

/**
 * Complete description of one simulated DRAM device.
 *
 * The reverse-engineering layer never reads this struct; it is the
 * hidden ground truth that tests compare discovered structure against.
 */
struct DeviceConfig
{
    std::string name;
    Vendor vendor = Vendor::A;
    DramType type = DramType::DDR4;
    ChipWidth width = ChipWidth::X4;
    int year = 2016;
    int densityGb = 8;

    uint32_t numBanks = 4;
    uint32_t rowsPerBank = 131072;  //!< Nrow.
    uint32_t rowBits = 4096;        //!< Cells per logical row.
    uint32_t rdDataBits = 32;       //!< Bits returned per RD per chip.

    /**
     * Repeating subarray composition (Table III): heterogeneous,
     * non-power-of-two subarray heights (O4).
     */
    std::vector<SubarrayPatternEntry> subarrayPattern;

    /**
     * Rows per edge-subarray section: the first and last subarray of
     * every section are edge subarrays working in tandem (O5).
     */
    uint32_t edgeSectionRows = 32768;

    /**
     * Row distance of the coupled-row pair (O3); activating row i
     * also activates row i + distance.  nullopt when not coupled.
     */
    std::optional<uint32_t> coupledRowDistance;

    CellPolarityPolicy polarityPolicy = CellPolarityPolicy::AllTrue;
    RowRemapScheme rowRemap = RowRemapScheme::None;

    uint32_t matWidth = 512;  //!< Cells per row within one MAT (O2).

    /**
     * Intra-group data swizzle: the permutation applied to the
     * groupBits() consecutive cells a MAT contributes to one RD
     * (Figure 7).  Must be a permutation of [0, groupBits()).
     */
    std::vector<uint32_t> swizzlePerm;

    TimingParams timing;
    RetentionParams retention;
    DisturbParams disturb;
    EnergyParams energy;

    double temperatureC = 75.0;
    uint64_t variationSeed = 0xd2a35c09ULL;  //!< Process variation seed.

    /** Number of MATs spanned by one row. */
    uint32_t matsPerRow() const { return rowBits / matWidth; }

    /** Bits each MAT contributes to one RD_data. */
    uint32_t groupBits() const { return rdDataBits / matsPerRow(); }

    /** Column addresses per row (in RD-burst units). */
    uint32_t columnsPerRow() const { return rowBits / rdDataBits; }

    /** Flat addresses the device exposes (banks * rows * columns);
     *  the space mc::AddrDecoder decodes request addresses into. */
    uint64_t addressSpace() const
    {
        return uint64_t(numBanks) * rowsPerBank * columnsPerRow();
    }

    /** Rows in one repeat of the subarray pattern. */
    uint32_t patternRows() const;

    /** Aborts with a diagnostic if the geometry is inconsistent. */
    void validate() const;
};

/**
 * Table I population entry: a distinct (vendor, width, year) group,
 * with the Table III structure its configuration is built from.
 */
struct PresetInfo
{
    std::string id;     //!< Stable identifier, e.g. "A_x4_2016".
    int chipCount;      //!< Chips of this group tested in the paper.
    DramType type;
    Vendor vendor;
    ChipWidth width;
    int year;           //!< 0 where Table I gives none (HBM2).
    const std::vector<SubarrayPatternEntry> *pattern;  //!< Subarrays.
    uint32_t edgeSectionRows;
    bool coupled;       //!< Coupled rows rowsPerBank / 2 apart.
};

/** Returns the full tested population of the paper (Table I). */
const std::vector<PresetInfo> &presetTable();

/**
 * Builds the device configuration for a preset id from presetTable().
 * fatal()s on unknown ids, naming the known ones.
 */
DeviceConfig makePreset(const std::string &id);

/** Convenience list of all preset ids. */
std::vector<std::string> presetIds();

/**
 * A deliberately small configuration for unit tests: same structural
 * features (non-power-of-two subarrays, edge sections, coupling,
 * swizzle) at a fraction of the size.
 */
DeviceConfig makeTinyConfig();

} // namespace dram
} // namespace dramscope

#endif // DRAMSCOPE_DRAM_CONFIG_H
