/**
 * @file
 * Vendor presets matching the paper's Table I population and the
 * Table III structures.
 */

#include "dram/config.h"

#include <unordered_map>

#include "util/log.h"

namespace dramscope {
namespace dram {

uint32_t
DeviceConfig::patternRows() const
{
    uint32_t rows = 0;
    for (const auto &entry : subarrayPattern)
        rows += entry.count * entry.height;
    return rows;
}

void
DeviceConfig::validate() const
{
    if (subarrayPattern.empty())
        fatal(name + ": empty subarray pattern");
    const uint32_t pat = patternRows();
    if (pat == 0)
        fatal(name + ": zero pattern rows");
    // Divisors first (matsPerRow, groupBits and columnsPerRow divide
    // by them too); a burst is one uint64_t.
    if (edgeSectionRows == 0)
        fatal(name + ": zero edgeSectionRows");
    if (matWidth == 0)
        fatal(name + ": zero matWidth");
    if (rowBits == 0)
        fatal(name + ": zero rowBits");
    if (rdDataBits == 0 || rdDataBits > 64)
        fatal(name + ": rdDataBits must be in [1, 64]");
    if (rowsPerBank % pat != 0)
        fatal(name + ": rowsPerBank not a multiple of the pattern");
    if (edgeSectionRows % pat != 0)
        fatal(name + ": edge section not a multiple of the pattern");
    if (rowsPerBank % edgeSectionRows != 0)
        fatal(name + ": rowsPerBank not a multiple of the edge section");
    if (rowBits % matWidth != 0)
        fatal(name + ": rowBits % matWidth");
    if (rdDataBits % matsPerRow() != 0)
        fatal(name + ": rdDataBits % matsPerRow");
    if (rowBits % rdDataBits != 0)
        fatal(name + ": rowBits % rdDataBits");
    if (swizzlePerm.size() != groupBits())
        fatal(name + ": swizzlePerm size != groupBits");
    std::vector<bool> seen(swizzlePerm.size(), false);
    for (uint32_t v : swizzlePerm) {
        if (v >= swizzlePerm.size() || seen[v])
            fatal(name + ": swizzlePerm is not a permutation");
        seen[v] = true;
    }
    if (coupledRowDistance &&
        (*coupledRowDistance == 0 || *coupledRowDistance * 2 != rowsPerBank))
        fatal(name + ": coupled distance must be rowsPerBank / 2");
    if (rowBits % 64 != 0)
        fatal(name + ": rowBits must be 64-bit aligned");
}

namespace {

/** Subarray compositions from Table III. */
const std::vector<SubarrayPatternEntry> kPat640 = {{11, 640}, {2, 576}};
const std::vector<SubarrayPatternEntry> kPat832 = {{4, 832}, {1, 768}};
const std::vector<SubarrayPatternEntry> kPatC688 = {{2, 688}, {1, 672}};
const std::vector<SubarrayPatternEntry> kPatC2016 = {{1, 688}, {2, 680}};

/** Per-vendor intra-group swizzle permutations. */
const std::vector<uint32_t> kSwizzleA4 = {0, 2, 1, 3};
const std::vector<uint32_t> kSwizzleB8 = {0, 4, 2, 6, 1, 5, 3, 7};
const std::vector<uint32_t> kSwizzleC4 = {1, 0, 3, 2};

DeviceConfig
baseDdr4(Vendor vendor, ChipWidth width, int year)
{
    DeviceConfig cfg;
    cfg.vendor = vendor;
    cfg.type = DramType::DDR4;
    cfg.width = width;
    cfg.year = year;
    if (width == ChipWidth::X4) {
        cfg.rowsPerBank = 131072;
        cfg.rowBits = 4096;
        cfg.rdDataBits = 32;
    } else {
        cfg.rowsPerBank = 65536;
        cfg.rowBits = 8192;
        cfg.rdDataBits = 64;
    }
    switch (vendor) {
      case Vendor::A:
        cfg.matWidth = 512;
        cfg.rowRemap = RowRemapScheme::MfrA8Blk;
        cfg.polarityPolicy = CellPolarityPolicy::AllTrue;
        break;
      case Vendor::B:
        cfg.matWidth = 1024;
        cfg.rowRemap = RowRemapScheme::None;
        cfg.polarityPolicy = CellPolarityPolicy::AllTrue;
        break;
      case Vendor::C:
        cfg.matWidth = 512;
        cfg.rowRemap = RowRemapScheme::None;
        cfg.polarityPolicy = CellPolarityPolicy::InterleavedPerSubarray;
        break;
    }
    // Swizzle permutation size is rdDataBits / matsPerRow, which is 4
    // for 512-bit MATs and 8 for 1024-bit MATs at either width.
    if (cfg.matWidth == 512)
        cfg.swizzlePerm = (vendor == Vendor::C) ? kSwizzleC4 : kSwizzleA4;
    else
        cfg.swizzlePerm = kSwizzleB8;
    return cfg;
}

DeviceConfig
makeDdr4Preset(const std::string &id, Vendor vendor, ChipWidth width,
               int year, const std::vector<SubarrayPatternEntry> &pattern,
               uint32_t edge_section, bool coupled)
{
    DeviceConfig cfg = baseDdr4(vendor, width, year);
    cfg.name = id;
    cfg.subarrayPattern = pattern;
    cfg.edgeSectionRows = edge_section;
    if (coupled)
        cfg.coupledRowDistance = cfg.rowsPerBank / 2;
    cfg.validate();
    return cfg;
}

DeviceConfig
makeHbm2Preset(const std::string &id)
{
    DeviceConfig cfg;
    cfg.name = id;
    cfg.vendor = Vendor::A;
    cfg.type = DramType::HBM2;
    cfg.width = ChipWidth::X4;  // Modeled per 32-bit DQ group.
    cfg.year = 0;
    // One HBM2 pseudo-channel bank modeled with 16K rows so the Table
    // III relations (coupled distance = edge section = Nrow/2 = 8K)
    // hold exactly.
    cfg.rowsPerBank = 16384;
    cfg.rowBits = 4096;
    cfg.rdDataBits = 32;
    cfg.subarrayPattern = kPat832;
    cfg.edgeSectionRows = 8192;
    cfg.coupledRowDistance = 8192;
    cfg.polarityPolicy = CellPolarityPolicy::AllTrue;
    cfg.rowRemap = RowRemapScheme::MfrA8Blk;
    cfg.matWidth = 512;
    cfg.swizzlePerm = kSwizzleA4;
    cfg.timing.tCkNs = 1.67;  // HBM2 command interval (paper SS III-A).
    cfg.temperatureC = 25.0;  // HBM2 was tested at room temperature.
    cfg.validate();
    return cfg;
}

struct PresetDef
{
    PresetInfo info;
    DeviceConfig (*make)(const std::string &);
};

DeviceConfig
dispatchDdr4(const std::string &id)
{
    // id format: <vendor>_<width>_<year>
    struct Row
    {
        const char *id;
        Vendor vendor;
        ChipWidth width;
        int year;
        const std::vector<SubarrayPatternEntry> *pattern;
        uint32_t edgeSection;
        bool coupled;
    };
    static const Row rows[] = {
        // Mfr. A x4: 2016/2017 use the 640-row pattern with 16K-row
        // edge sections and coupled rows; 2018/2021 use the 832-row
        // pattern with 32K sections and no coupling (Table III).
        {"A_x4_2016", Vendor::A, ChipWidth::X4, 2016, &kPat640, 16384, true},
        {"A_x4_2017", Vendor::A, ChipWidth::X4, 2017, &kPat640, 16384, true},
        {"A_x4_2018", Vendor::A, ChipWidth::X4, 2018, &kPat832, 32768,
         false},
        {"A_x4_2021", Vendor::A, ChipWidth::X4, 2021, &kPat832, 32768,
         false},
        {"A_x8_2017", Vendor::A, ChipWidth::X8, 2017, &kPat640, 16384,
         false},
        {"A_x8_2018", Vendor::A, ChipWidth::X8, 2018, &kPat832, 32768,
         false},
        {"A_x8_2019", Vendor::A, ChipWidth::X8, 2019, &kPat640, 16384,
         false},
        {"B_x4_2019", Vendor::B, ChipWidth::X4, 2019, &kPat832, 32768,
         true},
        {"B_x8_2017", Vendor::B, ChipWidth::X8, 2017, &kPat832, 32768,
         false},
        {"B_x8_2018", Vendor::B, ChipWidth::X8, 2018, &kPat832, 32768,
         false},
        {"B_x8_2019", Vendor::B, ChipWidth::X8, 2019, &kPat832, 32768,
         false},
        {"C_x4_2018", Vendor::C, ChipWidth::X4, 2018, &kPatC688, 32768,
         false},
        {"C_x4_2021", Vendor::C, ChipWidth::X4, 2021, &kPatC688, 32768,
         false},
        {"C_x8_2016", Vendor::C, ChipWidth::X8, 2016, &kPatC2016, 4096,
         false},
        {"C_x8_2019", Vendor::C, ChipWidth::X8, 2019, &kPatC688, 32768,
         false},
    };
    for (const auto &row : rows) {
        if (id == row.id) {
            return makeDdr4Preset(id, row.vendor, row.width, row.year,
                                  *row.pattern, row.edgeSection,
                                  row.coupled);
        }
    }
    fatal("unknown DDR4 preset: " + id);
}

} // namespace

const std::vector<PresetInfo> &
presetTable()
{
    // Chip counts per group.  Table I's printed rows sum to more
    // chips than the text's totals (376 DDR4: 160 A / 128 B / 88 C);
    // we follow the text and scale Mfr. A's first x4 group down so
    // the vendor totals match.
    static const std::vector<PresetInfo> table = {
        {"A_x4_2016", 16}, {"A_x4_2017", 16}, {"A_x4_2018", 32},
        {"A_x4_2021", 32}, {"A_x8_2017", 16}, {"A_x8_2018", 32},
        {"A_x8_2019", 16}, {"B_x4_2019", 64}, {"B_x8_2017", 32},
        {"B_x8_2018", 24}, {"B_x8_2019", 8},  {"C_x4_2018", 32},
        {"C_x4_2021", 32}, {"C_x8_2016", 8},  {"C_x8_2019", 16},
        {"HBM2_A", 4},
    };
    return table;
}

DeviceConfig
makePreset(const std::string &id)
{
    if (id == "HBM2_A")
        return makeHbm2Preset(id);
    return dispatchDdr4(id);
}

std::vector<std::string>
presetIds()
{
    std::vector<std::string> ids;
    for (const auto &info : presetTable())
        ids.push_back(info.id);
    return ids;
}

DeviceConfig
makeTinyConfig()
{
    DeviceConfig cfg;
    cfg.name = "tiny";
    cfg.vendor = Vendor::A;
    cfg.type = DramType::DDR4;
    cfg.width = ChipWidth::X4;
    cfg.year = 2016;
    cfg.numBanks = 2;
    cfg.rowsPerBank = 1024;
    cfg.rowBits = 256;
    cfg.rdDataBits = 32;
    // Non-power-of-two heights, two heights coexisting: 2x48 + 1x32
    // per 128 rows.
    cfg.subarrayPattern = {{2, 48}, {1, 32}};
    cfg.edgeSectionRows = 256;
    cfg.coupledRowDistance = 512;
    cfg.polarityPolicy = CellPolarityPolicy::AllTrue;
    cfg.rowRemap = RowRemapScheme::MfrA8Blk;
    cfg.matWidth = 64;  // 4 MATs per row; groupBits = 8.
    cfg.swizzlePerm = {0, 4, 2, 6, 1, 5, 3, 7};
    cfg.validate();
    return cfg;
}

} // namespace dram
} // namespace dramscope
