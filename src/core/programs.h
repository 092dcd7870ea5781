/**
 * @file
 * The built-in program catalog: every command program the toolkit's
 * layers (Host convenience operations, characterization / attack
 * suites, RE tools, protection controllers) issue, instantiated with
 * their paper-default parameters for a given device configuration.
 *
 * The catalog is the contract behind "all built-in programs lint
 * clean": `dramscope_cli lint` prints the linter's verdict for each
 * entry, tests assert the exact expected-violation annotations
 * (RowCopy flags tRP/tRC, hammer passes with none), and a new
 * program builder added anywhere in the stack gets pre-flight
 * coverage by adding one registry row and one case here.
 */

#ifndef DRAMSCOPE_CORE_PROGRAMS_H
#define DRAMSCOPE_CORE_PROGRAMS_H

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bender/program.h"
#include "dram/config.h"

namespace dramscope {
namespace core {

/**
 * The catalog registry: X(Enumerator, "name", "origin"), in catalog
 * order; the origin is the layer that sends the program.
 */
#define DRAMSCOPE_CATALOG_PROGRAMS(X)                                       \
    X(WriteRow, "write-row", "host")                                        \
    X(ReadRow, "read-row", "host")                                          \
    X(WriteColumns, "write-columns", "host")                                \
    X(ReadColumns, "read-columns", "host")                                  \
    X(Hammer, "hammer", "charact")                                          \
    X(Press, "press", "charact")                                            \
    X(HammerRe, "hammer-re", "re_adjacency")                                \
    X(RowCopy, "rowcopy", "re_subarray")                                    \
    X(Refresh, "refresh", "host")                                           \
    X(Mitigate, "mitigate", "protect/tracker")                              \
    X(RfmMitigate, "rfm-mitigate", "protect/mitigation")                    \
    X(RowSwapMigrate, "rowswap-migrate", "protect/mitigation")

/** Catalog program ids. */
enum class CatalogProgram : uint8_t
{
#define X(name, id, origin) name,
    DRAMSCOPE_CATALOG_PROGRAMS(X)
#undef X
};

/** Static description of one catalog program. */
struct ProgramInfo
{
    CatalogProgram program;
    const char *id;      //!< Stable name, e.g. "rowcopy".
    const char *origin;  //!< Layer that sends it, e.g. "re_subarray".
};

/** The catalog registry, indexed by CatalogProgram enumerator order. */
std::span<const ProgramInfo> programTable();

/** One catalog entry. */
struct NamedProgram
{
    std::string name;      //!< Stable id, e.g. "rowcopy".
    std::string origin;    //!< Layer that issues it, e.g. "re_subarray".
    bender::Program prog;
};

/**
 * Builds catalog program @p program for @p cfg with its paper-default
 * parameters (300K x 35ns hammer, 8K x 7.8us press, ...), addressed
 * to rows that exist in @p cfg.
 */
NamedProgram builtinProgram(const dram::DeviceConfig &cfg,
                            CatalogProgram program);

/** Builds every catalog program for @p cfg, in registry order. */
std::vector<NamedProgram> builtinPrograms(const dram::DeviceConfig &cfg);

} // namespace core
} // namespace dramscope

#endif // DRAMSCOPE_CORE_PROGRAMS_H
