/**
 * @file
 * Built-in program catalog implementation.
 */

#include "core/programs.h"

#include <algorithm>
#include <utility>

#include "bender/host.h"
#include "core/protect/mitigation.h"
#include "util/log.h"

namespace dramscope {
namespace core {

std::vector<NamedProgram>
builtinPrograms(const dram::DeviceConfig &cfg)
{
    using bender::Host;
    const dram::BankId b = 0;

    // Probe rows well inside the bank, mirroring CharactOptions'
    // default region, but clamped so tiny test configs stay valid.
    const auto row = std::min<dram::RowAddr>(1024, cfg.rowsPerBank / 2);
    const auto dst = row + 1;

    std::vector<NamedProgram> catalog;
    catalog.push_back({"write-row", "host",
                       Host::makeWriteRowProgram(
                           cfg, b, row,
                           std::vector<uint64_t>(cfg.columnsPerRow(),
                                                 ~0ULL))});
    catalog.push_back(
        {"read-row", "host", Host::makeReadRowProgram(cfg, b, row)});
    catalog.push_back({"write-columns", "host",
                       Host::makeWriteColumnsProgram(cfg, b, row, {0, 1},
                                                     ~0ULL)});
    catalog.push_back({"read-columns", "host",
                       Host::makeReadColumnsProgram(cfg, b, row, {0, 1})});
    // Paper attack parameters (SS V): 300K x 35ns hammer, 8K x 7.8us
    // press; the RE layers reuse the same kernel at higher counts.
    // All three exceed the weakest-cell disturbance threshold inside
    // one refresh window *by design* — that is the attack — so they
    // declare it, and the static certifier treats them as intended.
    catalog.push_back(
        {"hammer", "charact",
         Host::makeHammerProgram(cfg, b, row, 300000, 35.0)
             .expectViolation(bender::lint::Rule::ExposureBound)});
    catalog.push_back(
        {"press", "charact",
         Host::makeHammerProgram(cfg, b, row, 8192, 7800.0)
             .expectViolation(bender::lint::Rule::ExposureBound)});
    catalog.push_back(
        {"hammer-re", "re_adjacency",
         Host::makeHammerProgram(cfg, b, row, 600000, 35.0)
             .expectViolation(bender::lint::Rule::ExposureBound)});
    catalog.push_back({"rowcopy", "re_subarray",
                       Host::makeRowCopyProgram(cfg, b, row, dst)});
    catalog.push_back(
        {"refresh", "host", Host::makeRefreshProgram(cfg)});
    // One exemplar command sequence per mitigation: the MC-side
    // victim refresh Graphene fires (+-1 logical neighbours), the
    // exact victim-refresh burst RFM is priced at on a hottest-table
    // hit, and the double row-activation a swap migration costs (the
    // data burst itself is host-side).
    const auto sequence = [&](MitigationKind kind,
                              std::vector<dram::RowAddr> rows) {
        MitigationSequence seq;
        seq.kind = kind;
        seq.bank = b;
        seq.rows = std::move(rows);
        return seq.program(cfg);
    };
    catalog.push_back(
        {"mitigate", "protect/tracker",
         sequence(MitigationKind::Graphene, victimRows(cfg, row, false))});
    catalog.push_back(
        {"rfm-mitigate", "protect/mitigation",
         sequence(MitigationKind::Rfm, victimRows(cfg, row, true))});
    catalog.push_back({"rowswap-migrate", "protect/mitigation",
                       sequence(MitigationKind::RowSwap, {row, dst})});
    return catalog;
}

NamedProgram
builtinProgram(const dram::DeviceConfig &cfg, const std::string &name)
{
    auto catalog = builtinPrograms(cfg);
    for (auto &entry : catalog) {
        if (entry.name == name)
            return std::move(entry);
    }
    std::string known;
    for (const auto &entry : catalog)
        known += (known.empty() ? "" : ", ") + entry.name;
    fatal("builtinProgram: unknown program '" + name + "' (known: " +
          known + ")");
}

} // namespace core
} // namespace dramscope
