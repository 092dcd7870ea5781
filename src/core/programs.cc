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

std::span<const ProgramInfo>
programTable()
{
    static constexpr ProgramInfo kTable[] = {
#define X(name, id, origin) {CatalogProgram::name, id, origin},
        DRAMSCOPE_CATALOG_PROGRAMS(X)
#undef X
    };
    return kTable;
}

namespace {

/** Builds the commands of catalog program @p program for @p cfg. */
bender::Program
buildProgram(const dram::DeviceConfig &cfg, CatalogProgram program)
{
    using bender::Host;
    const dram::BankId b = 0;

    // Probe rows well inside the bank, mirroring CharactOptions'
    // default region, but clamped so tiny test configs stay valid.
    const auto row = std::min<dram::RowAddr>(1024, cfg.rowsPerBank / 2);
    const auto dst = row + 1;

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
    switch (program) {
      case CatalogProgram::WriteRow:
        return Host::makeWriteRowProgram(
            cfg, b, row, std::vector<uint64_t>(cfg.columnsPerRow(), ~0ULL));
      case CatalogProgram::ReadRow:
        return Host::makeReadRowProgram(cfg, b, row);
      case CatalogProgram::WriteColumns:
        return Host::makeWriteColumnsProgram(cfg, b, row, {0, 1}, ~0ULL);
      case CatalogProgram::ReadColumns:
        return Host::makeReadColumnsProgram(cfg, b, row, {0, 1});
      // Paper attack parameters (SS V): 300K x 35ns hammer, 8K x 7.8us
      // press; the RE layers reuse the same kernel at higher counts.
      // All three exceed the weakest-cell disturbance threshold inside
      // one refresh window *by design* — that is the attack — so they
      // declare it, and the static certifier treats them as intended.
      case CatalogProgram::Hammer:
        return Host::makeHammerProgram(cfg, b, row, 300000, 35.0)
            .expectViolation(bender::lint::Rule::ExposureBound);
      case CatalogProgram::Press:
        return Host::makeHammerProgram(cfg, b, row, 8192, 7800.0)
            .expectViolation(bender::lint::Rule::ExposureBound);
      case CatalogProgram::HammerRe:
        return Host::makeHammerProgram(cfg, b, row, 600000, 35.0)
            .expectViolation(bender::lint::Rule::ExposureBound);
      case CatalogProgram::RowCopy:
        return Host::makeRowCopyProgram(cfg, b, row, dst);
      case CatalogProgram::Refresh:
        return Host::makeRefreshProgram(cfg);
      case CatalogProgram::Mitigate:
        return sequence(MitigationKind::Graphene,
                        victimRows(cfg, row, false));
      case CatalogProgram::RfmMitigate:
        return sequence(MitigationKind::Rfm, victimRows(cfg, row, true));
      case CatalogProgram::RowSwapMigrate:
        return sequence(MitigationKind::RowSwap, {row, dst});
    }
    panic("builtinProgram: catalog program out of range");
}

} // namespace

NamedProgram
builtinProgram(const dram::DeviceConfig &cfg, CatalogProgram program)
{
    const ProgramInfo &info = programTable()[size_t(program)];
    return {info.id, info.origin, buildProgram(cfg, program)};
}

std::vector<NamedProgram>
builtinPrograms(const dram::DeviceConfig &cfg)
{
    std::vector<NamedProgram> catalog;
    for (const auto &info : programTable())
        catalog.push_back(builtinProgram(cfg, info.program));
    return catalog;
}

} // namespace core
} // namespace dramscope
