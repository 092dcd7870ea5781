/**
 * @file
 * Command-line front end of the DRAMScope toolkit.  Two tables define
 * it: kFlags (every flag, and how it parses into Flags) and
 * kSubcommands (every subcommand: its operands, its usage() line, the
 * flags it reads and its handler); usage() and main() read both.
 *
 * `--trace=FILE` on hammer, press and rowcopy writes one JSONL record
 * ({ns, cmd, bank, row, col}) per issued command.  `--device=dimm` is
 * a registered DIMM rank, with RCD inversion and the DQ twist applied
 * inside the device.  `--faults=SPEC` wraps the device in a
 * deterministic dram::FaultyDevice (docs/RESILIENCE.md).
 *
 * Exit codes: 0 success; 1 a run that executed but failed (lint or
 * certification errors, metrics mismatch, quarantined shards, failed
 * AIB validation, refused resume, a device fault that ended the run);
 * 2 usage errors (unknown subcommand, flag, preset, catalog program,
 * keyword, --device or --faults value, malformed numbers, a flag the
 * subcommand does not read, too few or too many operands).
 */

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "bender/host.h"
#include "bender/lint.h"
#include "bender/trace.h"
#include "core/programs.h"
#include "core/sweep.h"
#include "core/re_adjacency.h"
#include "core/re_coupled.h"
#include "core/re_polarity.h"
#include "core/re_retention.h"
#include "core/re_subarray.h"
#include "dram/chip.h"
#include "dram/faulty_device.h"
#include "dram/hbm_stack.h"
#include "dram/timing.h"
#include "mapping/dimm.h"
#include "mc/mc.h"
#include "mc/sweep.h"
#include "mc/workload.h"
#include "util/metrics.h"
#include "util/registry.h"
#include "util/table.h"

using namespace dramscope;

namespace {

/** Parsed command-line flags (see the usage text). */
struct Flags
{
    std::string trace;       //!< --trace=FILE (JSONL trace; for `mc`
                             //!< an *address* trace to replay, else a
                             //!< command trace to write).
    std::string device;      //!< --device=chip|dimm|hbm[:N].
    std::string faults;      //!< --faults=SPEC (fault injection).
    std::string checkpoint;  //!< --checkpoint=FILE (shard journal).
    std::string workload;    //!< --workload= (mc::workloadTable()).
    std::string policy;      //!< --policy= (mc::policyTable()).
    std::string mitigation;  //!< --mitigation= (core::mitigationTable();
                             //!< the grids also accept "all").
    std::string dumpTrace;   //!< --dump-trace=FILE (address trace out).
    bool resume = false;     //!< --resume (skip journaled shards).
    unsigned jobs = 0;       //!< --jobs=N (0 = DRAMSCOPE_JOBS / hw).
    uint64_t seed = 0x5eedULL;  //!< --seed=S (shard RNG base seed).
    uint32_t retries = 3;    //!< --retries=K (attempts per shard).
    uint64_t timeoutMs = 0;  //!< --timeout-ms=T (shard watchdog).
    uint64_t reqs = 1000;    //!< --reqs=N (mc requests).

    /** --refresh-interval-ns=T: whole ns; <0 = config tREFI, 0 = off. */
    int64_t refreshIntervalNs = -1;

    bool grid = false;        //!< --grid (certify the mc sweep grid).
    uint64_t threshold = 0;   //!< --threshold=N (0 = device default).
    double powerBudgetMw = 0.0;  //!< --power-budget-mw (<=0 = device).
    double powerWindowNs = 0.0;  //!< --power-window-ns (<=0 = device).
};

/** A checked command line, as a subcommand's handler receives it. */
struct Invocation
{
    std::string name;               //!< The subcommand.
    std::vector<std::string> args;  //!< Its operands; args[0] is the preset.
    dram::DeviceConfig cfg;         //!< The preset's configuration.
    Flags flags;
};

/** Prints the usage text; returns 2, the usage-error exit code. */
int usage();

/**
 * The --power-window-ns range: at least one tick of the linter's
 * picosecond clock, and a picosecond count that fits its int64.
 */
constexpr double kMinPowerWindowNs = 0.001;
constexpr double kMaxPowerWindowNs = 9.2e15;

/**
 * Parses the whole of @p arg as a decimal @p T in [@p min, @p max]
 * with std::from_chars, as core::resolveJobs and jsonl::read do: no
 * leading whitespace, no '+', no trailing bytes, no '-' for an
 * unsigned @p T, and a floating-point value must be finite and
 * positive.  Exits 2 naming @p what on anything else: a silent
 * atoll(...)=0, or a value wrapped to 32 bits, would turn a typo into
 * a plausible-looking run.
 */
template <typename T>
T
parseOrExit(const std::string &arg, const char *what,
            T max = std::numeric_limits<T>::max(),
            T min = std::is_floating_point_v<T>
                        ? T{}
                        : std::numeric_limits<T>::lowest())
{
    constexpr bool kFloat = std::is_floating_point_v<T>;
    T v{};
    const char *end = arg.data() + arg.size();
    const auto [ptr, ec] = std::from_chars(arg.data(), end, v);
    const bool too_wide =
        std::is_unsigned_v<T> && ec == std::errc::result_out_of_range;
    if (ptr != end || (ec != std::errc() && !too_wide) ||
        (kFloat && !(std::isfinite(v) && v > 0))) {
        const char *expected = kFloat ? "a finite positive number"
                               : std::is_signed_v<T> ? "an integer"
                                                     : "an unsigned integer";
        std::fprintf(stderr, "error: bad %s '%s' (expected %s)\n", what,
                     arg.c_str(), expected);
        std::exit(2);
    }
    if (too_wide || v > max || v < min) {
        char lo[32] = {};
        char hi[32] = {};
        std::to_chars(lo, lo + sizeof lo - 1, min);
        std::to_chars(hi, hi + sizeof hi - 1, max);
        std::fprintf(stderr, "error: %s '%s' out of range (%s..%s)\n", what,
                     arg.c_str(), lo, hi);
        std::exit(2);
    }
    return v;
}

/**
 * Operand @p i of @p in parsed as a @p T named @p what, or
 * @p fallback when the command line stops before it.
 */
template <typename T>
T
operandOr(const Invocation &in, size_t i, const char *what, T fallback)
{
    return i < in.args.size() ? parseOrExit<T>(in.args[i], what) : fallback;
}

/**
 * Exits with a usage error unless rows @p row - @p below through
 * @p row + @p above, which a subcommand touches for its @p what
 * argument, all lie inside a bank of @p cfg.
 */
void
checkRowsOrExit(const dram::DeviceConfig &cfg, const char *what,
                dram::RowAddr row, uint32_t below, uint32_t above)
{
    if (row < below || uint64_t(row) + above >= cfg.rowsPerBank) {
        std::fprintf(stderr,
                     "error: %s %u out of range for %s (%u..%u)\n", what,
                     row, cfg.name.c_str(), below,
                     cfg.rowsPerBank - 1 - above);
        std::exit(2);
    }
}

/**
 * Parses the --faults spec; exits with a diagnostic on a malformed
 * clause.  The empty string yields an empty (inject-nothing) spec.
 */
dram::FaultSpec
parseFaultsOrExit(const std::string &spec)
{
    std::string error;
    auto parsed = dram::FaultSpec::parse(spec, &error);
    if (!parsed) {
        std::fprintf(stderr, "error: bad --faults: %s\n",
                     error.c_str());
        std::exit(2);
    }
    return *parsed;
}

/**
 * The entry of registry @p table named @p id; exits 2 on an unknown
 * one with "error: unknown <what> '<id>' <scope>(a|b|c<more>)".
 */
template <typename Table>
const auto &
keywordOrExit(const Table &table, const std::string &id, const char *what,
              const std::string &scope = "", const char *more = "")
{
    const auto *entry = registry::find(table, id);
    if (entry == nullptr) {
        std::fprintf(stderr, "error: unknown %s '%s' %s(%s%s)\n", what,
                     id.c_str(), scope.c_str(),
                     registry::ids(table).c_str(), more);
        std::exit(2);
    }
    return *entry;
}

/**
 * Parses the --mitigation value @p id of @p cmd: one registered kind,
 * or "all" (the whole registry, None first) for every command but
 * `mc`, which runs one schedule.  Unset is None, except under
 * certify --grid: pre-flight is meant to cover everything a sweep
 * could run.
 */
std::vector<core::MitigationKind>
parseMitigationsOrExit(const std::string &id, const std::string &cmd)
{
    const bool grid = cmd != "mc";
    if (grid && (id == "all" || (id.empty() && cmd == "certify"))) {
        std::vector<core::MitigationKind> kinds;
        for (const auto &info : core::mitigationTable())
            kinds.push_back(info.kind);
        return kinds;
    }
    if (id.empty())
        return {core::MitigationKind::None};
    return {keywordOrExit(core::mitigationTable(), id, "--mitigation",
                          "for " + cmd + " ", grid ? "|all" : "")
                .kind};
}

/**
 * The device behind the command interface, owned by the subcommand:
 * built from a preset configuration, a `--device=` spec and an
 * optional `--faults=` wrap.
 */
struct DeviceUnderTest
{
    std::unique_ptr<dram::HbmStack> hbm;  //!< The stack of an HBM channel.
    std::unique_ptr<dram::Device> owned;  //!< Null for a bare HBM channel.
    dram::Device *dev = nullptr;
};

/**
 * Builds the backend selected by --device ("chip", "dimm",
 * "hbm[:channel]") for @p cfg, wrapped in a FaultyDevice when
 * --faults injects anything.  Exits with a diagnostic on a malformed
 * --faults, an unknown --device or an out-of-range HBM channel.
 */
DeviceUnderTest
makeDevice(const dram::DeviceConfig &cfg, const Flags &flags)
{
    const auto faults = parseFaultsOrExit(flags.faults);
    const std::string &spec = flags.device;
    DeviceUnderTest d;
    if (spec.empty() || spec == "chip") {
        d.owned = std::make_unique<dram::Chip>(cfg);
    } else if (spec == "dimm") {
        d.owned = std::make_unique<mapping::Dimm>(cfg);
    } else if (spec.rfind("hbm", 0) == 0) {
        uint32_t channel = 0;
        if (spec.size() > 3) {
            if (spec[3] != ':') {
                std::fprintf(stderr, "error: bad --device spec '%s'\n",
                             spec.c_str());
                std::exit(2);
            }
            channel = parseOrExit<uint32_t>(spec.substr(4), "HBM channel");
        }
        d.hbm = std::make_unique<dram::HbmStack>(cfg);
        if (channel >= d.hbm->channelCount()) {
            std::fprintf(stderr,
                         "error: HBM channel %u out of range (0..%u)\n",
                         channel, d.hbm->channelCount() - 1);
            std::exit(2);
        }
        d.dev = &d.hbm->channel(channel);
    } else {
        std::fprintf(stderr,
                     "error: unknown --device '%s' (chip|dimm|hbm[:N])\n",
                     spec.c_str());
        std::exit(2);
    }
    if (!faults.empty())
        d.owned = d.owned ? std::make_unique<dram::FaultyDevice>(
                                std::move(d.owned), faults)
                          : std::make_unique<dram::FaultyDevice>(*d.dev,
                                                                 faults);
    if (d.owned)
        d.dev = d.owned.get();
    return d;
}

/**
 * The one device driver of the subcommands: builds the device that
 * --device and --faults select for the preset, a host over it and,
 * when @p trace_path is not empty, a JSONL command trace on that host,
 * and returns `body(host)`.  A device fault ends the run with
 * `<subcommand> run aborted by the device: <what>` on stdout and exit
 * 1.  Either way the trace footer follows, and a failed trace write is
 * exit 1.
 */
template <typename Body>
int
runOnDevice(const Invocation &in, const std::string &trace_path,
            const Body &body)
{
    auto dut = makeDevice(in.cfg, in.flags);
    bender::Host host(*dut.dev);
    std::unique_ptr<obs::JsonlWriter> trace;
    if (!trace_path.empty()) {
        trace = std::make_unique<obs::JsonlWriter>(trace_path);
        if (!trace->ok()) {
            std::fprintf(stderr, "error: cannot open trace file %s\n",
                         trace_path.c_str());
            return 1;
        }
        host.setTrace(trace.get());
    }
    int rc = 1;
    try {
        rc = body(host);
    } catch (const dram::FaultError &e) {
        std::printf("%s run aborted by the device: %s\n", in.name.c_str(),
                    e.what());
    }
    if (trace) {
        std::printf("trace: %llu commands -> %s\n",
                    (unsigned long long)trace->written(),
                    trace_path.c_str());
    }
    return trace && trace->failed() ? 1 : rc;
}

int
cmdList(const Invocation &)
{
    Table t({"Preset", "Vendor", "Type", "Width", "Year", "Chips"});
    for (const auto &info : dram::presetTable()) {
        const auto cfg = dram::makePreset(info.id);
        t.addRow({info.id, dram::toString(cfg.vendor),
                  dram::toString(cfg.type), dram::toString(cfg.width),
                  cfg.year ? Table::num(int64_t(cfg.year)) : "N/A",
                  Table::num(int64_t(info.chipCount))});
    }
    t.print();
    return 0;
}

int
cmdInspect(const Invocation &in)
{
    const auto &cfg = in.cfg;
    std::printf("%s: %s %s %s (%d)\n", cfg.name.c_str(),
                dram::toString(cfg.vendor), dram::toString(cfg.type),
                dram::toString(cfg.width), cfg.year);
    std::printf("rows/bank %u, row bits %u, RD_data %u bits, "
                "columns %u\n",
                cfg.rowsPerBank, cfg.rowBits, cfg.rdDataBits,
                cfg.columnsPerRow());
    std::printf("MAT width %u (%u MATs per row), swizzle perm {",
                cfg.matWidth, cfg.matsPerRow());
    for (size_t k = 0; k < cfg.swizzlePerm.size(); ++k)
        std::printf("%s%u", k ? "," : "", cfg.swizzlePerm[k]);
    std::printf("}\n");
    std::printf("subarray pattern:");
    for (const auto &e : cfg.subarrayPattern)
        std::printf(" %ux%u", e.count, e.height);
    std::printf(" (repeats every %u rows)\n", cfg.patternRows());
    std::printf("edge sections every %u rows; coupled distance %s\n",
                cfg.edgeSectionRows,
                cfg.coupledRowDistance
                    ? Table::num(uint64_t(*cfg.coupledRowDistance))
                          .c_str()
                    : "none");
    std::printf("remap %s, polarity %s, temperature %.0fC\n",
                cfg.rowRemap == dram::RowRemapScheme::None
                    ? "none"
                    : "Mfr.A 8-blk",
                cfg.polarityPolicy == dram::CellPolarityPolicy::AllTrue
                    ? "all true-cells"
                    : "true/anti interleaved",
                cfg.temperatureC);
    return 0;
}

/** hammer and press: one aggressor row, reported with its ±4 rows. */
int
cmdAttack(const Invocation &in)
{
    const auto aggr = parseOrExit<dram::RowAddr>(in.args[1], "row");
    const auto count = parseOrExit<uint64_t>(in.args[2], "count");
    const bool press = in.name == "press";
    checkRowsOrExit(in.cfg, "row", aggr, 4, 4);
    return runOnDevice(in, in.flags.trace, [&](bender::Host &host) {
        // Probe a wide window: internal remapping can place the
        // physical neighbours several logical rows away (common
        // pitfall 2).
        for (int d = -4; d <= 4; ++d) {
            if (d != 0)
                host.writeRowPattern(0, dram::RowAddr(int64_t(aggr) + d),
                                     ~0ULL);
        }
        host.writeRowPattern(0, aggr, 0);
        if (press)
            host.press(0, aggr, count);
        else
            host.hammer(0, aggr, count);

        Table t({"Row", "Bitflips", "BER"});
        for (int d = -4; d <= 4; ++d) {
            if (d == 0)
                continue;
            const auto row = dram::RowAddr(int64_t(aggr) + d);
            const BitVec bits = host.readRowBits(0, row);
            const size_t flips = bits.size() - bits.popcount();
            t.addRow({Table::num(uint64_t(row)),
                      Table::num(uint64_t(flips)),
                      Table::num(double(flips) / double(bits.size()), 3)});
        }
        t.print();
        std::printf("(%s, %llu activations, single-sided; victims held "
                    "all-ones)\n",
                    press ? "RowPress" : "RowHammer",
                    (unsigned long long)count);
        return 0;
    });
}

int
cmdRowCopy(const Invocation &in)
{
    const auto src = parseOrExit<dram::RowAddr>(in.args[1], "src row");
    const auto dst = parseOrExit<dram::RowAddr>(in.args[2], "dst row");
    checkRowsOrExit(in.cfg, "src row", src, 0, 0);
    checkRowsOrExit(in.cfg, "dst row", dst, 0, 0);
    return runOnDevice(in, in.flags.trace, [&](bender::Host &host) {
        core::SubarrayMapper mapper(host);
        bool inverted = false;
        const auto outcome = mapper.probeCopy(src, dst, &inverted);
        const char *label = outcome == core::CopyOutcome::Full   ? "FULL"
                            : outcome == core::CopyOutcome::Half ? "HALF"
                                                                 : "NONE";
        std::printf("RowCopy %u -> %u: %s copy%s\n", src, dst, label,
                    outcome != core::CopyOutcome::None
                        ? (inverted ? " (data inverted)" : " (data as-is)")
                        : "");
        return 0;
    });
}

int
cmdStats(const Invocation &in)
{
    const auto aggr = operandOr(in, 1, "row", dram::RowAddr(1000));
    const auto count = operandOr(in, 2, "count", uint64_t(10000));
    checkRowsOrExit(in.cfg, "row", aggr, 0, 1);
    return runOnDevice(in, {}, [&](bender::Host &host) {
        obs::MetricsRegistry metrics;
        host.setMetrics(&metrics);

        // A representative workload: prepare a victim/aggressor pair,
        // hammer, read the victim back.
        host.writeRowPattern(0, aggr + 1, ~0ULL);
        host.writeRowPattern(0, aggr, 0);
        const auto before = metrics.snapshot();
        const auto res = host.hammer(0, aggr, count);
        const auto after = metrics.snapshot();
        host.readRow(0, aggr + 1);

        const auto snap = metrics.snapshot();
        Table t({"Metric", "Value"});
        for (const auto &[name, value] : snap.counters)
            t.addRow({name, Table::num(value)});
        for (const auto &[name, hist] : snap.histograms)
            t.addRow({name + " (samples)", Table::num(hist.total)});
        t.print();

        // The counter deltas across the hammer must equal the commands
        // the executor reports — the cross-check the trace/metrics
        // layer is built to make possible.
        uint64_t delta = 0;
        for (const auto *key :
             {"cmd.act", "cmd.pre", "cmd.rd", "cmd.wr", "cmd.ref"}) {
            delta += after.counterOr0(key) - before.counterOr0(key);
        }
        std::printf("%s\n", snap.commandSummary().c_str());
        std::printf("hammer ACT delta %llu, commandsIssued %llu: %s\n",
                    (unsigned long long)(after.counterOr0("cmd.act") -
                                         before.counterOr0("cmd.act")),
                    (unsigned long long)res.commandsIssued,
                    delta == res.commandsIssued ? "consistent"
                                                : "MISMATCH");
        return delta == res.commandsIssued ? 0 : 1;
    });
}

/**
 * The catalog program named by the operand after the preset, or the
 * whole catalog when there is none, built for the preset.
 */
std::vector<core::NamedProgram>
catalogOrExit(const Invocation &in)
{
    if (in.args.size() < 2)
        return core::builtinPrograms(in.cfg);
    return {core::builtinProgram(
        in.cfg,
        keywordOrExit(core::programTable(), in.args[1], "program").program)};
}

int
cmdLint(const Invocation &in)
{
    const auto programs = catalogOrExit(in);
    Table t({"Program", "Slot", "Rule", "Severity", "Message"});
    size_t unexpected_errors = 0;
    size_t clean = 0;
    for (const auto &entry : programs) {
        const auto report = bender::lint::lint(entry.prog, in.cfg);
        if (report.diags.empty())
            ++clean;
        for (const auto &d : report.diags) {
            t.addRow({entry.name, Table::num(uint64_t(d.slot)),
                      bender::lint::ruleId(d.rule),
                      std::string(bender::lint::toString(d.severity)) +
                          (d.expected ? " (expected)" : ""),
                      d.message});
            if (d.severity == bender::lint::Severity::Error)
                ++unexpected_errors;
        }
    }
    t.print();
    std::printf("%zu program(s): %zu with no diagnostics, %zu "
                "unexpected error(s)\n",
                programs.size(), clean, unexpected_errors);
    return unexpected_errors == 0 ? 0 : 1;
}

/**
 * Static exposure & energy certification: the whole-program effect
 * analyzer over the catalog (or one program by name), or — with
 * --grid — over every program the mc scheduler emits for the
 * workload x policy x mitigation grid, via the buildSweepCellSchedule
 * export path.  Nothing executes on a device.
 */
int
cmdCertify(const Invocation &in)
{
    const Flags &flags = in.flags;
    const auto &cfg = in.cfg;
    bender::lint::CertifyOptions copts;
    copts.exposureThreshold = flags.threshold;
    copts.powerBudgetMw = flags.powerBudgetMw;
    copts.powerWindowNs = flags.powerWindowNs;

    std::vector<core::NamedProgram> units;
    if (flags.grid) {
        if (in.args.size() > 1)
            return usage();  // The grid certifies no catalog program.
        mc::McSweepOptions mopt;
        mopt.requests = flags.reqs;
        mopt.seed = flags.seed;
        const auto plan =
            mc::sweepPlan(parseMitigationsOrExit(flags.mitigation, "certify"));
        for (uint32_t shard = 0; shard < plan.size(); ++shard) {
            const auto &cell = plan[shard];
            auto result =
                mc::buildSweepCellSchedule(cell, shard, cfg, mopt);
            units.push_back(
                {std::string(mc::workloadId(cell.workload)) + "/" +
                     mc::policyId(cell.policy) + "/" +
                     core::mitigationId(cell.mitigation),
                 "mc", std::move(result.program)});
        }
    } else {
        units = catalogOrExit(in);
    }

    Table t({"Program", "Bound", "Hot bank/row", "Exact", "Energy (pJ)",
             "Avg mW", "Peak mW", "Status"});
    size_t failed = 0;
    std::vector<std::string> errors;
    for (const auto &u : units) {
        const auto cert = bender::lint::certify(u.prog, cfg, copts);
        if (!cert.certified())
            ++failed;
        t.addRow({u.name, Table::num(cert.maxRowActs),
                  Table::num(uint64_t(cert.hottestBank)) + "/" +
                      Table::num(uint64_t(cert.hottestRow)),
                  cert.exact ? "yes" : "upper",
                  Table::num(cert.totalEnergyPj(), 1),
                  Table::num(cert.avgPowerMw, 2),
                  Table::num(cert.peakWindowPowerMw, 2),
                  cert.certified() ? "certified" : "FAILED"});
        for (const auto &d : cert.report.diags) {
            if (d.severity == bender::lint::Severity::Error) {
                errors.push_back(u.name + ": " +
                                 bender::lint::ruleId(d.rule) + ": " +
                                 d.message);
            }
        }
    }
    t.print();
    for (const auto &e : errors)
        std::printf("error %s\n", e.c_str());
    std::printf("%zu program(s): %zu certified, %zu failed "
                "(threshold %llu ACTs, budget %.2f mW over %s ns)\n",
                units.size(), units.size() - failed, failed,
                (unsigned long long)(flags.threshold
                                         ? flags.threshold
                                         : uint64_t(cfg.disturb
                                                        .thresholdMin)),
                flags.powerBudgetMw > 0.0 ? flags.powerBudgetMw
                                          : cfg.energy.maxAvgPowerMw,
                dram::nsText(flags.powerWindowNs > 0.0
                                 ? flags.powerWindowNs
                                 : cfg.energy.powerWindowNs)
                    .c_str());
    return failed == 0 ? 0 : 1;
}

int
cmdRetention(const Invocation &in)
{
    return runOnDevice(in, {}, [](bender::Host &host) {
        core::RetentionProfiler profiler(host);
        const auto profile = profiler.profile();
        Table t({"Wait (ms)", "Decayed", "Tested", "Fraction"});
        for (const auto &p : profile.curve) {
            t.addRow({Table::num(p.waitMs, 5), Table::num(p.decayed),
                      Table::num(p.tested), Table::num(p.fraction(), 3)});
        }
        t.print();
        std::printf("median retention: %.0f ms; weak cells (<= %0.0f "
                    "ms): %zu\n",
                    profile.medianMs, 500.0, profile.weakCells.size());
        return 0;
    });
}

int
cmdReport(const Invocation &in)
{
    return runOnDevice(in, {}, [&](bender::Host &host) {
        std::printf("reverse-engineering %s ...\n", in.args[0].c_str());
        core::AdjacencyMapper adjacency(host);
        const auto scheme = adjacency.detectRemapScheme(1024);
        std::printf("  remap: %s\n",
                    scheme == dram::RowRemapScheme::None ? "none"
                                                         : "Mfr.A 8-blk");

        core::SubarrayOptions sopts;
        sopts.rowRemap = scheme;
        core::SubarrayMapper subarrays(host, sopts);
        const auto d = subarrays.discoverFirstSection();
        std::printf("  heights:");
        for (const auto h : d.heights)
            std::printf(" %u", h);
        std::printf("\n  edge section: %u rows; edge pair: %s; copies "
                    "%sinverted\n",
                    d.sectionRows, d.edgePairConfirmed ? "yes" : "no",
                    d.copyInvertsData ? "" : "NOT ");
        const bool aib_ok =
            subarrays.aibCrossCheckBoundary(d.heights.at(0));
        std::printf("  AIB validation of first boundary: %s\n",
                    aib_ok ? "confirmed" : "FAILED");

        core::CoupledOptions copts;
        copts.probeRow = 1200;
        core::CoupledRowDetector coupled(host, copts);
        const auto distance = coupled.detect();
        std::printf("  coupled distance: %s\n",
                    distance ? Table::num(uint64_t(*distance)).c_str()
                             : "none");

        core::CellTypeClassifier polarity(host);
        const auto pol =
            polarity.classify({d.heights.at(0) / 2,
                               d.heights.at(0) + d.heights.at(1) / 2});
        std::printf("  polarity: %s\n",
                    pol.mixed ? "true/anti interleaved" : "all true");
        // A failed AIB cross-check means the discovered layout is
        // wrong — scripted pipelines must see that as a failure, not
        // exit 0.
        return aib_ok ? 0 : 1;
    });
}

/**
 * What the resilient sweep subcommands, `sweep` and `mcsweep`, share.
 * Constructing it parses --faults and accepts only
 * --device=chip|dimm (HBM channels are borrowed from a stack, which
 * does not fit the sweep's owning replica factory); it exits 2 naming
 * the subcommand otherwise.
 */
struct SweepCommand
{
    explicit SweepCommand(const Invocation &in_arg)
        : in(in_arg), faults(parseFaultsOrExit(in.flags.faults))
    {
        if (!in.flags.device.empty() && in.flags.device != "chip" &&
            in.flags.device != "dimm") {
            std::fprintf(stderr,
                         "error: %s supports --device=chip|dimm only\n",
                         in.name.c_str());
            std::exit(2);
        }
    }

    /**
     * Builds the device, its host and metrics, runs the subcommand's
     * sweep, `call(runner, resilience options)`, under the journal
     * @p tag, and prints one `result` line per shard (shard order, so
     * CI can diff a resumed run against an uninterrupted one), the
     * `<name> N shards:` summary and every counter named with one of
     * @p metric_prefixes.  Returns the exit code.
     */
    template <typename Call>
    int
    run(const std::string &tag,
        std::initializer_list<std::string_view> metric_prefixes,
        const Call &call) const
    {
        auto dut = makeDevice(in.cfg, in.flags);
        bender::Host host(*dut.dev);
        obs::MetricsRegistry metrics;
        host.setMetrics(&metrics);
        // Replicas are built from the preset's chip configuration, not
        // from the one the runner passes: a Dimm's config() is the rank
        // view, which cannot rebuild the rank.
        core::SweepRunner runner(
            host, core::SweepOptions(in.flags.jobs, in.flags.seed,
                                     [this](const dram::DeviceConfig &) {
                                         return makeDevice(in.cfg, in.flags)
                                             .owned;
                                     }));

        core::ResilienceOptions ropts;
        ropts.maxAttempts = in.flags.retries;
        ropts.shardTimeoutMs = in.flags.timeoutMs;
        ropts.checkpointPath = in.flags.checkpoint;
        ropts.resume = in.flags.resume;
        ropts.tag = tag;
        core::SweepReport report;
        try {
            report = call(runner, ropts);
        } catch (const core::ResumeError &e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 1;
        }

        for (const auto &rec : report.shards) {
            if (rec.status == core::ShardStatus::Quarantined) {
                std::printf("result shard=%llu status=%s attempts=%u "
                            "error=\"%s\"\n",
                            (unsigned long long)rec.shard,
                            core::toString(rec.status), rec.attempts,
                            rec.error.c_str());
            } else {
                std::printf("result %s status=%s attempts=%u\n",
                            rec.payload.c_str(),
                            core::toString(rec.status), rec.attempts);
            }
        }
        std::printf("%s %llu shards: %llu executed, %llu resumed, "
                    "%llu retried, %llu quarantined, %llu timeout\n",
                    in.name.c_str(), (unsigned long long)report.shards.size(),
                    (unsigned long long)report.executed,
                    (unsigned long long)report.resumed,
                    (unsigned long long)report.retries,
                    (unsigned long long)report.quarantined,
                    (unsigned long long)report.timeouts);
        for (const auto &[counter, value] : metrics.snapshot().counters) {
            if (std::any_of(metric_prefixes.begin(), metric_prefixes.end(),
                            [&](std::string_view prefix) {
                                return counter.starts_with(prefix);
                            }))
                std::printf("metric %s %llu\n", counter.c_str(),
                            (unsigned long long)value);
        }
        return report.complete() ? 0 : 1;
    }

    const Invocation &in;
    const dram::FaultSpec faults;  //!< The parsed --faults spec.
};

/**
 * Resilient BER sweep: every shard hammers one aggressor row and
 * reports the victim bit-flip count as its payload, exercising
 * per-shard retry/quarantine, the watchdog, checkpoint/resume and
 * fault injection.
 */
int
cmdSweep(const Invocation &in)
{
    const auto shards = operandOr(in, 1, "shards", uint64_t(8));
    const auto hammers = operandOr(in, 2, "count", uint64_t(200000));
    const SweepCommand sweep(in);
    // Shard s uses aggressor row 64 + 8*s; keep the probed window
    // inside the bank.
    const uint64_t top_row = 64 + 8 * (shards ? shards - 1 : 0) + 1;
    if (shards == 0 || top_row >= in.cfg.rowsPerBank) {
        std::fprintf(stderr,
                     "error: shard count %llu out of range for %s "
                     "(1..%u)\n",
                     (unsigned long long)shards, in.args[0].c_str(),
                     (in.cfg.rowsPerBank - 66) / 8 + 1);
        return 2;
    }

    const auto unit = [hammers](core::ShardContext &ctx) {
        auto &host = ctx.host;
        const auto aggr = dram::RowAddr(64 + 8 * ctx.shard);
        host.writeRowPattern(0, aggr - 1, ~0ULL);
        host.writeRowPattern(0, aggr + 1, ~0ULL);
        host.writeRowPattern(0, aggr, 0);
        host.hammer(0, aggr, hammers);
        uint64_t flips = 0;
        for (const auto victim : {aggr - 1, aggr + 1}) {
            const BitVec bits = host.readRowBits(0, victim);
            flips += bits.size() - bits.popcount();
        }
        char buf[64];
        std::snprintf(buf, sizeof(buf), "shard=%llu row=%u flips=%llu",
                      (unsigned long long)ctx.shard, unsigned(aggr),
                      (unsigned long long)flips);
        return std::string(buf);
    };
    return sweep.run(in.args[0] + "/" + in.flags.device + "/h" +
                         std::to_string(hammers) + "/" +
                         sweep.faults.toString(),
                     {"faults.", "sweep."},
                     [&](core::SweepRunner &runner,
                         const core::ResilienceOptions &ropts) {
                         return runner.runResilient(uint32_t(shards), unit,
                                                    ropts);
                     });
}

/**
 * Scheduled traffic through the memory-controller layer: generate (or
 * replay) a request stream, schedule it FR-FCFS under the selected
 * open-row policy, lint the emitted program, execute it on the
 * selected backend and print the row-buffer/exposure statistics.
 * Output is deterministic for fixed flags (CI diffs two runs).
 */
int
cmdMc(const Invocation &in)
{
    const Flags &flags = in.flags;
    const auto &cfg = in.cfg;
    const auto workload =
        flags.workload.empty()
            ? mc::WorkloadKind::Zipfian
            : keywordOrExit(mc::workloadTable(), flags.workload,
                            "--workload")
                  .kind;
    const auto policy =
        flags.policy.empty()
            ? mc::RowPolicy::Open
            : keywordOrExit(mc::policyTable(), flags.policy, "--policy")
                  .policy;
    const auto mitigation = parseMitigationsOrExit(flags.mitigation, "mc")[0];

    std::vector<mc::Request> reqs;
    try {
        if (!flags.trace.empty()) {
            reqs = mc::readTrace(flags.trace);
        } else {
            mc::WorkloadOptions wopt;
            wopt.requests = flags.reqs;
            wopt.seed = flags.seed;
            reqs = mc::makeWorkload(workload, cfg, wopt);
        }
        if (!flags.dumpTrace.empty())
            mc::writeTrace(flags.dumpTrace, reqs);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }

    mc::SchedulerOptions sopt;
    sopt.policy = policy;
    sopt.mitigation = mitigation;
    sopt.refreshIntervalNs = flags.refreshIntervalNs;
    mc::ScheduleResult result;
    try {
        result = mc::schedule(reqs, cfg, sopt);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }

    const auto lint_report = bender::lint::lint(result.program, cfg);
    size_t unexpected = 0;
    for (const auto &d : lint_report.diags) {
        if (!d.expected) {
            ++unexpected;
            std::fprintf(stderr, "lint: %s\n", d.message.c_str());
        }
    }

    // --trace is the address trace read above, not a command trace.
    return runOnDevice(in, {}, [&](bender::Host &host) {
        host.run(result.program);
        const auto &st = result.stats;
        // The mitigation field appears only when one is active, so
        // `--mitigation=none` output stays byte-identical to the
        // pre-mitigation CLI.
        std::string mit_field;
        if (mitigation != core::MitigationKind::None)
            mit_field = std::string("mitigation=") +
                        core::mitigationId(mitigation) + " ";
        std::printf("mc %s workload=%s policy=%s %s%s\n",
                    in.args[0].c_str(),
                    flags.trace.empty() ? mc::workloadId(workload) : "trace",
                    mc::policyId(policy), mit_field.c_str(),
                    st.summary().c_str());
        Table t({"Bank", "ACTs", "Hits", "Misses", "Conflicts"});
        for (size_t b = 0; b < st.bankActs.size(); ++b) {
            t.addRow({Table::num(uint64_t(b)), Table::num(st.bankActs[b]),
                      Table::num(st.bankHits[b]),
                      Table::num(st.bankMisses[b]),
                      Table::num(st.bankConflicts[b])});
        }
        t.print();
        std::printf("lint: %s; device violations: %llu\n",
                    unexpected == 0 ? "clean" : "UNEXPECTED DIAGNOSTICS",
                    (unsigned long long)host.device().violationCount());
        if (!flags.dumpTrace.empty()) {
            std::printf("trace: %zu requests -> %s\n", reqs.size(),
                        flags.dumpTrace.c_str());
        }
        return unexpected == 0 ? 0 : 1;
    });
}

/**
 * Resilient policy x workload sweep over the mc layer: one shard per
 * (workload, policy) cell, repeated for each kind on the mitigation
 * axis ("all" sweeps the registry, None first, so the leading block
 * stays byte-identical to the unmitigated sweep).
 */
int
cmdMcSweep(const Invocation &in)
{
    const Flags &flags = in.flags;
    const SweepCommand sweep(in);
    mc::McSweepOptions mopt;
    mopt.requests = flags.reqs;
    mopt.seed = flags.seed;
    mopt.mitigations = parseMitigationsOrExit(flags.mitigation, "mcsweep");

    std::string tag = "mc/" + in.args[0] + "/" + flags.device + "/r" +
                      std::to_string(flags.reqs) + "/" +
                      sweep.faults.toString();
    // Only non-default axes change the tag, so pre-mitigation
    // journals keep resuming.
    if (mopt.mitigations != std::vector{core::MitigationKind::None})
        tag += "/mit=" + flags.mitigation;
    return sweep.run(tag, {"mc.", "faults.", "sweep."},
                     [&](core::SweepRunner &runner,
                         const core::ResilienceOptions &ropts) {
                         return mc::runMcSweep(runner, mopt, ropts);
                     });
}

/**
 * The setter of a flag that fills Flags::*Field: a bool is set by the
 * bare flag, a string takes the value as given, and a number goes
 * through parseOrExit, named @p what, over its type's range or over
 * Range (max, min).
 */
template <auto Field, auto... Range>
void
setField(Flags &flags, const std::string &value, const char *what)
{
    auto &field = flags.*Field;
    using T = std::remove_reference_t<decltype(field)>;
    if constexpr (std::is_same_v<T, bool>)
        field = true;
    else if constexpr (std::is_same_v<T, std::string>)
        field = value;
    else
        field = parseOrExit<T>(value, what, Range...);
}

/** One command-line flag. */
struct FlagDef
{
    /** `--name=` for a flag with a value, `--name` for a bare one. */
    std::string_view name;
    /** Parses the text after name into Flags; what is name sans '='. */
    void (*set)(Flags &flags, const std::string &value, const char *what);
};

/** Every flag.  Unknown flags are usage errors (see main()). */
constexpr FlagDef kFlags[] = {
    {"--trace=", setField<&Flags::trace>},
    {"--device=", setField<&Flags::device>},
    {"--faults=", setField<&Flags::faults>},
    {"--checkpoint=", setField<&Flags::checkpoint>},
    {"--resume", setField<&Flags::resume>},
    {"--jobs=", setField<&Flags::jobs>},
    {"--seed=", setField<&Flags::seed>},
    {"--retries=", setField<&Flags::retries>},
    {"--timeout-ms=", setField<&Flags::timeoutMs>},
    {"--workload=", setField<&Flags::workload>},
    {"--policy=", setField<&Flags::policy>},
    {"--mitigation=", setField<&Flags::mitigation>},
    {"--dump-trace=", setField<&Flags::dumpTrace>},
    {"--reqs=", setField<&Flags::reqs>},
    {"--refresh-interval-ns=", setField<&Flags::refreshIntervalNs>},
    {"--grid", setField<&Flags::grid>},
    {"--threshold=", setField<&Flags::threshold>},
    {"--power-budget-mw=", setField<&Flags::powerBudgetMw>},
    {"--power-window-ns=", setField<&Flags::powerWindowNs, kMaxPowerWindowNs,
                                    kMinPowerWindowNs>},
};

/** One subcommand. */
struct Subcommand
{
    std::string_view name;
    /** Its operands, `<x>` required and `[x]` optional, in order. */
    std::string_view synopsis;
    std::string_view summary;  //!< Its usage() line.
    /**
     * The flags it reads, space-separated.  Any other flag is a usage
     * error: ignoring it would pass the run off as one made with that
     * setting (a static certificate as a DIMM's, say, or one mc run as
     * a sweep).
     */
    std::string_view reads;
    int (*run)(const Invocation &in);
};

/** Every subcommand, in usage() order. */
constexpr Subcommand kSubcommands[] = {
    {"list", "", "preset registry", "", cmdList},
    {"inspect", "<preset>", "configuration summary", "", cmdInspect},
    {"hammer", "<preset> <row> <n>", "RowHammer attack report",
     "--device --faults --trace", cmdAttack},
    {"press", "<preset> <row> <n>", "RowPress attack report",
     "--device --faults --trace", cmdAttack},
    {"rowcopy", "<preset> <src> <dst>", "RowCopy probe",
     "--device --faults --trace", cmdRowCopy},
    {"retention", "<preset>", "retention survival curve",
     "--device --faults", cmdRetention},
    {"report", "<preset>", "reverse-engineering pipeline",
     "--device --faults", cmdReport},
    {"stats", "<preset> [row] [n]", "command metrics of a hammer workload",
     "--device --faults", cmdStats},
    {"lint", "<preset> [name]", "static analysis of built-in programs", "",
     cmdLint},
    {"certify", "<preset> [name]",
     "static exposure/energy certification (no execution)",
     "--threshold --power-budget-mw --power-window-ns --grid --mitigation "
     "--reqs --seed",
     cmdCertify},
    {"sweep", "<preset> [shards] [n]", "resilient BER sweep",
     "--device --faults --jobs --seed --retries --timeout-ms --checkpoint "
     "--resume",
     cmdSweep},
    {"mc", "<preset>", "scheduled traffic through the memory controller",
     "--device --faults --workload --policy --mitigation "
     "--refresh-interval-ns --reqs --seed --trace --dump-trace",
     cmdMc},
    {"mcsweep", "<preset>", "resilient policy x workload mc sweep",
     "--device --faults --jobs --seed --retries --timeout-ms --checkpoint "
     "--resume --reqs --mitigation",
     cmdMcSweep},
};

/** A flag's name as given on the command line, without "=VALUE". */
constexpr std::string_view
flagName(const FlagDef &flag)
{
    return flag.name.substr(0, flag.name.find('='));
}

/** True when the space-separated list @p reads names @p flag. */
constexpr bool
readsFlag(std::string_view reads, std::string_view flag)
{
    while (!reads.empty()) {
        const auto word = reads.substr(0, reads.find(' '));
        if (word == flag)
            return true;
        reads.remove_prefix(std::min(word.size() + 1, reads.size()));
    }
    return false;
}

/**
 * True when every flag a subcommand reads is in kFlags, once, and every
 * flag in kFlags is read by some subcommand: a typo in either table
 * would otherwise reject a valid flag at run time.
 */
constexpr bool
tablesAgree()
{
    std::ptrdiff_t named = 0;  // Flag names in the reads lists.
    for (const auto &sub : kSubcommands)
        named += sub.reads.empty() ? 0 : 1 + std::ranges::count(sub.reads, ' ');
    for (const auto &flag : kFlags) {
        const auto readers = std::ranges::count_if(kSubcommands, [&](const auto &sub) {
            return readsFlag(sub.reads, flagName(flag));
        });
        if (readers == 0)
            return false;
        named -= readers;
    }
    return named == 0;
}
static_assert(tablesAgree(), "kFlags and kSubcommands name other flags");

int
usage()
{
    std::fprintf(stderr, "usage: dramscope_cli <command> [args]\n");
    for (const auto &sub : kSubcommands) {
        std::string head(sub.name);
        if (!sub.synopsis.empty())
            head.append(" ").append(sub.synopsis);
        std::fprintf(stderr, "  %-30s%.*s\n", head.c_str(),
                     int(sub.summary.size()), sub.summary.data());
    }
    std::fprintf(
        stderr,
        "hammer/press/rowcopy accept --trace=FILE (JSONL command "
        "trace)\n"
        "device commands (hammer, press, rowcopy, retention, report, "
        "stats, sweep, mc, mcsweep) accept:\n"
        "  --device=chip|dimm|hbm[:channel]   backend (default chip; "
        "sweep/mcsweep: chip|dimm)\n"
        "  --faults=SPEC                      fault injection (see "
        "docs/RESILIENCE.md)\n"
        "  (lint and certify run no device and take none of these)\n"
        "sweep/mcsweep accept --jobs=N --seed=S --retries=K "
        "--timeout-ms=T --checkpoint=FILE --resume\n"
        "mc accepts --workload=%s --policy=%s --reqs=N --seed=S\n"
        "  --mitigation=%s --refresh-interval-ns=T (<0 config tREFI, 0 "
        "off)\n"
        "  --trace=FILE (replay a JSONL address trace) "
        "--dump-trace=FILE (record the stream); mcsweep accepts "
        "--reqs=N\n"
        "  and --mitigation=<kind>|all (adds a mitigation axis to the "
        "grid)\n"
        "certify accepts --threshold=N --power-budget-mw=X "
        "--power-window-ns=X (defaults from the device), and --grid\n"
        "  to certify the mc workload x policy x mitigation grid "
        "(--mitigation=<kind>|all, --reqs=N, --seed=S)\n"
        "a flag the command does not read is a usage error\n"
        "see docs/MC.md for the policy and mitigation tables, "
        "docs/LINT_RULES.md for the rule registry\n",
        registry::ids(mc::workloadTable()).c_str(),
        registry::ids(mc::policyTable()).c_str(),
        registry::ids(core::mitigationTable()).c_str());
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    // Split flags from positional arguments (the subcommand, then its
    // operands).  Unknown flags are usage errors: a mistyped --resune
    // silently ignored would rerun every shard of the checkpoint the
    // user meant to resume.  The diagnostic names the subcommand so a
    // long scripted pipeline points at the offending invocation.
    std::vector<std::string> args;
    std::vector<std::string> flags;
    for (int i = 1; i < argc; ++i)
        (std::string_view(argv[i]).starts_with("--") ? flags : args)
            .emplace_back(argv[i]);
    std::vector<std::string> given;  // Flag names, without "=value".
    Invocation in;
    for (const std::string &arg : flags) {
        const auto *flag = std::ranges::find_if(kFlags, [&](const FlagDef &f) {
            return f.name.ends_with('=') ? arg.starts_with(f.name)
                                         : arg == f.name;
        });
        if (flag == std::end(kFlags)) {
            std::fprintf(stderr, "error: unknown flag '%s'%s\n", arg.c_str(),
                         args.empty() ? ""
                                      : (" (subcommand '" + args[0] + "')")
                                            .c_str());
            return usage();
        }
        given.emplace_back(flagName(*flag));
        flag->set(in.flags, arg.substr(flag->name.size()),
                  given.back().c_str());
    }

    if (args.empty())
        return usage();
    const auto *sub = std::ranges::find(kSubcommands, args[0],
                                        &Subcommand::name);
    if (sub == std::end(kSubcommands))
        return usage();
    for (const std::string &flag : given) {
        if (!readsFlag(sub->reads, flag)) {
            std::fprintf(stderr, "error: %s does not apply to '%s'\n",
                         flag.c_str(), args[0].c_str());
            return 2;
        }
    }
    if (sub->synopsis.starts_with("<preset>") && args.size() > 1)
        in.cfg = dram::makePreset(
            keywordOrExit(dram::presetTable(), args[1], "preset").id);
    // The synopsis gives the arity: `<x>` is required, `[x]` optional.
    const auto required = size_t(std::ranges::count(sub->synopsis, '<'));
    const auto optional = size_t(std::ranges::count(sub->synopsis, '['));
    if (args.size() - 1 < required || args.size() - 1 > required + optional)
        return usage();
    in.name = args[0];
    in.args.assign(args.begin() + 1, args.end());
    return sub->run(in);
}
