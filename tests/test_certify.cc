/**
 * @file
 * Static exposure & energy certifier tests: symbolic activation
 * counters (exactness through loop fast-forwarding, nested loops,
 * refresh-window segmentation), energy/power accounting, certify-only
 * rule scoping, stale-expectation determinism for degenerate loop
 * counts, registration-time mitigation certification, and the
 * cross-validation harness proving the static bound dominates the
 * dynamic per-window ACT maximum on every mc grid cell across
 * chip / DIMM / HBM backends.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "bender/host.h"
#include "bender/lint.h"
#include "bender/program.h"
#include "core/programs.h"
#include "core/protect/mitigation.h"
#include "dram/chip.h"
#include "dram/hbm_stack.h"
#include "mapping/dimm.h"
#include "mc/mc.h"
#include "mc/sweep.h"
#include "test_common.h"

namespace dramscope {
namespace {

namespace lint = bender::lint;
using bender::Program;
using lint::Rule;

bool
hasRule(const lint::Report &r, Rule rule)
{
    for (const auto &d : r.diags)
        if (d.rule == rule)
            return true;
    return false;
}

size_t
countRule(const lint::Report &r, Rule rule)
{
    size_t n = 0;
    for (const auto &d : r.diags)
        n += d.rule == rule;
    return n;
}

/** act/pre pair with in-spec spacing (tRAS 32 ns, tRP 13.75 ns). */
Program &
actPre(Program &p, dram::BankId b, dram::RowAddr r)
{
    return p.act(b, r).sleepNs(35).pre(b).sleepNs(15);
}

// ---------------------------------------------------------------------
// Exposure counters: straight-line, loops, nesting, REF segmentation.
// ---------------------------------------------------------------------

TEST(CertifyExposure, StraightLineCountsEveryAct)
{
    const auto cfg = testutil::tinyPlain();
    Program p;
    actPre(p, 0, 7);
    actPre(p, 0, 7);
    actPre(p, 1, 3);
    const auto cert = lint::certify(p, cfg);
    EXPECT_TRUE(cert.certified()) << cert.summary();
    EXPECT_EQ(cert.maxRowActs, 2u);
    EXPECT_EQ(cert.hottestBank, 0u);
    EXPECT_EQ(cert.hottestRow, 7u);
    EXPECT_TRUE(cert.exact);
}

TEST(CertifyExposure, RefSegmentsTheWindow)
{
    // Three ACTs to one row, a REF between each: no refresh window
    // ever sees more than one, so the proven bound is 1, not 3.
    const auto cfg = testutil::tinyPlain();
    Program p;
    actPre(p, 0, 7);
    p.ref().sleepNs(400);
    actPre(p, 0, 7);
    p.ref().sleepNs(400);
    actPre(p, 0, 7);
    const auto cert = lint::certify(p, cfg);
    EXPECT_TRUE(cert.certified()) << cert.summary();
    EXPECT_EQ(cert.maxRowActs, 1u);
    EXPECT_TRUE(cert.exact);
}

TEST(CertifyExposure, FastForwardedLoopMatchesStepwiseExpansion)
{
    // 50 iterations: far past kSimIters, so the bulk is folded
    // analytically — the symbolic counter must equal the unrolled
    // program's count exactly, not approximately.
    const auto cfg = testutil::tinyPlain();
    const uint64_t n = 50;

    Program looped;
    looped.loopBegin(n);
    actPre(looped, 0, 5);
    looped.loopEnd();

    Program unrolled;
    for (uint64_t i = 0; i < n; ++i)
        actPre(unrolled, 0, 5);

    const auto a = lint::certify(looped, cfg);
    const auto b = lint::certify(unrolled, cfg);
    EXPECT_TRUE(a.certified()) << a.summary();
    EXPECT_EQ(a.maxRowActs, n);
    EXPECT_EQ(a.maxRowActs, b.maxRowActs);
    EXPECT_EQ(a.hottestRow, b.hottestRow);
    EXPECT_TRUE(a.exact);
    EXPECT_TRUE(b.exact);
    EXPECT_DOUBLE_EQ(a.commandEnergyPj, b.commandEnergyPj);
}

TEST(CertifyExposure, HammerInsideSweepCountsPerRowExactly)
{
    // The nested shape of a real experiment: an outer sweep visits a
    // probe row once per iteration, an inner hammer loop pounds a
    // fixed aggressor.  Per-row symbolic counters must match the
    // step-wise expansion for every row, including across the outer
    // loop's own fast-forward.
    const auto cfg = testutil::tinyPlain();
    const uint64_t outer = 20;  // > kSimIters: outer loop folds too.
    const uint64_t inner = 10;

    Program nested;
    nested.loopBegin(outer);
    actPre(nested, 0, 1);  // Probe row: once per outer iteration.
    nested.loopBegin(inner);
    actPre(nested, 0, 9);  // Aggressor: inner * outer in total.
    nested.loopEnd();
    nested.loopEnd();

    Program unrolled;
    for (uint64_t i = 0; i < outer; ++i) {
        actPre(unrolled, 0, 1);
        for (uint64_t j = 0; j < inner; ++j)
            actPre(unrolled, 0, 9);
    }

    const auto a = lint::certify(nested, cfg);
    const auto b = lint::certify(unrolled, cfg);
    EXPECT_TRUE(a.certified()) << a.summary();
    EXPECT_EQ(a.maxRowActs, outer * inner);
    EXPECT_EQ(a.hottestBank, 0u);
    EXPECT_EQ(a.hottestRow, 9u);
    EXPECT_TRUE(a.exact);
    EXPECT_EQ(a.maxRowActs, b.maxRowActs);
    EXPECT_EQ(a.hottestRow, b.hottestRow);
    EXPECT_DOUBLE_EQ(a.commandEnergyPj, b.commandEnergyPj);
}

TEST(CertifyExposure, LoopBodyWithRefIsConservativeNotExact)
{
    // A REF inside a folded loop resets the window mid-iteration;
    // the analyzer keeps the steady-state counters but downgrades
    // the exactness claim.
    const auto cfg = testutil::tinyPlain();
    Program p;
    p.loopBegin(50);
    actPre(p, 0, 5);
    p.ref().sleepNs(400);
    p.loopEnd();
    const auto cert = lint::certify(p, cfg);
    EXPECT_TRUE(cert.certified()) << cert.summary();
    EXPECT_FALSE(cert.exact);
    EXPECT_GE(cert.maxRowActs, 1u);
}

TEST(CertifyExposure, ThresholdOverrideFlagsUnannotatedPrograms)
{
    const auto cfg = testutil::tinyPlain();
    Program p;
    p.loopBegin(50);
    actPre(p, 0, 5);
    p.loopEnd();

    lint::CertifyOptions opts;
    opts.exposureThreshold = 10;
    const auto hot = lint::certify(p, cfg, opts);
    EXPECT_FALSE(hot.certified());
    EXPECT_TRUE(hasRule(hot.report, Rule::ExposureBound));
    EXPECT_EQ(hot.exposureThreshold, 10u);

    // The same program, annotated: the violation is declared intent,
    // so it certifies (the hammer-catalog contract).
    p.expectViolation(Rule::ExposureBound);
    const auto declared = lint::certify(p, cfg, opts);
    EXPECT_TRUE(declared.certified()) << declared.summary();
    EXPECT_FALSE(hasRule(declared.report, Rule::StaleExpectation));
}

// ---------------------------------------------------------------------
// Energy and power accounting.
// ---------------------------------------------------------------------

TEST(CertifyEnergy, CommandEnergiesSumFromTheTables)
{
    const auto cfg = testutil::tinyPlain();
    Program p;
    p.act(0, 1).sleepNs(35);
    p.rd(0, 0).sleepNs(10);
    p.wr(0, 1, 0xAB).sleepNs(35);
    p.pre(0).sleepNs(15);
    p.ref().sleepNs(400);
    const auto cert = lint::certify(p, cfg);
    const auto &e = cfg.energy;
    EXPECT_DOUBLE_EQ(cert.commandEnergyPj,
                     e.eActPj + e.eRdPj + e.eWrPj + e.ePrePj + e.eRefPj);
    EXPECT_GT(cert.backgroundEnergyPj, 0.0);
    EXPECT_DOUBLE_EQ(cert.totalEnergyPj(),
                     cert.commandEnergyPj + cert.backgroundEnergyPj);
    EXPECT_GE(cert.avgPowerMw, e.backgroundMw);
    EXPECT_GE(cert.peakWindowPowerMw, e.backgroundMw);
}

TEST(CertifyEnergy, IdleProgramDrawsOnlyBackground)
{
    const auto cfg = testutil::tinyPlain();
    Program p;
    p.sleepNs(1000);
    const auto cert = lint::certify(p, cfg);
    EXPECT_TRUE(cert.certified()) << cert.summary();
    EXPECT_DOUBLE_EQ(cert.commandEnergyPj, 0.0);
    EXPECT_DOUBLE_EQ(cert.avgPowerMw, cfg.energy.backgroundMw);
    EXPECT_DOUBLE_EQ(cert.peakWindowPowerMw, cfg.energy.backgroundMw);
}

TEST(CertifyEnergy, OverBudgetProgramFailsCertification)
{
    // A 1 mW budget is below background draw alone: any program must
    // fail, which is also the CLI's exit-code contract.
    const auto cfg = testutil::tinyPlain();
    Program p;
    actPre(p, 0, 1);
    lint::CertifyOptions opts;
    opts.powerBudgetMw = 1.0;
    const auto cert = lint::certify(p, cfg, opts);
    EXPECT_FALSE(cert.certified());
    EXPECT_TRUE(hasRule(cert.report, Rule::PowerWindow));
    EXPECT_DOUBLE_EQ(cert.powerBudgetMw, 1.0);
}

TEST(CertifyEnergy, LongLoopPeakPowerSeesAFullWindow)
{
    // A loop whose period is a fraction of the 200 ns power window
    // must not fast-forward before a full window fills: the peak is
    // near steady state, well above a 6-iteration prefix average.
    const auto cfg = testutil::tinyPlain();
    Program p;
    p.loopBegin(10000);
    actPre(p, 0, 5);  // 50 ns period: 4 commands per 200 ns window.
    p.loopEnd();
    p.expectViolation(Rule::ExposureBound);
    const auto cert = lint::certify(p, cfg);
    EXPECT_TRUE(cert.certified()) << cert.summary();
    const double steady =
        1000.0 * (cfg.energy.eActPj + cfg.energy.ePrePj) / 50000.0 +
        cfg.energy.backgroundMw;
    EXPECT_GE(cert.peakWindowPowerMw, 0.9 * steady);
}

TEST(CertifyEnergy, EveryCertificateCarriesAnEnergyEstimateNote)
{
    const auto cfg = testutil::tinyPlain();
    Program p;
    actPre(p, 0, 1);
    const auto cert = lint::certify(p, cfg);
    EXPECT_TRUE(hasRule(cert.report, Rule::EnergyEstimate));
    EXPECT_TRUE(cert.certified());
}

// ---------------------------------------------------------------------
// Certify-only rule scoping: plain lint() neither fires the effect
// rules nor stale-flags their annotations.
// ---------------------------------------------------------------------

TEST(CertifyOnlyRules, PlainLintIgnoresEffectRulesAndAnnotations)
{
    const auto cfg = testutil::tinyPlain();
    Program p;
    p.loopBegin(100000);
    actPre(p, 0, 5);
    p.loopEnd();
    p.expectViolation(Rule::ExposureBound);

    const auto report = lint::lint(p, cfg);
    EXPECT_TRUE(report.diags.empty()) << report.diags.size();

    const auto cert = lint::certify(p, cfg);
    EXPECT_TRUE(cert.certified()) << cert.summary();
    EXPECT_TRUE(hasRule(cert.report, Rule::ExposureBound));
    EXPECT_TRUE(hasRule(cert.report, Rule::EnergyEstimate));
}

// ---------------------------------------------------------------------
// Stale-expectation determinism for degenerate loop counts
// (regression: counts 0/1 used to report inconsistently).
// ---------------------------------------------------------------------

/** A deliberately tRAS-violating act/pre pair (tRC/tRP kept legal,
 *  so loop iterations compose without further violations). */
Program &
shortActPre(Program &p, dram::BankId b, dram::RowAddr r)
{
    return p.act(b, r).sleepNs(5).pre(b).sleepNs(45);
}

TEST(StaleExpectation, ZeroCountLoopReportsStaleWithDeadCodeContext)
{
    // The annotated violation sits in a zero-count loop: it never
    // fires, so the annotation is stale — and the diagnostic says
    // the dead code may be why, instead of silently flip-flopping.
    const auto cfg = testutil::tinyPlain();
    Program p;
    p.loopBegin(0);
    shortActPre(p, 0, 1);
    p.loopEnd();
    p.expectViolation(Rule::TRas);

    const auto a = lint::lint(p, cfg);
    const auto b = lint::lint(p, cfg);
    EXPECT_EQ(countRule(a, Rule::StaleExpectation), 1u);
    EXPECT_EQ(a.diags.size(), b.diags.size());
    for (size_t i = 0; i < a.diags.size(); ++i) {
        EXPECT_EQ(a.diags[i].rule, b.diags[i].rule);
        EXPECT_EQ(a.diags[i].message, b.diags[i].message);
    }
    for (const auto &d : a.diags) {
        if (d.rule == Rule::StaleExpectation) {
            EXPECT_NE(d.message.find("zero-count"), std::string::npos)
                << d.message;
        }
    }
}

TEST(StaleExpectation, CountOneLoopBehavesLikeStraightLine)
{
    const auto cfg = testutil::tinyPlain();
    Program looped;
    looped.loopBegin(1);
    shortActPre(looped, 0, 1);
    looped.loopEnd();
    looped.expectViolation(Rule::TRas);

    Program straight;
    shortActPre(straight, 0, 1);
    straight.expectViolation(Rule::TRas);

    const auto a = lint::lint(looped, cfg);
    const auto b = lint::lint(straight, cfg);
    EXPECT_FALSE(a.hasErrors());
    EXPECT_FALSE(hasRule(a, Rule::StaleExpectation));
    EXPECT_EQ(countRule(a, Rule::TRas), countRule(b, Rule::TRas));
}

TEST(StaleExpectation, DuplicateAnnotationsYieldOneDiagnostic)
{
    const auto cfg = testutil::tinyPlain();
    Program p;
    actPre(p, 0, 1);  // In-spec: the TRp annotations are both stale.
    p.expectViolation(Rule::TRp);
    p.expectViolation(Rule::TRp);
    const auto report = lint::lint(p, cfg);
    EXPECT_EQ(countRule(report, Rule::StaleExpectation), 1u);
}

TEST(StaleExpectation, DiagSetStableAcrossTheSimulateThreshold)
{
    // Loop counts on either side of kSimIters (6) take different
    // engine paths (fully simulated vs. fast-forwarded); the
    // reported rule set must not depend on which path ran.
    const auto cfg = testutil::tinyPlain();
    for (const uint64_t count : {6u, 7u, 100u}) {
        Program p;
        p.loopBegin(count);
        shortActPre(p, 0, 1);
        p.loopEnd();
        p.expectViolation(Rule::TRas);
        const auto report = lint::lint(p, cfg);
        EXPECT_FALSE(report.hasErrors()) << "count " << count;
        EXPECT_FALSE(hasRule(report, Rule::StaleExpectation))
            << "count " << count;
    }
}

// ---------------------------------------------------------------------
// Registration-time mitigation certification.
// ---------------------------------------------------------------------

TEST(CertifyMitigation, EveryRegisteredKindCertifiesItsSequences)
{
    const auto cfg = testutil::tinyPlain();
    for (const auto &info : core::mitigationTable()) {
        const auto cert = core::certifyMitigationSequences(info.kind, cfg);
        EXPECT_TRUE(cert.certified())
            << info.id << ": " << cert.summary();
        EXPECT_TRUE(hasRule(cert.report, Rule::EnergyEstimate)) << info.id;
    }
}

TEST(CertifyMitigation, MakeMitigationRunsTheGate)
{
    const auto cfg = testutil::tinyPlain();
    for (const auto &info : core::mitigationTable()) {
        const auto mit =
            core::makeMitigation(info.kind, cfg, core::MitigationOptions{});
        if (info.kind == core::MitigationKind::None)
            EXPECT_EQ(mit, nullptr);
        else
            EXPECT_NE(mit, nullptr) << info.id;
    }
}

// ---------------------------------------------------------------------
// Cross-validation: static bound >= dynamic per-window maximum on
// every grid cell, on every backend.
// ---------------------------------------------------------------------

void
expectStaticBoundDominatesDynamic(dram::Device &dev)
{
    bender::Host host(dev);
    const auto &cfg = host.config();

    std::vector<core::MitigationKind> kinds;
    for (const auto &info : core::mitigationTable())
        kinds.push_back(info.kind);

    mc::McSweepOptions opt;
    opt.requests = 400;
    opt.mitigations = kinds;
    const auto plan = mc::sweepPlan(kinds);
    ASSERT_EQ(plan.size(),
              kinds.size() * (plan.size() / kinds.size()));

    for (uint32_t shard = 0; shard < plan.size(); ++shard) {
        const auto &cell = plan[shard];
        const auto res = mc::buildSweepCellSchedule(cell, shard, cfg, opt);
        const auto cert = lint::certify(res.program, cfg);
        const auto label = core::mitigationTable()[shard / (plan.size() /
                                                            kinds.size())]
                               .id;

        EXPECT_TRUE(cert.certified())
            << label << " shard " << shard << ": " << cert.summary();

        // The proven static bound dominates what the scheduler
        // observed dynamically; with no mitigation the two models
        // count the same ACTs, so the bound is tight.
        EXPECT_GE(cert.maxRowActs, res.stats.maxRowActsPerRefWindow)
            << label << " shard " << shard;
        if (cell.mitigation == core::MitigationKind::None) {
            EXPECT_EQ(cert.maxRowActs, res.stats.maxRowActsPerRefWindow)
                << "shard " << shard;
        }
        if (cell.mitigation == core::MitigationKind::Graphene) {
            EXPECT_LE(cert.maxRowActs,
                      core::TrackerOptions{}.threshold)
                << "shard " << shard;
        }

        // The certified program also runs violation-free.
        const auto before = dev.violationCount();
        host.run(res.program);
        EXPECT_EQ(dev.violationCount(), before)
            << label << " shard " << shard;
    }
}

TEST(CertifyCrossValidation, GridBoundDominatesDynamicOnAChip)
{
    dram::Chip chip(testutil::tinyPlain());
    expectStaticBoundDominatesDynamic(chip);
}

TEST(CertifyCrossValidation, GridBoundDominatesDynamicOnADimm)
{
    mapping::Dimm dimm(testutil::tinyPlain());
    expectStaticBoundDominatesDynamic(dimm);
}

TEST(CertifyCrossValidation, GridBoundDominatesDynamicOnAnHbmChannel)
{
    dram::HbmStack stack(testutil::tinyPlain(), 2);
    expectStaticBoundDominatesDynamic(stack.channel(1));
}

// ---------------------------------------------------------------------
// Catalog programs certify on the tiny config (the CLI contract).
// ---------------------------------------------------------------------

TEST(CertifyCatalog, EveryBuiltinProgramCertifies)
{
    const auto cfg = testutil::tinyPlain();
    for (const auto &entry : core::builtinPrograms(cfg)) {
        const auto cert = lint::certify(entry.prog, cfg);
        EXPECT_TRUE(cert.certified())
            << entry.name << ": " << cert.summary();
        EXPECT_LE(cert.peakWindowPowerMw, cfg.energy.maxAvgPowerMw)
            << entry.name;
    }
}

/**
 * The certifier's half of the byte-identity contract: a digest of
 * every catalog certificate and its diagnostics, slots included, at a
 * threshold low enough that every looped hammer reports its bound
 * (whose slot comes from the fast-forwarded row counters).
 */
TEST(CertifyCatalog, CertificatesMatchRecordedDigests)
{
    lint::CertifyOptions opts;
    opts.exposureThreshold = 2;
    using Case = std::pair<const char *, uint64_t>;
    for (const auto &[preset, digest] :
         {Case{"A_x8_2018", 0x6bd4513f77a84d99ULL},
          Case{"HBM2_A", 0xe5a853e399e8675fULL}}) {
        const auto cfg = dram::makePreset(preset);
        testutil::Fnv1a fnv;
        size_t bounds = 0;
        for (const auto &entry : core::builtinPrograms(cfg)) {
            const auto cert = lint::certify(entry.prog, cfg, opts);
            fnv.str(entry.name + ": " + cert.summary());
            for (const auto &d : cert.report.diags) {
                fnv.str(std::string(lint::ruleId(d.rule)) + " slot " +
                        std::to_string(d.slot) +
                        (d.expected ? " expected: " : ": ") + d.message);
                bounds += d.rule == Rule::ExposureBound;
            }
        }
        EXPECT_GT(bounds, 0u) << preset;
        EXPECT_EQ(fnv.h, digest)
            << preset << ": digest 0x" << std::hex << fnv.h;
    }
}

} // namespace
} // namespace dramscope
