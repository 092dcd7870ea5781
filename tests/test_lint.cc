/**
 * @file
 * Static-analyzer tests: rule registry, the abstract timing
 * interpreter, expected-violation annotations, and the built-in
 * program catalog's cleanliness contract.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "bender/host.h"
#include "bender/lint.h"
#include "core/programs.h"
#include "dram/chip.h"
#include "dram/timing.h"
#include "test_common.h"
#include "util/registry.h"
#include "util/rng.h"

namespace dramscope {
namespace {

using bender::Host;
using bender::Program;
namespace lint = bender::lint;
using lint::Rule;
using lint::Severity;

/** Slots of every diagnostic matching @p rule. */
std::vector<size_t>
slotsOf(const lint::Report &report, Rule rule)
{
    std::vector<size_t> slots;
    for (const auto &d : report.diags) {
        if (d.rule == rule)
            slots.push_back(d.slot);
    }
    return slots;
}

bool
hasRule(const lint::Report &report, Rule rule)
{
    return !slotsOf(report, rule).empty();
}

TEST(LintRuleTable, CompleteAndUnique)
{
    // The rule count, from the same X-macro the enum is built from.
#define X(name, id, sev, summary) +1
    constexpr size_t kRules = 0 DRAMSCOPE_LINT_RULES(X);
#undef X
    const auto &table = lint::ruleTable();
    ASSERT_EQ(table.size(), kRules);
    ASSERT_GE(table.size(), 15u);
    std::set<std::string> ids;
    for (size_t i = 0; i < table.size(); ++i) {
        EXPECT_EQ(size_t(table[i].rule), i);
        EXPECT_TRUE(ids.insert(table[i].id).second)
            << "duplicate rule id " << table[i].id;
        EXPECT_STRNE(table[i].summary, "");
        EXPECT_STREQ(lint::ruleId(table[i].rule), table[i].id);
        EXPECT_EQ(registry::find(table, table[i].id), &table[i]);
    }
    EXPECT_EQ(registry::find(table, "trcx"), nullptr);
}

class LintTest : public ::testing::Test
{
  protected:
    LintTest() : cfg_(testutil::tinyPlain()) {}

    lint::Report lint(const Program &p) const
    {
        return lint::lint(p, cfg_);
    }

    dram::DeviceConfig cfg_;
};

TEST_F(LintTest, HammerKernelPassesClean)
{
    const auto p = Host::makeHammerProgram(cfg_, 0, 21, 300000, 35.0);
    EXPECT_TRUE(p.expectedViolations().empty());
    const auto report = lint(p);
    EXPECT_TRUE(report.diags.empty());
    EXPECT_FALSE(report.hasErrors());
    EXPECT_EQ(report.commandCount, 2u * 300000u);
}

TEST_F(LintTest, SubTRasOpenTimeIsAnnotated)
{
    // A tAggON probe below tRAS is a deliberate out-of-spec step.
    const auto p = Host::makeHammerProgram(cfg_, 0, 21, 1000, 20.0);
    ASSERT_EQ(p.expectedViolations().size(), 1u);
    EXPECT_EQ(p.expectedViolations()[0], Rule::TRas);
    const auto report = lint(p);
    EXPECT_FALSE(report.hasErrors());
    ASSERT_TRUE(hasRule(report, Rule::TRas));
    for (const auto &d : report.diags) {
        if (d.rule == Rule::TRas) {
            EXPECT_TRUE(d.expected);
            EXPECT_EQ(d.severity, Severity::Note);
        }
    }
}

TEST_F(LintTest, RowCopyFlagsTRpAndTRcAsExpected)
{
    const auto p = Host::makeRowCopyProgram(cfg_, 0, 100, 101);
    const auto report = lint(p);
    EXPECT_FALSE(report.hasErrors());
    // The second ACT is slot 4: act, sleep, pre, sleep, act.
    EXPECT_EQ(slotsOf(report, Rule::TRp), std::vector<size_t>{4});
    EXPECT_EQ(slotsOf(report, Rule::TRc), std::vector<size_t>{4});
    for (const auto &d : report.diags) {
        EXPECT_TRUE(d.expected) << lint::ruleId(d.rule);
        EXPECT_EQ(d.severity, Severity::Note);
    }
}

TEST_F(LintTest, UnannotatedRowCopyShapeIsAnError)
{
    // The same slip without the annotation must stay an error.
    Program p;
    p.act(0, 100)
        .sleepNs(cfg_.timing.tRasNs)
        .pre(0)
        .sleepNs(1.0)
        .act(0, 101)
        .sleepNs(cfg_.timing.tRasNs)
        .pre(0);
    const auto report = lint(p);
    EXPECT_TRUE(report.hasErrors());
    EXPECT_EQ(slotsOf(report, Rule::TRp), std::vector<size_t>{4});
}

TEST_F(LintTest, TRcdViolationReportsRuleAndSlot)
{
    Program p;
    p.act(0, 1).rd(0, 0).sleepNs(cfg_.timing.tRasNs).pre(0);
    const auto report = lint(p);
    EXPECT_TRUE(report.hasErrors());
    EXPECT_EQ(slotsOf(report, Rule::TRcd), std::vector<size_t>{1});
}

TEST_F(LintTest, TRasViolationReportsRuleAndSlot)
{
    Program p;
    p.act(0, 1).sleepNs(10.0).pre(0);
    const auto report = lint(p);
    EXPECT_TRUE(report.hasErrors());
    EXPECT_EQ(slotsOf(report, Rule::TRas), std::vector<size_t>{2});
}

TEST_F(LintTest, ReadOnClosedBankIsAnError)
{
    Program p;
    p.rd(0, 0);
    const auto report = lint(p);
    EXPECT_EQ(slotsOf(report, Rule::RwClosed), std::vector<size_t>{0});
}

TEST_F(LintTest, RefWithOpenRowIsAnError)
{
    Program p;
    p.act(0, 1).sleepNs(cfg_.timing.tRcdNs).ref();
    const auto report = lint(p);
    EXPECT_EQ(slotsOf(report, Rule::RefOpen), std::vector<size_t>{2});
    EXPECT_EQ(report.refCount, 1u);
}

TEST_F(LintTest, ActOnOpenBankIsAnError)
{
    Program p;
    p.act(0, 1).sleepNs(50.0).act(0, 2);
    const auto report = lint(p);
    EXPECT_EQ(slotsOf(report, Rule::ActOpen), std::vector<size_t>{2});
    // And the program never closes the row.
    EXPECT_TRUE(hasRule(report, Rule::OpenAtEnd));
}

TEST_F(LintTest, DroppedActRestartsNoClock)
{
    // The device drops the second ACT, so the RD is 47 ns after the
    // first one: act-open is the ACT's only finding, and no tRCD.
    Program p;
    p.act(0, 10).sleepNs(40.0).act(0, 20).sleepNs(5.0).rd(0, 0);
    const auto report = lint(p);
    EXPECT_EQ(slotsOf(report, Rule::ActOpen), std::vector<size_t>{2});
    EXPECT_FALSE(hasRule(report, Rule::TRc));
    EXPECT_FALSE(hasRule(report, Rule::TRcd));
}

TEST_F(LintTest, PreToPrechargedBankRestartsNoClock)
{
    // The second PRE is a NOP: tRP runs from the first, so the ACT
    // 17.25 ns after it is in spec.
    const auto &t = cfg_.timing;
    Program p;
    p.act(0, 1).sleepNs(t.tRasNs).pre(0).sleepNs(t.tRpNs).pre(0);
    p.sleepNs(1.0).act(0, 2).sleepNs(t.tRasNs).pre(0);
    EXPECT_TRUE(lint(p).diags.empty());
}

TEST_F(LintTest, ActRateRulesFireAcrossBanks)
{
    auto cfg = cfg_;
    cfg.numBanks = 8;
    // Five back-to-back ACTs to distinct banks: each gap is one tCK
    // (< tRRD) and the fifth lands well inside the tFAW window.
    Program p;
    for (dram::BankId b = 0; b < 5; ++b)
        p.act(b, 1);
    const auto report = lint::lint(p, cfg);
    EXPECT_TRUE(hasRule(report, Rule::TRrd));
    EXPECT_EQ(slotsOf(report, Rule::TFaw), std::vector<size_t>{4});
}

TEST_F(LintTest, InSpecActSpacingPassesRateRules)
{
    auto cfg = cfg_;
    cfg.numBanks = 8;
    Program p;
    for (dram::BankId b = 0; b < 5; ++b)
        p.act(b, 1).sleepNs(7.0);  // > tRRD; 4-ACT window > tFAW.
    for (dram::BankId b = 0; b < 5; ++b) {
        p.sleepNs(cfg.timing.tRasNs).pre(b);
    }
    const auto report = lint::lint(p, cfg);
    EXPECT_FALSE(hasRule(report, Rule::TRrd));
    EXPECT_FALSE(hasRule(report, Rule::TFaw));
}

TEST_F(LintTest, CrossIterationSpacingIsChecked)
{
    // The loop tail leaves no tRP before the next iteration's ACT:
    // only visible across the loop back-edge.
    Program p;
    p.loopBegin(10)
        .act(0, 1)
        .sleepNs(cfg_.timing.tRasNs)
        .pre(0)
        .loopEnd();
    const auto report = lint(p);
    EXPECT_TRUE(report.hasErrors());
    EXPECT_EQ(slotsOf(report, Rule::TRp), std::vector<size_t>{1});
}

TEST_F(LintTest, ZeroLoopAndDeadCodeAreWarnings)
{
    Program p;
    p.loopBegin(0).act(0, 5).pre(0).loopEnd();
    const auto report = lint(p);
    EXPECT_FALSE(report.hasErrors());
    EXPECT_EQ(slotsOf(report, Rule::ZeroLoop), std::vector<size_t>{0});
    EXPECT_EQ(slotsOf(report, Rule::DeadCode), std::vector<size_t>{1});
    EXPECT_EQ(report.commandCount, 0u);
    EXPECT_EQ(report.durationPs, 0);
}

TEST_F(LintTest, StaleExpectationIsFlagged)
{
    auto p = Host::makeHammerProgram(cfg_, 0, 21, 100, 35.0);
    p.expectViolation(Rule::TRp);  // Never fires: annotation is stale.
    const auto report = lint(p);
    EXPECT_FALSE(report.hasErrors());
    EXPECT_TRUE(hasRule(report, Rule::StaleExpectation));
}

TEST_F(LintTest, UnbalancedLoopIsReportedNotFatal)
{
    Program p;
    p.loopBegin(2).act(0, 1);
    const auto report = lint(p);
    EXPECT_TRUE(report.hasErrors());
    EXPECT_EQ(slotsOf(report, Rule::UnbalancedLoop),
              std::vector<size_t>{0});
    // The timing walk is skipped on broken structure.
    EXPECT_EQ(report.durationPs, 0);
}

TEST_F(LintTest, SymbolicClockMatchesHostClockExactly)
{
    // Awkward fractional-ns sleeps: the duration is rounded to
    // integer picoseconds once, at build time, so the linter's
    // symbolic clock and the executor's clock consume the same
    // integers and agree to the picosecond.
    Program p;
    p.loopBegin(3000).sleepNs(1.0 / 3.0).loopEnd();
    ASSERT_EQ(p.instrs()[1].ps, 333);
    const auto report = lint(p);
    EXPECT_EQ(report.durationPs, 3000 * 333);

    dram::Chip chip(cfg_);
    bender::Host host(chip);
    const auto t0 = host.now();
    host.run(p);
    EXPECT_EQ(host.now() - t0, report.durationPs / 1000);
}

TEST_F(LintTest, SymbolicClockMatchesBulkHammerPath)
{
    // The default hammer kernel is 50ns per iteration; the bulk
    // fast path and the linter must agree on the total exactly.
    const uint64_t count = 12345;
    const auto p = Host::makeHammerProgram(cfg_, 0, 21, count, 35.0);
    const auto report = lint(p);
    EXPECT_EQ(report.durationPs, int64_t(count) * 50000);

    dram::Chip chip(cfg_);
    bender::Host host(chip);
    const auto t0 = host.now();
    host.run(p);
    EXPECT_EQ(host.now() - t0, dram::NanoTime(count * 50));
}

TEST_F(LintTest, DeepNestingWalksAndCounts)
{
    Program p;
    const int depth = 10;
    for (int i = 0; i < depth; ++i)
        p.loopBegin(2);
    p.nop(1);
    for (int i = 0; i < depth; ++i)
        p.loopEnd();
    p.validate();  // Structurally fine.
    const auto report = lint(p);
    EXPECT_TRUE(report.diags.empty());
    // 2^10 expanded NOPs of one tCK each.
    EXPECT_EQ(report.durationPs, 1024 * 1250);
}

TEST_F(LintTest, RefreshBudgetEstimateForLongPrograms)
{
    // ~78ms of idle looping with no REF: past tREFW, under-refreshed.
    Program p;
    p.loopBegin(10000).sleepNs(7800.0).loopEnd();
    const auto report = lint(p);
    EXPECT_FALSE(report.hasErrors());
    ASSERT_TRUE(hasRule(report, Rule::RefreshBudget));

    // The same span with a REF per tREFI stays within budget (the
    // sleep is trimmed so the REF command's own tCK keeps the
    // iteration period under tREFI).
    Program q;
    q.loopBegin(10000).ref().sleepNs(7790.0).loopEnd();
    const auto clean = lint(q);
    EXPECT_FALSE(hasRule(clean, Rule::RefreshBudget));
    EXPECT_EQ(clean.refCount, 10000u);
}

/**
 * The catalog contract (every built-in charact/attack/RE program):
 * no unexpected violations on any preset, and exactly the annotation
 * sets the builders declare — RowCopy flags tRP + tRC, the hammer
 * family flags its deliberately over-threshold exposure bound, and
 * everything else is annotation-free.
 */
TEST(LintCatalog, AllBuiltinProgramsLintCleanOnAllPresets)
{
    auto configs = std::vector<dram::DeviceConfig>{testutil::tinyPlain()};
    for (const auto &id : dram::presetIds())
        configs.push_back(dram::makePreset(id));

    for (const auto &cfg : configs) {
        for (const auto &entry : core::builtinPrograms(cfg)) {
            const auto report = lint::lint(entry.prog, cfg);
            EXPECT_FALSE(report.hasErrors())
                << cfg.name << ": " << entry.name;
            EXPECT_FALSE(hasRule(report, Rule::StaleExpectation))
                << cfg.name << ": " << entry.name;

            std::multiset<Rule> expected(
                entry.prog.expectedViolations().begin(),
                entry.prog.expectedViolations().end());
            if (entry.name == "rowcopy") {
                EXPECT_EQ(expected,
                          (std::multiset<Rule>{Rule::TRp, Rule::TRc}))
                    << cfg.name;
            } else if (entry.name == "hammer" || entry.name == "press" ||
                       entry.name == "hammer-re") {
                EXPECT_EQ(expected,
                          (std::multiset<Rule>{Rule::ExposureBound}))
                    << cfg.name << ": " << entry.name;
            } else {
                EXPECT_TRUE(expected.empty())
                    << cfg.name << ": " << entry.name;
            }
        }
    }
}

/**
 * What the linter predicts, the device records: seeded random
 * straight-line programs over two banks mix ACT, PRE, RD, WR and REF,
 * each issued on a whole nanosecond (the ceilNs contract mc::schedule
 * issues by), and run step-wise on a fresh chip.  act-open, rw-closed,
 * tras and trcd count the same.  The device keeps two differences: it
 * flags trp only inside rowCopyMaxGapNs, and it counts ref-open once
 * per open bank rather than once per REF.
 */
TEST(LintDeviceAgreement, RandomWholeNsProgramsCountTheSameViolations)
{
    constexpr uint64_t kPrograms = 2000;
    constexpr int kCommands = 24;  // Far below the 1024-entry log.
    const std::map<std::string, Rule> device_rule = {
        {"ACT to open bank", Rule::ActOpen},
        {"ACT within tRP (RowCopy)", Rule::TRp},
        {"PRE within tRAS", Rule::TRas},
        {"RD within tRCD", Rule::TRcd},
        {"WR within tRCD", Rule::TRcd},
        {"RD to closed bank", Rule::RwClosed},
        {"WR to closed bank", Rule::RwClosed},
        {"REF with open bank", Rule::RefOpen},
    };
    const Rule equal[] = {Rule::ActOpen, Rule::RwClosed, Rule::TRas,
                          Rule::TRcd};
    for (const char *preset : {"A_x8_2018", "HBM2_A"}) {
        const auto cfg = dram::makePreset(preset);
        const int64_t tck = dram::psFromNs(cfg.timing.tCkNs);
        std::map<Rule, uint64_t> lint_total, device_total;
        uint64_t failed = 0;
        std::string first;
        for (uint64_t seed = 0; seed < kPrograms; ++seed) {
            Rng rng(seed);
            Program p;
            std::string text;
            int64_t clock = 0;  // Both clocks start on a whole ns.
            for (int k = 0; k < kCommands; ++k) {
                // Up to the next whole ns, then a whole-ns wait that
                // straddles tRCD, tRAS and tRP.
                const int64_t wait =
                    (1000 - clock % 1000) % 1000 +
                    1000 * int64_t(rng.below(rng.chance(0.5) ? 8 : 48));
                if (wait > 0) {
                    p.sleepPs(wait);
                    text += " sleepPs(" + std::to_string(wait) + ")";
                }
                clock += wait + tck;
                const auto b = dram::BankId(rng.below(2));
                const auto row = dram::RowAddr(100 + rng.below(8));
                const auto col = dram::ColAddr(rng.below(4));
                const std::string bank = std::to_string(b);
                switch (rng.below(9)) {
                  case 0: case 1: case 2:
                    p.act(b, row);
                    text += " act(" + bank + "," + std::to_string(row) + ")";
                    break;
                  case 3: case 4: case 5:
                    p.pre(b);
                    text += " pre(" + bank + ")";
                    break;
                  case 6:
                    p.rd(b, col);
                    text += " rd(" + bank + "," + std::to_string(col) + ")";
                    break;
                  case 7:
                    p.wr(b, col, rng.next());
                    text += " wr(" + bank + "," + std::to_string(col) + ")";
                    break;
                  default:
                    p.ref();
                    text += " ref()";
                }
            }

            std::map<Rule, uint64_t> by_lint, by_device;
            for (const auto &d : lint::lint(p, cfg).diags)
                ++by_lint[d.rule];
            dram::Chip chip(cfg);
            Host host(chip);
            host.setFastPathMode(dram::FastPathMode::Off);
            host.run(p);
            ASSERT_EQ(chip.violationCount(), chip.violations().size());
            for (const auto &v : chip.violations())
                ++by_device[device_rule.at(v.what)];

            bool agree = by_device[Rule::TRp] <= by_lint[Rule::TRp] &&
                         by_device[Rule::RefOpen] >= by_lint[Rule::RefOpen];
            for (const Rule rule : equal)
                agree = agree && by_device[rule] == by_lint[rule];
            if (!agree && failed++ == 0) {
                first = "seed " + std::to_string(seed) + ":" + text + "\n";
                for (const auto &[rule, n] : by_lint)
                    first += std::string(" lint ") + lint::ruleId(rule) +
                             "=" + std::to_string(n);
                for (const auto &[rule, n] : by_device)
                    first += std::string(" device ") +
                             lint::ruleId(rule) + "=" + std::to_string(n);
            }
            for (const auto &[rule, n] : by_lint)
                lint_total[rule] += n;
            for (const auto &[rule, n] : by_device)
                device_total[rule] += n;
        }
        EXPECT_EQ(failed, 0u)
            << preset << ": programs disagree; the first is " << first;
        // The corpus reaches every compared rule on both sides.
        for (const Rule rule : equal)
            EXPECT_GT(device_total[rule], 0u) << preset << " "
                                              << lint::ruleId(rule);
        EXPECT_GT(device_total[Rule::TRp], 0u) << preset;
        EXPECT_GT(lint_total[Rule::RefOpen], 0u) << preset;
    }
}

TEST(LintCatalog, LookupByNameAndUniqueness)
{
    const auto cfg = testutil::tinyPlain();
    std::set<std::string> names;
    for (const auto &entry : core::builtinPrograms(cfg))
        EXPECT_TRUE(names.insert(entry.name).second) << entry.name;
    EXPECT_TRUE(names.count("hammer"));
    EXPECT_TRUE(names.count("rowcopy"));
    const auto *info = registry::find(core::programTable(), "rowcopy");
    ASSERT_NE(info, nullptr);
    const auto one = core::builtinProgram(cfg, info->program);
    EXPECT_EQ(one.name, "rowcopy");
    EXPECT_EQ(one.origin, "re_subarray");
    EXPECT_EQ(registry::find(core::programTable(), "no-such-program"),
              nullptr);
}

} // namespace
} // namespace dramscope
