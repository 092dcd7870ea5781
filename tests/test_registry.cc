/**
 * @file
 * The keyword registries: every keyword set is one table that
 * util/registry.h looks ids up in and renders, and both environment
 * readers take their keywords through it.  A misspelt value is fatal
 * (EdgeCases.Misspelt*EnvIsFatal).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bender/lint.h"
#include "core/programs.h"
#include "core/protect/mitigation.h"
#include "dram/config.h"
#include "dram/device.h"
#include "dram/faulty_device.h"
#include "mc/mc.h"
#include "mc/workload.h"
#include "test_common.h"
#include "util/registry.h"

namespace dramscope {
namespace {

namespace lint = bender::lint;

/**
 * What every registry promises: unique non-empty ids, each found by
 * find() and listed in order by ids(), and @p unknown rejected.
 */
template <typename Table>
void
expectKeywords(const Table &table, const char *unknown)
{
    std::set<std::string> seen;
    std::string joined;
    for (const auto &entry : table) {
        EXPECT_NE(std::string_view(entry.id), "");
        EXPECT_TRUE(seen.insert(entry.id).second)
            << "duplicate id " << entry.id;
        EXPECT_EQ(registry::find(table, entry.id), &entry) << entry.id;
        joined += (joined.empty() ? "" : "|") + std::string(entry.id);
    }
    EXPECT_EQ(registry::find(table, unknown), nullptr) << unknown;
    EXPECT_EQ(registry::ids(table), joined);
}

/**
 * expectKeywords() for a table keyed by an enum: entry i holds
 * enumerator i (its @p value member), which is what makes every
 * enum-to-id lookup an index and fromEnv() exact.
 */
template <typename Table, typename Entry, typename Enum>
void
expectEnumKeywords(const Table &table, Enum Entry::*value,
                   const char *unknown)
{
    expectKeywords(table, unknown);
    for (size_t i = 0; i < table.size(); ++i)
        EXPECT_EQ(size_t(table[i].*value), i) << table[i].id;
}

TEST(Registry, EveryKeywordSetRoundTrips)
{
    expectEnumKeywords(lint::ruleTable(), &lint::RuleInfo::rule, "trcx");
    expectEnumKeywords(lint::modeTable(), &lint::ModeInfo::mode, "errror");
    expectEnumKeywords(dram::fastPathModeTable(),
                       &dram::FastPathModeInfo::mode, "analytic");
    expectEnumKeywords(mc::policyTable(), &mc::PolicyInfo::policy, "fifo");
    expectEnumKeywords(mc::workloadTable(), &mc::WorkloadInfo::kind,
                       "random");
    expectEnumKeywords(core::mitigationTable(), &core::MitigationInfo::kind,
                       "para");
    expectEnumKeywords(dram::faultClauseTable(),
                       &dram::FaultClauseInfo::clause, "flop");
    expectEnumKeywords(core::programTable(), &core::ProgramInfo::program,
                       "no-such-program");
    expectKeywords(dram::presetTable(), "Z_x9_1999");

    // Enum-to-id lookups read their own entry.  The lint, policy,
    // workload and mitigation tables pin theirs next to their
    // subsystems (LintRuleTable, McPolicies, McWorkloads,
    // MitigationRegistry).
    for (const auto &info : dram::fastPathModeTable())
        EXPECT_STREQ(dram::toString(info.mode), info.id);

    // A fault clause's syntax starts with its keyword.
    for (const auto &info : dram::faultClauseTable())
        EXPECT_TRUE(std::string_view(info.syntax).starts_with(info.id))
            << info.syntax;

    // Table I: 16 groups, and each catalog program is built under its
    // own name.
    EXPECT_EQ(dram::presetTable().size(), 16u);
    const auto cfg = testutil::tinyPlain();
    for (const auto &info : core::programTable())
        EXPECT_EQ(core::builtinProgram(cfg, info.program).name, info.id);
}

TEST(Registry, EnvReadersTakeKeywordsAndFallBackWhenUnsetOrEmpty)
{
    // The caller's values are restored at the end: CI runs this
    // binary in one process.
    std::vector<std::pair<const char *, std::optional<std::string>>> saved;
    for (const char *var : {"DRAMSCOPE_LINT", "DRAMSCOPE_FASTPATH"}) {
        const char *outer = std::getenv(var);
        saved.emplace_back(var, outer ? std::optional<std::string>(outer)
                                      : std::nullopt);
        ASSERT_EQ(unsetenv(var), 0);
    }
    EXPECT_EQ(lint::modeFromEnv(), lint::Mode::Off);
    EXPECT_EQ(dram::fastPathModeFromEnv(), dram::FastPathMode::Exact);
    ASSERT_EQ(setenv("DRAMSCOPE_LINT", "", 1), 0);
    ASSERT_EQ(setenv("DRAMSCOPE_FASTPATH", "", 1), 0);
    EXPECT_EQ(lint::modeFromEnv(), lint::Mode::Off);
    EXPECT_EQ(dram::fastPathModeFromEnv(), dram::FastPathMode::Exact);
    for (const auto &info : lint::modeTable()) {
        ASSERT_EQ(setenv("DRAMSCOPE_LINT", info.id, 1), 0);
        EXPECT_EQ(lint::modeFromEnv(), info.mode) << info.id;
    }
    for (const auto &info : dram::fastPathModeTable()) {
        ASSERT_EQ(setenv("DRAMSCOPE_FASTPATH", info.id, 1), 0);
        EXPECT_EQ(dram::fastPathModeFromEnv(), info.mode) << info.id;
    }
    for (const auto &[var, value] : saved) {
        if (value)
            setenv(var, value->c_str(), 1);
        else
            unsetenv(var);
    }
}

} // namespace
} // namespace dramscope
