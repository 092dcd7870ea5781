/**
 * @file
 * The one keyword registry.
 *
 * Experiments are addressed by name: Table I presets, catalog
 * programs, fault clauses, open-row policies, mitigations, workloads,
 * lint rules, and the lint and fast-path modes.  Each keyword set is
 * defined once, as a table of entries with an `id` member, most of
 * them generated from an X-macro.  An enum-keyed table lists its
 * entries in enum order, so the entry of an enumerator is the table
 * at that index, and an id lookup never walks a table.
 *
 * These helpers are the only code that matches a keyword against a
 * table: find() looks an id up, ids() renders a table's ids as
 * "a|b|c" for usage text and error messages, and fromEnv() reads a
 * keyword from an environment variable.  A keyword lookup compares
 * strings entry by entry, so it runs at parse and construction time
 * only.
 */

#ifndef DRAMSCOPE_UTIL_REGISTRY_H
#define DRAMSCOPE_UTIL_REGISTRY_H

#include <cstdlib>
#include <iterator>
#include <string>
#include <string_view>

#include "util/log.h"

namespace dramscope {
namespace registry {

/** The entry of @p table whose id is @p id; nullptr when none is. */
template <typename Table>
auto
find(const Table &table, std::string_view id) -> decltype(std::data(table))
{
    for (const auto &entry : table) {
        if (id == entry.id)
            return &entry;
    }
    return nullptr;
}

/**
 * The entries of @p table in table order, each rendered by @p text,
 * joined as "a|b|c".
 */
template <typename Table, typename Text>
std::string
join(const Table &table, Text text)
{
    std::string out;
    for (const auto &entry : table) {
        if (!out.empty())
            out += '|';
        out += text(entry);
    }
    return out;
}

/** The ids of @p table in table order, joined as "a|b|c". */
template <typename Table>
std::string
ids(const Table &table)
{
    return join(table, [](const auto &entry) -> std::string_view {
        return entry.id;
    });
}

/**
 * Reads environment variable @p var as a keyword of @p table, whose
 * entries are in the order of @p Enum: unset or empty gives
 * @p fallback, and a keyword gives its enumerator.  Any other value
 * is a fatal() user error, "<var>='<value>' is not a <noun> (a|b|c)",
 * so a misspelt keyword cannot silently select the default.  Nothing
 * is allocated unless the value is rejected.
 */
template <typename Table, typename Enum>
Enum
fromEnv(const char *var, const Table &table, const char *noun,
        Enum fallback)
{
    const char *value = std::getenv(var);
    if (value == nullptr || *value == '\0')
        return fallback;
    if (const auto *entry = find(table, value))
        return Enum(entry - std::data(table));
    fatal(std::string(var) + "='" + value + "' is not a " + noun + " (" +
          ids(table) + ")");
}

} // namespace registry
} // namespace dramscope

#endif // DRAMSCOPE_UTIL_REGISTRY_H
