/**
 * @file
 * The one JSONL codec, for the shard journal and the mc request
 * traces.  Writers keep their own format strings and escape strings
 * with escape(); every reader goes through read(), one grammar for
 * every file.
 */

#ifndef DRAMSCOPE_UTIL_JSONL_H
#define DRAMSCOPE_UTIL_JSONL_H

#include <cstdint>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

namespace dramscope {
namespace jsonl {

/** A malformed line; what() reads `source:line:col: reason`. */
class ParseError : public std::runtime_error
{
  public:
    ParseError(const std::string &what, size_t line, size_t col)
        : std::runtime_error(what), line(line), col(col)
    {
    }

    size_t line;  //!< Line number, as the caller counts lines.
    size_t col;   //!< 1-based byte column within the line.
};

/**
 * Escapes @p s as the body of a JSON string: backslash, quote, LF, CR
 * and tab as two-character escapes, other bytes below 0x20 as `\u00XX`.
 */
std::string escape(std::string_view s);

/** One key a line must carry, and where its value goes. */
struct Field
{
    std::string_view key;
    uint64_t *num = nullptr;    //!< Integer destination; null for a string.
    uint64_t max = UINT64_MAX;  //!< Largest integer accepted.
    std::string *str = nullptr; //!< String destination when num is null.
    std::span<const std::string_view> oneOf = {};  //!< Empty: any string.
};

/**
 * Reads @p line, one object holding each key of @p fields once in any
 * order and no other, with JSON whitespace (space, tab, CR, LF) between
 * tokens and nothing after it, into the fields' destinations.
 * @throws ParseError naming @p source, @p lineNo and the column where
 *         the line stops matching; destinations are then unspecified.
 */
void read(std::string_view line, std::initializer_list<Field> fields,
          std::string_view source, size_t lineNo);

} // namespace jsonl
} // namespace dramscope

#endif // DRAMSCOPE_UTIL_JSONL_H
