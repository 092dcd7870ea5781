/**
 * @file
 * The JSONL codec: escape() and the flat-object reader.
 */

#include "util/jsonl.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdio>

#include "util/log.h"

namespace dramscope {
namespace jsonl {

namespace {

/** The escape table: kRaw[k] is written as '\' then kLetter[k]. */
constexpr std::string_view kRaw = "\\\"\n\r\t";
constexpr std::string_view kLetter = "\\\"nrt";

/** A position in one line; every failure names its column. */
struct Cursor
{
    std::string_view s;
    std::string_view source;
    size_t lineNo;
    size_t i = 0;

    [[noreturn]] void
    fail(size_t at, const std::string &reason) const
    {
        throw ParseError(std::string(source) + ":" + std::to_string(lineNo) +
                             ":" + std::to_string(at + 1) + ": " + reason,
                         lineNo, at + 1);
    }

    /** Skips JSON whitespace; returns the position it stops at. */
    size_t
    ws()
    {
        return i = std::min(s.find_first_not_of(" \t\r\n", i), s.size());
    }

    bool
    consume(char c)
    {
        if (ws() == s.size() || s[i] != c)
            return false;
        ++i;
        return true;
    }

    void
    expect(char c, const char *what)
    {
        if (!consume(c))
            fail(i, std::string("expected ") + what);
    }

    void
    string(std::string &out)
    {
        const size_t open = ws();
        expect('"', "a string");
        for (out.clear(); i < s.size() && s[i] != '"'; ++i) {
            if (uint8_t(s[i]) < 0x20)
                fail(i, "control character in string");
            if (s[i] != '\\') {
                out += s[i];
                continue;
            }
            const size_t esc = i++;
            const char letter = i < s.size() ? s[i] : '\0';
            if (const size_t k = kLetter.find(letter); k != kLetter.npos) {
                out += kRaw[k];
                continue;
            }
            // \u escapes: the ASCII range only, as escape() writes.
            unsigned v = 0;
            if (letter != 'u' || s.size() - i < 5 ||
                std::from_chars(s.data() + i + 1, s.data() + i + 5, v, 16)
                        .ptr != s.data() + i + 5 ||
                v > 0x7F)
                fail(esc, "bad escape");
            out += char(v);
            i += 4;
        }
        if (i == s.size())
            fail(open, "unterminated string");
        ++i;
    }
};

} // namespace

std::string
escape(std::string_view s)
{
    std::string out;
    for (const char c : s) {
        if (const size_t k = kRaw.find(c); k != kRaw.npos) {
            out += '\\';
            out += kLetter[k];
        } else if (uint8_t(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", unsigned(c));
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

void
read(std::string_view line, std::initializer_list<Field> fields,
     std::string_view source, size_t lineNo)
{
    panicIf(fields.size() > 64, "jsonl::read: more than 64 fields");
    Cursor in{line, source, lineNo};
    uint64_t seen = 0;  // Bit k: the k-th field was read.
    std::string key;
    in.expect('{', "'{'");
    for (bool first = true; !in.consume('}'); first = false) {
        if (!first)
            in.expect(',', "',' or '}'");
        const size_t key_at = in.ws();
        in.string(key);
        const auto *f = std::find_if(
            fields.begin(), fields.end(),
            [&key](const Field &field) { return field.key == key; });
        if (f == fields.end())
            in.fail(key_at, "unknown key '" + key + "'");
        const uint64_t bit = uint64_t(1) << (f - fields.begin());
        if (seen & bit)
            in.fail(key_at, "duplicate key '" + key + "'");
        seen |= bit;
        in.expect(':', "':'");
        const size_t value_at = in.ws();
        if (f->num) {
            const char *stop = line.data() + line.size();
            const auto [end, ec] =
                std::from_chars(line.data() + value_at, stop, *f->num);
            if (ec != std::errc() || *f->num > f->max ||
                (end != stop && (*end == '.' || *end == 'e' || *end == 'E')))
                in.fail(value_at, "expected an unsigned integer up to " +
                                      std::to_string(f->max));
            in.i = size_t(end - line.data());
            continue;
        }
        in.string(*f->str);
        if (!f->oneOf.empty() &&
            std::find(f->oneOf.begin(), f->oneOf.end(), *f->str) ==
                f->oneOf.end())
            in.fail(value_at, "value of '" + key + "' not allowed");
    }
    if (const size_t k = std::countr_one(seen); k < fields.size())
        in.fail(in.i - 1,
                "missing key '" + std::string(fields.begin()[k].key) + "'");
    if (in.ws() < line.size())
        in.fail(in.i, "trailing characters after the object");
}

} // namespace jsonl
} // namespace dramscope
