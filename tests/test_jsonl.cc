/**
 * @file
 * The JSONL codec: escape() round-trips every byte through read(),
 * keys read in any order around JSON whitespace, and every malformed
 * line fails with a ParseError naming its line and column.
 */

#include <gtest/gtest.h>

#include <string>

#include "util/jsonl.h"

namespace dramscope {
namespace {

constexpr std::string_view kTypes[] = {"rd", "wr"};

/** One parsed line of the test schema. */
struct Line
{
    uint64_t n = 0;
    std::string s;
    std::string t;
};

/** Reads @p text as line 7 of "src": n <= 1000, s in kTypes, t any. */
Line
readLine(const std::string &text)
{
    Line out;
    jsonl::read(text,
                {{.key = "n", .num = &out.n, .max = 1000},
                 {.key = "s", .str = &out.s, .oneOf = kTypes},
                 {.key = "t", .str = &out.t}},
                "src", 7);
    return out;
}

TEST(JsonlCodec, EscapeThenReadRoundTripsEveryByte)
{
    std::string all;
    for (int b = 1; b <= 255; ++b) {
        const std::string one(1, char(b));
        std::string back;
        jsonl::read("{\"t\":\"" + jsonl::escape(one) + "\"}",
                    {{.key = "t", .str = &back}}, "src", 1);
        EXPECT_EQ(back, one) << "byte " << b;
        all += one;
    }
    std::string back;
    jsonl::read("{\"t\":\"" + jsonl::escape(all) + "\"}",
                {{.key = "t", .str = &back}}, "src", 1);
    EXPECT_EQ(back, all);
    // The journal's bytes: two-character escapes, \u00XX for the other
    // control bytes, everything else verbatim.
    EXPECT_EQ(jsonl::escape("a\"\\\n\r\t\x01\x1f\x7f\xff"),
              "a\\\"\\\\\\n\\r\\t\\u0001\\u001f\x7f\xff");
}

TEST(JsonlCodec, ReadsKeysInAnyOrderWithJsonWhitespace)
{
    const Line l = readLine(
        " \t{ \"t\" : \"x \\u0041\" ,\r\n\"s\":\"wr\",\t\"n\" : 1000 } \r");
    EXPECT_EQ(l.n, 1000u);
    EXPECT_EQ(l.s, "wr");
    EXPECT_EQ(l.t, "x A");
    EXPECT_EQ(readLine(R"({"s":"rd","n":0,"t":""})").n, 0u);
}

TEST(JsonlCodec, MalformedLinesNameTheirLineAndColumn)
{
    const struct
    {
        const char *line;
        size_t col;
        const char *why;
    } cases[] = {
        {R"("n":7,"s":"rd","t":"x"})", 1, "missing {"},
        {"", 1, "empty line"},
        {R"({"n":7,"s":"rd","t":"x")", 24, "missing }"},
        {R"({"n":7,"s":"rd","t":"x"} x)", 26, "trailing characters"},
        {R"({"n":7 "s":"rd","t":"x"})", 8, "missing comma"},
        {R"({"n":7,"n":8,"s":"rd","t":"x"})", 8, "duplicate key"},
        {R"({"n":7,"s":"rd","t":"x","u":1})", 25, "unknown key"},
        {R"({"n":7,"s":"rd"})", 16, "missing key"},
        {R"({"n":-7,"s":"rd","t":"x"})", 6, "negative"},
        {R"({"n":7.5,"s":"rd","t":"x"})", 6, "fractional"},
        {R"({"n":1e3,"s":"rd","t":"x"})", 6, "exponent"},
        {R"({"n":"7","s":"rd","t":"x"})", 6, "quoted integer"},
        {R"({"n":1001,"s":"rd","t":"x"})", 6, "above the maximum"},
        {R"({"n":18446744073709551616,"s":"rd","t":"x"})", 6,
         "above 64 bits"},
        {R"({"n":7,"s":"zz","t":"x"})", 12, "outside the allowed set"},
        {R"({"n":7,"s":"rd","t":"x})", 21, "unterminated string"},
        {R"({"n":7,"s":"rd","t":"\q"})", 22, "bad escape"},
        {R"({"n":7,"s":"rd","t":"\u0080"})", 22, "\\u above 0x7F"},
        {"{\"n\":7,\"s\":\"rd\",\"t\":\"a\tb\"}", 23, "raw tab"},
        {"{\"n\":7,\v\"s\":\"rd\",\"t\":\"x\"}", 8, "vertical tab"},
    };
    for (const auto &c : cases) {
        try {
            readLine(c.line);
            ADD_FAILURE() << c.why << ": accepted " << c.line;
        } catch (const jsonl::ParseError &e) {
            EXPECT_EQ(e.line, 7u) << c.why;
            EXPECT_EQ(e.col, c.col) << c.why << ": " << e.what();
            const std::string prefix =
                "src:7:" + std::to_string(c.col) + ": ";
            EXPECT_EQ(std::string(e.what()).rfind(prefix, 0), 0u)
                << c.why << ": " << e.what();
        }
    }
}

} // namespace
} // namespace dramscope
