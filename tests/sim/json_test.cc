/**
 * @file
 * Table-driven tests for the shared JSON reader and escaper
 * (sim/json.hh): what RFC 8259 rejects must be rejected with the
 * right line, and everything the simulator writes must read back.
 */

#include <gtest/gtest.h>

#include <string>

#include "sim/json.hh"

using namespace pciesim;

namespace
{

struct RejectCase
{
    const char *text;
    unsigned line;
    const char *what; //!< substring of the error message
};

const RejectCase rejectCases[] = {
    {"-", 1, "bad number"},
    {"1.", 1, "bad number fraction"},
    {"1e", 1, "bad number exponent"},
    {"1e+", 1, "bad number exponent"},
    {"01", 1, "leading zero"},
    {"-01", 1, "leading zero"},
    {"[1,]", 1, "unexpected character"},
    {"{\"a\":1,}", 1, "expected object key"},
    {"\"a\\x\"", 1, "bad string escape"},
    {"\"a\x01\"", 1, "raw control character"},
    {"\"a\tb\"", 1, "raw control character"},
    {"\"\\u12g4\"", 1, "bad \\u escape"},
    {"\"\\u12", 1, "bad \\u escape"},
    {"NaN", 1, "unexpected character"},
    {"Infinity", 1, "unexpected character"},
    {"tru", 1, "unexpected character"},
    {"{} x", 1, "trailing characters"},
    {"1 2", 1, "trailing characters"},
    {"{\"a\":1,\"a\":2}", 1, "duplicate key 'a'"},
    {"", 1, "unexpected end of input"},
    {"[1 2]", 1, "expected ',' or ']'"},
    {"{\"a\" 1}", 1, "expected ':'"},
    {"{1:2}", 1, "expected object key"},
    {"\"abc", 1, "unterminated string"},
    {"\f{}", 1, "unexpected character"},
    // Multi-line documents report the line of the failure point.
    {"{\n \"a\": 1,\n \"b\": tru\n}", 3, "unexpected character"},
    {"{\n \"a\": \"x\n\"}", 2, "unterminated string"},
    {"[\n1,\n2\n", 4, "unexpected end of input"},
    {"{\n \"k\": 1,\n\n \"k\": 2\n}", 4, "duplicate key 'k'"},
    {"{}\n\n\nxyz", 4, "trailing characters"},
};

class JsonReject : public ::testing::TestWithParam<RejectCase>
{};

TEST_P(JsonReject, ReportsLineAndReason)
{
    const RejectCase &c = GetParam();
    json::Value doc;
    json::Error err;
    ASSERT_FALSE(json::parse(c.text, doc, err)) << c.text;
    EXPECT_EQ(err.line, c.line) << c.text << " -> " << err.what;
    EXPECT_NE(err.what.find(c.what), std::string::npos)
        << c.text << " -> " << err.what;
}

INSTANTIATE_TEST_SUITE_P(Table, JsonReject,
                         ::testing::ValuesIn(rejectCases));

/** Parse @p text, failing the test on a syntax error. */
json::Value
mustParse(const std::string &text)
{
    json::Value doc;
    json::Error err;
    EXPECT_TRUE(json::parse(text, doc, err))
        << text << " -> " << err.line << ": " << err.what;
    return doc;
}

TEST(JsonAccept, Strings)
{
    EXPECT_EQ(mustParse("\"A\"").str, "A");
    EXPECT_EQ(mustParse("\"\"").str, "");
    EXPECT_EQ(mustParse("\"a\\\"b\\\\c\\/d\"").str, "a\"b\\c/d");
    EXPECT_EQ(mustParse("\"\\b\\f\\n\\r\\t\"").str, "\b\f\n\r\t");
    // The \u%04x escapes stats.json and Chrome traces emit.
    EXPECT_EQ(mustParse("\"\\u0001\\u001f\\u0041\"").str,
              "\x01\x1f" "A");
    EXPECT_EQ(mustParse("\"\\u001F\"").str, "\x1f");
    // Non-ASCII code points fold to '?'.
    EXPECT_EQ(mustParse("\"caf\\u00e9\"").str, "caf?");
}

TEST(JsonAccept, NumbersAndLiterals)
{
    EXPECT_EQ(mustParse("0").number, 0.0);
    EXPECT_EQ(mustParse("-0.5e+3").number, -500.0);
    EXPECT_EQ(mustParse("10E-1").number, 1.0);
    EXPECT_EQ(mustParse("123456789").number, 123456789.0);
    EXPECT_TRUE(mustParse("true").boolean);
    EXPECT_EQ(mustParse("false").type, json::Value::Type::Bool);
    EXPECT_EQ(mustParse("null").type, json::Value::Type::Null);
}

TEST(JsonAccept, NestedEmptyContainers)
{
    json::Value doc = mustParse(" \t\r\n[[], {}, [{}], {\"a\": []}]\n");
    ASSERT_EQ(doc.type, json::Value::Type::Array);
    ASSERT_EQ(doc.arr.size(), 4u);
    EXPECT_TRUE(doc.arr[0].arr.empty());
    EXPECT_EQ(doc.arr[1].type, json::Value::Type::Object);
    EXPECT_TRUE(doc.arr[1].obj.empty());
    ASSERT_EQ(doc.arr[2].arr.size(), 1u);
    EXPECT_EQ(doc.arr[2].arr[0].type, json::Value::Type::Object);
    ASSERT_NE(doc.arr[3].find("a"), nullptr);
    EXPECT_EQ(doc.arr[3].find("a")->type, json::Value::Type::Array);
}

TEST(JsonAccept, ValuesRememberTheirLine)
{
    json::Value doc = mustParse("{\n \"a\": 1,\n \"b\": [\n  true\n ]\n}");
    EXPECT_EQ(doc.line, 1u);
    EXPECT_EQ(doc.find("a")->line, 2u);
    EXPECT_EQ(doc.find("b")->line, 3u);
    EXPECT_EQ(doc.find("b")->arr[0].line, 4u);
}

TEST(JsonAccept, KeyedLookups)
{
    json::Value doc = mustParse("{\"n\": 2.5, \"s\": \"x\"}");
    EXPECT_EQ(doc.numberOr("n", -1.0), 2.5);
    EXPECT_EQ(doc.numberOr("s", -1.0), -1.0);
    EXPECT_EQ(doc.numberOr("missing", -1.0), -1.0);
    EXPECT_EQ(doc.stringOr("s", "?"), "x");
    EXPECT_EQ(doc.stringOr("n", "?"), "?");
    // Keys keep document order.
    ASSERT_EQ(doc.obj.size(), 2u);
    EXPECT_EQ(doc.obj[0].first, "n");
    EXPECT_EQ(doc.obj[1].first, "s");
}

TEST(JsonEscape, ExactBytes)
{
    EXPECT_EQ(json::escape("plain"), "plain");
    EXPECT_EQ(json::escape("a\"b\\c\nd\te"),
              "a\\\"b\\\\c\\nd\\te");
    EXPECT_EQ(json::escape(std::string("\x01\r\x1f", 3)),
              "\\u0001\\u000d\\u001f");
    EXPECT_EQ(json::escape("/"), "/");
}

TEST(JsonEscape, EveryByteRoundTrips)
{
    std::string all;
    for (int c = 1; c < 0x80; ++c)
        all += static_cast<char>(c);
    EXPECT_EQ(mustParse("\"" + json::escape(all) + "\"").str, all);
}

} // namespace
