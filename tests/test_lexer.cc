// Unit tests for the XQuery lexer: token classification, QNames vs '::',
// numbers, string literals with escapes and entities, nested comments,
// and raw-offset bookkeeping for constructor parsing.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "xml/xml_parser.h"
#include "xquery/lexer.h"

namespace exrquy {
namespace {

std::vector<Token> LexAll(std::string_view text) {
  Lexer lexer(text);
  std::vector<Token> out;
  for (;;) {
    Status st = lexer.Advance();
    EXPECT_TRUE(st.ok()) << st.ToString();
    if (!st.ok() || lexer.Cur().kind == TokKind::kEof) break;
    out.push_back(lexer.Cur());
  }
  return out;
}

TEST(LexerTest, BasicTokens) {
  auto toks = LexAll("for $x in (1, 2) return $x");
  ASSERT_EQ(toks.size(), 10u);
  EXPECT_EQ(toks[0].kind, TokKind::kName);
  EXPECT_EQ(toks[0].text, "for");
  EXPECT_EQ(toks[1].kind, TokKind::kVar);
  EXPECT_EQ(toks[1].text, "x");
  EXPECT_EQ(toks[3].kind, TokKind::kLParen);
  EXPECT_EQ(toks[4].kind, TokKind::kInt);
  EXPECT_EQ(toks[4].int_value, 1);
}

TEST(LexerTest, QNameKeepsPrefix) {
  auto toks = LexAll("fn:count local:f");
  ASSERT_EQ(toks.size(), 2u);
  EXPECT_EQ(toks[0].text, "fn:count");
  EXPECT_EQ(toks[1].text, "local:f");
}

TEST(LexerTest, AxisColonColonNotEatenByQName) {
  auto toks = LexAll("child::item");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[0].text, "child");
  EXPECT_EQ(toks[1].kind, TokKind::kColonColon);
  EXPECT_EQ(toks[2].text, "item");
}

TEST(LexerTest, Numbers) {
  auto toks = LexAll("42 3.14 1e3 2.5E-2 .5");
  ASSERT_EQ(toks.size(), 5u);
  EXPECT_EQ(toks[0].kind, TokKind::kInt);
  EXPECT_EQ(toks[1].kind, TokKind::kDouble);
  EXPECT_DOUBLE_EQ(toks[1].double_value, 3.14);
  EXPECT_EQ(toks[2].kind, TokKind::kDouble);
  EXPECT_DOUBLE_EQ(toks[2].double_value, 1000.0);
  EXPECT_DOUBLE_EQ(toks[3].double_value, 0.025);
  EXPECT_DOUBLE_EQ(toks[4].double_value, 0.5);
}

TEST(LexerTest, IntDotDotNotDouble) {
  // '1..2' should not lex '1.' as a double ('to' ranges aside, the
  // DotDot token must survive).
  auto toks = LexAll("a/..");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[2].kind, TokKind::kDotDot);
}

TEST(LexerTest, Strings) {
  auto toks = LexAll(R"("hello" 'wo''rld' "do""ble" "&lt;&amp;")");
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[0].text, "hello");
  EXPECT_EQ(toks[1].text, "wo'rld");
  EXPECT_EQ(toks[2].text, "do\"ble");
  EXPECT_EQ(toks[3].text, "<&");
}

TEST(LexerTest, ComparisonOperators) {
  auto toks = LexAll("< <= << > >= >> = != := ::");
  std::vector<TokKind> kinds;
  for (const Token& t : toks) kinds.push_back(t.kind);
  EXPECT_EQ(kinds,
            (std::vector<TokKind>{TokKind::kLt, TokKind::kLe, TokKind::kLtLt,
                                  TokKind::kGt, TokKind::kGe, TokKind::kGtGt,
                                  TokKind::kEq, TokKind::kNe, TokKind::kAssign,
                                  TokKind::kColonColon}));
}

TEST(LexerTest, SlashesAndDots) {
  auto toks = LexAll("/ // . ..");
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[0].kind, TokKind::kSlash);
  EXPECT_EQ(toks[1].kind, TokKind::kSlashSlash);
  EXPECT_EQ(toks[2].kind, TokKind::kDot);
  EXPECT_EQ(toks[3].kind, TokKind::kDotDot);
}

TEST(LexerTest, NestedComments) {
  auto toks = LexAll("1 (: outer (: inner :) still :) 2");
  ASSERT_EQ(toks.size(), 2u);
  EXPECT_EQ(toks[0].int_value, 1);
  EXPECT_EQ(toks[1].int_value, 2);
}

TEST(LexerTest, UnterminatedCommentFails) {
  Lexer lexer("1 (: oops");
  EXPECT_TRUE(lexer.Advance().ok());
  EXPECT_FALSE(lexer.Advance().ok());
}

TEST(LexerTest, UnterminatedStringFails) {
  Lexer lexer("\"abc");
  EXPECT_FALSE(lexer.Advance().ok());
}

TEST(LexerTest, OffsetsAndReset) {
  Lexer lexer("ab  cd");
  ASSERT_TRUE(lexer.Advance().ok());
  EXPECT_EQ(lexer.Cur().offset, 0u);
  EXPECT_EQ(lexer.pos(), 2u);
  ASSERT_TRUE(lexer.Advance().ok());
  EXPECT_EQ(lexer.Cur().offset, 4u);
  lexer.ResetTo(0);
  ASSERT_TRUE(lexer.Advance().ok());
  EXPECT_EQ(lexer.Cur().text, "ab");
}

// String literals and constructor text share the XML parser's decoder.
std::string Decoded(std::string_view raw) {
  Result<std::string> r = DecodeText(raw, 0);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? *r : "";
}

TEST(LexerTest, DecodeEntitiesHelper) {
  EXPECT_EQ(Decoded("a&lt;b&gt;c&amp;&quot;&apos;"), "a<b>c&\"'");
  EXPECT_EQ(Decoded("&#65;&#x42;"), "AB");
  EXPECT_EQ(Decoded("no entities"), "no entities");
  // An unknown entity is a static error, not text.
  EXPECT_FALSE(DecodeText("&unknown;", 0).ok());
}

TEST(LexerTest, DecodeEntitiesMultiByteCharRefs) {
  // U+00E9, U+263A, U+10348 as proper 2-/3-/4-byte UTF-8, not a
  // truncated single byte.
  EXPECT_EQ(Decoded("&#xE9;"), "\xC3\xA9");
  EXPECT_EQ(Decoded("&#x263A;"), "\xE2\x98\xBA");
  EXPECT_EQ(Decoded("&#x10348;"), "\xF0\x90\x8D\x88");
  // Out-of-range / surrogate code points are not XML characters.
  EXPECT_FALSE(DecodeText("&#x110000;", 0).ok());
  EXPECT_FALSE(DecodeText("&#xD800;", 0).ok());
}

// A malformed reference in a string literal fails the lexer with a static
// error; it used to pass through as text or turn into '?' or a control
// character.
TEST(LexerTest, MalformedReferenceInStringLiteralIsAnError) {
  for (const char* lit : {R"("&foo;")", R"("a&b")", R"("&#0;")",
                          R"("&#x110000;")", R"("&#12a;")"}) {
    Lexer lexer(lit);
    Status st = lexer.Advance();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << lit;
  }
  EXPECT_EQ(LexAll(R"("&lt;&#x41;")")[0].text, "<A");
}

// Pre-fix, 1e999 lexed as +inf and out-of-range integers wrapped through
// strtoll saturation without any error.
TEST(LexerTest, DoubleLiteralOverflowIsAnError) {
  Lexer lexer("1e999");
  Status st = lexer.Advance();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("1e999"), std::string::npos);
}

TEST(LexerTest, IntegerLiteralOverflowIsAnError) {
  Lexer lexer("99999999999999999999");  // > INT64_MAX
  Status st = lexer.Advance();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(LexerTest, LargeButRepresentableLiteralsStillLex) {
  auto toks = LexAll("9223372036854775807 1e308 5e-324");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[0].kind, TokKind::kInt);
  EXPECT_EQ(toks[0].int_value, INT64_MAX);
  EXPECT_EQ(toks[1].kind, TokKind::kDouble);
  EXPECT_DOUBLE_EQ(toks[1].double_value, 1e308);
  // Subnormal underflow is representable (rounds toward zero), not an
  // overflow: it must lex.
  EXPECT_EQ(toks[2].kind, TokKind::kDouble);
}

}  // namespace
}  // namespace exrquy
