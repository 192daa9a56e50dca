// Hand-written XQuery lexer. Keywords are context sensitive in XQuery, so
// the lexer emits plain kName tokens and the parser matches keyword text.
// Direct element constructors are parsed at character level by the parser;
// the lexer supports that by exposing raw offsets and ResetTo().
#ifndef EXRQUY_XQUERY_LEXER_H_
#define EXRQUY_XQUERY_LEXER_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace exrquy {

enum class TokKind : uint8_t {
  kEof,
  kName,    // QName (possibly prefixed, e.g. fn:count)
  kVar,     // $name (text excludes the '$')
  kInt,
  kDouble,
  kString,
  kLParen,
  kRParen,
  kLBracket,
  kRBracket,
  kLBrace,
  kRBrace,
  kComma,
  kSemicolon,
  kDot,
  kDotDot,
  kSlash,
  kSlashSlash,
  kPipe,
  kPlus,
  kMinus,
  kStar,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kLtLt,
  kGtGt,
  kAssign,      // :=
  kColonColon,  // ::
  kAt,
  kQuestion,
};

struct Token {
  TokKind kind = TokKind::kEof;
  std::string text;
  int64_t int_value = 0;
  double double_value = 0;
  size_t offset = 0;  // start offset in the source
};

class Lexer {
 public:
  explicit Lexer(std::string_view text);

  // Lexes the first/next token into Cur(). Fails on malformed input.
  Status Advance();

  const Token& Cur() const { return cur_; }

  // Raw source access for constructor parsing.
  std::string_view text() const { return text_; }
  // Offset just past the current token.
  size_t pos() const { return pos_; }
  // Restarts lexing at `offset` (the next Advance() lexes from there).
  void ResetTo(size_t offset) { pos_ = offset; }

 private:
  Status Error(std::string message) const;

  std::string_view text_;
  size_t pos_ = 0;
  Token cur_;
};

// Character classification shared with the parser's constructor scanning.
bool IsNcNameStart(char c);
bool IsNcNameChar(char c);

}  // namespace exrquy

#endif  // EXRQUY_XQUERY_LEXER_H_
