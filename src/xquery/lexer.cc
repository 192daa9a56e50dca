#include "xquery/lexer.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "xml/xml_parser.h"

namespace exrquy {

bool IsNcNameStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsNcNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == '-' || c == '.';
}

Lexer::Lexer(std::string_view text) : text_(text) {}

Status Lexer::Error(std::string message) const {
  message += " (offset ";
  message += std::to_string(pos_);
  message += ")";
  return InvalidArgument(std::move(message));
}

Status Lexer::Advance() {
  // Skip whitespace and (possibly nested) comments.
  for (;;) {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ + 1 < text_.size() && text_[pos_] == '(' &&
        text_[pos_ + 1] == ':') {
      size_t depth = 1;
      pos_ += 2;
      while (pos_ + 1 < text_.size() && depth > 0) {
        if (text_[pos_] == '(' && text_[pos_ + 1] == ':') {
          ++depth;
          pos_ += 2;
        } else if (text_[pos_] == ':' && text_[pos_ + 1] == ')') {
          --depth;
          pos_ += 2;
        } else {
          ++pos_;
        }
      }
      if (depth > 0) return Error("unterminated comment");
      continue;
    }
    break;
  }

  cur_ = Token();
  cur_.offset = pos_;
  if (pos_ >= text_.size()) {
    cur_.kind = TokKind::kEof;
    return Status::Ok();
  }

  char c = text_[pos_];
  auto two = [&](char second) {
    return pos_ + 1 < text_.size() && text_[pos_ + 1] == second;
  };
  auto emit = [&](TokKind kind, size_t len) {
    cur_.kind = kind;
    cur_.text = std::string(text_.substr(pos_, len));
    pos_ += len;
    return Status::Ok();
  };

  // Names / QNames.
  if (IsNcNameStart(c)) {
    size_t start = pos_;
    while (pos_ < text_.size() && IsNcNameChar(text_[pos_])) ++pos_;
    // Optional single-colon prefix continuation (but not '::').
    if (pos_ + 1 < text_.size() && text_[pos_] == ':' &&
        text_[pos_ + 1] != ':' && IsNcNameStart(text_[pos_ + 1])) {
      ++pos_;
      while (pos_ < text_.size() && IsNcNameChar(text_[pos_])) ++pos_;
    }
    cur_.kind = TokKind::kName;
    cur_.text = std::string(text_.substr(start, pos_ - start));
    return Status::Ok();
  }

  // Variables.
  if (c == '$') {
    ++pos_;
    if (pos_ >= text_.size() || !IsNcNameStart(text_[pos_])) {
      return Error("expected variable name after '$'");
    }
    size_t start = pos_;
    while (pos_ < text_.size() && IsNcNameChar(text_[pos_])) ++pos_;
    cur_.kind = TokKind::kVar;
    cur_.text = std::string(text_.substr(start, pos_ - start));
    return Status::Ok();
  }

  // Numbers.
  if (std::isdigit(static_cast<unsigned char>(c)) ||
      (c == '.' && pos_ + 1 < text_.size() &&
       std::isdigit(static_cast<unsigned char>(text_[pos_ + 1])))) {
    size_t start = pos_;
    bool is_double = false;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.' &&
        !(pos_ + 1 < text_.size() && text_[pos_ + 1] == '.')) {
      is_double = true;
      ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    std::string num(text_.substr(start, pos_ - start));
    char* end = nullptr;
    if (is_double) {
      cur_.kind = TokKind::kDouble;
      errno = 0;
      cur_.double_value = std::strtod(num.c_str(), &end);
      // ERANGE covers both directions; only overflow (±HUGE_VAL) is an
      // error — gradual underflow to 0 is fine for xs:double.
      if (errno == ERANGE && std::fabs(cur_.double_value) == HUGE_VAL) {
        return Error("numeric literal out of xs:double range: " + num);
      }
      if (end != num.c_str() + num.size()) {
        return Error("malformed numeric literal: " + num);
      }
    } else {
      cur_.kind = TokKind::kInt;
      errno = 0;
      cur_.int_value = std::strtoll(num.c_str(), &end, 10);
      if (errno == ERANGE) {
        return Error("integer literal out of xs:integer range: " + num);
      }
      if (end != num.c_str() + num.size()) {
        return Error("malformed numeric literal: " + num);
      }
    }
    cur_.text = std::move(num);
    return Status::Ok();
  }

  // String literals.
  if (c == '"' || c == '\'') {
    char quote = c;
    size_t start = ++pos_;
    std::string raw;
    for (;;) {
      if (pos_ >= text_.size()) return Error("unterminated string literal");
      if (text_[pos_] == quote) {
        if (pos_ + 1 < text_.size() && text_[pos_ + 1] == quote) {
          raw += quote;  // doubled quote escape
          pos_ += 2;
          continue;
        }
        ++pos_;
        break;
      }
      raw += text_[pos_++];
    }
    cur_.kind = TokKind::kString;
    EXRQUY_ASSIGN_OR_RETURN(cur_.text, DecodeText(raw, start));
    return Status::Ok();
  }

  switch (c) {
    case '(':
      return emit(TokKind::kLParen, 1);
    case ')':
      return emit(TokKind::kRParen, 1);
    case '[':
      return emit(TokKind::kLBracket, 1);
    case ']':
      return emit(TokKind::kRBracket, 1);
    case '{':
      return emit(TokKind::kLBrace, 1);
    case '}':
      return emit(TokKind::kRBrace, 1);
    case ',':
      return emit(TokKind::kComma, 1);
    case ';':
      return emit(TokKind::kSemicolon, 1);
    case '.':
      return two('.') ? emit(TokKind::kDotDot, 2) : emit(TokKind::kDot, 1);
    case '/':
      return two('/') ? emit(TokKind::kSlashSlash, 2)
                      : emit(TokKind::kSlash, 1);
    case '|':
      return emit(TokKind::kPipe, 1);
    case '+':
      return emit(TokKind::kPlus, 1);
    case '-':
      return emit(TokKind::kMinus, 1);
    case '*':
      return emit(TokKind::kStar, 1);
    case '=':
      return emit(TokKind::kEq, 1);
    case '!':
      if (two('=')) return emit(TokKind::kNe, 2);
      return Error("unexpected '!'");
    case '<':
      if (two('<')) return emit(TokKind::kLtLt, 2);
      if (two('=')) return emit(TokKind::kLe, 2);
      return emit(TokKind::kLt, 1);
    case '>':
      if (two('>')) return emit(TokKind::kGtGt, 2);
      if (two('=')) return emit(TokKind::kGe, 2);
      return emit(TokKind::kGt, 1);
    case ':':
      if (two('=')) return emit(TokKind::kAssign, 2);
      if (two(':')) return emit(TokKind::kColonColon, 2);
      return Error("unexpected ':'");
    case '@':
      return emit(TokKind::kAt, 1);
    case '?':
      return emit(TokKind::kQuestion, 1);
    default:
      return Error(std::string("unexpected character '") + c + "'");
  }
}

}  // namespace exrquy
