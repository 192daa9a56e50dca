#include "xml/xml_parser.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <string>

namespace exrquy {
namespace {

bool IsNameStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == ':' || c == '-' || c == '.';
}

bool IsAllWhitespace(std::string_view s) {
  for (char c : s) {
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

// XML 1.0 Char production: #x9 | #xA | #xD | [#x20-#xD7FF] |
// [#xE000-#xFFFD] | [#x10000-#x10FFFF].
bool IsXmlChar(long cp) {
  return cp == 0x9 || cp == 0xA || cp == 0xD ||
         (cp >= 0x20 && cp <= 0xD7FF) || (cp >= 0xE000 && cp <= 0xFFFD) ||
         (cp >= 0x10000 && cp <= 0x10FFFF);
}

// Appends a valid code point UTF-8 encoded (callers check IsXmlChar).
void AppendUtf8(long cp, std::string* out) {
  if (cp < 0x80) {
    *out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    *out += static_cast<char>(0xC0 | (cp >> 6));
    *out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    *out += static_cast<char>(0xE0 | (cp >> 12));
    *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    *out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    *out += static_cast<char>(0xF0 | (cp >> 18));
    *out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    *out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

Status ErrorAt(std::string message, size_t offset) {
  message += " (offset ";
  message += std::to_string(offset);
  message += ")";
  return InvalidArgument(std::move(message));
}

class Parser {
 public:
  Parser(NodeStore* store, std::string_view text,
         const XmlParseOptions& options)
      : builder_(store), text_(text), options_(options) {}

  Result<NodeIdx> Run() {
    builder_.BeginDocument();
    SkipProlog();
    EXRQUY_RETURN_IF_ERROR(ParseElement());
    SkipMisc();
    if (pos_ != text_.size()) {
      return Error("trailing content after document element");
    }
    builder_.EndDocument();
    return builder_.Finish();
  }

 private:
  Status Error(std::string message) { return ErrorAt(std::move(message), pos_); }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }
  bool Lookahead(std::string_view s) const {
    return text_.substr(pos_, s.size()) == s;
  }
  void SkipWs() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      ++pos_;
    }
  }

  void SkipProlog() {
    SkipWs();
    while (!AtEnd()) {
      if (Lookahead("<?")) {
        SkipUntil("?>");
      } else if (Lookahead("<!--")) {
        SkipUntil("-->");
      } else if (Lookahead("<!DOCTYPE")) {
        SkipUntil(">");
      } else {
        break;
      }
      SkipWs();
    }
  }

  void SkipMisc() {
    SkipWs();
    while (!AtEnd() && (Lookahead("<?") || Lookahead("<!--"))) {
      SkipUntil(Lookahead("<?") ? "?>" : "-->");
      SkipWs();
    }
  }

  void SkipUntil(std::string_view end) {
    size_t p = text_.find(end, pos_);
    pos_ = (p == std::string_view::npos) ? text_.size() : p + end.size();
  }

  Result<std::string_view> ParseName() {
    if (AtEnd() || !IsNameStart(Peek())) return Error("expected name");
    size_t start = pos_;
    while (!AtEnd() && IsNameChar(Peek())) ++pos_;
    return text_.substr(start, pos_ - start);
  }

  Status ParseElement() {
    EXRQUY_DCHECK(Peek() == '<');
    if (depth_ >= options_.max_depth) {
      return Error("element nesting deeper than " +
                   std::to_string(options_.max_depth));
    }
    ++depth_;
    Status st = ParseElementInner();
    --depth_;
    return st;
  }

  Status ParseElementInner() {
    ++pos_;
    EXRQUY_ASSIGN_OR_RETURN(std::string_view name, ParseName());
    builder_.BeginElement(name);
    // Attributes.
    for (;;) {
      SkipWs();
      if (AtEnd()) return Error("unterminated start tag");
      if (Peek() == '>' || Lookahead("/>")) break;
      EXRQUY_ASSIGN_OR_RETURN(std::string_view attr_name, ParseName());
      SkipWs();
      if (AtEnd() || Peek() != '=') return Error("expected '='");
      ++pos_;
      SkipWs();
      if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
        return Error("expected quoted attribute value");
      }
      char quote = Peek();
      ++pos_;
      size_t start = pos_;
      while (!AtEnd() && Peek() != quote) ++pos_;
      if (AtEnd()) return Error("unterminated attribute value");
      EXRQUY_ASSIGN_OR_RETURN(
          std::string value,
          DecodeText(text_.substr(start, pos_ - start), start));
      ++pos_;
      builder_.Attribute(attr_name, value);
    }
    if (Lookahead("/>")) {
      pos_ += 2;
      builder_.EndElement();
      return Status::Ok();
    }
    ++pos_;  // '>'
    // Content.
    for (;;) {
      size_t start = pos_;
      while (!AtEnd() && Peek() != '<') ++pos_;
      if (pos_ > start) {
        std::string_view raw = text_.substr(start, pos_ - start);
        if (!(options_.strip_whitespace && IsAllWhitespace(raw))) {
          EXRQUY_ASSIGN_OR_RETURN(std::string text, DecodeText(raw, start));
          builder_.Text(text);
        }
      }
      if (AtEnd()) return Error("unterminated element content");
      if (Lookahead("</")) {
        pos_ += 2;
        EXRQUY_ASSIGN_OR_RETURN(std::string_view end_name, ParseName());
        if (end_name != name) {
          return Error("mismatched end tag </" + std::string(end_name) + ">");
        }
        SkipWs();
        if (AtEnd() || Peek() != '>') return Error("expected '>'");
        ++pos_;
        builder_.EndElement();
        return Status::Ok();
      }
      if (Lookahead("<!--")) {
        SkipUntil("-->");
        continue;
      }
      if (Lookahead("<![CDATA[")) {
        pos_ += 9;
        size_t end = text_.find("]]>", pos_);
        if (end == std::string_view::npos) return Error("unterminated CDATA");
        builder_.Text(text_.substr(pos_, end - pos_));
        pos_ = end + 3;
        continue;
      }
      if (Lookahead("<?")) {
        SkipUntil("?>");
        continue;
      }
      EXRQUY_RETURN_IF_ERROR(ParseElement());
    }
  }

  NodeBuilder builder_;
  std::string_view text_;
  XmlParseOptions options_;
  size_t pos_ = 0;
  size_t depth_ = 0;
};

}  // namespace

Result<NodeIdx> ParseXml(NodeStore* store, std::string_view text,
                         const XmlParseOptions& options) {
  return Parser(store, text, options).Run();
}

Result<std::string> DecodeText(std::string_view raw, size_t base_offset) {
  std::string out;
  out.reserve(raw.size());
  for (size_t i = 0; i < raw.size();) {
    if (raw[i] != '&') {
      out += raw[i++];
      continue;
    }
    size_t semi = raw.find(';', i);
    if (semi == std::string_view::npos) {
      return ErrorAt("'&' must start an entity or character reference",
                     base_offset + i);
    }
    std::string_view ent = raw.substr(i + 1, semi - i - 1);
    if (ent == "lt") {
      out += '<';
    } else if (ent == "gt") {
      out += '>';
    } else if (ent == "amp") {
      out += '&';
    } else if (ent == "quot") {
      out += '"';
    } else if (ent == "apos") {
      out += '\'';
    } else if (!ent.empty() && ent[0] == '#') {
      bool hex = ent.size() > 1 && (ent[1] == 'x' || ent[1] == 'X');
      std::string digits(ent.substr(hex ? 2 : 1));
      if (digits.empty()) {
        return ErrorAt("empty character reference", base_offset + i);
      }
      errno = 0;
      char* end = nullptr;
      long code = std::strtol(digits.c_str(), &end, hex ? 16 : 10);
      if (errno == ERANGE || end != digits.c_str() + digits.size() ||
          !IsXmlChar(code)) {
        return ErrorAt("invalid character reference &" + std::string(ent) +
                           ";",
                       base_offset + i);
      }
      AppendUtf8(code, &out);
    } else {
      return ErrorAt("unknown entity &" + std::string(ent) + ";",
                     base_offset + i);
    }
    i = semi + 1;
  }
  return out;
}

}  // namespace exrquy
