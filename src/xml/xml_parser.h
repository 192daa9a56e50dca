// Minimal non-validating XML parser sufficient for XMark-style documents:
// elements, attributes, character data (with entity references), comments,
// processing instructions and the XML declaration (both skipped), CDATA.
#ifndef EXRQUY_XML_XML_PARSER_H_
#define EXRQUY_XML_XML_PARSER_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "xml/node_store.h"

namespace exrquy {

struct XmlParseOptions {
  // Drop text nodes that consist only of whitespace (boundary whitespace
  // between elements). XMark data has no meaningful whitespace-only text.
  bool strip_whitespace = true;

  // Maximum element nesting depth. The parser recurses per element, so
  // without a limit an adversarial <a><a><a>… document overflows the
  // stack instead of returning a Status; the limit also keeps node
  // levels far inside NodeStore's uint16_t level encoding. 500 is an
  // order of magnitude above any real document (XMark nests < 12).
  size_t max_depth = 500;
};

// Parses `text` into a new fragment of `store` rooted at a document node.
// Returns the document node's preorder rank. The fragment is registered
// but not name-indexed; callers decide whether to IndexFragment it.
Result<NodeIdx> ParseXml(NodeStore* store, std::string_view text,
                         const XmlParseOptions& options = {});

// Decodes the five predefined entities and numeric character references
// (decimal and hex) of XML text, emitting UTF-8. Malformed references —
// a bare '&', an unknown entity name, a charref that is empty, has
// trailing garbage, or names a code point outside the XML Char
// production — are rejected, per the well-formedness rules; XQuery
// string literals and constructor text follow the same rules.
// `base_offset` is the source offset of raw[0], for diagnostics.
Result<std::string> DecodeText(std::string_view raw, size_t base_offset);

}  // namespace exrquy

#endif  // EXRQUY_XML_XML_PARSER_H_
