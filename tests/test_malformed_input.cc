// Parser hardening: adversarial input must come back as a clean
// kInvalidArgument Status — never a stack overflow, a crash, or a
// partially mutated store. Three angles:
//
//   * generative depth attacks: both recursive-descent parsers (XML
//     elements, XQuery expressions and direct constructors) have
//     explicit depth limits (500 and 256), probed from both sides of
//     the boundary;
//   * a malformed-input corpus under tests/corpus/malformed/ — *.xml
//     files must be rejected by ParseXml, *.xq files by ParseQuery;
//   * state hygiene: a Session fed nothing but garbage for many rounds
//     neither grows its node store / string pool nor loses the ability
//     to run a real query.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/session.h"
#include "common/status.h"
#include "xml/node_store.h"
#include "xml/xml_parser.h"
#include "xquery/parser.h"

namespace exrquy {
namespace {

std::string NestedXml(size_t depth) {
  std::string xml;
  for (size_t i = 0; i < depth; ++i) xml += "<e>";
  xml += "x";
  for (size_t i = 0; i < depth; ++i) xml += "</e>";
  return xml;
}

TEST(MalformedXmlTest, DepthLimitRejectsDeepNesting) {
  StrPool strings;
  NodeStore store(&strings);
  Result<NodeIdx> r = ParseXml(&store, NestedXml(501));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("nesting"), std::string::npos)
      << r.status().ToString();
}

TEST(MalformedXmlTest, DepthLimitAdmitsDocumentsJustBelowIt) {
  StrPool strings;
  NodeStore store(&strings);
  EXPECT_TRUE(ParseXml(&store, NestedXml(499)).ok());
}

TEST(MalformedXmlTest, DepthLimitIsConfigurable) {
  StrPool strings;
  NodeStore store(&strings);
  XmlParseOptions options;
  options.max_depth = 10;
  EXPECT_FALSE(ParseXml(&store, NestedXml(11), options).ok());
  EXPECT_TRUE(ParseXml(&store, NestedXml(9), options).ok());
}

TEST(MalformedXQueryTest, DepthLimitRejectsDeepParens) {
  std::string q(300, '(');
  q += "1";
  q += std::string(300, ')');
  Result<Query> r = ParseQuery(q);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("nesting"), std::string::npos)
      << r.status().ToString();
}

TEST(MalformedXQueryTest, DepthLimitAdmitsModerateParens) {
  std::string q(100, '(');
  q += "1";
  q += std::string(100, ')');
  EXPECT_TRUE(ParseQuery(q).ok());
}

TEST(MalformedXQueryTest, DepthLimitRejectsDeepConstructors) {
  std::string q;
  for (int i = 0; i < 300; ++i) q += "<e>";
  q += "x";
  for (int i = 0; i < 300; ++i) q += "</e>";
  Result<Query> r = ParseQuery(q);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("nesting"), std::string::npos)
      << r.status().ToString();
}

TEST(MalformedXQueryTest, DepthLimitRejectsDeepFlwor) {
  std::string q;
  for (int i = 0; i < 300; ++i) q += "for $x in (1) return ";
  q += "1";
  EXPECT_FALSE(ParseQuery(q).ok());
}

// `empty` in an order spec takes `greatest` or `least` and nothing else;
// any other word, or none, is a parse error rather than silently skipped.
TEST(MalformedXQueryTest, OrderByEmptyTakesOnlyGreatestOrLeast) {
  for (const char* spec : {"empty banana", "empty", "empty ascending",
                           "empty descending"}) {
    std::string q =
        std::string("for $x in (2, 1) order by $x ") + spec + " return $x";
    Result<Query> r = ParseQuery(q);
    ASSERT_FALSE(r.ok()) << q;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << q;
    EXPECT_NE(r.status().message().find("'greatest' or 'least'"),
              std::string::npos)
        << r.status().ToString();
  }
  for (const char* spec : {"empty greatest", "empty least",
                           "descending empty least"}) {
    std::string q =
        std::string("for $x in (2, 1) order by $x ") + spec + " return $x";
    Result<Query> r = ParseQuery(q);
    ASSERT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    EXPECT_EQ(r->body->order_by.at(0).empty_greatest,
              std::string(spec).find("greatest") != std::string::npos);
  }
}

// ---------------------------------------------------------------------
// Corpus: every file under tests/corpus/malformed is rejected with a
// Status (the suite completing at all proves no crash / no overflow).

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(MalformedCorpusTest, EveryCorpusFileIsRejectedCleanly) {
  std::filesystem::path dir(EXRQUY_TEST_CORPUS_DIR);
  dir /= "malformed";
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  size_t xml_cases = 0;
  size_t xq_cases = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::string text = ReadFile(entry.path());
    if (entry.path().extension() == ".xml") {
      ++xml_cases;
      StrPool strings;
      NodeStore store(&strings);
      Result<NodeIdx> r = ParseXml(&store, text);
      EXPECT_FALSE(r.ok()) << entry.path();
      if (!r.ok()) {
        EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
            << entry.path() << ": " << r.status().ToString();
      }
    } else if (entry.path().extension() == ".xq") {
      ++xq_cases;
      Result<Query> r = ParseQuery(text);
      EXPECT_FALSE(r.ok()) << entry.path();
    }
  }
  // The corpus actually shipped with the repo.
  EXPECT_GE(xml_cases, 5u);
  EXPECT_GE(xq_cases, 5u);
}

// ---------------------------------------------------------------------
// State hygiene under sustained garbage.

TEST(MalformedSessionTest, GarbageNeverGrowsOrPoisonsTheSession) {
  Session session;
  ASSERT_TRUE(session.LoadDocument("d.xml", "<r><a>1</a><a>2</a></r>").ok());
  size_t nodes = session.store().node_count();
  size_t fragments = session.store().fragment_count();
  size_t strings = session.strings().size();

  std::filesystem::path dir(EXRQUY_TEST_CORPUS_DIR);
  dir /= "malformed";
  std::vector<std::string> garbage = {NestedXml(600)};
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    garbage.push_back(ReadFile(entry.path()));
  }
  for (int round = 0; round < 5; ++round) {
    for (const std::string& text : garbage) {
      EXPECT_FALSE(session.Execute(text).ok());
      EXPECT_EQ(session.store().node_count(), nodes);
      EXPECT_EQ(session.store().fragment_count(), fragments);
      EXPECT_EQ(session.strings().size(), strings);
    }
  }
  Result<QueryResult> ok = session.Execute(R"(count(doc("d.xml")//a))");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->items, std::vector<std::string>{"2"});
}

}  // namespace
}  // namespace exrquy
