// Unit tests for the pre/size/level node store (Figure 5 of the paper):
// builder invariants, string values, subtree copies, fragments, the name
// index, and truncation.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/governor.h"
#include "xml/node_store.h"

namespace exrquy {
namespace {

class NodeStoreTest : public ::testing::Test {
 protected:
  NodeStoreTest() : store_(&strings_) {}

  // Builds the paper's Figure 1/5 fragment <a><b><c/><d/></b><c/></a>
  // (no document node) and returns the a element's preorder rank.
  NodeIdx BuildFig5() {
    NodeBuilder b(&store_);
    b.BeginElement("a");
    b.BeginElement("b");
    b.BeginElement("c");
    b.EndElement();
    b.BeginElement("d");
    b.EndElement();
    b.EndElement();
    b.BeginElement("c");
    b.EndElement();
    b.EndElement();
    return b.Finish();
  }

  StrPool strings_;
  NodeStore store_;
};

TEST_F(NodeStoreTest, PreorderRanksMatchFigure5) {
  NodeIdx a = BuildFig5();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(store_.name_str(0), "a");
  EXPECT_EQ(store_.name_str(1), "b");
  EXPECT_EQ(store_.name_str(2), "c");  // c1
  EXPECT_EQ(store_.name_str(3), "d");
  EXPECT_EQ(store_.name_str(4), "c");  // c2
  // b (rank 1) precedes d (rank 3) in document order: 1 < 3.
  EXPECT_LT(NodeIdx{1}, NodeIdx{3});
}

TEST_F(NodeStoreTest, SizesCountDescendants) {
  BuildFig5();
  EXPECT_EQ(store_.size(0), 4u);  // a: b, c1, d, c2
  EXPECT_EQ(store_.size(1), 2u);  // b: c1, d
  EXPECT_EQ(store_.size(2), 0u);
  EXPECT_EQ(store_.size(4), 0u);
}

TEST_F(NodeStoreTest, LevelsAndParents) {
  BuildFig5();
  EXPECT_EQ(store_.level(0), 0);
  EXPECT_EQ(store_.level(1), 1);
  EXPECT_EQ(store_.level(2), 2);
  EXPECT_EQ(store_.level(4), 1);
  EXPECT_EQ(store_.parent(0), kInvalidNode);
  EXPECT_EQ(store_.parent(1), 0u);
  EXPECT_EQ(store_.parent(2), 1u);
  EXPECT_EQ(store_.parent(3), 1u);
  EXPECT_EQ(store_.parent(4), 0u);
}

TEST_F(NodeStoreTest, AttributesAndText) {
  NodeBuilder b(&store_);
  b.BeginElement("e");
  b.Attribute("id", "e1");
  b.Attribute("lang", "en");
  b.Text("hello");
  b.EndElement();
  NodeIdx e = b.Finish();
  EXPECT_EQ(store_.kind(e + 1), NodeKind::kAttribute);
  EXPECT_EQ(store_.name_str(e + 1), "id");
  EXPECT_EQ(store_.value_str(e + 1), "e1");
  EXPECT_EQ(store_.kind(e + 3), NodeKind::kText);
  EXPECT_EQ(store_.value_str(e + 3), "hello");
  EXPECT_EQ(store_.size(e), 3u);  // attributes count into the subtree
}

TEST_F(NodeStoreTest, StringValueConcatenatesTextDescendants) {
  NodeBuilder b(&store_);
  b.BeginElement("p");
  b.Text("one ");
  b.BeginElement("em");
  b.Text("two");
  b.EndElement();
  b.Text(" three");
  b.EndElement();
  NodeIdx p = b.Finish();
  EXPECT_EQ(store_.StringValue(p), "one two three");
}

TEST_F(NodeStoreTest, StringValueOfAttributeAndText) {
  NodeBuilder b(&store_);
  b.BeginElement("e");
  b.Attribute("k", "v");
  b.Text("t");
  b.EndElement();
  NodeIdx e = b.Finish();
  EXPECT_EQ(store_.StringValue(e + 1), "v");
  EXPECT_EQ(store_.StringValue(e + 2), "t");
}

TEST_F(NodeStoreTest, CopySubtreePreservesStructure) {
  NodeIdx a = BuildFig5();
  NodeBuilder b(&store_);
  b.BeginElement("root");
  b.CopySubtree(a + 1);  // copy <b><c/><d/></b>
  b.EndElement();
  NodeIdx root = b.Finish();
  EXPECT_EQ(store_.name_str(root), "root");
  NodeIdx bcopy = root + 1;
  EXPECT_EQ(store_.name_str(bcopy), "b");
  EXPECT_EQ(store_.size(bcopy), 2u);
  EXPECT_EQ(store_.level(bcopy), 1);
  EXPECT_EQ(store_.parent(bcopy), root);
  EXPECT_EQ(store_.parent(bcopy + 1), bcopy);
  EXPECT_EQ(store_.name_str(bcopy + 2), "d");
  EXPECT_EQ(store_.level(bcopy + 2), 2);
}

// The bulk subtree copy against a node-by-node copy through the
// builder's own appends: the same nodes, and under an armed budget the
// same charge count, peak and failing charge, for every fail-at point.
TEST_F(NodeStoreTest, BulkCopyChargesLikeNodeByNodeCopy) {
  NodeIdx a = BuildFig5();
  NodeIdx src = a + 1;  // <b><c/><d/></b>
  // Returns the copy's root; `budget` is armed only during the copy.
  auto copy = [&](MemoryBudget* budget, bool bulk) {
    store_.set_budget(budget);
    NodeBuilder b(&store_);
    b.BeginElement("root");
    b.Attribute("k", "v");
    if (bulk) {
      b.CopySubtree(src);
      b.CopySubtree(a);
    } else {
      // Reference: rebuild each subtree through BeginElement/EndElement.
      for (NodeIdx s : {src, a}) {
        std::vector<NodeIdx> open;
        for (NodeIdx i = s; i <= s + store_.size(s); ++i) {
          while (!open.empty() && i > open.back() + store_.size(open.back())) {
            b.EndElement();
            open.pop_back();
          }
          b.BeginElement(store_.name(i));
          open.push_back(i);
        }
        for (; !open.empty(); open.pop_back()) b.EndElement();
      }
    }
    b.EndElement();
    NodeIdx root = b.Finish();
    store_.set_budget(nullptr);
    return root;
  };
  const NodeIdx fresh = store_.node_count();
  const size_t frags = store_.fragment_count();
  NodeIdx want = copy(nullptr, false);
  NodeIdx got = copy(nullptr, true);
  size_t count = got - want;
  ASSERT_EQ(store_.node_count(), got + count);
  for (size_t k = 0; k < count; ++k) {
    EXPECT_EQ(store_.kind(got + k), store_.kind(want + k)) << k;
    EXPECT_EQ(store_.name(got + k), store_.name(want + k)) << k;
    EXPECT_EQ(store_.value(got + k), store_.value(want + k)) << k;
    EXPECT_EQ(store_.size(got + k), store_.size(want + k)) << k;
    EXPECT_EQ(store_.level(got + k), store_.level(want + k)) << k;
    if (k > 0) {
      EXPECT_EQ(store_.parent(got + k) - got, store_.parent(want + k) - want)
          << k;
    }
  }
  EXPECT_EQ(store_.parent(got), kInvalidNode);
  store_.TruncateTo(fresh, frags);

  for (uint64_t fail_at = 0; fail_at <= count + 1; ++fail_at) {
    auto bulk = std::make_unique<MemoryBudget>(/*limit_bytes=*/0);
    auto single = std::make_unique<MemoryBudget>(/*limit_bytes=*/0);
    bulk->FailChargeAt(fail_at);
    single->FailChargeAt(fail_at);
    copy(single.get(), false);
    store_.TruncateTo(fresh, frags);
    copy(bulk.get(), true);
    store_.TruncateTo(fresh, frags);
    EXPECT_EQ(bulk->charges(), single->charges()) << fail_at;
    EXPECT_EQ(bulk->peak(), single->peak()) << fail_at;
    EXPECT_EQ(bulk->exhausted(), single->exhausted()) << fail_at;
  }
  // A limit crossed inside the bulk copy trips the budget at the same
  // node as well.
  for (size_t nodes_allowed = 1; nodes_allowed < count; ++nodes_allowed) {
    MemoryBudget bulk(nodes_allowed * NodeStore::kBytesPerNode);
    MemoryBudget single(nodes_allowed * NodeStore::kBytesPerNode);
    copy(&single, false);
    store_.TruncateTo(fresh, frags);
    copy(&bulk, true);
    store_.TruncateTo(fresh, frags);
    EXPECT_TRUE(bulk.exhausted());
    EXPECT_EQ(bulk.charges(), single.charges());
    EXPECT_EQ(bulk.peak(), single.peak());
  }
}

TEST_F(NodeStoreTest, FragmentsAndLookup) {
  NodeIdx a = BuildFig5();
  NodeIdx attr = store_.MakeAttribute(strings_.Intern("x"),
                                      strings_.Intern("1"));
  EXPECT_EQ(store_.fragment_count(), 2u);
  EXPECT_EQ(store_.FragmentOf(a).root, a);
  EXPECT_EQ(store_.FragmentOf(a + 3).root, a);
  EXPECT_EQ(store_.FragmentOf(attr).root, attr);
  EXPECT_EQ(store_.FragmentOf(attr).node_count, 1u);
}

TEST_F(NodeStoreTest, NameIndexSortedAndComplete) {
  NodeIdx a = BuildFig5();
  store_.IndexFragment(0);
  StrId c = strings_.Intern("c");
  const std::vector<NodeIdx>* idx =
      store_.IndexedNodes(NodeKind::kElement, c);
  ASSERT_NE(idx, nullptr);
  ASSERT_EQ(idx->size(), 2u);
  EXPECT_EQ((*idx)[0], a + 2);
  EXPECT_EQ((*idx)[1], a + 4);
  EXPECT_EQ(store_.IndexedNodes(NodeKind::kElement, strings_.Intern("zz")),
            nullptr);
}

TEST_F(NodeStoreTest, TruncateDropsConstructedFragments) {
  BuildFig5();
  size_t nodes = store_.node_count();
  size_t frags = store_.fragment_count();
  store_.MakeText(strings_.Intern("scratch"));
  store_.MakeAttribute(strings_.Intern("a"), strings_.Intern("b"));
  EXPECT_GT(store_.node_count(), nodes);
  store_.TruncateTo(nodes, frags);
  EXPECT_EQ(store_.node_count(), nodes);
  EXPECT_EQ(store_.fragment_count(), frags);
}

TEST_F(NodeStoreTest, DocumentNodeWrapsRoot) {
  NodeBuilder b(&store_);
  b.BeginDocument();
  b.BeginElement("r");
  b.EndElement();
  b.EndDocument();
  NodeIdx doc = b.Finish();
  EXPECT_EQ(store_.kind(doc), NodeKind::kDocument);
  EXPECT_EQ(store_.size(doc), 1u);
  EXPECT_EQ(store_.parent(doc + 1), doc);
}

}  // namespace
}  // namespace exrquy
