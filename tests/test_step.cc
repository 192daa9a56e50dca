// Unit and property tests for the ⊙ax::nt step evaluator: all twelve
// axes on a reference tree, node tests, duplicate/nested context pruning
// (the staircase join behaviour), and agreement between the tag-indexed
// fast path and the scan fallback.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <utility>

#include "xml/node_store.h"
#include "xml/step.h"
#include "xml/xml_parser.h"

namespace exrquy {
namespace {

//   doc
//    a(1)
//      @id(2)
//      b(3)  x(4) x(5)
//      c(6)  t"hi"(7)
//      b(8)  x(9)  y(10)  @k(—) ... built below
constexpr char kDoc[] =
    "<a id=\"0\">"
    "<b><x/><x/></b>"
    "<c>hi</c>"
    "<b><x/><y/></b>"
    "</a>";

class StepTest : public ::testing::Test {
 protected:
  StepTest() : store_(&strings_) {
    Result<NodeIdx> r = ParseXml(&store_, kDoc);
    EXPECT_TRUE(r.ok());
    doc_ = *r;
    store_.IndexFragment(0);
  }

  // Runs the step with all contexts in iteration 1 and returns the node
  // ranks.
  std::vector<NodeIdx> Step(Axis axis, const NodeTest& test,
                            std::vector<NodeIdx> ctx) {
    std::vector<int64_t> iters(ctx.size(), 1);
    std::vector<int64_t> out_iters;
    std::vector<NodeIdx> out_nodes;
    EvalStep(store_, axis, test, std::move(iters), std::move(ctx),
             &out_iters, &out_nodes);
    return out_nodes;
  }

  NodeTest Name(const char* n) {
    return NodeTest::Name(strings_.Intern(n));
  }

  std::vector<std::string> Names(const std::vector<NodeIdx>& nodes) {
    std::vector<std::string> out;
    for (NodeIdx n : nodes) out.push_back(store_.name_str(n));
    return out;
  }

  StrPool strings_;
  NodeStore store_;
  NodeIdx doc_ = 0;
};

TEST_F(StepTest, ChildSkipsAttributes) {
  NodeIdx a = doc_ + 1;
  std::vector<NodeIdx> kids = Step(Axis::kChild, NodeTest::AnyKind(), {a});
  EXPECT_EQ(Names(kids), (std::vector<std::string>{"b", "c", "b"}));
}

TEST_F(StepTest, ChildNameTest) {
  NodeIdx a = doc_ + 1;
  EXPECT_EQ(Step(Axis::kChild, Name("b"), {a}).size(), 2u);
  EXPECT_EQ(Step(Axis::kChild, Name("x"), {a}).size(), 0u);
}

TEST_F(StepTest, ChildTextTest) {
  NodeIdx a = doc_ + 1;
  std::vector<NodeIdx> c = Step(Axis::kChild, Name("c"), {a});
  ASSERT_EQ(c.size(), 1u);
  std::vector<NodeIdx> texts = Step(Axis::kChild, NodeTest::Text(), {c[0]});
  ASSERT_EQ(texts.size(), 1u);
  EXPECT_EQ(store_.value_str(texts[0]), "hi");
}

TEST_F(StepTest, AttributeAxis) {
  NodeIdx a = doc_ + 1;
  std::vector<NodeIdx> attrs =
      Step(Axis::kAttribute, NodeTest::Wildcard(), {a});
  ASSERT_EQ(attrs.size(), 1u);
  EXPECT_EQ(store_.name_str(attrs[0]), "id");
  EXPECT_EQ(Step(Axis::kAttribute, Name("id"), {a}).size(), 1u);
  EXPECT_EQ(Step(Axis::kAttribute, Name("nope"), {a}).size(), 0u);
}

TEST_F(StepTest, DescendantExcludesAttributesAndSelf) {
  NodeIdx a = doc_ + 1;
  std::vector<NodeIdx> d = Step(Axis::kDescendant, NodeTest::AnyKind(), {a});
  for (NodeIdx n : d) {
    EXPECT_NE(store_.kind(n), NodeKind::kAttribute);
    EXPECT_NE(n, a);
  }
  // b, x, x, c, text, b, x, y = 8 nodes.
  EXPECT_EQ(d.size(), 8u);
}

TEST_F(StepTest, DescendantOrSelfIncludesSelf) {
  NodeIdx a = doc_ + 1;
  std::vector<NodeIdx> d =
      Step(Axis::kDescendantOrSelf, NodeTest::AnyKind(), {a});
  EXPECT_EQ(d.size(), 9u);
  EXPECT_EQ(d.front(), a);
}

TEST_F(StepTest, SelfFiltersByTest) {
  NodeIdx a = doc_ + 1;
  EXPECT_EQ(Step(Axis::kSelf, Name("a"), {a}).size(), 1u);
  EXPECT_EQ(Step(Axis::kSelf, Name("b"), {a}).size(), 0u);
}

TEST_F(StepTest, ParentAndAncestors) {
  std::vector<NodeIdx> xs = Step(Axis::kDescendant, Name("x"), {doc_});
  ASSERT_EQ(xs.size(), 3u);
  std::vector<NodeIdx> parents =
      Step(Axis::kParent, NodeTest::AnyKind(), xs);
  EXPECT_EQ(Names(parents), (std::vector<std::string>{"b", "b"}));
  std::vector<NodeIdx> ancestors =
      Step(Axis::kAncestor, NodeTest::Wildcard(), {xs[0]});
  EXPECT_EQ(Names(ancestors), (std::vector<std::string>{"a", "b"}));
  std::vector<NodeIdx> aos =
      Step(Axis::kAncestorOrSelf, NodeTest::Wildcard(), {xs[0]});
  EXPECT_EQ(aos.size(), 3u);
}

TEST_F(StepTest, AttributeParentIsElement) {
  NodeIdx a = doc_ + 1;
  std::vector<NodeIdx> attrs =
      Step(Axis::kAttribute, NodeTest::Wildcard(), {a});
  std::vector<NodeIdx> parents =
      Step(Axis::kParent, NodeTest::AnyKind(), attrs);
  ASSERT_EQ(parents.size(), 1u);
  EXPECT_EQ(parents[0], a);
}

TEST_F(StepTest, Siblings) {
  NodeIdx a = doc_ + 1;
  std::vector<NodeIdx> kids = Step(Axis::kChild, NodeTest::AnyKind(), {a});
  ASSERT_EQ(kids.size(), 3u);
  NodeIdx c = kids[1];
  EXPECT_EQ(Names(Step(Axis::kFollowingSibling, NodeTest::AnyKind(), {c})),
            (std::vector<std::string>{"b"}));
  EXPECT_EQ(Names(Step(Axis::kPrecedingSibling, NodeTest::AnyKind(), {c})),
            (std::vector<std::string>{"b"}));
  // The first b has following siblings c and b.
  EXPECT_EQ(
      Step(Axis::kFollowingSibling, NodeTest::AnyKind(), {kids[0]}).size(),
      2u);
}

TEST_F(StepTest, FollowingAndPreceding) {
  NodeIdx a = doc_ + 1;
  std::vector<NodeIdx> kids = Step(Axis::kChild, NodeTest::AnyKind(), {a});
  NodeIdx c = kids[1];
  // following(c): second b and its children x, y (text of c excluded —
  // it is a descendant of c).
  std::vector<NodeIdx> fol = Step(Axis::kFollowing, NodeTest::AnyKind(), {c});
  EXPECT_EQ(fol.size(), 3u);
  // preceding(c): first b and its two x children (ancestors excluded).
  std::vector<NodeIdx> pre = Step(Axis::kPreceding, NodeTest::AnyKind(), {c});
  EXPECT_EQ(pre.size(), 3u);
  for (NodeIdx n : pre) EXPECT_NE(n, a);
}

TEST_F(StepTest, DuplicateContextsYieldNoDuplicates) {
  NodeIdx a = doc_ + 1;
  std::vector<NodeIdx> once = Step(Axis::kDescendant, Name("x"), {a});
  std::vector<NodeIdx> twice = Step(Axis::kDescendant, Name("x"), {a, a, a});
  EXPECT_EQ(once, twice);
}

TEST_F(StepTest, NestedContextsPruned) {
  // Contexts {a, b1}: b1 lies in a's subtree, so descendant results must
  // not repeat (staircase pruning).
  NodeIdx a = doc_ + 1;
  std::vector<NodeIdx> bs = Step(Axis::kChild, Name("b"), {a});
  std::vector<NodeIdx> merged =
      Step(Axis::kDescendant, Name("x"), {a, bs[0]});
  EXPECT_EQ(merged, Step(Axis::kDescendant, Name("x"), {a}));
}

TEST_F(StepTest, CoveredAttributeContextKeepsItsSelf) {
  // a's subtree covers its attribute @id, but descendant scans skip
  // attributes: descendant-or-self::node() must still emit @id itself.
  NodeIdx a = doc_ + 1;
  NodeIdx id = a + 1;
  ASSERT_EQ(store_.kind(id), NodeKind::kAttribute);
  std::vector<NodeIdx> out =
      Step(Axis::kDescendantOrSelf, NodeTest::AnyKind(), {id, a});
  EXPECT_TRUE(std::binary_search(out.begin(), out.end(), id));
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  EXPECT_EQ(out.size(), store_.size(a) + 1);  // a and every node below it
}

TEST_F(StepTest, OutputSortedPerIterAndGroupedByIter) {
  NodeIdx a = doc_ + 1;
  std::vector<int64_t> iters = {2, 1};
  std::vector<NodeIdx> nodes = {a, a};
  std::vector<int64_t> out_iters;
  std::vector<NodeIdx> out_nodes;
  EvalStep(store_, Axis::kDescendant, Name("x"), iters, nodes, &out_iters,
           &out_nodes);
  ASSERT_EQ(out_iters.size(), 6u);
  EXPECT_TRUE(std::is_sorted(out_iters.begin(), out_iters.end()));
  for (size_t i = 1; i < 3; ++i) {
    EXPECT_LT(out_nodes[i - 1], out_nodes[i]);
  }
}

TEST_F(StepTest, MemoizedIdenticalGroupsAcrossIterations) {
  // Many iterations sharing one context set (the lifted loop-invariant
  // pattern) and one differing iteration: results must be per-iteration
  // correct, memoization notwithstanding.
  NodeIdx a = doc_ + 1;
  std::vector<NodeIdx> bs = Step(Axis::kChild, Name("b"), {a});
  ASSERT_EQ(bs.size(), 2u);
  std::vector<int64_t> iters;
  std::vector<NodeIdx> nodes;
  for (int64_t it = 1; it <= 50; ++it) {
    iters.push_back(it);
    nodes.push_back(a);  // identical group everywhere...
  }
  iters.push_back(99);
  nodes.push_back(bs[0]);  // ...except iteration 99
  std::vector<int64_t> out_iters;
  std::vector<NodeIdx> out_nodes;
  EvalStep(store_, Axis::kDescendant, Name("x"), iters, nodes, &out_iters,
           &out_nodes);
  // 50 iterations × 3 x-descendants of a, plus 2 under the first b.
  ASSERT_EQ(out_nodes.size(), 50u * 3 + 2);
  for (size_t i = 0; i < out_iters.size(); ++i) {
    if (out_iters[i] == 99) {
      EXPECT_EQ(store_.parent(out_nodes[i]), bs[0]);
    }
  }
}

TEST_F(StepTest, IndexedMatchesScanOnUnindexedCopy) {
  // Evaluate descendant::x against the indexed document and against an
  // identical unindexed fragment: the result sets must correspond.
  NodeIdx a = doc_ + 1;
  NodeBuilder b(&store_);
  b.BeginElement("root");
  b.CopySubtree(a);
  b.EndElement();
  NodeIdx copy_root = b.Finish();  // unindexed fragment
  NodeIdx copy_a = copy_root + 1;

  std::vector<NodeIdx> indexed = Step(Axis::kDescendant, Name("x"), {a});
  std::vector<NodeIdx> scanned =
      Step(Axis::kDescendant, Name("x"), {copy_a});
  ASSERT_EQ(indexed.size(), scanned.size());
  for (size_t i = 0; i < indexed.size(); ++i) {
    // Same relative offsets within their fragments.
    EXPECT_EQ(indexed[i] - a, scanned[i] - copy_a);
  }
}

// The axis of context `n` straight from the pre/size/parent encoding,
// one candidate node at a time: no pruning, no index, no memo.
bool OnAxis(const NodeStore& s, Axis axis, NodeIdx n, NodeIdx c) {
  auto attr = [&](NodeIdx v) { return s.kind(v) == NodeKind::kAttribute; };
  auto in_subtree = [&](NodeIdx root, NodeIdx v) {
    return root < v && v <= root + s.size(root);
  };
  bool same_fragment = s.FragmentOf(n).root == s.FragmentOf(c).root;
  bool siblings = s.parent(n) != kInvalidNode &&
                  s.parent(c) == s.parent(n) && !attr(n) && !attr(c);
  switch (axis) {
    case Axis::kChild:
      return s.parent(c) == n && !attr(c);
    case Axis::kAttribute:
      return s.parent(c) == n && attr(c);
    case Axis::kDescendant:
      return in_subtree(n, c) && !attr(c);
    case Axis::kDescendantOrSelf:
      return c == n || (in_subtree(n, c) && !attr(c));
    case Axis::kSelf:
      return c == n;
    case Axis::kParent:
      return c == s.parent(n);
    case Axis::kAncestor:
      return in_subtree(c, n);
    case Axis::kAncestorOrSelf:
      return c == n || in_subtree(c, n);
    case Axis::kFollowingSibling:
      return siblings && c > n;
    case Axis::kPrecedingSibling:
      return siblings && c < n;
    case Axis::kFollowing:
      return same_fragment && c > n + s.size(n) && !attr(c);
    case Axis::kPreceding:
      return same_fragment && c < n && !in_subtree(c, n) && !attr(c);
  }
  return false;
}

// Random context tables against that naive evaluator, on every axis and
// node test: contexts shuffled or already sorted, duplicated, nested in
// one another, spread over the indexed document and an unindexed copy,
// and context sets repeated across iterations (the memoized case).
TEST_F(StepTest, RandomContextsMatchNaiveEvaluator) {
  NodeBuilder b(&store_);
  b.BeginElement("root");
  b.CopySubtree(doc_ + 1);
  b.EndElement();
  b.Finish();  // unindexed fragment: the scan path of descendant steps
  const NodeIdx nodes = store_.node_count();
  const std::vector<NodeTest> tests = {
      NodeTest::AnyKind(), NodeTest::Wildcard(), NodeTest::Text(),
      Name("x"),           Name("b"),            Name("id")};
  const std::vector<Axis> axes = {
      Axis::kChild,           Axis::kDescendant,       Axis::kDescendantOrSelf,
      Axis::kSelf,            Axis::kAttribute,        Axis::kParent,
      Axis::kAncestor,        Axis::kAncestorOrSelf,   Axis::kFollowingSibling,
      Axis::kPrecedingSibling, Axis::kFollowing,       Axis::kPreceding};
  std::mt19937 rng(19);
  for (int trial = 0; trial < 60; ++trial) {
    // A few context sets, each shared by several iterations.
    std::vector<std::vector<NodeIdx>> sets(1 + rng() % 3);
    for (auto& set : sets) {
      set.resize(1 + rng() % 5);
      for (NodeIdx& n : set) n = rng() % nodes;
      set.push_back(set[0]);  // a duplicate context
    }
    std::vector<std::pair<int64_t, NodeIdx>> ctx;
    for (int64_t it = 1; it <= 6; ++it) {
      for (NodeIdx n : sets[rng() % sets.size()]) ctx.emplace_back(it, n);
    }
    if (trial % 2 == 0) {
      std::sort(ctx.begin(), ctx.end());
    } else {
      std::shuffle(ctx.begin(), ctx.end(), rng);
    }
    std::vector<int64_t> iters;
    std::vector<NodeIdx> ctx_nodes;
    for (const auto& [it, n] : ctx) {
      iters.push_back(it);
      ctx_nodes.push_back(n);
    }
    for (Axis axis : axes) {
      for (const NodeTest& test : tests) {
        std::set<std::pair<int64_t, NodeIdx>> want;
        for (const auto& [it, n] : ctx) {
          for (NodeIdx c = 0; c < nodes; ++c) {
            if (OnAxis(store_, axis, n, c) &&
                MatchesTest(store_, c, axis, test)) {
              want.emplace(it, c);
            }
          }
        }
        std::vector<int64_t> out_iters;
        std::vector<NodeIdx> out_nodes;
        EvalStep(store_, axis, test, iters, ctx_nodes, &out_iters,
                 &out_nodes);
        ASSERT_EQ(out_iters.size(), out_nodes.size());
        using Pairs = std::vector<std::pair<int64_t, NodeIdx>>;
        Pairs got;
        for (size_t i = 0; i < out_iters.size(); ++i) {
          got.emplace_back(out_iters[i], out_nodes[i]);
        }
        EXPECT_EQ(got, Pairs(want.begin(), want.end()))
            << "trial " << trial << " axis " << AxisName(axis) << " test "
            << NodeTestToString(test, strings_);
      }
    }
  }
}

// Property sweep: for every axis, duplicate-freeness and per-iteration
// sorting of the output, with mixed nested/duplicate contexts.
class StepAxisSweep : public StepTest,
                      public ::testing::WithParamInterface<Axis> {};

TEST_P(StepAxisSweep, OutputDuplicateFreeAndSorted) {
  NodeIdx a = doc_ + 1;
  std::vector<NodeIdx> all =
      Step(Axis::kDescendantOrSelf, NodeTest::AnyKind(), {doc_});
  // All nodes (including nested ones) as contexts of one iteration, each
  // twice.
  std::vector<NodeIdx> ctx = all;
  ctx.insert(ctx.end(), all.begin(), all.end());
  (void)a;
  std::vector<NodeIdx> out = Step(GetParam(), NodeTest::AnyKind(), ctx);
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_LT(out[i - 1], out[i]);  // strictly increasing: sorted + unique
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAxes, StepAxisSweep,
    ::testing::Values(Axis::kChild, Axis::kDescendant,
                      Axis::kDescendantOrSelf, Axis::kSelf, Axis::kAttribute,
                      Axis::kParent, Axis::kAncestor, Axis::kAncestorOrSelf,
                      Axis::kFollowingSibling, Axis::kPrecedingSibling,
                      Axis::kFollowing, Axis::kPreceding),
    [](const ::testing::TestParamInfo<Axis>& info) {
      std::string name = AxisName(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace exrquy
