#include "xml/step.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/check.h"

namespace exrquy {

const char* AxisName(Axis axis) {
  switch (axis) {
    case Axis::kChild:
      return "child";
    case Axis::kDescendant:
      return "descendant";
    case Axis::kDescendantOrSelf:
      return "descendant-or-self";
    case Axis::kSelf:
      return "self";
    case Axis::kAttribute:
      return "attribute";
    case Axis::kParent:
      return "parent";
    case Axis::kAncestor:
      return "ancestor";
    case Axis::kAncestorOrSelf:
      return "ancestor-or-self";
    case Axis::kFollowingSibling:
      return "following-sibling";
    case Axis::kPrecedingSibling:
      return "preceding-sibling";
    case Axis::kFollowing:
      return "following";
    case Axis::kPreceding:
      return "preceding";
  }
  return "?";
}

std::string NodeTestToString(const NodeTest& test, const StrPool& strings) {
  switch (test.kind) {
    case NodeTest::Kind::kAnyKind:
      return "node()";
    case NodeTest::Kind::kText:
      return "text()";
    case NodeTest::Kind::kComment:
      return "comment()";
    case NodeTest::Kind::kWildcard:
      return "*";
    case NodeTest::Kind::kName:
      return strings.Get(test.name);
  }
  return "?";
}

bool MatchesTest(const NodeStore& store, NodeIdx n, Axis axis,
                 const NodeTest& test) {
  NodeKind k = store.kind(n);
  NodeKind principal =
      axis == Axis::kAttribute ? NodeKind::kAttribute : NodeKind::kElement;
  switch (test.kind) {
    case NodeTest::Kind::kAnyKind:
      return true;
    case NodeTest::Kind::kText:
      return k == NodeKind::kText;
    case NodeTest::Kind::kComment:
      return k == NodeKind::kComment;
    case NodeTest::Kind::kWildcard:
      return k == principal;
    case NodeTest::Kind::kName:
      return k == principal && store.name(n) == test.name;
  }
  return false;
}

namespace {

// Per-context emitters. Each pushes the axis results for context `n`.

void EmitChildren(const NodeStore& store, NodeIdx n, Axis axis,
                  const NodeTest& test, std::vector<NodeIdx>* out) {
  NodeIdx end = n + store.size(n);
  NodeIdx c = n + 1;
  while (c <= end) {
    if (store.kind(c) != NodeKind::kAttribute &&
        MatchesTest(store, c, axis, test)) {
      out->push_back(c);
    }
    c += store.size(c) + 1;
  }
}

void EmitAttributes(const NodeStore& store, NodeIdx n, Axis axis,
                    const NodeTest& test, std::vector<NodeIdx>* out) {
  NodeIdx end = n + store.size(n);
  for (NodeIdx c = n + 1; c <= end && store.kind(c) == NodeKind::kAttribute;
       ++c) {
    if (MatchesTest(store, c, axis, test)) out->push_back(c);
  }
}

// Scans the subtree range, excluding attribute nodes (attributes are not
// on the descendant axis even though they live inside the subtree range).
void EmitDescendantsScan(const NodeStore& store, NodeIdx n, Axis axis,
                         const NodeTest& test, std::vector<NodeIdx>* out) {
  NodeIdx end = n + store.size(n);
  for (NodeIdx c = n + 1; c <= end; ++c) {
    if (store.kind(c) == NodeKind::kAttribute) continue;
    if (MatchesTest(store, c, axis, test)) out->push_back(c);
  }
}

// Fast path: binary-searched range of the per-tag index.
void EmitDescendantsIndexed(const std::vector<NodeIdx>& index, NodeIdx n,
                            uint32_t size, std::vector<NodeIdx>* out) {
  auto lo = std::lower_bound(index.begin(), index.end(), n + 1);
  auto hi = std::upper_bound(lo, index.end(), n + size);
  out->insert(out->end(), lo, hi);
}

void EmitAncestors(const NodeStore& store, NodeIdx n, Axis axis,
                   const NodeTest& test, bool with_self,
                   std::vector<NodeIdx>* out) {
  NodeIdx c = with_self ? n : store.parent(n);
  if (!with_self && c == kInvalidNode) return;
  while (c != kInvalidNode) {
    if (MatchesTest(store, c, axis, test)) out->push_back(c);
    c = store.parent(c);
  }
}

void EmitSiblings(const NodeStore& store, NodeIdx n, Axis axis,
                  const NodeTest& test, bool following,
                  std::vector<NodeIdx>* out) {
  NodeIdx p = store.parent(n);
  if (p == kInvalidNode || store.kind(n) == NodeKind::kAttribute) return;
  NodeIdx end = p + store.size(p);
  if (following) {
    NodeIdx c = n + store.size(n) + 1;
    while (c <= end) {
      if (store.kind(c) != NodeKind::kAttribute &&
          MatchesTest(store, c, axis, test)) {
        out->push_back(c);
      }
      c += store.size(c) + 1;
    }
  } else {
    NodeIdx c = p + 1;
    while (c < n) {
      if (store.kind(c) != NodeKind::kAttribute &&
          MatchesTest(store, c, axis, test)) {
        out->push_back(c);
      }
      c += store.size(c) + 1;
    }
  }
}

void EmitFollowing(const NodeStore& store, NodeIdx n, Axis axis,
                   const NodeTest& test, std::vector<NodeIdx>* out) {
  const NodeStore::Fragment& frag = store.FragmentOf(n);
  NodeIdx frag_end = frag.root + frag.node_count;
  for (NodeIdx c = n + store.size(n) + 1; c < frag_end; ++c) {
    if (store.kind(c) == NodeKind::kAttribute) continue;
    if (MatchesTest(store, c, axis, test)) out->push_back(c);
  }
}

void EmitPreceding(const NodeStore& store, NodeIdx n, Axis axis,
                   const NodeTest& test, std::vector<NodeIdx>* out) {
  const NodeStore::Fragment& frag = store.FragmentOf(n);
  for (NodeIdx c = frag.root; c < n; ++c) {
    if (store.kind(c) == NodeKind::kAttribute) continue;
    // Exclude ancestors: c is an ancestor of n iff n lies in its subtree.
    if (n <= c + store.size(c)) continue;
    if (MatchesTest(store, c, axis, test)) out->push_back(c);
  }
}

bool IsDescendantAxis(Axis axis) {
  return axis == Axis::kDescendant || axis == Axis::kDescendantOrSelf;
}

// For descendant-type axes, contexts nested inside an earlier context's
// subtree are pruned (staircase join's "pruning" phase): their results
// are covered, except for -or-self, where the context itself must still
// be emitted.
void EvalGroup(const NodeStore& store, Axis axis, const NodeTest& test,
               std::span<const NodeIdx> ctx,  // sorted, duplicate-free
               const std::vector<NodeIdx>* index,
               std::vector<NodeIdx>* out) {
  size_t start = out->size();
  bool sorted_disjoint = false;  // output known sorted & duplicate-free?

  if (IsDescendantAxis(axis)) {
    sorted_disjoint = true;
    NodeIdx covered_end = 0;  // exclusive upper bound of covered range
    for (NodeIdx n : ctx) {
      bool covered = n < covered_end;
      if (covered) {
        // A covered context's results are in the covering context's set,
        // except a covered attribute's own self (descendant scans skip
        // attributes): emit it, and sort below.
        if (axis == Axis::kDescendantOrSelf &&
            store.kind(n) == NodeKind::kAttribute &&
            MatchesTest(store, n, axis, test)) {
          out->push_back(n);
          sorted_disjoint = false;
        }
        continue;
      }
      if (axis == Axis::kDescendantOrSelf &&
          MatchesTest(store, n, axis, test)) {
        out->push_back(n);
      }
      if (index != nullptr && store.FragmentOf(n).indexed) {
        EmitDescendantsIndexed(*index, n, store.size(n), out);
      } else {
        EmitDescendantsScan(store, n, axis, test, out);
      }
      covered_end = n + store.size(n) + 1;
    }
  } else {
    switch (axis) {
      case Axis::kChild:
        for (NodeIdx n : ctx) EmitChildren(store, n, axis, test, out);
        break;
      case Axis::kAttribute:
        for (NodeIdx n : ctx) EmitAttributes(store, n, axis, test, out);
        break;
      case Axis::kSelf:
        sorted_disjoint = true;
        for (NodeIdx n : ctx) {
          if (MatchesTest(store, n, axis, test)) out->push_back(n);
        }
        break;
      case Axis::kParent:
        for (NodeIdx n : ctx) {
          NodeIdx p = store.parent(n);
          if (p != kInvalidNode && MatchesTest(store, p, axis, test)) {
            out->push_back(p);
          }
        }
        break;
      case Axis::kAncestor:
        for (NodeIdx n : ctx) EmitAncestors(store, n, axis, test, false, out);
        break;
      case Axis::kAncestorOrSelf:
        for (NodeIdx n : ctx) EmitAncestors(store, n, axis, test, true, out);
        break;
      case Axis::kFollowingSibling:
        for (NodeIdx n : ctx) EmitSiblings(store, n, axis, test, true, out);
        break;
      case Axis::kPrecedingSibling:
        for (NodeIdx n : ctx) EmitSiblings(store, n, axis, test, false, out);
        break;
      case Axis::kFollowing:
        for (NodeIdx n : ctx) EmitFollowing(store, n, axis, test, out);
        break;
      case Axis::kPreceding:
        for (NodeIdx n : ctx) EmitPreceding(store, n, axis, test, out);
        break;
      default:
        EXRQUY_CHECK(false);
    }
  }

  if (!sorted_disjoint) {
    std::sort(out->begin() + start, out->end());
    out->erase(std::unique(out->begin() + start, out->end()), out->end());
  }
}

}  // namespace

void EvalStep(const NodeStore& store, Axis axis, const NodeTest& test,
              std::vector<int64_t> iters, std::vector<NodeIdx> nodes,
              std::vector<int64_t>* out_iters,
              std::vector<NodeIdx>* out_nodes) {
  EXRQUY_CHECK(iters.size() == nodes.size());
  out_iters->clear();
  out_nodes->clear();
  if (iters.empty()) return;

  // Sort contexts by (iter, node) unless they already arrive that way,
  // as every call in the perfbench workloads does (EXPERIMENTS.md).
  // Equal pairs are indistinguishable, so no tie-break is needed.
  size_t n = iters.size();
  bool sorted = true;
  for (size_t i = 1; i < n && sorted; ++i) {
    sorted = iters[i - 1] < iters[i] ||
             (iters[i - 1] == iters[i] && nodes[i - 1] <= nodes[i]);
  }
  if (!sorted) {
    std::vector<std::pair<int64_t, NodeIdx>> pairs(n);
    for (size_t i = 0; i < n; ++i) pairs[i] = {iters[i], nodes[i]};
    std::sort(pairs.begin(), pairs.end());
    for (size_t i = 0; i < n; ++i) {
      iters[i] = pairs[i].first;
      nodes[i] = pairs[i].second;
    }
  }
  // Deduplicate in place: each iter's contexts become one run of `nodes`.
  size_t m = 1;
  for (size_t i = 1; i < n; ++i) {
    if (iters[i] != iters[m - 1] || nodes[i] != nodes[m - 1]) {
      iters[m] = iters[i];
      nodes[m] = nodes[i];
      ++m;
    }
  }

  // Name-index fast path applies to element name tests on descendant axes
  // (the principal kind on those axes is element).
  const std::vector<NodeIdx>* index = nullptr;
  if (IsDescendantAxis(axis) && test.kind == NodeTest::Kind::kName) {
    index = store.IndexedNodes(NodeKind::kElement, test.name);
    static const std::vector<NodeIdx> kEmptyIndex;
    if (index == nullptr) index = &kEmptyIndex;
    // Note: EvalGroup falls back to scanning for unindexed fragments.
  }

  // Loop-lifted plans frequently evaluate a step over *identical* context
  // sets in every iteration (e.g. a document root lifted across thousands
  // of bindings — the pattern Pathfinder's join recognition short-cuts by
  // evaluating the path once, Section 5). Memoizing per-group results by
  // the group's context-set hash recovers that: each distinct context set
  // is evaluated exactly once. The memo is flat: an entry names its
  // contexts as a run of the deduplicated `nodes` and its results as the
  // run of `out_nodes` its first evaluation wrote; an open-addressing
  // table of entry numbers finds it by hash (a node-based multimap
  // allocates per distinct group and nearly doubles the step's time).
  struct GroupMemo {
    uint64_t hash;
    size_t ctx_begin, ctx_len;
    size_t res_begin, res_len;
  };
  constexpr uint32_t kNoEntry = ~uint32_t{0};
  std::vector<GroupMemo> memo;
  std::vector<uint32_t> slots(16, kNoEntry);  // power of two, load <= 1/2
  auto hash_group = [&](size_t b, size_t e) {
    uint64_t h = 1469598103934665603ull;
    for (size_t i = b; i < e; ++i) {
      h ^= nodes[i] + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    }
    return h;
  };
  auto insert_slot = [&](size_t entry) {
    size_t mask = slots.size() - 1;
    size_t s = memo[entry].hash & mask;
    while (slots[s] != kNoEntry) s = (s + 1) & mask;
    slots[s] = static_cast<uint32_t>(entry);
  };

  size_t b = 0;
  while (b < m) {
    int64_t iter = iters[b];
    size_t e = b + 1;
    while (e < m && iters[e] == iter) ++e;
    uint64_t h = hash_group(b, e);
    const GroupMemo* cached = nullptr;
    size_t mask = slots.size() - 1;
    for (size_t s = h & mask; slots[s] != kNoEntry; s = (s + 1) & mask) {
      const GroupMemo& g = memo[slots[s]];
      if (g.hash == h && g.ctx_len == e - b &&
          std::equal(nodes.begin() + b, nodes.begin() + e,
                     nodes.begin() + g.ctx_begin)) {
        cached = &g;
        break;
      }
    }
    size_t at = out_nodes->size();
    if (cached != nullptr) {
      // Append the cached run (copied by index: it lies in the same
      // vector that grows).
      out_nodes->resize(at + cached->res_len);
      std::copy_n(out_nodes->data() + cached->res_begin, cached->res_len,
                  out_nodes->data() + at);
    } else {
      EvalGroup(store, axis, test,
                std::span<const NodeIdx>(nodes.data() + b, e - b), index,
                out_nodes);
      memo.push_back(GroupMemo{h, b, e - b, at, out_nodes->size() - at});
      if (2 * memo.size() > slots.size()) {
        slots.assign(2 * slots.size(), kNoEntry);
        for (size_t k = 0; k < memo.size(); ++k) insert_slot(k);
      } else {
        insert_slot(memo.size() - 1);
      }
    }
    out_iters->resize(out_nodes->size(), iter);
    b = e;
  }
}

}  // namespace exrquy
