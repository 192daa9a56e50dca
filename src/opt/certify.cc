#include "opt/certify.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <optional>
#include <tuple>
#include <utility>

namespace exrquy {
namespace {

std::string AtOp(OpId op) { return "@op" + std::to_string(op); }

std::string RowBound(uint64_t n) {
  return n == kUnboundedRows ? "inf" : std::to_string(n);
}

// The proof obligation each rewrite family must discharge, in the order
// of the table in certify.h. Unknown families fail closed
// ("unknown-family").
struct FamilyObligation {
  const char* family;
  const char* obligation;
};
constexpr FamilyObligation kFamilies[] = {
    {"column_pruning", "dead-column"},
    {"weaken_rownum", "constant-criteria"},
    {"arbitrary-order", "arbitrary-order"},
    {"distinct_elimination", "disjoint-steps"},
    {"step_merging", "step-shape"},
    {"distinct_by_keys", "key-distinct"},
    {"empty_short_circuit", "empty-plan"},
    {"union_empty_branch", "empty-branch"},
    {"keyed-partition", "keyed-partition"},
    {"order-dependency", "sorted-prefix"},
    {"join_recognition", "join-isolation"},
    {"theta-count", "count-fusion"},
    {"deferred_construction", "identity-indifference"},
};

const char* ObligationFor(const std::string& rule) {
  for (const FamilyObligation& f : kFamilies) {
    if (rule == f.family) return f.obligation;
  }
  return "unknown-family";
}

// Independent restatements of the distinct-elimination shape conditions
// (rewrites.cc keeps its own copy: the checker must not trust the code
// it validates).
bool StepLeaves(const Dag& dag, OpId id, std::vector<OpId>* leaves) {
  const Op& op = dag.op(id);
  if (op.kind == OpKind::kUnion) {
    return StepLeaves(dag, op.children[0], leaves) &&
           StepLeaves(dag, op.children[1], leaves);
  }
  if (op.kind == OpKind::kStep) {
    leaves->push_back(id);
    return true;
  }
  return false;
}

bool DisjointSteps(const Dag& dag, OpId a, OpId b) {
  const Op& sa = dag.op(a);
  const Op& sb = dag.op(b);
  return sa.children[0] == sb.children[0] && sa.axis == sb.axis &&
         sa.axis != Axis::kAttribute &&
         sa.test.kind == NodeTest::Kind::kName &&
         sb.test.kind == NodeTest::Kind::kName &&
         sa.test.name != sb.test.name;
}

// Independent restatement of the count-fusion shape (rewrites.cc keeps
// its own copy): π g (Distinct (π g,h (ThetaJoin))), names kept, g and h
// from opposite join sides. Yields the ThetaJoin and h.
bool CountShape(const Dag& dag, OpId id, ColId g, OpId* tj, ColId* h) {
  const Op& p1 = dag.op(id);
  if (p1.kind != OpKind::kProject || p1.proj.size() != 1 ||
      p1.proj[0] != std::make_pair(g, g)) {
    return false;
  }
  const Op& d = dag.op(p1.children[0]);
  if (d.kind != OpKind::kDistinct) return false;
  const Op& p2 = dag.op(d.children[0]);
  if (p2.kind != OpKind::kProject || p2.proj.size() != 2) return false;
  const auto& [a, a_old] = p2.proj[0];
  const auto& [b, b_old] = p2.proj[1];
  if (a != a_old || b != b_old || (a != g && b != g) || a == b) return false;
  const Op& t = dag.op(p2.children[0]);
  if (t.kind != OpKind::kThetaJoin) return false;
  *tj = p2.children[0];
  *h = a == g ? b : a;
  return dag.op(t.children[0]).HasCol(g) != dag.op(t.children[0]).HasCol(*h);
}

// Re-proves a re-rooted for-loop return, independently of the join
// planner (opt/join_plan.cc) that built it. The replacement must rebuild
// the recognized anchor operator for operator, substituting exactly
// these leaves over the renumbered survivors R = % s2:<o, c>(keep) (a #
// s2 where o is an arbitrary-order column), keep holding the (outer
// iteration o, rid c) survivor pairs of value joins:
//   π{iter1X:iter, bindX:bind}(N)  the map    -> π{iter1X:o, bindX:s2}(R)
//   π{iter}(SEL)                   the loop   -> π{iter:s2}(R)
//   ⋈ iter=iterR(X, π{iterR:iter}(SEL)), or a projection of it
//                                  a binding  -> the same columns of
//                                  ⋈ iter=tr(X', π{s2, tr:c}(R)), iter and
//                                  iterR read as s2
// where X' is X over document-level rids: items_s / loop_s become
// π{iter:rid[, item]}(# rid(N's steps from the document root)). A
// constant attached to the body that nothing above it reads is left
// out. Every operator the two plans share must be a fixed table —
// nothing that reaches the S-space numbering N survives untouched.
class ReturnProof {
 public:
  ReturnProof(const Dag& dag, FactsAudit* audit) : dag_(dag), audit_(audit) {}

  // Empty when `to` rebuilds `from` faithfully; otherwise the reason.
  std::string Check(OpId from, OpId to) {
    // The re-attaching join below the anchor and an optional numbering,
    // mirrored on the replacement side.
    OpId fj = op(from).children[0];
    OpId tj = op(to).children[0];
    if (IsNum(fj) && IsNum(tj)) {
      fj = op(fj).children[0];
      tj = op(tj).children[0];
    }
    const Op& j = op(fj);
    if (j.kind != OpKind::kEquiJoin || j.value_join ||
        j.col != col::iter() || op(tj).kind != OpKind::kEquiJoin) {
      return "the anchor does not re-attach a for-loop return";
    }
    map_s_ = j.children[1];
    const Op& map = op(map_s_);
    ColId iter1x = kNoCol;
    for (const auto& [n, o] : map.proj) {
      if (o == col::iter()) iter1x = n;
    }
    n_ = map.kind == OpKind::kProject ? map.children[0] : kNoOp;
    if (n_ == kNoOp || !IsNum(n_) || iter1x == kNoCol ||
        !Proj(map_s_, {{iter1x, col::iter()}, {j.col2, op(n_).col}})) {
      return "the return is not re-attached through the bind numbering";
    }
    map2_ = op(tj).children[1];
    const Op& m2 = op(map2_);
    ColId o = Old(m2, iter1x);
    s2_ = Old(m2, j.col2);
    r_ = m2.kind == OpKind::kProject ? m2.children[0] : kNoOp;
    if (r_ == kNoOp || m2.proj.size() != 2 || o == kNoCol || !IsNum(r_) ||
        op(r_).col != s2_) {
      return "the map is not re-attached to the renumbered survivors";
    }
    const Op& r = op(r_);
    const Op& keep = op(r.children[0]);
    if (keep.schema.size() != 2 || !keep.HasCol(o)) {
      return "the renumbered survivors are not (outer iteration, rid) pairs";
    }
    c_ = keep.schema[0] == o ? keep.schema[1] : keep.schema[0];
    bool renumbered =
        (r.kind == OpKind::kRowNum && r.part == kNoCol &&
         r.order == std::vector<SortKey>{{o, false}, {c_, false}}) ||
        (r.kind == OpKind::kRowId && !r.positional &&
         audit_->Get(r.children[0]).arbitrary.count(o) != 0);
    if (!renumbered) {
      return "survivors are not renumbered by (outer iteration, rid)";
    }
    if (!SurvivorPairs(r.children[0], o, c_)) {
      return "the renumbered pairs are not value-join survivors";
    }
    // The rebuild leaves out a constant attached to the body that
    // nothing above it reads.
    const Op& fb = op(j.children[0]);
    const Op* lit = fb.kind == OpKind::kCross ? &op(fb.children[1]) : nullptr;
    if (lit != nullptr && lit->kind == OpKind::kLit &&
        lit->lit.rows.size() == 1) {
      std::vector<ColId> read{col::iter()};
      for (const auto& e : op(from).proj) read.push_back(e.second);
      if (fj != op(from).children[0]) {
        for (const SortKey& k : op(op(from).children[0]).order) {
          read.push_back(k.col);
        }
      }
      bool dead = true;
      for (ColId c : lit->schema) {
        dead = dead && std::find(read.begin(), read.end(), c) == read.end();
      }
      if (dead) dropped_ = j.children[0];
    }
    if (!Mirror(from, to)) return "the rebuilt body differs: " + why_;
    if (sel_ == kNoOp) return "no survivor leaf was substituted";
    return {};
  }

 private:
  const Op& op(OpId id) const { return dag_.op(id); }
  bool IsNum(OpId id) const {
    return op(id).kind == OpKind::kRowNum || op(id).kind == OpKind::kRowId;
  }
  static ColId Old(const Op& p, ColId n) {
    for (const auto& [nn, o] : p.proj) {
      if (nn == n) return o;
    }
    return kNoCol;
  }
  bool Proj(OpId id, std::vector<std::pair<ColId, ColId>> want) const {
    const Op& p = op(id);
    if (p.kind != OpKind::kProject) return false;
    std::sort(want.begin(), want.end());
    auto have = p.proj;
    std::sort(have.begin(), have.end());
    return have == want;
  }

  bool Reaches(OpId id) {
    if (id <= n_) return id == n_;
    if (auto it = reach_.find(id); it != reach_.end()) return it->second;
    bool r = false;
    for (OpId c : op(id).children) r = r || Reaches(c);
    return reach_[id] = r;
  }

  // Distinct(π{o, c}(value join)), or a semijoin intersecting such sets.
  bool SurvivorPairs(OpId id, ColId o, ColId c) const {
    const Op& k = op(id);
    if (k.kind == OpKind::kSemiJoin) {
      return k.keys == std::vector<ColId>{o, c} &&
             SurvivorPairs(k.children[0], o, c) &&
             SurvivorPairs(k.children[1], o, c);
    }
    if (k.kind != OpKind::kDistinct) return false;
    const Op& p = op(k.children[0]);
    if (p.kind != OpKind::kProject || p.proj.size() != 2 ||
        Old(p, o) == kNoCol || Old(p, c) == kNoCol) {
      return false;
    }
    const Op& vj = op(p.children[0]);
    return vj.kind == OpKind::kThetaJoin ||
           (vj.kind == OpKind::kEquiJoin && vj.value_join);
  }

  // The predicate Select a survivor leaf filters by: one for the whole
  // body.
  bool UseSel(OpId sel) {
    if (op(sel).kind != OpKind::kSelect) return false;
    if (sel_ == kNoOp) sel_ = sel;
    return sel_ == sel;
  }

  bool Fail(std::string why) {
    if (why_.empty()) why_ = std::move(why);
    return false;
  }

  // Whether b2 rebuilds b: in the anchor and body, or (`side`) in a
  // binding's companion X, whose leaves differ.
  bool Mirror(OpId b, OpId b2, bool side = false) {
    auto key = std::make_tuple(b, b2, side);
    if (auto it = memo_.find(key); it != memo_.end()) return it->second;
    std::optional<bool> leaf = side ? SideLeaf(b, b2) : BodyLeaf(b, b2);
    bool ok = leaf ? *leaf : MirrorOp(b, b2, side);
    memo_[key] = ok;
    return ok;
  }

  bool MirrorOp(OpId b, OpId b2, bool side) {
    if (b == b2) {
      return !Reaches(b) || Fail("op " + std::to_string(b) +
                                 " still reaches the product space");
    }
    const Op& x = op(b);
    const Op& y = op(b2);
    if (!SamePayload(x, y) || x.children.size() != y.children.size()) {
      return Fail("op " + std::to_string(b2) + " (" + OpKindName(y.kind) +
                  ") does not rebuild op " + std::to_string(b) + " (" +
                  OpKindName(x.kind) + ")");
    }
    for (size_t i = 0; i < x.children.size(); ++i) {
      if (!Mirror(x.children[i], y.children[i], side)) return false;
    }
    return true;
  }

  // The body's leaves; nullopt where b is none.
  std::optional<bool> BodyLeaf(OpId b, OpId b2) {
    if (b == dropped_) return Mirror(op(b).children[0], b2);
    const Op& x = op(b);
    const Op& y = op(b2);
    if (b == map_s_) {
      return b2 == map2_ || Fail("op " + std::to_string(b2) +
                                 " stands for the map but is not the "
                                 "survivors' map");
    }
    if (x.kind == OpKind::kProject && x.proj.size() == 1 &&
        x.proj[0] == std::make_pair(col::iter(), col::iter()) &&
        op(x.children[0]).kind == OpKind::kSelect) {
      if (!UseSel(x.children[0])) return Fail("a second survivor set");
      return (y.kind == OpKind::kProject && y.children[0] == r_ &&
              Proj(b2, {{col::iter(), s2_}})) ||
             Fail("op " + std::to_string(b2) +
                  " stands for the survivor loop but is not π{iter:s2}");
    }
    // A binding — or a projection of one, folded into it — becomes the
    // same columns over the survivor join, its iterations renamed to s2.
    OpId bind = IsBinding(b) ? b
                : x.kind == OpKind::kProject && IsBinding(x.children[0])
                    ? x.children[0]
                    : kNoOp;
    if (bind == kNoOp) return std::nullopt;
    std::vector<std::pair<ColId, ColId>> want;
    if (bind == b) {
      for (ColId c : x.schema) want.emplace_back(c, c);
    } else {
      want = x.proj;
    }
    for (auto& [n, o] : want) {
      if (o == col::iter() || o == op(bind).col2) o = s2_;
    }
    if (!Proj(b2, want)) {
      return Fail("op " + std::to_string(b2) +
                  " stands for a filtered binding but is not one over the "
                  "survivors");
    }
    // ⋈ iter=tr(X', π{s2, tr:c}(R)).
    const Op& yj = op(y.children[0]);
    if (yj.kind != OpKind::kEquiJoin || yj.value_join ||
        yj.col != col::iter() || op(yj.children[1]).children.empty() ||
        op(yj.children[1]).children[0] != r_ ||
        !Proj(yj.children[1], {{s2_, s2_}, {yj.col2, c_}})) {
      return Fail("op " + std::to_string(b2) +
                  " does not join a binding down to the survivors");
    }
    return Mirror(op(bind).children[0], yj.children[0], /*side=*/true);
  }

  // ⋈ iter=iterR(X, π{iterR:iter}(SEL)): a filtered binding of the loop.
  bool IsBinding(OpId id) {
    const Op& x = op(id);
    if (x.kind != OpKind::kEquiJoin || x.value_join ||
        x.col != col::iter() || !Proj(x.children[1], {{x.col2, col::iter()}})) {
      return false;
    }
    return UseSel(op(x.children[1]).children[0]) ||
           Fail("a second survivor set");
  }

  // The companion's leaves, items_s and loop_s over N; nullopt where b is
  // neither.
  std::optional<bool> SideLeaf(OpId b, OpId b2) {
    ColId bind = op(n_).col;
    bool items = Proj(b, {{col::iter(), bind}, {col::item(), col::item()}});
    bool loop = Proj(b, {{col::iter(), bind}});
    if (op(b).children.empty() || op(b).children[0] != n_ ||
        !(items || loop)) {
      return std::nullopt;
    }
    const Op& y = op(b2);
    const Op& rid = op(y.children.empty() ? b2 : y.children[0]);
    bool ok = y.kind == OpKind::kProject && rid.kind == OpKind::kRowId &&
              (items ? Proj(b2, {{col::iter(), rid.col},
                                 {col::item(), col::item()}})
                     : Proj(b2, {{col::iter(), rid.col}})) &&
              SameDocumentItems(rid.children[0]);
    return ok || Fail("op " + std::to_string(b2) +
                      " does not number the document-level items");
  }

  // `chain` steps N's location path from a one-iteration document root.
  bool SameDocumentItems(OpId chain) const {
    auto steps = [&](OpId id, std::vector<const Op*>* out) {
      while (op(id).kind == OpKind::kStep) {
        out->push_back(&op(id));
        id = op(id).children[0];
      }
      return id;
    };
    OpId s = n_;
    while (IsNum(s)) s = op(s).children[0];
    std::vector<const Op*> want, have;
    steps(s, &want);
    const Op& base = op(steps(chain, &have));
    if (want.size() != have.size() || base.kind != OpKind::kCross ||
        op(base.children[1]).kind != OpKind::kDoc) {
      return false;
    }
    const Op& one = op(base.children[0]);
    if (one.kind != OpKind::kLit || one.lit.rows.size() != 1 ||
        one.lit.cols != std::vector<ColId>{col::iter()}) {
      return false;
    }
    for (size_t i = 0; i < want.size(); ++i) {
      if (want[i]->axis != have[i]->axis || !(want[i]->test == have[i]->test)) {
        return false;
      }
    }
    return true;
  }

  const Dag& dag_;
  FactsAudit* audit_;
  OpId map_s_ = kNoOp;
  OpId map2_ = kNoOp;
  OpId n_ = kNoOp;
  OpId r_ = kNoOp;
  OpId sel_ = kNoOp;
  OpId dropped_ = kNoOp;  // the body's dead attached constant
  ColId s2_ = kNoCol;
  ColId c_ = kNoCol;
  std::string why_;
  std::map<OpId, bool> reach_;
  std::map<std::tuple<OpId, OpId, bool>, bool> memo_;
};

}  // namespace

std::vector<std::string> CertificateRules() {
  std::vector<std::string> rules;
  for (const FamilyObligation& f : kFamilies) rules.emplace_back(f.family);
  return rules;
}

Result<CertifySettings> ResolveCertify(const CertifySettings& options) {
  CertifySettings r = options;
  if (r.mode != CertifyMode::kDefault) return r;
  r.mode = CertifyMode::kCheck;
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env lookup at resolve
  const char* env = std::getenv("EXRQUY_CERTIFY");
  if (env == nullptr) return r;
  std::string v(env);
  if (v == "off" || v == "0") {
    r.mode = CertifyMode::kOff;
  } else if (v == "strict") {
    r.mode = CertifyMode::kStrict;
  } else if (v == "spot") {
    r.mode = CertifyMode::kStrict;
    r.spot_check = true;
  } else if (!v.empty() && v != "on" && v != "check") {
    return InvalidArgument(
        "EXRQUY_CERTIFY: expected off, 0, on, check, strict or spot, got \"" +
        v + "\"");
  }
  return r;
}

const char* CitedFactKindName(CitedFact::Kind kind) {
  switch (kind) {
    case CitedFact::Kind::kKey:
      return "key";
    case CitedFact::Kind::kConstant:
      return "constant";
    case CitedFact::Kind::kArbitrary:
      return "arbitrary-order";
    case CitedFact::Kind::kInterval:
      return "interval";
    case CitedFact::Kind::kSorted:
      return "sorted-prefix";
    case CitedFact::Kind::kNoRaise:
      return "no-raise";
    case CitedFact::Kind::kKindClass:
      return "kind-class";
    case CitedFact::Kind::kScaffoldFree:
      return "scaffold-free";
    case CitedFact::Kind::kDeadColumn:
      return "dead-column";
    case CitedFact::Kind::kUnobserved:
      return "unobserved";
    case CitedFact::Kind::kStructural:
      return "structural";
  }
  return "?";
}

CitedFact CiteKey(OpId op, ColId col) {
  CitedFact f;
  f.kind = CitedFact::Kind::kKey;
  f.op = op;
  f.col = col;
  f.text = "key(" + ColName(col) + ")" + AtOp(op);
  return f;
}

CitedFact CiteConstant(OpId op, ColId col) {
  CitedFact f;
  f.kind = CitedFact::Kind::kConstant;
  f.op = op;
  f.col = col;
  f.text = "constant(" + ColName(col) + ")" + AtOp(op);
  return f;
}

CitedFact CiteArbitrary(OpId op, ColId col) {
  CitedFact f;
  f.kind = CitedFact::Kind::kArbitrary;
  f.op = op;
  f.col = col;
  f.text = "arbitrary-order(" + ColName(col) + ")" + AtOp(op);
  return f;
}

CitedFact CiteInterval(OpId op, uint64_t min_rows, uint64_t max_rows) {
  CitedFact f;
  f.kind = CitedFact::Kind::kInterval;
  f.op = op;
  f.min_rows = min_rows;
  f.max_rows = max_rows;
  f.text = "rows[" + RowBound(min_rows) + "," + RowBound(max_rows) + "]" +
           AtOp(op);
  return f;
}

CitedFact CiteSorted(OpId op, std::vector<SortKey> order) {
  CitedFact f;
  f.kind = CitedFact::Kind::kSorted;
  f.op = op;
  f.text = "sorted " + OrderFact{order, false}.ToString() + AtOp(op);
  f.order = std::move(order);
  return f;
}

CitedFact CiteNoRaise(OpId op) {
  CitedFact f;
  f.kind = CitedFact::Kind::kNoRaise;
  f.op = op;
  f.text = "no-raise" + AtOp(op);
  return f;
}

CitedFact CiteKindClass(OpId op, ColId col, ItemKind kind_class) {
  CitedFact f;
  f.kind = CitedFact::Kind::kKindClass;
  f.op = op;
  f.col = col;
  f.kind_class = kind_class;
  f.text = "kind(" + ColName(col) + ")<=" + ItemKindName(kind_class) +
           AtOp(op);
  return f;
}

CitedFact CiteScaffoldFree(OpId op, ColId col) {
  CitedFact f;
  f.kind = CitedFact::Kind::kScaffoldFree;
  f.op = op;
  f.col = col;
  f.text = "scaffold-free(" + ColName(col) + ")" + AtOp(op);
  return f;
}

CitedFact CiteDeadColumn(OpId op, ColId col) {
  CitedFact f;
  f.kind = CitedFact::Kind::kDeadColumn;
  f.op = op;
  f.col = col;
  f.text = "dead(" + ColName(col) + ")" + AtOp(op);
  return f;
}

CitedFact CiteUnobserved(OpId op, ColId col) {
  CitedFact f;
  f.kind = CitedFact::Kind::kUnobserved;
  f.op = op;
  f.col = col;
  f.text = "unobserved(" + ColName(col) + ")" + AtOp(op);
  return f;
}

CitedFact CiteStructural(OpId op, std::string text) {
  CitedFact f;
  f.kind = CitedFact::Kind::kStructural;
  f.op = op;
  f.text = std::move(text) + AtOp(op);
  return f;
}

CertifyChecker::CertifyChecker(const Dag* dag, PlanFacts* facts,
                               OpId pass_root, std::string force_reject_rule)
    : dag_(dag),
      pass_root_(pass_root),
      force_reject_rule_(std::move(force_reject_rule)),
      facts_(*facts),
      audit_(facts->audit) {}

bool CertifyChecker::Fail(RewriteCertificate* cert, const char* obligation,
                          const std::string& detail) {
  cert->valid = false;
  cert->obligation = obligation;
  cert->diagnostic = "certify: [" + std::string(obligation) + "] " +
                     cert->rule + " op " + std::to_string(cert->from) +
                     " -> op " + std::to_string(cert->to) + ": " + detail;
  return false;
}

bool CertifyChecker::ValidateCited(RewriteCertificate* cert,
                                   const char* obligation) {
  for (const CitedFact& f : cert->cited) {
    auto bad = [&](const std::string& why) {
      return Fail(cert, obligation,
                  "cited " + std::string(CitedFactKindName(f.kind)) +
                      " fact '" + f.text + "' " + why);
    };
    switch (f.kind) {
      case CitedFact::Kind::kKey:
        if (audit_.Get(f.op).keys.count(f.col) == 0) {
          return bad("is not derivable: the column is not provably "
                     "duplicate-free");
        }
        break;
      case CitedFact::Kind::kConstant:
        if (audit_.Get(f.op).constant.count(f.col) == 0) {
          return bad("is not derivable: the column is not provably "
                     "constant");
        }
        break;
      case CitedFact::Kind::kArbitrary:
        if (audit_.Get(f.op).arbitrary.count(f.col) == 0) {
          return bad("is not derivable: the column is not provably "
                     "order-meaningless");
        }
        break;
      case CitedFact::Kind::kInterval: {
        const OpFacts& d = audit_.Get(f.op);
        if (f.min_rows > d.min_rows || f.max_rows < d.max_rows) {
          return bad("is not derivable: derived bounds [" +
                     RowBound(d.min_rows) + "," + RowBound(d.max_rows) +
                     "] are not contained in the cited interval");
        }
        break;
      }
      case CitedFact::Kind::kSorted:
        if (!SortedCovers(audit_.Get(f.op), f.order)) {
          return bad("is not derivable: no derived sorted-prefix fact "
                     "covers the cited order");
        }
        break;
      case CitedFact::Kind::kNoRaise:
        if (audit_.MayRaise(f.op)) {
          return bad("is not derivable: evaluating the operator may "
                     "raise a dynamic error");
        }
        break;
      case CitedFact::Kind::kKindClass:
        if (!KindLe(KindAt(audit_.Get(f.op), f.col), f.kind_class)) {
          return bad("is not derivable: the derived kind '" +
                     std::string(ItemKindName(
                         KindAt(audit_.Get(f.op), f.col))) +
                     "' exceeds the cited class");
        }
        break;
      case CitedFact::Kind::kScaffoldFree:
        if (audit_.Scaffolding(f.op).count(f.col) != 0) {
          return bad("is not derivable: the column carries iteration/"
                     "order scaffolding");
        }
        break;
      case CitedFact::Kind::kDeadColumn: {
        const PlanFacts::RootColumns& live = facts_.AuditLive(pass_root_);
        if (!std::binary_search(live.region.begin(), live.region.end(),
                                f.op)) {
          return bad("names an operator outside the pre-pass region");
        }
        if (live.cols[f.op].count(f.col) != 0) {
          return bad("is not derivable: the reference liveness walk "
                     "demands the column");
        }
        break;
      }
      case CitedFact::Kind::kUnobserved: {
        const PlanFacts::RootColumns& seen =
            facts_.AuditObserved(pass_root_);
        if (!std::binary_search(seen.region.begin(), seen.region.end(),
                                f.op)) {
          return bad("names an operator outside the pre-pass region");
        }
        if (seen.cols[f.op].count(f.col) != 0) {
          return bad("is not derivable: the reference identity walk "
                     "finds a consumer that inspects the column");
        }
        break;
      }
      case CitedFact::Kind::kStructural:
        break;  // re-checked by the family template below
    }
  }
  return true;
}

bool CertifyChecker::CheckFamily(RewriteCertificate* cert) {
  const char* ob = ObligationFor(cert->rule);
  const Op& from = dag_->op(cert->from);
  const Op& to = dag_->op(cert->to);

  if (cert->rule == "column_pruning") {
    size_t dead = 0;
    for (const CitedFact& f : cert->cited) {
      if (f.kind != CitedFact::Kind::kDeadColumn) {
        return Fail(cert, ob, "unexpected cited fact '" + f.text + "'");
      }
      if (f.op != cert->from) {
        return Fail(cert, ob,
                    "cited fact '" + f.text +
                        "' does not name the rewritten operator");
      }
      ++dead;
    }
    if (dead == 0) {
      return Fail(cert, ob, "no dropped column is cited");
    }
    return true;
  }

  if (cert->rule == "union_empty_branch") {
    if (from.kind != OpKind::kUnion) {
      return Fail(cert, ob, "the rewritten operator is not a Union");
    }
    bool branch_ok = false;
    for (const CitedFact& f : cert->cited) {
      if (f.kind == CitedFact::Kind::kDeadColumn && f.op != cert->from) {
        return Fail(cert, ob,
                    "cited fact '" + f.text +
                        "' does not name the rewritten operator");
      }
      if (f.kind != CitedFact::Kind::kInterval) continue;
      const Op& branch = dag_->op(f.op);
      if (f.max_rows != 0) {
        return Fail(cert, ob,
                    "cited interval '" + f.text + "' does not pin the "
                    "branch to zero rows");
      }
      if (branch.kind != OpKind::kLit || !branch.lit.rows.empty()) {
        return Fail(cert, ob,
                    "dropped branch op " + std::to_string(f.op) +
                        " is not an empty literal");
      }
      branch_ok = true;
    }
    if (!branch_ok) {
      return Fail(cert, ob, "no empty branch is cited");
    }
    return true;
  }

  if (cert->rule == "distinct_elimination") {
    if (from.kind != OpKind::kDistinct) {
      return Fail(cert, ob, "the rewritten operator is not a Distinct");
    }
    std::vector<OpId> leaves;
    if (!StepLeaves(*dag_, cert->to, &leaves) || leaves.empty()) {
      return Fail(cert, ob,
                  "the replacement is not a (union of) location steps");
    }
    for (size_t i = 0; i < leaves.size(); ++i) {
      for (size_t j = i + 1; j < leaves.size(); ++j) {
        if (leaves[i] == leaves[j]) {
          return Fail(cert, ob,
                      "step op " + std::to_string(leaves[i]) +
                          " occurs twice: the union can duplicate rows");
        }
        if (!DisjointSteps(*dag_, leaves[i], leaves[j])) {
          return Fail(cert, ob,
                      "steps op " + std::to_string(leaves[i]) + " and op " +
                          std::to_string(leaves[j]) +
                          " are not provably disjoint");
        }
      }
    }
    return true;
  }

  if (cert->rule == "distinct_by_keys") {
    if (from.kind != OpKind::kDistinct) {
      return Fail(cert, ob, "the rewritten operator is not a Distinct");
    }
    for (const CitedFact& f : cert->cited) {
      bool licensing =
          (f.kind == CitedFact::Kind::kKey ||
           (f.kind == CitedFact::Kind::kInterval && f.max_rows <= 1));
      if (licensing && f.op == cert->to) return true;
    }
    return Fail(cert, ob,
                "no key or at-most-one-row fact is cited for the "
                "before input");
  }

  if (cert->rule == "empty_short_circuit") {
    bool interval = false;
    bool no_raise = false;
    for (const CitedFact& f : cert->cited) {
      if (f.op != cert->from) continue;
      if (f.kind == CitedFact::Kind::kInterval && f.max_rows == 0) {
        interval = true;
      }
      if (f.kind == CitedFact::Kind::kNoRaise) no_raise = true;
    }
    if (!interval) {
      return Fail(cert, ob, "no zero-row interval fact is cited");
    }
    if (!no_raise) {
      return Fail(cert, ob, "no error-capability fact is cited");
    }
    if (to.kind != OpKind::kLit || !to.lit.rows.empty()) {
      return Fail(cert, ob, "the replacement is not an empty literal");
    }
    if (to.schema != from.schema) {
      return Fail(cert, ob,
                  "the replacement's schema differs from the original");
    }
    return true;
  }

  if (cert->rule == "keyed-partition") {
    if (from.kind != OpKind::kRowNum) {
      return Fail(cert, ob, "the rewritten operator is not a %");
    }
    // AttachConst shape: Cross(input, one-row literal {rank: 1}).
    if (to.kind != OpKind::kCross) {
      return Fail(cert, ob, "the replacement is not an attached constant");
    }
    const Op& lit = dag_->op(to.children[1]);
    if (lit.kind != OpKind::kLit || lit.lit.rows.size() != 1 ||
        lit.lit.cols != std::vector<ColId>{from.col} ||
        !(lit.lit.rows[0][0] == Value::Int(1))) {
      return Fail(cert, ob,
                  "the replacement does not attach the constant rank 1");
    }
    OpId in = to.children[0];
    for (const CitedFact& f : cert->cited) {
      if (f.op != in) continue;
      if (f.kind == CitedFact::Kind::kKey && f.col == from.part) {
        return true;
      }
      if (f.kind == CitedFact::Kind::kInterval && f.max_rows <= 1) {
        return true;
      }
    }
    return Fail(cert, ob,
                "no singleton-partition fact is cited for the input");
  }

  if (cert->rule == "weaken_rownum") {
    if (from.kind != OpKind::kRowNum || to.kind != OpKind::kRowNum ||
        to.col != from.col) {
      return Fail(cert, ob, "the replacement is not a weakened %");
    }
    OpId in = to.children[0];
    const OpFacts& fin = audit_.Get(in);
    // The surviving criteria must be a subsequence of the original ones;
    // every dropped criterion must be derivably constant.
    size_t ti = 0;
    for (const SortKey& k : from.order) {
      if (ti < to.order.size() && to.order[ti] == k) {
        ++ti;
        continue;
      }
      if (fin.constant.count(k.col) == 0) {
        return Fail(cert, ob,
                    "dropped criterion '" + ColName(k.col) +
                        "' is not derivably constant");
      }
    }
    if (ti != to.order.size()) {
      return Fail(cert, ob,
                  "the surviving criteria are not a subsequence of the "
                  "original ones");
    }
    if (to.part != from.part) {
      if (to.part != kNoCol || from.part == kNoCol ||
          fin.constant.count(from.part) == 0) {
        return Fail(cert, ob,
                    "dropped grouping column is not derivably constant");
      }
    }
    return true;
  }

  if (cert->rule == "order-dependency" && to.kind == OpKind::kRowNum) {
    if (from.kind != OpKind::kRowNum || !to.presorted || from.presorted ||
        to.col != from.col || to.part != from.part ||
        to.order != from.order ||
        !SortedCovers(audit_.Get(to.children[0]), RowNumSortKeys(from))) {
      return Fail(cert, ob,
                  "the replacement is not the same % marked presorted over "
                  "an input derivably sorted by the partition and the "
                  "criteria");
    }
    return true;
  }

  if (cert->rule == "arbitrary-order" || cert->rule == "order-dependency") {
    if (from.kind != OpKind::kRowNum) {
      return Fail(cert, ob, "the rewritten operator is not a %");
    }
    bool positional = cert->rule == "order-dependency";
    if (to.kind != OpKind::kRowId || to.col != from.col ||
        to.positional != positional) {
      return Fail(cert, ob,
                  positional
                      ? "the replacement is not a positional #"
                      : "the replacement is not an arbitrary #");
    }
    OpId in = to.children[0];
    const OpFacts& fin = audit_.Get(in);
    if (from.part != kNoCol && fin.constant.count(from.part) == 0) {
      return Fail(cert, ob,
                  "grouping column '" + ColName(from.part) +
                      "' is not derivably constant");
    }
    if (positional) {
      if (!SortedCovers(fin, from.order)) {
        return Fail(cert, ob,
                    "the requested order is not covered by any derivable "
                    "sorted-prefix fact");
      }
      return true;
    }
    // Arbitrary #: after removing the cited constant criteria (each
    // independently re-derived above), either nothing remains or the
    // leading criterion is order-meaningless.
    ColSet cited_const;
    for (const CitedFact& f : cert->cited) {
      if (f.kind == CitedFact::Kind::kConstant) cited_const.insert(f.col);
    }
    std::vector<SortKey> eff;
    for (const SortKey& k : from.order) {
      if (cited_const.count(k.col) == 0) eff.push_back(k);
    }
    if (!eff.empty() && fin.arbitrary.count(eff.front().col) == 0) {
      return Fail(cert, ob,
                  "leading criterion '" + ColName(eff.front().col) +
                      "' is not derivably order-meaningless");
    }
    return true;
  }

  if (cert->rule == "step_merging") {
    if (from.kind != OpKind::kStep ||
        (from.axis != Axis::kChild && from.axis != Axis::kDescendant &&
         from.axis != Axis::kDescendantOrSelf)) {
      return Fail(cert, ob, "the rewritten operator is not a mergeable "
                            "location step");
    }
    OpId mid = kNoOp;
    for (const CitedFact& f : cert->cited) {
      if (f.kind == CitedFact::Kind::kStructural) mid = f.op;
    }
    if (mid == kNoOp) {
      return Fail(cert, ob, "no merged-away step is cited");
    }
    const Op& m = dag_->op(mid);
    if (m.kind != OpKind::kStep || m.axis != Axis::kDescendantOrSelf ||
        m.test.kind != NodeTest::Kind::kAnyKind) {
      return Fail(cert, ob,
                  "cited op " + std::to_string(mid) +
                      " is not a descendant-or-self::node() step");
    }
    Axis want = from.axis == Axis::kDescendantOrSelf
                    ? Axis::kDescendantOrSelf
                    : Axis::kDescendant;
    if (to.kind != OpKind::kStep || to.children[0] != m.children[0] ||
        to.axis != want || !(to.test == from.test)) {
      return Fail(cert, ob,
                  "the replacement step does not merge the cited "
                  "descendant-or-self::node() exactly");
    }
    return true;
  }

  if (cert->rule == "join_recognition") {
    if (from.kind != OpKind::kProject) {
      return Fail(cert, ob, "the rewritten operator is not a join anchor");
    }
    bool cited_scaffold = false;
    for (const CitedFact& f : cert->cited) {
      cited_scaffold |= f.kind == CitedFact::Kind::kScaffoldFree;
    }
    if (!cited_scaffold) {
      return Fail(cert, ob, "no scaffold-free fact is cited");
    }
    // Re-derive the isolation and kind gates for every value join in the
    // replacement region, independently of what the certificate cites.
    size_t joins = 0;
    for (OpId id : dag_->ReachableFrom(cert->to)) {
      const Op& op = dag_->op(id);
      bool theta = op.kind == OpKind::kThetaJoin;
      bool value_equi = op.kind == OpKind::kEquiJoin && op.value_join;
      if (!theta && !value_equi) continue;
      ++joins;
      if (audit_.Scaffolding(op.children[0]).count(op.col) != 0 ||
          audit_.Scaffolding(op.children[1]).count(op.col2) != 0) {
        return Fail(cert, ob,
                    "join op " + std::to_string(id) +
                        " predicate touches a scaffolding column");
      }
      ItemKind lk = KindAt(audit_.Get(op.children[0]), op.col);
      ItemKind rk = KindAt(audit_.Get(op.children[1]), op.col2);
      if (value_equi) {
        bool safe = lk == rk && (lk == ItemKind::kInt ||
                                 lk == ItemKind::kString ||
                                 lk == ItemKind::kBool);
        if (!safe) {
          return Fail(cert, ob,
                      "join op " + std::to_string(id) +
                          " hash-equality over kinds '" +
                          ItemKindName(lk) + "'/'" + ItemKindName(rk) +
                          "' does not coincide with the eq comparison");
        }
      } else {
        bool comparable = lk != ItemKind::kNode && lk != ItemKind::kAny &&
                          rk != ItemKind::kNode && rk != ItemKind::kAny;
        if (!comparable) {
          return Fail(cert, ob,
                      "join op " + std::to_string(id) +
                          " theta comparison over kinds '" +
                          ItemKindName(lk) + "'/'" + ItemKindName(rk) +
                          "' is not statically comparable");
        }
      }
    }
    if (joins == 0) {
      return Fail(cert, ob, "the replacement contains no value join");
    }
    // A re-rooted for-loop return keeps the anchor's own projection; the
    // predicate anchors re-attach the outer iteration instead.
    const Op& to = dag_->op(cert->to);
    if (to.kind == OpKind::kProject && to.proj == from.proj) {
      std::string why = ReturnProof(*dag_, &audit_).Check(cert->from,
                                                          cert->to);
      if (!why.empty()) return Fail(cert, ob, why);
    }
    return true;
  }

  if (cert->rule == "theta-count") {
    if (from.kind != OpKind::kAggr || from.aggr != AggrKind::kCount ||
        from.part == kNoCol) {
      return Fail(cert, ob, "the rewritten operator is not a grouped count");
    }
    const ColId g = from.part;
    OpId tj = kNoOp;
    ColId h = kNoCol;
    OpId x = kNoOp;  // the key semijoin's far side, if any
    ColId k = kNoCol;
    if (!CountShape(*dag_, from.children[0], g, &tj, &h)) {
      const Op& p = dag_->op(from.children[0]);
      if (p.kind != OpKind::kProject || p.proj.size() != 1 ||
          p.proj[0] != std::make_pair(g, g) ||
          dag_->op(p.children[0]).kind != OpKind::kEquiJoin ||
          dag_->op(p.children[0]).value_join) {
        return Fail(cert, ob,
                    "the count's input is neither a fusable distinct "
                    "theta-join projection nor a key semijoin over one");
      }
      const Op& j = dag_->op(p.children[0]);
      size_t side = j.col == g ? 0 : 1;
      x = j.children[1 - side];
      k = side == 0 ? j.col2 : j.col;
      if ((side == 0 ? j.col : j.col2) != g ||
          !CountShape(*dag_, j.children[side], g, &tj, &h)) {
        return Fail(cert, ob,
                    "the joined input is not a fusable distinct "
                    "theta-join projection");
      }
      if (dag_->op(x).schema != std::vector<ColId>{k}) {
        return Fail(cert, ob,
                    "the semijoin side carries columns besides its key '" +
                        ColName(k) + "'");
      }
      if (audit_.Get(x).keys.count(k) == 0) {
        return Fail(cert, ob,
                    "the semijoin side is not keyed on '" + ColName(k) +
                        "': the join can repeat a group");
      }
    }
    const Op& t = dag_->op(tj);
    if (t.fun != FunKind::kLt && t.fun != FunKind::kLe &&
        t.fun != FunKind::kGt && t.fun != FunKind::kGe) {
      return Fail(cert, ob,
                  std::string("relation '") + FunKindName(t.fun) +
                      "' is not an order relation: no extremes decide it");
    }
    ItemKind lk = KindAt(audit_.Get(t.children[0]), t.col);
    ItemKind rk = KindAt(audit_.Get(t.children[1]), t.col2);
    if (!OneComparisonClass(lk, rk)) {
      return Fail(cert, ob,
                  "keys of kinds '" + std::string(ItemKindName(lk)) +
                      "'/'" + ItemKindName(rk) +
                      "' do not share one totally ordered class");
    }
    size_t gs = dag_->op(t.children[0]).HasCol(g) ? 0 : 1;
    if (KindAt(audit_.Get(t.children[gs]), g) != ItemKind::kInt ||
        KindAt(audit_.Get(t.children[1 - gs]), h) != ItemKind::kInt) {
      return Fail(cert, ob, "the group columns are not statically integers");
    }
    // The replacement: exactly the fused count of this join, grouped by
    // g and counting h, under the semijoin when one was crossed.
    OpId tc = cert->to;
    if (x != kNoOp) {
      const Op& sj = to;
      const Op* xr = sj.children.size() == 2 ? &dag_->op(sj.children[1])
                                             : nullptr;
      if (sj.kind != OpKind::kSemiJoin || sj.keys != std::vector<ColId>{g} ||
          xr == nullptr || xr->kind != OpKind::kProject ||
          xr->children[0] != x ||
          xr->proj != std::vector<std::pair<ColId, ColId>>{{g, k}}) {
        return Fail(cert, ob,
                    "the replacement is not a semijoin of the fused count "
                    "with the keyed side");
      }
      tc = sj.children[0];
    }
    const Op& c = dag_->op(tc);
    if (c.kind != OpKind::kThetaCount || c.children != t.children ||
        c.keys != std::vector<ColId>{t.col, t.col2} || c.fun != t.fun ||
        c.part != g || c.col2 != h || c.col != from.col) {
      return Fail(cert, ob,
                  "the replacement is not the fused count of theta join "
                  "op " + std::to_string(tj) + " grouped by '" +
                      ColName(g) + "' counting '" + ColName(h) + "'");
    }
    return true;
  }

  if (cert->rule == "deferred_construction") {
    if (from.kind != OpKind::kElem || from.deferred) {
      return Fail(cert, ob,
                  "the rewritten operator is not an eager element "
                  "constructor");
    }
    if (to.kind != OpKind::kElem || !to.deferred || to.name != from.name ||
        to.constructor_id != from.constructor_id) {
      return Fail(cert, ob,
                  "the replacement is not the same constructor, marked "
                  "deferred");
    }
    bool item_cited = false;
    for (const CitedFact& f : cert->cited) {
      if (f.kind != CitedFact::Kind::kUnobserved || f.op != cert->from) {
        return Fail(cert, ob, "unexpected cited fact '" + f.text + "'");
      }
      item_cited = item_cited || f.col == col::item();
    }
    if (!item_cited) {
      return Fail(cert, ob, "the constructed item column is not cited");
    }
    return true;
  }

  return Fail(cert, ob, "no proof-obligation template for this family");
}

bool CertifyChecker::Check(RewriteCertificate* cert) {
  cert->checked = true;
  cert->valid = false;
  cert->obligation.clear();
  cert->diagnostic.clear();
  if (!force_reject_rule_.empty() && cert->rule == force_reject_rule_) {
    return Fail(cert, "forced-reject",
                "rejected by force_reject_rule (test hook)");
  }
  const char* ob = ObligationFor(cert->rule);
  if (cert->from == kNoOp || cert->from >= dag_->size() ||
      cert->to == kNoOp || cert->to >= dag_->size()) {
    return Fail(cert, "certificate-roots",
                "before/after roots do not name operators in the DAG");
  }
  for (const ColWitness& w : cert->witness) {
    if (w.after == kNoCol || !dag_->op(cert->to).HasCol(w.after)) {
      return Fail(cert, "witness",
                  "witness column '" +
                      (w.after == kNoCol ? std::string("<none>")
                                         : ColName(w.after)) +
                      "' is not produced by the replacement");
    }
    if (w.before == kNoCol || !dag_->op(cert->from).HasCol(w.before)) {
      return Fail(cert, "witness",
                  "witness column '" +
                      (w.before == kNoCol ? std::string("<none>")
                                          : ColName(w.before)) +
                      "' is not produced by the original");
    }
  }
  for (const CitedFact& f : cert->cited) {
    if (f.op == kNoOp || f.op >= dag_->size()) {
      return Fail(cert, ob,
                  "cited fact '" + f.text +
                      "' names an operator outside the DAG");
    }
  }
  if (cert->cited.empty()) {
    return Fail(cert, ob, "the certificate cites no facts");
  }
  if (!ValidateCited(cert, ob)) return false;
  if (!CheckFamily(cert)) return false;
  cert->valid = true;
  return true;
}

}  // namespace exrquy
