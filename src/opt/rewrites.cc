#include "opt/rewrites.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/symbols.h"
#include "opt/analyses.h"
#include "opt/join_plan.h"

namespace exrquy {
namespace {

class Rewriter {
 public:
  Rewriter(Dag* dag, const RewriteOptions& options,
           std::vector<RewriteTrade>* trades)
      : dag_(dag),
        options_(options),
        trades_(trades),
        certify_(ResolveCertify(options.certify)),
        props_(dag),
        cards_(dag),
        keys_(dag, &cards_),
        sem_(dag, &cards_),
        od_(dag, &props_, &cards_, &keys_, &sem_),
        raise_(dag, &cards_) {}

  OpId Run(OpId root, bool* changed) {
    icols_ = ComputeICols(*dag_, root,
                          {col::iter(), col::pos(), col::item()});
    if (options_.join_recognition) {
      join_specs_ = RecognizeJoins(*dag_, root);
    }
    if (certify_.mode != CertifyMode::kOff) {
      checker_ = std::make_unique<CertifyChecker>(
          dag_, root, certify_.force_reject_rule);
    }
    *changed = false;
    for (OpId id : dag_->ReachableFrom(root)) {
      OpId new_id = RewriteOp(id);
      map_[id] = new_id;
      if (new_id != id) {
        *changed = true;
        // Keep the provenance label for the Table 2 profile.
        dag_->SetProv(new_id, dag_->op(id).prov);
      }
    }
    return map_.at(root);
  }

 private:
  OpId Child(const Op& op, size_t i) const {
    return map_.at(op.children[i]);
  }

  const ColSet& Required(OpId old_id) { return icols_[old_id]; }

  // Starts a certificate for one rewrite instance, with the default
  // column witness: every column the original and the replacement both
  // produce must correspond exactly, row for row.
  RewriteCertificate Cert(OpId from, OpId to, const char* rule,
                          std::string detail, bool order_trade = false) {
    RewriteCertificate cert;
    cert.from = from;
    cert.to = to;
    cert.rule = rule;
    cert.detail = std::move(detail);
    cert.order_trade = order_trade;
    const Op& f = dag_->op(from);
    for (ColId c : dag_->op(to).schema) {
      if (f.HasCol(c)) cert.witness.push_back({c, c, true});
    }
    return cert;
  }

  // Validates (unless certification is off), records, and commits the
  // certificate: returns the replacement, or kNoOp when strict mode
  // rejects an unprovable certificate (the caller keeps the old
  // sub-plan).
  OpId Attempt(RewriteCertificate cert) {
    if (checker_ != nullptr) checker_->Check(&cert);
    OpId to = RewriteCommitted(cert, certify_) ? cert.to : kNoOp;
    if (trades_ != nullptr) trades_->push_back(std::move(cert));
    return to;
  }

  // Projects `id` onto exactly `cols` (sorted), collapsing identities.
  OpId NarrowTo(OpId id, const ColSet& cols) {
    std::vector<std::pair<ColId, ColId>> proj;
    for (ColId c : cols) proj.emplace_back(c, c);
    return ProjectSimplified(id, proj);
  }

  // Builds Project(child, proj) with identity collapsing and
  // Project-over-Project composition.
  OpId ProjectSimplified(OpId child,
                         std::vector<std::pair<ColId, ColId>> proj) {
    const Op& c = dag_->op(child);
    if (c.kind == OpKind::kProject) {
      // Compose: resolve each old column through the child's mapping.
      std::vector<std::pair<ColId, ColId>> composed;
      for (const auto& [n, o] : proj) {
        ColId resolved = kNoCol;
        for (const auto& [cn, co] : c.proj) {
          if (cn == o) {
            resolved = co;
            break;
          }
        }
        EXRQUY_CHECK(resolved != kNoCol);
        composed.emplace_back(n, resolved);
      }
      return ProjectSimplified(c.children[0], std::move(composed));
    }
    // Identity?
    if (proj.size() == c.schema.size()) {
      bool identity = true;
      for (const auto& [n, o] : proj) {
        if (n != o) {
          identity = false;
          break;
        }
      }
      if (identity) {
        // Same column set (sizes equal, all names map to themselves, and
        // schema checks ensured uniqueness).
        bool covers = true;
        for (const auto& [n, o] : proj) {
          (void)o;
          if (!c.HasCol(n)) {
            covers = false;
            break;
          }
        }
        if (covers) return child;
      }
    }
    return dag_->Project(child, std::move(proj));
  }

  // Collects the location-step leaves under (nested) disjoint unions.
  // Returns false if any leaf is not a step.
  bool StepLeaves(OpId id, std::vector<OpId>* leaves) const {
    const Op& op = dag_->op(id);
    if (op.kind == OpKind::kUnion) {
      return StepLeaves(op.children[0], leaves) &&
             StepLeaves(op.children[1], leaves);
    }
    if (op.kind == OpKind::kStep) {
      leaves->push_back(id);
      return true;
    }
    return false;
  }

  // True if the two steps provably produce disjoint (iter, item) sets:
  // the same context input and axis but different element name tests.
  bool DisjointSteps(OpId a, OpId b) const {
    const Op& sa = dag_->op(a);
    const Op& sb = dag_->op(b);
    return sa.children[0] == sb.children[0] && sa.axis == sb.axis &&
           sa.axis != Axis::kAttribute &&
           sa.test.kind == NodeTest::Kind::kName &&
           sb.test.kind == NodeTest::Kind::kName &&
           sa.test.name != sb.test.name;
  }

  // The recognized value-join anchor rewrite: replace the whole EBV-
  // over-product-space region with a join on the compared item values.
  // Returns kNoOp when no join is emitted (or strict certification
  // rejects it).
  OpId TryJoin(OpId id, const JoinSpec& spec) {
    std::string detail;
    OpId repl = EmitJoin(dag_, spec, map_.at(spec.outer_items), options_,
                         &props_, &sem_, &cards_, &detail);
    if (repl == kNoOp) return kNoOp;
    RewriteCertificate cert = Cert(id, repl, "join_recognition",
                                   std::move(detail), /*order_trade=*/true);
    // The join re-rooting enumerates survivors in join order, not the
    // product space's iteration order.
    cert.rows_reordered = true;
    // An arbitrary-# return numbering produces legitimately different
    // rank values; exclude it from the exact-value witness.
    const Op& ra = dag_->op(repl);
    if (ra.kind == OpKind::kProject && !ra.children.empty() &&
        dag_->op(ra.children[0]).kind == OpKind::kRowId) {
      for (ColWitness& w : cert.witness) {
        if (w.after == col::pos()) w.exact = false;
      }
    }
    // Cite isolation and kind-gate facts for every value join in the
    // emitted region; the checker re-derives them and re-scans the
    // region on its own.
    for (OpId nid : dag_->ReachableFrom(repl)) {
      const Op& j = dag_->op(nid);
      bool theta = j.kind == OpKind::kThetaJoin;
      bool value_equi = j.kind == OpKind::kEquiJoin && j.value_join;
      if (!theta && !value_equi) continue;
      cert.cited.push_back(CiteScaffoldFree(j.children[0], j.col));
      cert.cited.push_back(CiteScaffoldFree(j.children[1], j.col2));
      cert.cited.push_back(CiteKindClass(
          j.children[0], j.col, sem_.Get(j.children[0]).KindOf(j.col)));
      cert.cited.push_back(CiteKindClass(
          j.children[1], j.col2, sem_.Get(j.children[1]).KindOf(j.col2)));
    }
    return Attempt(std::move(cert));
  }

  // The fusable shape under a grouped count(): π g (Distinct (π g,h
  // (ThetaJoin))) over an order relation, g and h from opposite join
  // sides and keeping their names. Yields the ThetaJoin and h.
  bool MatchCountShape(OpId id, ColId g, OpId* tj, ColId* h) const {
    const Op& p1 = dag_->op(id);
    if (p1.kind != OpKind::kProject ||
        p1.proj != std::vector<std::pair<ColId, ColId>>{{g, g}}) {
      return false;
    }
    const Op& d = dag_->op(p1.children[0]);
    if (d.kind != OpKind::kDistinct) return false;
    const Op& p2 = dag_->op(d.children[0]);
    if (p2.kind != OpKind::kProject || p2.proj.size() != 2) return false;
    ColId other = p2.proj[0].first == g ? p2.proj[1].first : p2.proj[0].first;
    for (const auto& [n, o] : p2.proj) {
      if (n != o || (n != g && n != other) || other == g) return false;
    }
    const Op& t = dag_->op(p2.children[0]);
    if (t.kind != OpKind::kThetaJoin || t.fun == FunKind::kEq ||
        t.fun == FunKind::kNe) {
      return false;
    }
    const Op& left = dag_->op(t.children[0]);
    if (left.HasCol(g) == left.HasCol(other)) return false;
    *tj = p2.children[0];
    *h = other;
    return true;
  }

  // count() fused through a value ThetaJoin (Dag::ThetaCount): the
  // paper's normalization wraps count()'s argument in fn:unordered, so
  // neither the order nor the number of matching pairs behind it is
  // observable — only, per group, how many far-side groups it matches.
  // Also fires below a key semijoin π g (⋈ g=k (D, X)) where X carries
  // only k and is keyed on it: each D group survives whole or not at
  // all, so the count moves below it and the join becomes a semijoin.
  OpId TryThetaCount(OpId id) {
    const Op a = dag_->op(id);  // a copy: the rewrite grows the DAG
    if (a.aggr != AggrKind::kCount || a.part == kNoCol || !a.keys.empty()) {
      return kNoOp;
    }
    const ColId g = a.part;
    const OpId in = Child(a, 0);
    OpId tj = kNoOp;
    ColId h = kNoCol;
    OpId x = kNoOp;
    ColId k = kNoCol;
    if (!MatchCountShape(in, g, &tj, &h)) {
      const Op& p = dag_->op(in);
      if (p.kind != OpKind::kProject ||
          p.proj != std::vector<std::pair<ColId, ColId>>{{g, g}}) {
        return kNoOp;
      }
      const Op& j = dag_->op(p.children[0]);
      if (j.kind != OpKind::kEquiJoin || j.value_join) return kNoOp;
      for (size_t side = 0; side < 2 && x == kNoOp; ++side) {
        ColId dc = side == 0 ? j.col : j.col2;
        ColId xc = side == 0 ? j.col2 : j.col;
        OpId xs = j.children[1 - side];
        if (dc == g && dag_->op(xs).schema == std::vector<ColId>{xc} &&
            keys_.Get(xs).count(xc) != 0 &&
            MatchCountShape(j.children[side], g, &tj, &h)) {
          x = xs;
          k = xc;
        }
      }
      if (x == kNoOp) return kNoOp;
    }
    const Op t = dag_->op(tj);
    const ItemKind lk = sem_.Get(t.children[0]).KindOf(t.col);
    const ItemKind rk = sem_.Get(t.children[1]).KindOf(t.col2);
    const size_t gs = dag_->op(t.children[0]).HasCol(g) ? 0 : 1;
    if (!OneComparisonClass(lk, rk) ||
        sem_.Get(t.children[gs]).KindOf(g) != ItemKind::kInt ||
        sem_.Get(t.children[1 - gs]).KindOf(h) != ItemKind::kInt) {
      return kNoOp;
    }
    OpId to = dag_->ThetaCount(t.children[0], t.children[1], t.col, t.fun,
                               t.col2, g, h, a.col);
    if (x != kNoOp) to = dag_->SemiJoin(to, dag_->Project(x, {{g, k}}), {g});
    // The certificate relates the count over the rewritten input (the
    // same operator when nothing below changed) to its fusion.
    OpId before = dag_->Aggr(in, AggrKind::kCount, a.col, a.col2, g);
    RewriteCertificate cert = Cert(
        before, to, "theta-count",
        "count() fused through theta join on " + ColName(t.col) + " " +
            FunKindName(t.fun) + " " + ColName(t.col2) + " (" +
            ItemKindName(lk) + "/" + ItemKindName(rk) +
            " keys): per-group extremes, no pairs built" +
            (x != kNoOp ? "; moved below the key semijoin on " + ColName(k)
                        : std::string()));
    // The semijoin keeps the count's group order; the join it replaces
    // enumerated its probe side, which the engine picks by size.
    cert.rows_reordered = x != kNoOp;
    cert.cited.push_back(CiteScaffoldFree(t.children[0], t.col));
    cert.cited.push_back(CiteScaffoldFree(t.children[1], t.col2));
    cert.cited.push_back(CiteKindClass(t.children[0], t.col, lk));
    cert.cited.push_back(CiteKindClass(t.children[1], t.col2, rk));
    cert.cited.push_back(CiteKindClass(t.children[gs], g, ItemKind::kInt));
    cert.cited.push_back(
        CiteKindClass(t.children[1 - gs], h, ItemKind::kInt));
    if (x != kNoOp) cert.cited.push_back(CiteKey(x, k));
    return Attempt(std::move(cert));
  }

  OpId RewriteOp(OpId id) {
    const Op& op = dag_->op(id);
    const ColSet& required = Required(id);

    // A sub-plan that provably produces no rows is an empty literal —
    // unless evaluating it could raise a dynamic error (an empty literal
    // never raises, so collapsing would change error semantics).
    if (options_.empty_short_circuit && op.kind != OpKind::kLit &&
        cards_.Get(id).max == 0 && !raise_.Get(id)) {
      RewriteCertificate cert =
          Cert(id, dag_->Empty(op.schema), "empty_short_circuit",
               "the sub-plan provably produces no rows and can never "
               "raise: it is the empty literal");
      cert.cited.push_back(CiteInterval(id, 0, 0));
      cert.cited.push_back(CiteNoRaise(id));
      OpId r = Attempt(std::move(cert));
      if (r != kNoOp) return r;
    }

    switch (op.kind) {
      case OpKind::kLit:
      case OpKind::kDoc:
        return id;

      case OpKind::kProject: {
        if (auto jit = join_specs_.find(id); jit != join_specs_.end()) {
          OpId repl = TryJoin(id, jit->second);
          if (repl != kNoOp) return repl;
        }
        std::vector<std::pair<ColId, ColId>> proj;
        std::vector<ColId> dropped;
        for (const auto& [n, o] : op.proj) {
          if (!options_.column_pruning || required.count(n) != 0) {
            proj.emplace_back(n, o);
          } else {
            dropped.push_back(n);
          }
        }
        if (proj.empty() && !op.proj.empty()) {
          proj.push_back(op.proj.front());  // keep the table's row count
          dropped.erase(std::remove(dropped.begin(), dropped.end(),
                                    op.proj.front().first),
                        dropped.end());
        }
        if (!dropped.empty()) {
          RewriteCertificate cert =
              Cert(id, ProjectSimplified(Child(op, 0), proj),
                   "column_pruning",
                   std::to_string(dropped.size()) +
                       " projection column(s) no consumer demands");
          for (ColId c : dropped) {
            cert.cited.push_back(CiteDeadColumn(id, c));
          }
          OpId r = Attempt(std::move(cert));
          if (r != kNoOp) return r;
          std::vector<std::pair<ColId, ColId>> full(op.proj);
          return ProjectSimplified(Child(op, 0), std::move(full));
        }
        return ProjectSimplified(Child(op, 0), std::move(proj));
      }

      case OpKind::kSelect:
        return dag_->Select(Child(op, 0), op.col);

      case OpKind::kEquiJoin:
        if (op.value_join) {
          return dag_->ValueJoin(Child(op, 0), Child(op, 1), op.col,
                                 op.col2);
        }
        return dag_->EquiJoin(Child(op, 0), Child(op, 1), op.col, op.col2);

      case OpKind::kThetaJoin:
        return dag_->ThetaJoin(Child(op, 0), Child(op, 1), op.col, op.fun,
                               op.col2);

      case OpKind::kThetaCount:
        return dag_->ThetaCount(Child(op, 0), Child(op, 1), op.keys[0],
                                op.fun, op.keys[1], op.part, op.col2, op.col);

      case OpKind::kCross: {
        OpId l = Child(op, 0);
        OpId r = Child(op, 1);
        if (options_.column_pruning) {
          // × with a one-row literal contributing no required column is
          // the identity.
          auto prunable = [&](OpId side) {
            const Op& s = dag_->op(side);
            if (s.kind != OpKind::kLit || s.lit.rows.size() != 1) {
              return false;
            }
            for (ColId c : s.schema) {
              if (required.count(c) != 0) return false;
            }
            return true;
          };
          auto prune = [&](OpId keep, OpId lit) {
            RewriteCertificate cert =
                Cert(id, keep, "column_pruning",
                     "one-row literal attaches no demanded column: the "
                     "product is the identity");
            for (ColId c : dag_->op(lit).schema) {
              cert.cited.push_back(CiteDeadColumn(id, c));
            }
            return Attempt(std::move(cert));
          };
          if (prunable(r)) {
            OpId res = prune(l, r);
            if (res != kNoOp) return res;
          } else if (prunable(l)) {
            OpId res = prune(r, l);
            if (res != kNoOp) return res;
          }
        }
        return dag_->Cross(l, r);
      }

      case OpKind::kUnion: {
        OpId l = Child(op, 0);
        OpId r = Child(op, 1);
        // Empty branches vanish.
        auto is_empty_lit = [&](OpId side) {
          const Op& s = dag_->op(side);
          return s.kind == OpKind::kLit && s.lit.rows.empty();
        };
        ColSet cols = required;
        if (cols.empty()) {
          for (ColId c : op.schema) cols.insert(c);
        }
        std::vector<ColId> narrowed_away;
        for (ColId c : op.schema) {
          if (cols.count(c) == 0) narrowed_away.push_back(c);
        }
        auto drop_branch = [&](OpId keep, OpId empty, const char* side) {
          RewriteCertificate cert =
              Cert(id, NarrowTo(keep, cols), "union_empty_branch",
                   std::string("the ") + side +
                       " branch is statically empty: the union is its "
                       "other branch");
          cert.cited.push_back(CiteInterval(empty, 0, 0));
          for (ColId c : narrowed_away) {
            cert.cited.push_back(CiteDeadColumn(id, c));
          }
          return Attempt(std::move(cert));
        };
        if (is_empty_lit(l)) {
          OpId res = drop_branch(r, l, "left");
          if (res != kNoOp) return res;
        } else if (is_empty_lit(r)) {
          OpId res = drop_branch(l, r, "right");
          if (res != kNoOp) return res;
        }
        // Narrow both branches to the required columns so their schemas
        // stay aligned after pruning below them.
        if (!narrowed_away.empty()) {
          RewriteCertificate cert =
              Cert(id, dag_->Union(NarrowTo(l, cols), NarrowTo(r, cols)),
                   "column_pruning",
                   "union branches narrowed to the demanded columns");
          for (ColId c : narrowed_away) {
            cert.cited.push_back(CiteDeadColumn(id, c));
          }
          OpId res = Attempt(std::move(cert));
          if (res != kNoOp) return res;
          ColSet all;
          for (ColId c : op.schema) all.insert(c);
          return dag_->Union(NarrowTo(l, all), NarrowTo(r, all));
        }
        return dag_->Union(NarrowTo(l, cols), NarrowTo(r, cols));
      }

      case OpKind::kDifference:
        return dag_->Difference(Child(op, 0), Child(op, 1), op.keys);
      case OpKind::kSemiJoin:
        return dag_->SemiJoin(Child(op, 0), Child(op, 1), op.keys);

      case OpKind::kDistinct: {
        OpId c = Child(op, 0);
        if (options_.distinct_elimination) {
          std::vector<OpId> leaves;
          if (StepLeaves(c, &leaves)) {
            bool all_disjoint = true;
            for (size_t i = 0; i < leaves.size() && all_disjoint; ++i) {
              for (size_t j = i + 1; j < leaves.size(); ++j) {
                if (leaves[i] != leaves[j] &&
                    !DisjointSteps(leaves[i], leaves[j])) {
                  all_disjoint = false;
                  break;
                }
                if (leaves[i] == leaves[j]) {
                  all_disjoint = false;  // same step twice: duplicates
                  break;
                }
              }
            }
            if (all_disjoint && leaves.size() >= 1) {
              // Steps are duplicate-free and pairwise disjoint: '|' has
              // become ','.
              RewriteCertificate cert =
                  Cert(id, c, "distinct_elimination",
                       "the input is a union of pairwise-disjoint "
                       "location steps: '|' has become ','");
              for (OpId leaf : leaves) {
                cert.cited.push_back(CiteStructural(leaf, "disjoint step"));
              }
              OpId res = Attempt(std::move(cert));
              if (res != kNoOp) return res;
            }
          }
        }
        if (options_.distinct_by_keys) {
          // A duplicate-free column makes whole rows pairwise distinct,
          // and a single-row input trivially has no duplicates.
          if (cards_.Get(c).max <= 1) {
            RewriteCertificate cert =
                Cert(id, c, "distinct_by_keys",
                     "the input has at most one row: no duplicates "
                     "exist");
            cert.cited.push_back(CiteInterval(c, 0, 1));
            OpId res = Attempt(std::move(cert));
            if (res != kNoOp) return res;
          } else if (!keys_.Get(c).empty()) {
            ColId k = *keys_.Get(c).begin();
            RewriteCertificate cert =
                Cert(id, c, "distinct_by_keys",
                     "column '" + ColName(k) +
                         "' is a key of the input: whole rows are "
                         "pairwise distinct");
            cert.cited.push_back(CiteKey(c, k));
            OpId res = Attempt(std::move(cert));
            if (res != kNoOp) return res;
          }
        }
        return dag_->Distinct(c);
      }

      case OpKind::kRowNum: {
        OpId c = Child(op, 0);
        // The rewrites below add operators to the DAG, which can
        // reallocate the operator table `op` points into: after the first
        // one, the % is read only through these copies.
        const ColId rank = op.col;
        const ColId orig_part = op.part;
        const std::vector<SortKey> orig_order = op.order;
        if (options_.column_pruning && required.count(rank) == 0) {
          RewriteCertificate cert =
              Cert(id, c, "column_pruning",
                   "the rank column is never consumed: the blocking "
                   "sort is dead");
          cert.cited.push_back(CiteDeadColumn(id, rank));
          OpId res = Attempt(std::move(cert));
          if (res != kNoOp) return res;
        }
        if (options_.rownum_by_keys &&
            (cards_.Get(c).max <= 1 ||
             (orig_part != kNoCol && keys_.Get(c).count(orig_part) != 0))) {
          // Every partition holds at most one row (the partition column
          // is a key, or the input is a single row): each row ranks 1
          // and the blocking sort vanishes.
          bool one_row = cards_.Get(c).max <= 1;
          RewriteCertificate cert = Cert(
              id, dag_->AttachConst(c, rank, Value::Int(1)),
              "keyed-partition",
              one_row
                  ? "the input has at most one row: every rank is 1"
                  : "partition column '" + ColName(orig_part) +
                        "' is a key of the input: every partition holds "
                        "one row and every rank is 1",
              /*order_trade=*/true);
          if (one_row) {
            cert.cited.push_back(CiteInterval(c, 0, 1));
          } else {
            cert.cited.push_back(CiteKey(c, orig_part));
          }
          OpId res = Attempt(std::move(cert));
          if (res != kNoOp) return res;
        }
        if (options_.rownum_by_od && orig_part != kNoCol &&
            sem_.Get(c).unit_groups.count(orig_part) != 0) {
          // Semantic typing proves the partition column duplicate-free
          // (a unit group, e.g. below fn:exactly-one): singleton groups
          // again, through a source the key domain cannot see.
          RewriteCertificate cert =
              Cert(id, dag_->AttachConst(c, rank, Value::Int(1)),
                   "semantic-type",
                   "partition column '" + ColName(orig_part) +
                       "' is duplicate-free by semantic typing (unit "
                       "group): every rank is 1",
                   /*order_trade=*/true);
          cert.cited.push_back(CiteUnitGroup(c, orig_part));
          OpId res = Attempt(std::move(cert));
          if (res != kNoOp) return res;
        }
        std::vector<SortKey> order = orig_order;
        ColId part = orig_part;
        std::vector<ColId> dropped_criteria;
        bool part_dropped = false;
        if (options_.weaken_rownum) {
          const ColProps& p = props_.Get(c);
          // Constant criteria carry no order information.
          order.erase(std::remove_if(order.begin(), order.end(),
                                     [&](const SortKey& k) {
                                       if (p.constant.count(k.col) != 0) {
                                         dropped_criteria.push_back(k.col);
                                         return true;
                                       }
                                       return false;
                                     }),
                      order.end());
          if (part != kNoCol && p.constant.count(part) != 0) {
            part = kNoCol;  // all rows in one group
            part_dropped = true;
          }
          // Ordering led by an arbitrary-order column is arbitrary: with
          // no meaningful grouping left, % degenerates to # (Section 7).
          bool arbitrary_order =
              order.empty() ||
              p.arbitrary.count(order.front().col) != 0;
          if (arbitrary_order && part == kNoCol) {
            RewriteCertificate cert =
                Cert(id, dag_->RowId(c, rank), "arbitrary-order",
                     "the sort criteria are constant or descend from "
                     "arbitrary # numbering: any stable numbering "
                     "satisfies them",
                     /*order_trade=*/true);
            for (ColId dc : dropped_criteria) {
              cert.cited.push_back(CiteConstant(c, dc));
            }
            if (part_dropped) cert.cited.push_back(CiteConstant(c, orig_part));
            if (!order.empty()) {
              cert.cited.push_back(CiteArbitrary(c, order.front().col));
            }
            if (cert.cited.empty()) {
              cert.cited.push_back(
                  CiteStructural(id, "no order or grouping criteria"));
            }
            // The arbitrary numbering's values legitimately differ from
            // the original ranks.
            for (ColWitness& w : cert.witness) {
              if (w.after == rank) w.exact = false;
            }
            OpId res = Attempt(std::move(cert));
            if (res != kNoOp) return res;
          }
        }
        if (options_.rownum_by_od &&
            (part == kNoCol ||
             props_.Get(c).constant.count(part) != 0) &&
            od_.Covers(c, order)) {
          // The input provably already realizes the requested order: the
          // stable sort is the identity permutation and the ranks are
          // 1..n in physical row order — exactly what a positional #
          // produces. The positional marking keeps the column out of the
          // arbitrary-order domain (its values remain order-bearing).
          RewriteCertificate cert = Cert(
              id, dag_->RowId(c, rank, /*positional=*/true),
              "order-dependency",
              "requested order " + OrderFact{order, false}.ToString() +
                  " is already realized by the input (sorted " +
                  od_.Get(c).ToString() +
                  "): the sort is the identity and the ranks are the row "
                  "positions",
              /*order_trade=*/true);
          cert.cited.push_back(CiteSorted(c, orig_order));
          if (part != kNoCol) cert.cited.push_back(CiteConstant(c, part));
          OpId res = Attempt(std::move(cert));
          if (res != kNoOp) return res;
        }
        if (order.size() != orig_order.size() || part != orig_part) {
          RewriteCertificate cert =
              Cert(id, dag_->RowNum(c, rank, order, part),
                   "weaken_rownum",
                   std::to_string(dropped_criteria.size() +
                                  (part_dropped ? 1 : 0)) +
                       " constant order/grouping criteria dropped");
          for (ColId dc : dropped_criteria) {
            cert.cited.push_back(CiteConstant(c, dc));
          }
          if (part_dropped) cert.cited.push_back(CiteConstant(c, orig_part));
          OpId res = Attempt(std::move(cert));
          if (res != kNoOp) return res;
          return dag_->RowNum(c, rank, orig_order, orig_part);
        }
        return dag_->RowNum(c, rank, std::move(order), part);
      }

      case OpKind::kRowId: {
        OpId c = Child(op, 0);
        if (options_.column_pruning && required.count(op.col) == 0) {
          RewriteCertificate cert =
              Cert(id, c, "column_pruning",
                   "the # column is never consumed: the numbering is "
                   "dead");
          cert.cited.push_back(CiteDeadColumn(id, op.col));
          OpId res = Attempt(std::move(cert));
          if (res != kNoOp) return res;
        }
        return dag_->RowId(c, op.col, op.positional);
      }

      case OpKind::kFun: {
        OpId c = Child(op, 0);
        if (options_.column_pruning && required.count(op.col) == 0) {
          RewriteCertificate cert =
              Cert(id, c, "column_pruning",
                   "the ⊕ result column is never consumed: the "
                   "computation is dead");
          cert.cited.push_back(CiteDeadColumn(id, op.col));
          OpId res = Attempt(std::move(cert));
          if (res != kNoOp) return res;
        }
        return dag_->Fun(c, op.fun, op.col, op.args);
      }

      case OpKind::kAggr: {
        if (options_.join_recognition && options_.theta_join) {
          OpId fused = TryThetaCount(id);
          if (fused != kNoOp) return fused;
        }
        // The attempt may have grown the DAG: read the Aggr afresh.
        const Op& a = dag_->op(id);
        if (a.aggr == AggrKind::kStrJoin) {
          // Preserves the separator (a.name).
          return dag_->AggrStrJoin(Child(a, 0), a.col, a.col2, a.part,
                                   a.keys.empty() ? kNoCol : a.keys[0],
                                   a.name);
        }
        return dag_->Aggr(Child(a, 0), a.aggr, a.col, a.col2, a.part,
                          a.keys.empty() ? kNoCol : a.keys[0]);
      }

      case OpKind::kStep: {
        OpId c = Child(op, 0);
        if (options_.step_merging) {
          const Op& cs = dag_->op(c);
          if (cs.kind == OpKind::kStep &&
              cs.axis == Axis::kDescendantOrSelf &&
              cs.test.kind == NodeTest::Kind::kAnyKind &&
              (op.axis == Axis::kChild || op.axis == Axis::kDescendant ||
               op.axis == Axis::kDescendantOrSelf)) {
            Axis merged = op.axis == Axis::kDescendantOrSelf
                              ? Axis::kDescendantOrSelf
                              : Axis::kDescendant;
            RewriteCertificate cert =
                Cert(id, dag_->Step(cs.children[0], merged, op.test),
                     "step_merging",
                     "descendant-or-self::node() absorbed into the "
                     "following step");
            cert.cited.push_back(
                CiteStructural(c, "descendant-or-self::node() step"));
            OpId res = Attempt(std::move(cert));
            if (res != kNoOp) return res;
          }
        }
        return dag_->Step(c, op.axis, op.test);
      }

      case OpKind::kRange:
        return dag_->Range(Child(op, 0), op.col, op.col2);

      case OpKind::kCardCheck:
        return dag_->CardCheck(Child(op, 0), Child(op, 1), op.min_card,
                               op.max_card, op.name);

      case OpKind::kElem:
      case OpKind::kAttr:
      case OpKind::kTextNode: {
        // Constructors are identity-bearing: rebuild only if a child
        // changed (keeping the same constructor id).
        if (Child(op, 0) == op.children[0] &&
            Child(op, 1) == op.children[1]) {
          return id;
        }
        Op copy = op;
        copy.children = {Child(op, 0), Child(op, 1)};
        copy.schema.clear();
        return dag_->Add(std::move(copy));
      }
    }
    EXRQUY_CHECK(false);
    return id;
  }

  Dag* dag_;
  const RewriteOptions& options_;
  std::vector<RewriteTrade>* trades_;
  CertifySettings certify_;
  std::unique_ptr<CertifyChecker> checker_;
  PropertyTracker props_;
  CardTracker cards_;
  KeyTracker keys_;      // depends on cards_
  SemTypeTracker sem_;   // depends on cards_
  OrderTracker od_;      // depends on props_, cards_, keys_, sem_
  RaiseTracker raise_;   // depends on cards_
  std::unordered_map<OpId, ColSet> icols_;
  std::unordered_map<OpId, OpId> map_;
  std::map<OpId, JoinSpec> join_specs_;
};

}  // namespace

OpId RewriteOnce(Dag* dag, OpId root, const RewriteOptions& options,
                 bool* changed, std::vector<RewriteTrade>* trades) {
  Rewriter rewriter(dag, options, trades);
  return rewriter.Run(root, changed);
}

}  // namespace exrquy
