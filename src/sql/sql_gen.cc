#include "sql/sql_gen.h"

#include <set>
#include <sstream>

#include "common/check.h"

namespace exrquy {
namespace {

// SQL-safe column name: iter, pos, item are fine; fresh columns carry a
// '$' which becomes '_'.
std::string SqlCol(ColId c) {
  std::string name = ColName(c);
  for (char& ch : name) {
    if (ch == '$' || ch == '-') ch = '_';
  }
  return name;
}

std::string SqlStr(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'') out += '\'';  // doubled-quote escape
    out += c;
  }
  out += "'";
  return out;
}

// The SQL spelling of a value comparison (kEq..kGe).
const char* SqlCmp(FunKind cmp) {
  switch (cmp) {
    case FunKind::kEq:
      return "=";
    case FunKind::kNe:
      return "<>";
    case FunKind::kLt:
      return "<";
    case FunKind::kLe:
      return "<=";
    case FunKind::kGt:
      return ">";
    default:
      return ">=";
  }
}

class Generator {
 public:
  Generator(const Dag& dag, const StrPool& strings,
            const SqlGenOptions& options)
      : dag_(dag), strings_(strings), options_(options) {}

  Result<std::string> Run(OpId root) {
    std::vector<OpId> order = dag_.ReachableFrom(root);
    std::ostringstream ctes;
    bool first = true;
    for (OpId id : order) {
      EXRQUY_ASSIGN_OR_RETURN(std::string body, Render(id));
      ctes << (first ? "WITH " : ",\n") << Name(id) << " AS (" << body
           << ")";
      first = false;
    }
    std::ostringstream out;
    if (options_.emit_header) {
      out << "-- Generated by exrquy (relational XQuery plan).\n"
             "-- Host schema: doc(pre, size, level, kind, name, value, "
             "parent, doc_name).\n";
      if (!udfs_.empty()) {
        out << "-- Required host UDFs:";
        for (const std::string& u : udfs_) out << " " << u;
        out << "\n";
      }
    }
    out << ctes.str() << "\nSELECT iter, pos, item FROM " << Name(root)
        << " ORDER BY iter, pos;\n";
    return out.str();
  }

 private:
  std::string Name(OpId id) const { return "t" + std::to_string(id); }

  std::string Udf(const std::string& name) {
    udfs_.insert(name);
    return name;
  }

  // All columns of `id`, qualified with alias `a`, as a select list.
  std::string Cols(OpId id, const std::string& alias) const {
    std::string out;
    for (ColId c : dag_.op(id).schema) {
      if (!out.empty()) out += ", ";
      if (!alias.empty()) out += alias + ".";
      out += SqlCol(c);
    }
    return out;
  }

  Result<std::string> RenderFun(const Op& op) {
    auto a = [&](size_t i) { return SqlCol(op.args[i]); };
    switch (op.fun) {
      case FunKind::kAdd:
        return a(0) + " + " + a(1);
      case FunKind::kSub:
        return a(0) + " - " + a(1);
      case FunKind::kMul:
        return a(0) + " * " + a(1);
      case FunKind::kDiv:
        return "CAST(" + a(0) + " AS DOUBLE PRECISION) / " + a(1);
      case FunKind::kIDiv:
        return "CAST(" + a(0) + " / " + a(1) + " AS BIGINT)";
      case FunKind::kMod:
        return "MOD(" + a(0) + ", " + a(1) + ")";
      case FunKind::kNeg:
        return "-" + a(0);
      case FunKind::kEq:
        return a(0) + " = " + a(1);
      case FunKind::kNe:
        return a(0) + " <> " + a(1);
      case FunKind::kLt:
        return a(0) + " < " + a(1);
      case FunKind::kLe:
        return a(0) + " <= " + a(1);
      case FunKind::kGt:
        return a(0) + " > " + a(1);
      case FunKind::kGe:
        return a(0) + " >= " + a(1);
      case FunKind::kNodeBefore:
        return a(0) + " < " + a(1);  // preorder ranks are document order
      case FunKind::kNodeAfter:
        return a(0) + " > " + a(1);
      case FunKind::kNodeIs:
        return a(0) + " = " + a(1);
      case FunKind::kAnd:
        return a(0) + " AND " + a(1);
      case FunKind::kOr:
        return a(0) + " OR " + a(1);
      case FunKind::kNot:
        return "NOT " + a(0);
      case FunKind::kAtomize:
        return Udf("xq_atomize") + "(" + a(0) + ")";
      case FunKind::kToDouble:
        return "CAST(" + a(0) + " AS DOUBLE PRECISION)";
      case FunKind::kToString:
        return "CAST(" + a(0) + " AS TEXT)";
      case FunKind::kContains:
        return "POSITION(" + a(1) + " IN " + a(0) + ") > 0";
      case FunKind::kConcat:
        return a(0) + " || " + a(1);
      case FunKind::kStringLength:
        return "CHAR_LENGTH(" + a(0) + ")";
      case FunKind::kStartsWith:
        return "POSITION(" + a(1) + " IN " + a(0) + ") = 1";
      case FunKind::kEndsWith:
        return Udf("xq_ends_with") + "(" + a(0) + ", " + a(1) + ")";
      case FunKind::kUpperCase:
        return "UPPER(" + a(0) + ")";
      case FunKind::kLowerCase:
        return "LOWER(" + a(0) + ")";
      case FunKind::kNormalizeSpace:
        return Udf("xq_normalize_space") + "(" + a(0) + ")";
      case FunKind::kSubstring2:
        return "SUBSTRING(" + a(0) + " FROM CAST(" + a(1) + " AS INT))";
      case FunKind::kSubstring3:
        return "SUBSTRING(" + a(0) + " FROM CAST(" + a(1) +
               " AS INT) FOR CAST(" + a(2) + " AS INT))";
      case FunKind::kAbs:
        return "ABS(" + a(0) + ")";
      case FunKind::kFloor:
        return "FLOOR(" + a(0) + ")";
      case FunKind::kCeiling:
        return "CEILING(" + a(0) + ")";
      case FunKind::kRound:
        return "FLOOR(" + a(0) + " + 0.5)";
      case FunKind::kNodeName:
        return Udf("xq_node_name") + "(" + a(0) + ")";
    }
    return Internal("unhandled function in SQL generation");
  }

  // The axis range predicate against the doc table (alias d) for context
  // column `ctx` of alias c — the pre/size/level join idiom.
  Result<std::string> AxisPredicate(const Op& op) {
    std::string c = "c.item";
    switch (op.axis) {
      case Axis::kChild:
        return "d.parent = " + c + " AND d.kind <> 'attr'";
      case Axis::kAttribute:
        return "d.parent = " + c + " AND d.kind = 'attr'";
      case Axis::kDescendant:
        return "d.pre > " + c + " AND d.pre <= " + c +
               " + (SELECT size FROM doc s WHERE s.pre = " + c +
               ") AND d.kind <> 'attr'";
      case Axis::kDescendantOrSelf:
        return "d.pre >= " + c + " AND d.pre <= " + c +
               " + (SELECT size FROM doc s WHERE s.pre = " + c +
               ") AND d.kind <> 'attr'";
      case Axis::kSelf:
        return "d.pre = " + c;
      case Axis::kParent:
        return "d.pre = (SELECT parent FROM doc s WHERE s.pre = " + c + ")";
      default:
        // Remaining axes use a host table function.
        return "d.pre IN (SELECT pre FROM " + Udf("xq_axis_step") + "(" + c +
               ", " + SqlStr(AxisName(op.axis)) + "))";
    }
  }

  std::string NodeTestPredicate(const Op& op) {
    switch (op.test.kind) {
      case NodeTest::Kind::kAnyKind:
        return "1 = 1";
      case NodeTest::Kind::kText:
        return "d.kind = 'text'";
      case NodeTest::Kind::kComment:
        return "d.kind = 'comment'";
      case NodeTest::Kind::kWildcard:
        return op.axis == Axis::kAttribute ? "d.kind = 'attr'"
                                           : "d.kind = 'elem'";
      case NodeTest::Kind::kName:
        return std::string(op.axis == Axis::kAttribute ? "d.kind = 'attr'"
                                                       : "d.kind = 'elem'") +
               " AND d.name = " + SqlStr(strings_.Get(op.test.name));
    }
    return "1 = 1";
  }

  Result<std::string> Render(OpId id) {
    const Op& op = dag_.op(id);
    auto child = [&](size_t i) { return Name(op.children[i]); };
    std::ostringstream out;

    switch (op.kind) {
      case OpKind::kLit: {
        if (op.lit.rows.empty()) {
          out << "SELECT ";
          bool first = true;
          for (ColId c : op.lit.cols) {
            if (!first) out << ", ";
            out << "NULL AS " << SqlCol(c);
            first = false;
          }
          out << " WHERE 1 = 0";
          return out.str();
        }
        bool first_row = true;
        for (const auto& row : op.lit.rows) {
          if (!first_row) out << " UNION ALL ";
          out << "SELECT ";
          for (size_t i = 0; i < row.size(); ++i) {
            if (i) out << ", ";
            const Value& v = row[i];
            switch (v.kind) {
              case ValueKind::kInt:
                out << v.i;
                break;
              case ValueKind::kDouble:
                out << v.d;
                break;
              case ValueKind::kBool:
                out << (v.b ? "TRUE" : "FALSE");
                break;
              case ValueKind::kNode:
              default:  // no other kind is a query value
                out << v.node;
                break;
              case ValueKind::kString:
              case ValueKind::kUntyped:
                out << SqlStr(strings_.Get(v.str));
                break;
            }
            out << " AS " << SqlCol(op.lit.cols[i]);
          }
          first_row = false;
        }
        return out.str();
      }

      case OpKind::kProject: {
        out << "SELECT ";
        for (size_t i = 0; i < op.proj.size(); ++i) {
          const auto& [n, o] = op.proj[i];
          if (i) out << ", ";
          out << SqlCol(o);
          if (n != o) out << " AS " << SqlCol(n);
        }
        out << " FROM " << child(0);
        return out.str();
      }

      case OpKind::kSelect:
        out << "SELECT * FROM " << child(0) << " WHERE " << SqlCol(op.col);
        return out.str();

      case OpKind::kEquiJoin:
        out << "SELECT " << Cols(op.children[0], "a") << ", "
            << Cols(op.children[1], "b") << " FROM " << child(0) << " a, "
            << child(1) << " b WHERE a." << SqlCol(op.col) << " = b."
            << SqlCol(op.col2);
        return out.str();

      case OpKind::kThetaJoin:
        out << "SELECT " << Cols(op.children[0], "a") << ", "
            << Cols(op.children[1], "b") << " FROM " << child(0) << " a, "
            << child(1) << " b WHERE a." << SqlCol(op.col) << " "
            << SqlCmp(op.fun) << " b." << SqlCol(op.col2);
        return out.str();

      case OpKind::kThetaCount: {
        // The fused form of COUNT over the distinct matching pairs.
        bool g_left = ThetaCountGroupSide(dag_, op) == 0;
        const char* g = g_left ? "a." : "b.";
        const char* g2 = g_left ? "b." : "a.";
        out << "SELECT " << g << SqlCol(op.part) << " AS "
            << SqlCol(op.part) << ", COUNT(DISTINCT " << g2
            << SqlCol(op.col2) << ") AS " << SqlCol(op.col) << " FROM "
            << child(0) << " a, " << child(1) << " b WHERE a."
            << SqlCol(op.keys[0]) << " " << SqlCmp(op.fun) << " b."
            << SqlCol(op.keys[1]) << " GROUP BY " << g << SqlCol(op.part);
        return out.str();
      }

      case OpKind::kCross:
        out << "SELECT " << Cols(op.children[0], "a") << ", "
            << Cols(op.children[1], "b") << " FROM " << child(0) << " a, "
            << child(1) << " b";
        return out.str();

      case OpKind::kUnion: {
        // Align both branches on the left schema's column order.
        std::string cols = Cols(op.children[0], "");
        out << "SELECT " << cols << " FROM " << child(0)
            << " UNION ALL SELECT " << cols << " FROM " << child(1);
        return out.str();
      }

      case OpKind::kDifference:
      case OpKind::kSemiJoin: {
        out << "SELECT * FROM " << child(0) << " a WHERE "
            << (op.kind == OpKind::kDifference ? "NOT " : "")
            << "EXISTS (SELECT 1 FROM " << child(1) << " b WHERE ";
        for (size_t i = 0; i < op.keys.size(); ++i) {
          if (i) out << " AND ";
          out << "a." << SqlCol(op.keys[i]) << " = b."
              << SqlCol(op.keys[i]);
        }
        out << ")";
        return out.str();
      }

      case OpKind::kDistinct:
        out << "SELECT DISTINCT * FROM " << child(0);
        return out.str();

      case OpKind::kRowNum: {
        // The paper's defining equivalence: %a:<b>‖c is ROW_NUMBER()
        // OVER (PARTITION BY c ORDER BY b) AS a.
        out << "SELECT *, ROW_NUMBER() OVER (";
        if (op.part != kNoCol) out << "PARTITION BY " << SqlCol(op.part);
        if (!op.order.empty()) {
          out << (op.part != kNoCol ? " " : "") << "ORDER BY ";
          for (size_t i = 0; i < op.order.size(); ++i) {
            if (i) out << ", ";
            out << SqlCol(op.order[i].col)
                << (op.order[i].descending ? " DESC" : "");
          }
        }
        out << ") AS " << SqlCol(op.col) << " FROM " << child(0);
        return out.str();
      }

      case OpKind::kRowId:
        // # — arbitrary unique numbers: an un-ordered ROW_NUMBER (or the
        // host's ROWID), free on a table descriptor. A positional #
        // (RowId^) numbers the input's physical order, which SQL cannot
        // demand any more precisely than this either.
        out << "SELECT *, ROW_NUMBER() OVER () AS " << SqlCol(op.col)
            << " FROM " << child(0);
        return out.str();

      case OpKind::kFun: {
        EXRQUY_ASSIGN_OR_RETURN(std::string expr, RenderFun(op));
        out << "SELECT *, " << expr << " AS " << SqlCol(op.col) << " FROM "
            << child(0);
        return out.str();
      }

      case OpKind::kAggr: {
        std::string agg;
        std::string arg = op.aggr == AggrKind::kCount ? "*"
                                                      : SqlCol(op.col2);
        switch (op.aggr) {
          case AggrKind::kCount:
            agg = "COUNT(*)";
            break;
          case AggrKind::kSum:
            agg = "SUM(" + arg + ")";
            break;
          case AggrKind::kMax:
            agg = "MAX(" + arg + ")";
            break;
          case AggrKind::kMin:
            agg = "MIN(" + arg + ")";
            break;
          case AggrKind::kAvg:
            agg = "AVG(" + arg + ")";
            break;
          case AggrKind::kEbv:
            agg = Udf("xq_ebv_agg") + "(" + arg + ")";
            break;
          case AggrKind::kStrJoin: {
            agg = "STRING_AGG(" + arg + ", " +
                  SqlStr(strings_.Get(op.name));
            if (!op.keys.empty()) {
              agg += " ORDER BY " + SqlCol(op.keys[0]);
            }
            agg += ")";
            break;
          }
        }
        out << "SELECT ";
        if (op.part != kNoCol) out << SqlCol(op.part) << ", ";
        out << agg << " AS " << SqlCol(op.col) << " FROM " << child(0);
        if (op.part != kNoCol) out << " GROUP BY " << SqlCol(op.part);
        return out.str();
      }

      case OpKind::kStep: {
        EXRQUY_ASSIGN_OR_RETURN(std::string axis_pred, AxisPredicate(op));
        out << "SELECT DISTINCT c.iter, d.pre AS item FROM " << child(0)
            << " c, doc d WHERE " << axis_pred << " AND "
            << NodeTestPredicate(op);
        return out.str();
      }

      case OpKind::kDoc:
        out << "SELECT pre AS item FROM doc WHERE parent IS NULL AND "
               "doc_name = "
            << SqlStr(strings_.Get(op.name));
        return out.str();

      case OpKind::kElem:
      case OpKind::kAttr:
      case OpKind::kTextNode: {
        // Node construction needs a host UDF that materializes fragments
        // into the doc table and returns the new roots.
        const char* udf = op.kind == OpKind::kElem   ? "xq_construct_elem"
                          : op.kind == OpKind::kAttr ? "xq_construct_attr"
                                                     : "xq_construct_text";
        out << "SELECT l.iter, " << Udf(udf) << "("
            << SqlStr(strings_.Get(op.name)) << ", " << child(0)
            << ".iter) AS item FROM " << child(1) << " l";
        return out.str();
      }

      case OpKind::kRange:
        out << "SELECT iter, " << Udf("xq_generate_series") << "("
            << SqlCol(op.col) << ", " << SqlCol(op.col2)
            << ") AS item FROM " << child(0);
        return out.str();

      case OpKind::kCardCheck:
        // Rendered as a pass-through; the bound check becomes a host
        // assertion UDF over the per-iteration counts.
        out << "SELECT a.* FROM " << child(0) << " a, " << child(1)
            << " l WHERE a.iter = l.iter AND " << Udf("xq_card_assert")
            << "(l.iter, " << op.min_card << ", " << op.max_card << ")";
        return out.str();
    }
    return Internal("unhandled operator in SQL generation");
  }

  const Dag& dag_;
  const StrPool& strings_;
  const SqlGenOptions& options_;
  std::set<std::string> udfs_;
};

}  // namespace

Result<std::string> PlanToSql(const Dag& dag, OpId root,
                              const StrPool& strings,
                              const SqlGenOptions& options) {
  return Generator(dag, strings, options).Run(root);
}

}  // namespace exrquy
