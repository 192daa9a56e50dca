#include "algebra/dot.h"

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <set>
#include <sstream>

namespace exrquy {
namespace {

std::string ValueToString(const Value& v, const StrPool& strings) {
  switch (v.kind) {
    case ValueKind::kInt:
      return std::to_string(v.i);
    case ValueKind::kDouble:
      return std::to_string(v.d);
    case ValueKind::kString:
      return "\"" + strings.Get(v.str) + "\"";
    case ValueKind::kUntyped:
      return "u\"" + strings.Get(v.str) + "\"";
    case ValueKind::kBool:
      return v.b ? "true" : "false";
    case ValueKind::kNode:
      return "node:" + std::to_string(v.node);
    default:
      break;  // no other kind is a query value
  }
  return "?";
}

}  // namespace

std::string OpToString(const Dag& dag, OpId id, const StrPool& strings) {
  const Op& op = dag.op(id);
  std::ostringstream out;
  switch (op.kind) {
    case OpKind::kLit: {
      out << "Lit[";
      for (size_t i = 0; i < op.lit.cols.size(); ++i) {
        out << (i ? "," : "") << ColName(op.lit.cols[i]);
      }
      out << "](" << op.lit.rows.size() << " rows";
      if (op.lit.rows.size() == 1) {
        out << ":";
        for (const Value& v : op.lit.rows[0]) {
          out << " " << ValueToString(v, strings);
        }
      }
      out << ")";
      break;
    }
    case OpKind::kProject: {
      out << "Project ";
      for (size_t i = 0; i < op.proj.size(); ++i) {
        const auto& [n, o] = op.proj[i];
        if (i) out << ",";
        if (n == o) {
          out << ColName(n);
        } else {
          out << ColName(n) << ":" << ColName(o);
        }
      }
      break;
    }
    case OpKind::kSelect:
      out << "Select " << ColName(op.col);
      break;
    case OpKind::kEquiJoin:
      out << "Join " << ColName(op.col) << "=" << ColName(op.col2);
      if (op.value_join) out << " (value)";
      break;
    case OpKind::kThetaJoin:
      out << "ThetaJoin " << ColName(op.col) << " " << FunKindName(op.fun)
          << " " << ColName(op.col2);
      break;
    case OpKind::kThetaCount:
      out << "ThetaCount " << ColName(op.col) << ":count("
          << ColName(op.col2) << ")|" << ColName(op.part) << " on "
          << ColName(op.keys[0]) << " " << FunKindName(op.fun) << " "
          << ColName(op.keys[1]);
      break;
    case OpKind::kCross:
      out << "Cross";
      break;
    case OpKind::kUnion:
      out << "Union";
      break;
    case OpKind::kDifference: {
      out << "Difference on";
      for (ColId c : op.keys) out << " " << ColName(c);
      break;
    }
    case OpKind::kSemiJoin: {
      out << "SemiJoin on";
      for (ColId c : op.keys) out << " " << ColName(c);
      break;
    }
    case OpKind::kDistinct:
      out << "Distinct";
      break;
    case OpKind::kRowNum: {
      // `^` marks a presorted % — it ranks without sorting (Op::presorted).
      out << "RowNum" << (op.presorted ? "^ " : " ") << ColName(op.col)
          << ":<";
      for (size_t i = 0; i < op.order.size(); ++i) {
        if (i) out << ",";
        out << ColName(op.order[i].col);
        if (op.order[i].descending) out << " desc";
      }
      out << ">";
      if (op.part != kNoCol) out << "|" << ColName(op.part);
      break;
    }
    case OpKind::kRowId:
      // `^` marks a positional # — the ids are proven row positions, not
      // arbitrary unique numbers (Op::positional).
      out << "RowId" << (op.positional ? "^ " : " ") << ColName(op.col);
      break;
    case OpKind::kFun: {
      out << "Fun " << ColName(op.col) << ":" << FunKindName(op.fun) << "(";
      for (size_t i = 0; i < op.args.size(); ++i) {
        out << (i ? "," : "") << ColName(op.args[i]);
      }
      out << ")";
      break;
    }
    case OpKind::kAggr: {
      out << "Aggr " << ColName(op.col) << ":" << AggrKindName(op.aggr);
      if (op.aggr != AggrKind::kCount) out << "(" << ColName(op.col2) << ")";
      if (op.part != kNoCol) out << "|" << ColName(op.part);
      break;
    }
    case OpKind::kStep:
      out << "Step " << AxisName(op.axis)
          << "::" << NodeTestToString(op.test, strings);
      break;
    case OpKind::kDoc:
      out << "Doc \"" << strings.Get(op.name) << "\"";
      break;
    case OpKind::kElem:
      out << "Elem <" << strings.Get(op.name) << ">";
      if (op.deferred) out << " (deferred)";
      break;
    case OpKind::kAttr:
      out << "Attr @" << strings.Get(op.name);
      break;
    case OpKind::kTextNode:
      out << "TextNode";
      break;
    case OpKind::kRange:
      out << "Range " << ColName(op.col) << ".." << ColName(op.col2);
      break;
    case OpKind::kCardCheck:
      out << "CardCheck [" << op.min_card << "," << op.max_card << "]";
      break;
  }
  return out.str();
}

namespace {

void RenderText(const Dag& dag, OpId id, const StrPool& strings, int depth,
                std::set<OpId>* seen, std::ostringstream& out) {
  out << std::string(static_cast<size_t>(depth) * 2, ' ');
  if (seen->count(id) != 0) {
    out << "^" << id << "\n";
    return;
  }
  seen->insert(id);
  out << OpToString(dag, id, strings) << "  [" << id << "]";
  const Op& op = dag.op(id);
  if (!op.prov.empty()) out << "  -- " << op.prov;
  out << "\n";
  for (OpId c : op.children) {
    RenderText(dag, c, strings, depth + 1, seen, out);
  }
}

}  // namespace

std::string PlanToText(const Dag& dag, OpId root, const StrPool& strings) {
  std::ostringstream out;
  std::set<OpId> seen;
  RenderText(dag, root, strings, 0, &seen, out);
  return out.str();
}

std::string PlanToDot(const Dag& dag, OpId root, const StrPool& strings) {
  return PlanToDot(dag, root, strings, {});
}

std::string PlanToDot(
    const Dag& dag, OpId root, const StrPool& strings,
    const std::map<OpId, std::vector<std::string>>& annotations) {
  std::ostringstream out;
  out << "digraph plan {\n  node [shape=box, fontname=monospace];\n";
  for (OpId id : dag.ReachableFrom(root)) {
    const Op& op = dag.op(id);
    std::string label = OpToString(dag, id, strings);
    auto ann = annotations.find(id);
    if (ann != annotations.end()) {
      for (const std::string& line : ann->second) {
        label += "\n" + line;
      }
    }
    // Escape double quotes and literal newlines for DOT.
    std::string escaped;
    for (char c : label) {
      if (c == '"') {
        escaped += "\\\"";
      } else if (c == '\n') {
        escaped += "\\n";
      } else {
        escaped += c;
      }
    }
    out << "  n" << id << " [label=\"" << escaped << "\"";
    if (op.kind == OpKind::kRowNum) out << ", style=filled, fillcolor=salmon";
    if (op.kind == OpKind::kRowId) {
      out << ", style=filled, fillcolor=palegreen";
    }
    out << "];\n";
    for (OpId c : op.children) {
      out << "  n" << id << " -> n" << c << ";\n";
    }
  }
  out << "}\n";
  return out.str();
}

std::string CanonicalPlanText(std::string_view text) {
  // Fresh names (Dag::FreshCol, Normalize's renamed variables) are
  // renumbered in order of first appearance, so that the text names the
  // plan, not where its counters started.
  std::string out;
  out.reserve(text.size());
  std::map<std::string_view, size_t> fresh;
  for (size_t i = 0; i < text.size();) {
    out += text[i];
    if (text[i++] != '$') continue;
    size_t end = i;
    while (end < text.size() && std::isdigit(
                                    static_cast<unsigned char>(text[end]))) {
      ++end;
    }
    if (end == i) continue;
    auto it = fresh.try_emplace(text.substr(i, end - i), fresh.size()).first;
    out += std::to_string(it->second);
    i = end;
  }
  return out;
}

std::string PlanDigest(std::string_view text) {
  uint64_t h = 14695981039346656037ull;
  for (char c : CanonicalPlanText(text)) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace exrquy
