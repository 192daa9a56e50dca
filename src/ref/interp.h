// A direct, tree-walking XQuery interpreter over the normalized AST —
// deliberately *not* sharing any code with the algebraic compiler or the
// columnar engine beyond the value primitives and the axis evaluator.
//
// Its purpose is differential testing: the loop-lifting compiler, the
// rewrite pipeline and the engine together form a large trusted base;
// this interpreter provides an independent implementation of the same
// (ordered-mode) semantics, so any divergence pinpoints a bug in one of
// the two stacks. It is intentionally simple and slow (nested loops,
// no sharing) and supports exactly the subset the compiler supports.
#ifndef EXRQUY_REF_INTERP_H_
#define EXRQUY_REF_INTERP_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "engine/value.h"
#include "xml/node_store.h"
#include "xquery/ast.h"

namespace exrquy {

class RefInterpreter {
 public:
  RefInterpreter(NodeStore* store, StrPool* strings,
                 std::map<StrId, NodeIdx> documents);

  // Evaluates a normalized query body under ordered-mode semantics and
  // returns the result item sequence.
  Result<std::vector<Value>> Eval(const Expr& body);

  // Renders a result sequence the way engine/eval.h's ResultItems does
  // (nodes serialized as XML, atomics via their string value).
  std::vector<std::string> Render(const std::vector<Value>& items) const;

 private:
  using Sequence = std::vector<Value>;
  using Env = std::map<std::string, Sequence>;
  // One iteration's order by keys (nullopt: the key is empty) and items.
  using Keyed = std::pair<std::vector<std::optional<Value>>, Sequence>;

  Result<Sequence> EvalExpr(const Expr& e, Env& env);
  Result<Sequence> EvalFlwor(const Expr& e, Env& env);
  Result<Sequence> EvalFlworClauses(const Expr& e, size_t idx, Env& env,
                                    std::vector<Keyed>* keyed_results);
  Result<Sequence> EvalPathStep(const Expr& e, Env& env);
  Result<Sequence> EvalPredicate(const Expr& e, Env& env);
  Result<Sequence> EvalComparison(const Expr& e, Env& env);
  Result<Sequence> EvalArith(const Expr& e, Env& env);
  Result<Sequence> EvalCall(const Expr& e, Env& env);
  Result<Sequence> EvalCtor(const Expr& e, Env& env);
  Result<std::string> EvalAvt(const std::vector<CtorPart>& parts, Env& env);

  Result<bool> Ebv(const Sequence& s) const;
  Result<Value> Singleton(const Sequence& s, const char* what) const;
  // The integer a `to` bound denotes: an integer as is, any other atomic
  // through xs:double, truncated. NaN and doubles beyond the 64-bit
  // integer range are errors.
  Result<int64_t> RangeBound(const Value& v) const;
  // Sorts by document order / value order and removes duplicates — the
  // node-set normalization after steps and set operations.
  Sequence SortedDistinct(Sequence s) const;

  NodeStore* store_;
  StrPool* strings_;
  std::map<StrId, NodeIdx> documents_;
  // The value primitives (atomization, casts, comparison dynamics) are
  // shared with the engine on purpose: the differential surface is the
  // compiler + rewriter + relational execution, not the scalar
  // semantics.
  ValueOps ops_;
};

}  // namespace exrquy

#endif  // EXRQUY_REF_INTERP_H_
