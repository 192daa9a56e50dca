// Rewrite certification: translation validation for the optimizer.
//
// Every rewrite instance the optimizer performs emits a
// RewriteCertificate — the rewrite family, the before/after roots, a
// column witness map, and the exact facts the rewrite cited (keys,
// cardinality intervals, sorted prefixes, semantic types, error
// capability, join isolation). An independent checker (CertifyChecker)
// validates each certificate against its own fact re-derivation
// (opt/facts_audit.h) plus a per-family proof-obligation template:
//
//   family               obligation          what must be re-derivable
//   -------------------  ------------------  ----------------------------
//   column_pruning       dead-column         every dropped column is dead
//                                            in the reference liveness
//                                            walk at the before op
//   weaken_rownum        constant-criteria   every dropped sort/grouping
//                                            criterion is constant
//   arbitrary-order      arbitrary-order     no grouping left; the
//                                            leading criterion (if any)
//                                            is order-meaningless
//   distinct_elimination disjoint-steps      the after plan is a union of
//                                            pairwise-disjoint steps
//   step_merging         step-shape          the merged-away child is a
//                                            descendant-or-self::node()
//                                            step and the axis/test
//                                            mapping is exact
//   distinct_by_keys     key-distinct        the before input has a
//                                            derivable key column or at
//                                            most one row
//   empty_short_circuit  empty-plan          derived max-rows = 0 AND the
//                                            derived error capability is
//                                            empty; the after plan is an
//                                            empty literal, same schema
//   union_empty_branch   empty-branch        the dropped branch is a
//                                            0-row literal
//   keyed-partition      keyed-partition     the partition column is a
//                                            derivable key of the input
//                                            (or the input has <= 1 row)
//   semantic-type        unit-group          the partition column is
//                                            derivably duplicate-free
//   order-dependency     sorted-prefix       the requested order is
//                                            covered by a derivable
//                                            sorted-prefix fact
//   join_recognition     join-isolation      no predicate column of any
//                                            emitted join is reachable
//                                            from iteration/order
//                                            scaffolding; the hash/theta
//                                            kind gates re-check; a
//                                            re-rooted return rebuilds
//                                            its body with only the
//                                            survivor-loop, binding and
//                                            map leaves substituted
//   theta-count          count-fusion        the count's input re-matches
//                                            the distinct theta-join
//                                            shape (or a keyed semijoin
//                                            over it), the relation is an
//                                            order relation, the keys
//                                            share one comparison class,
//                                            and the replacement is that
//                                            join's exact ThetaCount
//
// Modes (EXRQUY_CERTIFY, options beat environment):
//   off    — emit bare trade records, never check;
//   on     — check every certificate and record the outcome (default);
//   strict — fail closed: an unprovable certificate rejects that rewrite
//            and keeps the old sub-plan;
//   spot   — strict, plus the api layer dynamically evaluates before/
//            after sub-plans and compares results byte-for-byte.
//
// Diagnostics are stable and test-assertable:
//   certify: [<obligation>] <rule> op <from> -> op <to>: <detail>
#ifndef EXRQUY_OPT_CERTIFY_H_
#define EXRQUY_OPT_CERTIFY_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/algebra.h"
#include "opt/facts_audit.h"

namespace exrquy {

// How strictly rewrite certificates are enforced.
enum class CertifyMode : uint8_t {
  kDefault,  // resolve via EXRQUY_CERTIFY (unset -> kCheck)
  kOff,      // emit bare trade records, never check
  kCheck,    // check every certificate, record outcomes, never reject
  kStrict,   // fail closed: an unprovable certificate rejects its rewrite
};

struct CertifySettings {
  CertifyMode mode = CertifyMode::kDefault;
  // Evaluate before/after sub-plans on the session's documents and
  // compare results byte-for-byte (api layer; implies checking).
  bool spot_check = false;
  // Test-only: the checker fails this family's obligation
  // unconditionally, to exercise the strict-mode fail-close path
  // deterministically.
  std::string force_reject_rule;
};

// Resolves kDefault against the EXRQUY_CERTIFY environment variable
// ("off"/"on"/"strict"/"spot"); explicit options beat the environment.
CertifySettings ResolveCertify(const CertifySettings& options);

// One fact a rewrite cited as its license. The checker re-derives every
// cited fact with the audit fact base — a cited fact the audit cannot
// reproduce (stale, corrupted, or about the wrong column) fails the
// certificate's obligation.
struct CitedFact {
  enum class Kind : uint8_t {
    kKey,           // `col` is duplicate-free at `op`
    kConstant,      // `col` holds one value at `op`
    kArbitrary,     // `col` is order-meaningless at `op`
    kInterval,      // row count of `op` lies in [min_rows, max_rows]
    kSorted,        // `op` already realizes `order`
    kUnitGroup,     // `col` partitions `op` into singleton groups
    kNoRaise,       // evaluating `op` can never raise a dynamic error
    kKindClass,     // `col` at `op` stays within `kind_class`
    kScaffoldFree,  // `col` at `op` carries no iteration/order scaffolding
    kDeadColumn,    // `col` of `op` is never consumed above it
    kStructural,    // a shape condition the family template re-checks
  };
  Kind kind = Kind::kStructural;
  OpId op = kNoOp;
  ColId col = kNoCol;
  std::vector<SortKey> order;                 // kSorted payload
  uint64_t min_rows = 0;                      // kInterval payload
  uint64_t max_rows = kUnboundedRows;
  ItemKind kind_class = ItemKind::kAny;       // kKindClass payload
  std::string text;                           // human rendering
};

const char* CitedFactKindName(CitedFact::Kind kind);

// CitedFact constructors (each fills the rendered `text`).
CitedFact CiteKey(OpId op, ColId col);
CitedFact CiteConstant(OpId op, ColId col);
CitedFact CiteArbitrary(OpId op, ColId col);
CitedFact CiteInterval(OpId op, uint64_t min_rows, uint64_t max_rows);
CitedFact CiteSorted(OpId op, std::vector<SortKey> order);
CitedFact CiteUnitGroup(OpId op, ColId col);
CitedFact CiteNoRaise(OpId op);
CitedFact CiteKindClass(OpId op, ColId col, ItemKind kind_class);
CitedFact CiteScaffoldFree(OpId op, ColId col);
CitedFact CiteDeadColumn(OpId op, ColId col);
CitedFact CiteStructural(OpId op, std::string text);

// How one output column of the after plan corresponds to a column of the
// before plan. `exact` columns must hold byte-identical values row for
// row (node values compare by serialization — constructed node
// identities differ between evaluations); inexact columns carry
// legitimately different values (e.g. an arbitrary # numbering) and are
// excluded from the dynamic spot check.
struct ColWitness {
  ColId after = kNoCol;
  ColId before = kNoCol;
  bool exact = true;
};

// The certificate one rewrite instance emits. Doubles as the optimizer's
// per-instance trade log entry (rewrites.h aliases RewriteTrade to it).
struct RewriteCertificate {
  OpId from = kNoOp;   // the rewritten operator (pre-pass region)
  OpId to = kNoOp;     // its replacement
  std::string rule;    // the rewrite family that fired
  std::string detail;  // human-readable justification
  // A % elimination: Session::ExplainOrder surfaces these next to the
  // surviving sorts (the pre-certification RewriteTrade contract).
  bool order_trade = false;
  // The after plan may emit rows in a different physical order (join
  // re-rooting); the spot check then compares row multisets.
  bool rows_reordered = false;
  std::vector<CitedFact> cited;
  std::vector<ColWitness> witness;
  // Checker outcome.
  bool checked = false;
  bool valid = false;
  std::string obligation;   // the obligation that failed (when !valid)
  std::string diagnostic;   // "certify: [<obligation>] ..." (when !valid)
};

// Validates certificates against an independent fact re-derivation over
// `dag`. `pass_root` is the root of the plan the rewrite pass is
// consuming — the reference liveness walk for dead-column obligations is
// anchored there. One checker serves one rewrite pass (its memoized fact
// base stays sound because the DAG is append-only).
class CertifyChecker {
 public:
  CertifyChecker(const Dag* dag, OpId pass_root,
                 std::string force_reject_rule = {});

  // Fills cert->checked / valid / obligation / diagnostic; returns
  // cert->valid.
  bool Check(RewriteCertificate* cert);

 private:
  void EnsureLive();
  bool Fail(RewriteCertificate* cert, const char* obligation,
            const std::string& detail);
  bool ValidateCited(RewriteCertificate* cert, const char* obligation);
  bool CheckFamily(RewriteCertificate* cert);

  const Dag* dag_;
  OpId pass_root_;
  std::string force_reject_rule_;
  FactsAudit audit_;
  bool live_ready_ = false;
  std::unordered_map<OpId, ColSet> live_;
};

}  // namespace exrquy

#endif  // EXRQUY_OPT_CERTIFY_H_
