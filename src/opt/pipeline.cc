#include "opt/pipeline.h"

#include <optional>
#include <string>

#include "algebra/dot.h"
#include "opt/verify.h"

namespace exrquy {
namespace {

Status VerifyFailure(const Dag& dag, OpId bad_root,
                     const OptimizeOptions& options, int pass,
                     const std::string& stage, const Status& diag) {
  std::string msg = "optimizer pass " + std::to_string(pass) + ", " + stage +
                    ": " + diag.message();
  if (options.strings != nullptr) {
    msg += "\noffending plan:\n" + PlanToDot(dag, bad_root, *options.strings);
  }
  return Internal(std::move(msg));
}

// The combined pass broke an invariant: replay it from `before` one
// rewrite family at a time and blame the first one whose output fails to
// verify — naming the failed certificate obligation when the replayed
// family's own certificates cannot be proven either. Falls back to
// blaming the combined pass if each family is individually clean (an
// interaction bug).
Status AttributeFailure(Dag* dag, OpId before, const OptimizeOptions& options,
                        PlanFacts* facts, int pass, OpId combined_root,
                        const Status& combined_diag) {
  OpId current = before;
  for (const RewriteFamily& r : kRewriteFamilies) {
    if (!(options.rewrites.*(r.flag))) continue;
    RewriteOptions solo;
    for (const RewriteFamily& off : kRewriteFamilies) solo.*(off.flag) = false;
    solo.*(r.flag) = true;
    // Replay in plain checking mode: strict would reject (and so mask)
    // the very rewrite being hunted, and a test-only forced rejection
    // would misattribute it.
    solo.certify.mode = CertifyMode::kCheck;
    bool changed = false;
    std::vector<RewriteTrade> replay;
    current = RewriteOnce(dag, current, solo, facts, &changed, &replay);
    Status diag = VerifyPlan(*dag, current, {}, facts);
    if (!diag.ok()) {
      std::string stage = "rewrite '" + std::string(r.name) + "'";
      for (const RewriteTrade& t : replay) {
        if (t.checked && !t.valid) {
          stage += "\nfailed obligation: " + t.diagnostic;
          break;
        }
      }
      return VerifyFailure(*dag, current, options, pass, stage, diag);
    }
  }
  return VerifyFailure(*dag, combined_root, options, pass,
                       "combined rewrite pass", combined_diag);
}

}  // namespace

Result<OpId> Optimize(Dag* dag, OpId root, const OptimizeOptions& options,
                      PlanFacts* facts) {
  if (!options.enable) return root;
  RewriteOptions rewrites = options.rewrites;
  EXRQUY_ASSIGN_OR_RETURN(rewrites.certify, ResolveCertify(rewrites.certify));
  std::optional<PlanFacts> own;
  if (facts == nullptr) facts = &own.emplace(dag);
  if (options.verify_each_pass) {
    Status diag = VerifyPlan(*dag, root, {}, facts);
    if (!diag.ok()) {
      return VerifyFailure(*dag, root, options, 0,
                           "initial plan (compiler output)", diag);
    }
  }
  OpId current = root;
  for (int pass = 0; pass < options.max_passes; ++pass) {
    bool changed = false;
    OpId before = current;
    current = RewriteOnce(dag, current, rewrites, facts, &changed,
                          options.trade_log);
    if (options.verify_each_pass) {
      Status diag = VerifyPlan(*dag, current, {}, facts);
      if (!diag.ok()) {
        return AttributeFailure(dag, before, options, facts, pass, current,
                                diag);
      }
    }
    if (!changed) break;
  }
  return current;
}

}  // namespace exrquy
