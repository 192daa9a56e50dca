#include "opt/pipeline.h"

#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "algebra/dot.h"
#include "opt/verify.h"

namespace exrquy {
namespace {

Status VerifyFailure(const Dag& dag, OpId bad_root,
                     const OptimizeOptions& options, std::string msg) {
  if (options.strings != nullptr) {
    msg += "\noffending plan:\n" + PlanToDot(dag, bad_root, *options.strings);
  }
  return Internal(std::move(msg));
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
      return VerifyFailure(
          *dag, root, options,
          "optimizer pass 0, initial plan (compiler output): " +
              diag.message());
    }
  }
  std::vector<RewriteTrade> trades;  // one pass's certificates
  // Verifies the pass's output (when asked) and logs its certificates.
  auto finish_pass = [&](const std::string& pass, OpId out) -> Status {
    if (options.verify_each_pass) {
      Status diag = VerifyPlan(*dag, out, {}, facts);
      if (!diag.ok()) {
        std::string msg = "optimizer pass " + pass + ": " + diag.message();
        for (const RewriteTrade& t : trades) {
          if (t.checked && !t.valid) {
            msg += "\nfailed obligation: " + t.diagnostic;
            break;
          }
        }
        return VerifyFailure(*dag, out, options, std::move(msg));
      }
    }
    if (options.trade_log != nullptr) {
      options.trade_log->insert(options.trade_log->end(),
                                std::make_move_iterator(trades.begin()),
                                std::make_move_iterator(trades.end()));
    }
    return Status::Ok();
  };
  OpId current = root;
  for (int pass = 0; pass < options.max_passes; ++pass) {
    bool changed = false;
    trades.clear();
    current = RewriteOnce(dag, current, rewrites, facts, &changed, &trades);
    EXRQUY_RETURN_IF_ERROR(finish_pass(std::to_string(pass), current));
    if (!changed) break;
  }
  // The marks read the final plan — identity indifference its
  // consumers, a presorted % its input's order — so they run once, on
  // the fixpoint.
  if (rewrites.deferred_construction || rewrites.rownum_by_od) {
    trades.clear();
    current = MarkPlan(dag, current, rewrites, facts, &trades);
    EXRQUY_RETURN_IF_ERROR(finish_pass("marks", current));
  }
  return current;
}

}  // namespace exrquy
