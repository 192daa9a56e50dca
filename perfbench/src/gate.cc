#include "gate.h"

#include <cinttypes>
#include <cstdio>

#include "ref/interp.h"
#include "xquery/normalize.h"
#include "xquery/parser.h"

namespace perfbench {
namespace {

using exrquy::Result;
using exrquy::Session;

struct RecordedDigest {
  const char* workload;
  const char* pair;  // Pair::Label()
  uint64_t digest;
};

// The parallel-session oracle's engine settings.
constexpr int kOracleThreads = 4;
constexpr size_t kOracleMorselRows = 4096;

// Recorded with `xbench --workload <name> --record-digests` at the
// workload's default seed and scale (the reference interpreter does not
// finish these scales in reasonable time).
constexpr RecordedDigest kRecorded[] = {
#include "digests.inc"
};

Result<uint64_t> RefDigest(Session* session, const Pair& pair) {
  EXRQUY_ASSIGN_OR_RETURN(exrquy::Query parsed, exrquy::ParseQuery(*pair.text));
  exrquy::NormalizeOptions norm;
  norm.insert_unordered = false;
  EXRQUY_RETURN_IF_ERROR(exrquy::Normalize(&parsed, norm));
  exrquy::RefInterpreter interp(&session->store(), &session->strings(),
                                session->documents());
  EXRQUY_ASSIGN_OR_RETURN(std::vector<exrquy::Value> items,
                          interp.Eval(*parsed.body));
  return Digest(interp.Render(items), pair.Multiset());
}

}  // namespace

const char* OracleName(Oracle oracle) {
  switch (oracle) {
    case Oracle::kReferenceInterpreter:
      return "reference-interpreter";
    case Oracle::kRecordedDigests:
      return "recorded-digests";
    case Oracle::kParallelSession:
      return "parallel-session";
  }
  return "?";
}

Result<std::vector<uint64_t>> ReferenceDigests(Oracle oracle,
                                               const std::string& workload,
                                               const std::string& xml,
                                               const std::vector<Pair>& pairs) {
  std::vector<uint64_t> out;
  if (oracle == Oracle::kRecordedDigests) {
    for (const Pair& pair : pairs) {
      const RecordedDigest* found = nullptr;
      for (const RecordedDigest& r : kRecorded) {
        if (workload == r.workload && pair.Label() == r.pair) found = &r;
      }
      if (found == nullptr) {
        return exrquy::NotFound("no recorded digest for " + workload + " " +
                                pair.Label());
      }
      out.push_back(found->digest);
    }
    return out;
  }
  Session session;
  EXRQUY_RETURN_IF_ERROR(session.LoadDocument("auction.xml", xml));
  for (const Pair& pair : pairs) {
    if (oracle == Oracle::kReferenceInterpreter) {
      EXRQUY_ASSIGN_OR_RETURN(uint64_t d, RefDigest(&session, pair));
      out.push_back(d);
    } else {
      exrquy::QueryOptions options = OptionsFor(pair, kOracleThreads);
      options.morsel_rows = kOracleMorselRows;
      EXRQUY_ASSIGN_OR_RETURN(exrquy::QueryResult r,
                              session.Execute(*pair.text, options));
      out.push_back(Digest(std::move(r.items), pair.Multiset()));
    }
  }
  return out;
}

void PrintRecordedDigests(const std::string& workload,
                          const std::vector<Pair>& pairs,
                          const std::vector<uint64_t>& digests) {
  for (size_t i = 0; i < pairs.size(); ++i) {
    std::printf("{\"%s\", \"%s\", 0x%016" PRIx64 "ULL},\n", workload.c_str(),
                pairs[i].Label().c_str(), digests[i]);
  }
}

}  // namespace perfbench
