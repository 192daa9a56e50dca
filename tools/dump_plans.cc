// Regenerates the committed optimized-plan goldens:
//
//   ./dump_plans ../tests/corpus/plans
//
// Writes one <query>_<mode>.txt per XMark query and ordering mode, with
// exactly the options tests/test_dataflow.cc's golden test uses (the
// fact-driven rewrites off, so the plans stay comparable across fact
// changes; structural rewrites — including join recognition — on), and
// defaults.digests: one PlanDigest line per query and mode of the plan
// the default QueryOptions reach.
//
//   ./dump_plans - [--defaults]
//
// dumps to stdout instead, with `--defaults` switching to the default
// QueryOptions — handy when debugging what shape the optimizer actually
// reaches in production configuration.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "algebra/dot.h"
#include "api/session.h"
#include "xmark/queries.h"

namespace {

bool Write(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) std::fprintf(stderr, "dump_plans: cannot write %s\n", path.c_str());
  return static_cast<bool>(out);
}

// Plans every XMark query in both ordering modes — with the default
// options, or with the fact-driven rewrites off — and hands each plan's
// text to `emit(name, text)`.
template <typename Emit>
bool Dump(exrquy::Session* session, bool defaults, Emit emit) {
  for (const exrquy::XMarkQuery& q : exrquy::XMarkQueries()) {
    for (bool unordered : {false, true}) {
      exrquy::QueryOptions options;
      if (unordered) {
        options.default_ordering = exrquy::OrderingMode::kUnordered;
      }
      if (!defaults) {
        options.distinct_by_keys = false;
        options.empty_short_circuit = false;
        options.rownum_by_keys = false;
        options.rownum_by_od = false;
      }
      exrquy::Result<exrquy::QueryPlans> p = session->Plan(q.text, options);
      if (!p.ok()) {
        std::fprintf(stderr, "dump_plans: %s: %s\n", q.name.c_str(),
                     p.status().ToString().c_str());
        return false;
      }
      std::string name =
          std::string(q.name) + (unordered ? "_unordered" : "_ordered");
      if (!emit(name, exrquy::PlanToText(*p->dag, p->optimized,
                                         session->strings()))) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: dump_plans <outdir>|- [--defaults]\n");
    return 2;
  }
  const std::string outdir = argv[1];
  const bool defaults =
      argc > 2 && std::strcmp(argv[2], "--defaults") == 0;
  exrquy::Session session;
  if (outdir == "-") {
    return Dump(&session, defaults,
                [](const std::string& name, const std::string& text) {
                  std::printf("==== %s ====\n%s\n", name.c_str(),
                              text.c_str());
                  return true;
                })
               ? 0
               : 1;
  }
  // The fact-off plans first, so that their fresh-column numbering is the
  // one a fresh process gives them (PlanDigest ignores it).
  std::string digests;
  bool ok = Dump(&session, false,
                 [&](const std::string& name, const std::string& text) {
                   return Write(outdir + "/" + name + ".txt", text);
                 }) &&
            Dump(&session, true,
                 [&](const std::string& name, const std::string& text) {
                   digests += name + " " + exrquy::PlanDigest(text) + "\n";
                   return true;
                 }) &&
            Write(outdir + "/defaults.digests", digests);
  return ok ? 0 : 1;
}
