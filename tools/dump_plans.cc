// Regenerates the committed optimized-plan goldens:
//
//   ./dump_plans ../tests/corpus/plans
//
// Writes one <query>_<mode>.txt per XMark query and ordering mode, with
// exactly the options tests/test_dataflow.cc's golden test uses (the
// fact-driven rewrites off, so the plans stay comparable across fact
// changes; structural rewrites — including join recognition — on).
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

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: dump_plans <outdir>|- [--defaults]\n");
    return 2;
  }
  const std::string outdir = argv[1];
  const bool to_stdout = outdir == "-";
  const bool defaults =
      argc > 2 && std::strcmp(argv[2], "--defaults") == 0;
  exrquy::Session session;
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
      exrquy::Result<exrquy::QueryPlans> p =
          session.Plan(q.text, options);
      if (!p.ok()) {
        std::fprintf(stderr, "dump_plans: %s: %s\n", q.name.c_str(),
                     p.status().ToString().c_str());
        return 1;
      }
      std::string text =
          exrquy::PlanToText(*p->dag, p->optimized, session.strings());
      std::string name =
          std::string(q.name) + (unordered ? "_unordered" : "_ordered");
      if (to_stdout) {
        std::printf("==== %s ====\n%s\n", name.c_str(), text.c_str());
      } else {
        std::ofstream out(outdir + "/" + name + ".txt",
                          std::ios::binary | std::ios::trunc);
        out << text;
        if (!out) {
          std::fprintf(stderr, "dump_plans: cannot write %s\n",
                       name.c_str());
          return 1;
        }
      }
    }
  }
  return 0;
}
