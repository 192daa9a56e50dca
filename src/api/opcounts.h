// Figure 6-style operator-count report over the twenty XMark queries:
// for each query and ordering mode, the initial and optimized plans'
// operator tallies — total operators, % (blocking sorts), # (free
// numberings) and the #^ subset (numberings proven to be row positions
// by the order-dependency analysis) — plus the corpus-wide surviving-%
// totals per mode and each certificate rule's count over both modes (a
// rule at 0 fires on no XMark query). The rendered report is committed
// as a golden (tests/corpus/opcounts/), so any drift in the rewriter's
// %-elimination power or rewrite traffic — in either direction — must
// be re-committed deliberately (tools/gen_opcounts regenerates it).
#ifndef EXRQUY_API_OPCOUNTS_H_
#define EXRQUY_API_OPCOUNTS_H_

#include <string>

#include "api/session.h"

namespace exrquy {

// Renders the report by planning every XMark query in both ordering
// modes against `session` (plans are data-independent; the session needs
// no documents loaded). Fails with the first planning error.
Result<std::string> OpCountReport(Session* session);

}  // namespace exrquy

#endif  // EXRQUY_API_OPCOUNTS_H_
