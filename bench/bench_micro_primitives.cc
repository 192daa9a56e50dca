// Micro-benchmarks (google-benchmark) for the cost asymmetry the paper's
// rewrites exploit:
//
//  * % (RowNum, a blocking sort) vs # (RowId, a free numbering) on tables
//    of growing size — the primitive-level version of Figures 6/9;
//  * the merged descendant::nt step vs the two-step
//    descendant-or-self::node()/child::nt evaluation — the source of the
//    exceptional Q6/Q7 speedups;
//  * StrPool interning: hits and first-time interns at 1 and 4 threads
//    sharing one pool (as QueryService workers do), and a document load.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "algebra/algebra.h"
#include "api/session.h"
#include "engine/eval.h"
#include "xmark/generator.h"

namespace exrquy {
namespace {

// Builds a (iter, pos, item) literal table with `n` rows in shuffled
// order so the sort has real work to do.
OpId ShuffledTable(Dag* dag, int64_t n) {
  LitTable t;
  t.cols = {col::iter(), col::pos(), col::item()};
  uint64_t x = 88172645463325252ull;
  for (int64_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    t.rows.push_back({Value::Int(1), Value::Int(i + 1),
                      Value::Int(static_cast<int64_t>(x % (2 * n)))});
  }
  return dag->Lit(std::move(t));
}

void BM_RowNumSort(benchmark::State& state) {
  StrPool strings;
  NodeStore store(&strings);
  Dag dag;
  OpId lit = ShuffledTable(&dag, state.range(0));
  OpId rn = dag.RowNum(lit, ColSym("rank"), {{col::item(), false}},
                       col::iter());
  for (auto _ : state) {
    EvalContext ctx;
    ctx.store = &store;
    ctx.strings = &strings;
    Evaluator ev(dag, &ctx);
    auto r = ev.Eval(rn);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RowNumSort)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_RowIdFree(benchmark::State& state) {
  StrPool strings;
  NodeStore store(&strings);
  Dag dag;
  OpId lit = ShuffledTable(&dag, state.range(0));
  OpId ri = dag.RowId(lit, ColSym("rank"));
  for (auto _ : state) {
    EvalContext ctx;
    ctx.store = &store;
    ctx.strings = &strings;
    Evaluator ev(dag, &ctx);
    auto r = ev.Eval(ri);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RowIdFree)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

Session* XMarkSession() {
  static Session* session = [] {
    auto* s = new Session();
    XMarkOptions options;
    options.scale = 0.02;
    Status st = s->LoadDocument("auction.xml", GenerateXMark(options));
    EXRQUY_CHECK(st.ok());
    return s;
  }();
  return session;
}

void BM_TwoStepDescendant(benchmark::State& state) {
  // descendant-or-self::node()/child::item, as the ordered plans run it.
  QueryOptions options;
  options.enable_order_indifference = false;
  for (auto _ : state) {
    auto r = XMarkSession()->Execute(
        R"(count(doc("auction.xml")//item))", options);
    EXRQUY_CHECK(r.ok());
    benchmark::DoNotOptimize(r->items);
  }
}
BENCHMARK(BM_TwoStepDescendant);

void BM_MergedDescendant(benchmark::State& state) {
  // The merged descendant::item step with the tag-index fast path.
  QueryOptions options;
  options.default_ordering = OrderingMode::kUnordered;
  for (auto _ : state) {
    auto r = XMarkSession()->Execute(
        R"(count(doc("auction.xml")//item))", options);
    EXRQUY_CHECK(r.ok());
    benchmark::DoNotOptimize(r->items);
  }
}
BENCHMARK(BM_MergedDescendant);

// Strings already interned, as a warm request's atomizations and
// string joins find them. Each thread walks the 4096 words from its own
// offset; all threads share one pool.
void BM_StrPoolHit(benchmark::State& state) {
  static StrPool* pool = nullptr;
  static std::vector<std::string>* words = nullptr;
  if (state.thread_index() == 0) {
    pool = new StrPool();
    words = new std::vector<std::string>();
    for (int i = 0; i < 4096; ++i) {
      words->push_back("word" + std::to_string(i * 7919));
      pool->Intern(words->back());
    }
  }
  size_t i = static_cast<size_t>(state.thread_index()) * 1024;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool->Intern((*words)[i++ & 4095]));
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete pool;
    delete words;
  }
}
BENCHMARK(BM_StrPoolHit)->Threads(1)->Threads(4)->UseRealTime();

// First-time interns: every lookup misses and appends. The iteration
// count is fixed so the pool stays bounded (2^17 strings per thread).
void BM_StrPoolMiss(benchmark::State& state) {
  static StrPool* pool = nullptr;
  if (state.thread_index() == 0) pool = new StrPool();
  std::vector<std::string> keys;
  for (int i = 0; i < (1 << 17); ++i) {
    keys.push_back("t" + std::to_string(state.thread_index()) + "-" +
                   std::to_string(i));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool->Intern(keys[i++]));
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) delete pool;
}
BENCHMARK(BM_StrPoolMiss)
    ->Threads(1)
    ->Threads(4)
    ->Iterations(1 << 17)
    ->UseRealTime();

// A scale-0.025 XMark document (the perfbench xmark-large/service-mix
// document) parsed into a fresh Session: every name and text value is
// interned once.
void BM_DocumentLoad(benchmark::State& state) {
  XMarkOptions options;
  options.scale = 0.025;
  std::string xml = GenerateXMark(options);
  for (auto _ : state) {
    Session session;
    Status st = session.LoadDocument("auction.xml", xml);
    EXRQUY_CHECK(st.ok());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(xml.size()));
}
BENCHMARK(BM_DocumentLoad)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace exrquy

BENCHMARK_MAIN();
