// The planner's inline-storage containers (opt/col_set.h), tested
// differentially: seeded random insert / erase / lookup sequences run on
// ColSet and ColMap and on std::set / std::map side by side, and after
// every step the two must agree on contents, ascending iteration order,
// lookups, == and <. The sequences push the containers past their inline
// capacity and back, and interleave copies, moves and self-assignment of
// both inline and spilled values. CI runs this under ASan + UBSan, which
// also checks the inline/heap hand-over for leaks and stale reads.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "opt/analyses.h"
#include "opt/col_set.h"

namespace exrquy {
namespace {

template <typename S>
std::vector<typename S::value_type> Contents(const S& s) {
  return std::vector<typename S::value_type>(s.begin(), s.end());
}

template <typename Small, typename Ref>
void ExpectSameSet(const Small& got, const Ref& want) {
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.empty(), want.empty());
  ASSERT_EQ(Contents(got), std::vector<uint32_t>(want.begin(), want.end()));
}

template <typename V, typename Small>
std::vector<std::pair<ColId, V>> MapContents(const Small& m) {
  return std::vector<std::pair<ColId, V>>(m.begin(), m.end());
}

template <typename V, typename Small>
void ExpectSameMap(const Small& got, const std::map<ColId, V>& want) {
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.empty(), want.empty());
  ASSERT_EQ(MapContents<V>(got),
            (std::vector<std::pair<ColId, V>>(want.begin(), want.end())));
}

// One random step on a set and its reference. `range` bounds the ids, so
// a small range keeps the set near its inline capacity and a large one
// spills it.
template <typename Small>
void SetStep(std::mt19937* rng, uint32_t range, Small* s,
             std::set<uint32_t>* ref) {
  uint32_t id = (*rng)() % range;
  switch ((*rng)() % 8) {
    case 0:
    case 1:
    case 2: {
      auto [it, added] = s->insert(id);
      auto [rit, radded] = ref->insert(id);
      ASSERT_EQ(added, radded);
      ASSERT_EQ(*it, *rit);
      break;
    }
    case 3:
      ASSERT_EQ(s->erase(id), ref->erase(id));
      break;
    case 4: {
      ASSERT_EQ(s->count(id), ref->count(id));
      auto it = s->find(id);
      ASSERT_EQ(it != s->end(), ref->find(id) != ref->end());
      if (it != s->end()) {
        ASSERT_EQ(*it, id);
      }
      break;
    }
    case 5: {
      // Range insert from an unsorted source with duplicates.
      std::vector<uint32_t> ids = {id, (id * 7) % range, id, (id + 3) % range};
      s->insert(ids.begin(), ids.end());
      ref->insert(ids.begin(), ids.end());
      break;
    }
    case 6: {
      // Erase during iteration: drop every element with the id's parity.
      for (auto it = s->begin(); it != s->end();) {
        it = (*it % 2 == id % 2) ? s->erase(it) : std::next(it);
      }
      for (auto it = ref->begin(); it != ref->end();) {
        it = (*it % 2 == id % 2) ? ref->erase(it) : std::next(it);
      }
      break;
    }
    case 7:
      if ((*rng)() % 16 == 0) {
        *s = Small();
        ref->clear();
      }
      break;
  }
}

template <typename Small>
void RunSetDifferential(uint32_t seed) {
  std::mt19937 rng(seed);
  for (uint32_t range : {4u, 8u, 16u, 64u, 1000u}) {
    Small a, b;
    std::set<uint32_t> ra, rb;
    for (int step = 0; step < 2000; ++step) {
      SetStep(&rng, range, &a, &ra);
      SetStep(&rng, range, &b, &rb);
      ExpectSameSet(a, ra);
      ExpectSameSet(b, rb);
      ASSERT_EQ(a == b, ra == rb);
      ASSERT_EQ(a != b, ra != rb);
      ASSERT_EQ(a < b, ra < rb);
      ASSERT_EQ(b < a, rb < ra);
      ASSERT_EQ(a == a, true);
      switch (rng() % 10) {
        case 0: {  // copy construction: a deep copy
          Small c(a);
          ExpectSameSet(c, ra);
          c.insert(range);  // outside the ids `a` can hold
          ExpectSameSet(a, ra);
          ASSERT_EQ(c.size(), a.size() + 1);
          break;
        }
        case 1: {  // copy assignment over a value of another size
          Small c = b;
          c = a;
          ExpectSameSet(c, ra);
          break;
        }
        case 2: {  // move construction, then reuse of the moved-from set
          Small c(std::move(a));
          ExpectSameSet(c, ra);
          a = c;
          ExpectSameSet(a, ra);
          break;
        }
        case 3: {  // move assignment
          Small c = b;
          c = std::move(a);
          ExpectSameSet(c, ra);
          a = std::move(c);
          ExpectSameSet(a, ra);
          break;
        }
        case 4: {  // self-assignment, copy and move
          Small& alias = a;
          a = alias;
          ExpectSameSet(a, ra);
          a = std::move(alias);
          ExpectSameSet(a, ra);
          break;
        }
        case 5: {  // swap through moves
          std::swap(a, b);
          std::swap(ra, rb);
          break;
        }
        default:
          break;
      }
    }
  }
}

TEST(ColSetTest, MatchesStdSetOnRandomSequences) {
  for (uint32_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunSetDifferential<ColSet>(seed);
    RunSetDifferential<OrderProvenance::ReasonIds>(seed + 100);
  }
}

TEST(ColSetTest, SpillsPastInlineCapacityAndBack) {
  ColSet s;
  std::set<uint32_t> ref;
  // Descending inserts: every insert lands at the front.
  for (uint32_t c = 40; c > 0; --c) {
    s.insert(c * 3);
    ref.insert(c * 3);
    ExpectSameSet(s, ref);
  }
  ColSet spilled = s;
  ColSet moved = std::move(spilled);
  ExpectSameSet(moved, ref);
  for (uint32_t c = 1; c <= 40; ++c) {
    s.erase(c * 3);
    ref.erase(c * 3);
    ExpectSameSet(s, ref);
  }
  EXPECT_TRUE(s.empty());
  s = {5, 1, 3, 1};
  EXPECT_EQ(Contents(s), (std::vector<uint32_t>{1, 3, 5}));
  EXPECT_TRUE(s < moved);  // {1,3,5} < {3,6,...}
  EXPECT_FALSE(moved < s);
}

// One random step on a map and its reference, covering both the
// overwriting operator[] and the non-overwriting emplace.
template <typename V, typename Small, typename MakeValue>
void MapStep(std::mt19937* rng, uint32_t range, Small* m,
             std::map<ColId, V>* ref, MakeValue make) {
  ColId c = (*rng)() % range;
  V v = make((*rng)());
  switch ((*rng)() % 6) {
    case 0:
    case 1: {
      auto [it, added] = m->emplace(c, v);
      auto [rit, radded] = ref->emplace(c, v);
      ASSERT_EQ(added, radded);
      ASSERT_EQ(it->first, rit->first);
      ASSERT_EQ(it->second, rit->second);
      break;
    }
    case 2:
      (*m)[c] = v;
      (*ref)[c] = v;
      break;
    case 3:
      ASSERT_EQ(m->erase(c), ref->erase(c));
      break;
    case 4: {
      auto it = m->find(c);
      auto rit = ref->find(c);
      ASSERT_EQ(it == m->end(), rit == ref->end());
      if (it != m->end()) {
        ASSERT_EQ(it->second, rit->second);
      }
      // operator[] on a present key reads without inserting.
      if (rit != ref->end()) {
        ASSERT_EQ((*m)[c], rit->second);
      }
      break;
    }
    case 5: {
      const Small& cm = *m;
      auto it = cm.find(c);
      ASSERT_EQ(it == cm.end(), ref->count(c) == 0);
      break;
    }
  }
}

template <typename V, size_t N, typename MakeValue>
void RunMapDifferential(uint32_t seed, MakeValue make) {
  using Small = ColMap<V, N>;
  std::mt19937 rng(seed);
  for (uint32_t range : {4u, 8u, 32u, 500u}) {
    Small a, b;
    std::map<ColId, V> ra, rb;
    for (int step = 0; step < 1500; ++step) {
      MapStep(&rng, range, &a, &ra, make);
      MapStep(&rng, range, &b, &rb, make);
      ExpectSameMap(a, ra);
      ExpectSameMap(b, rb);
      ASSERT_EQ(a == b, ra == rb);
      switch (rng() % 8) {
        case 0: {
          Small c(a);
          ExpectSameMap(c, ra);
          c = b;
          ExpectSameMap(c, rb);
          break;
        }
        case 1: {
          Small c(std::move(a));
          ExpectSameMap(c, ra);
          a = std::move(c);
          ExpectSameMap(a, ra);
          break;
        }
        case 2: {
          Small& alias = a;
          a = alias;
          a = std::move(alias);
          ExpectSameMap(a, ra);
          break;
        }
        case 3:
          std::swap(a, b);
          std::swap(ra, rb);
          break;
        case 4:
          if (rng() % 8 == 0) {
            a = Small();
            ra.clear();
          }
          break;
        default:
          break;
      }
    }
  }
}

TEST(ColMapTest, MatchesStdMapOnRandomSequences) {
  for (uint32_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunMapDifferential<ItemKind, 6>(seed, [](uint32_t r) {
      return static_cast<ItemKind>(r % 6);
    });
    // A value type that owns heap memory: element moves and copies must
    // run its constructors and destructors exactly as std::map does.
    RunMapDifferential<std::string, 2>(seed + 50, [](uint32_t r) {
      return std::string(r % 40, static_cast<char>('a' + r % 26));
    });
  }
}

// The provenance fact: a map of reason-id sets, merged as the backward
// analysis joins parents' contributions.
TEST(ColMapTest, NestedReasonSetsMatchStdContainers) {
  std::mt19937 rng(7);
  OrderProvenance::Demand m;
  std::map<ColId, std::set<uint32_t>> ref;
  for (int step = 0; step < 3000; ++step) {
    ColId c = rng() % 24;
    uint32_t r = rng() % 20;
    if (rng() % 5 == 0) {
      ASSERT_EQ(m.erase(c), ref.erase(c));
    } else {
      m[c].insert(r);
      ref[c].insert(r);
    }
    ASSERT_EQ(m.size(), ref.size());
    auto rit = ref.begin();
    for (const auto& [col, reasons] : m) {
      ASSERT_EQ(col, rit->first);
      ExpectSameSet(reasons, rit->second);
      ++rit;
    }
  }
  OrderProvenance::Demand copy = m;
  EXPECT_TRUE(copy == m);
  copy[1000].insert(1);
  EXPECT_FALSE(copy == m);
}

}  // namespace
}  // namespace exrquy
