#include "common/symbols.h"

#include "common/check.h"
#include "common/str_pool.h"

namespace exrquy {
namespace {

StrPool& Registry() {
  static StrPool* pool = new StrPool();  // never destroyed (trivial at exit)
  return *pool;
}

}  // namespace

ColId ColSym(std::string_view name) { return Registry().Intern(name); }

const std::string& ColName(ColId id) { return Registry().Get(id); }

size_t ColCount() { return Registry().size(); }

namespace col {
ColId iter() {
  static const ColId id = ColSym("iter");
  return id;
}
ColId pos() {
  static const ColId id = ColSym("pos");
  return id;
}
ColId item() {
  static const ColId id = ColSym("item");
  return id;
}
ColId bind() {
  static const ColId id = ColSym("bind");
  return id;
}
ColId ord() {
  static const ColId id = ColSym("ord");
  return id;
}
ColId item1() {
  static const ColId id = ColSym("item1");
  return id;
}
ColId iter1() {
  static const ColId id = ColSym("iter1");
  return id;
}
ColId pos1() {
  static const ColId id = ColSym("pos1");
  return id;
}
}  // namespace col

}  // namespace exrquy
