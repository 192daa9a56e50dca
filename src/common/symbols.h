// Column symbols for the relational algebra. Column names such as iter,
// pos, item are interned into dense 32-bit ids so that plan operators can
// carry small fixed-size column lists and the optimizer's column sets are
// small sorted id arrays (ColSet, opt/col_set.h). The well-known columns
// of the compilation scheme (Section 3 of the paper) are pre-interned as
// constants.
#ifndef EXRQUY_COMMON_SYMBOLS_H_
#define EXRQUY_COMMON_SYMBOLS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace exrquy {

using ColId = uint32_t;

// Interns a column name process-wide. Thread-safe: the registry is a
// StrPool (common/str_pool.h).
ColId ColSym(std::string_view name);

// Returns the name of an interned column id.
const std::string& ColName(ColId id);

// Number of column names interned so far (the registry never shrinks).
size_t ColCount();

// Well-known columns of the iter|pos|item encoding.
namespace col {
ColId iter();
ColId pos();
ColId item();
ColId bind();
ColId ord();
ColId item1();
ColId iter1();
ColId pos1();
}  // namespace col

}  // namespace exrquy

#endif  // EXRQUY_COMMON_SYMBOLS_H_
