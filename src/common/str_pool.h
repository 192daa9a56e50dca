// String interning pool. Element/attribute names, text contents, and
// string items are stored once and referred to by dense 32-bit ids, which
// keeps the columnar engine's values fixed-width (MonetDB does the same
// with its string heaps).
//
// The pool is thread-safe, and neither a lookup that finds its string
// nor Get takes a lock. Strings live in fixed-size chunks whose
// addresses never change, so growth cannot invalidate a reader. The
// index is a flat open-addressing table of 64-bit atomic slots, each a
// 32-bit hash tag and `id + 1`, kept at most half full: Intern probes it
// with acquire loads only. A miss takes the writers' mutex, re-probes,
// appends the string and publishes its slot with a release store.
// Growth builds a doubled table and publishes it with one pointer store;
// the table it replaces stays allocated until no reader can hold it (the
// pool's destruction, or TruncateTo). QueryService workers share one
// pool, and parallel operator kernels call Get on every string
// comparison, which is why neither may wait on a writer.
#ifndef EXRQUY_COMMON_STR_POOL_H_
#define EXRQUY_COMMON_STR_POOL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace exrquy {

class MemoryBudget;

using StrId = uint32_t;

class StrPool {
 public:
  StrPool();
  ~StrPool();

  StrPool(const StrPool&) = delete;
  StrPool& operator=(const StrPool&) = delete;

  // Interns `s`, returning its dense id. Identical strings share an id.
  // Safe to call from multiple threads; a string already interned is
  // found without a lock. The id ordering between concurrent first-time
  // interns is unspecified (never observable in results: all value
  // comparisons go through string contents).
  StrId Intern(std::string_view s);

  // Returns the string for `id`. The reference is stable for the lifetime
  // of the pool. Wait-free; safe concurrently with Intern.
  const std::string& Get(StrId id) const;

  // Id of the empty string (always 0).
  static constexpr StrId kEmpty = 0;

  size_t size() const { return size_.load(std::memory_order_acquire); }

  // Attaches (or, with nullptr, detaches) a per-query MemoryBudget.
  // While attached, every first-time intern charges its payload +
  // bookkeeping bytes. Serialized with Intern's misses behind mu_.
  void set_budget(MemoryBudget* budget);

  // Rolls the pool back to its first `n` strings: ids >= n are erased
  // from the index, their storage freed, and their bytes returned to the
  // attached budget (if any). Callers must guarantee no live StrId >= n
  // survives the call (Session snapshots size() per query). Not safe
  // concurrently with Intern or Get: it also frees the replaced tables.
  void TruncateTo(size_t n);

  // Approximate bytes charged for interning a string of length `len`
  // (payload + std::string + hash-index entry). Exposed so tests can
  // predict budget numbers.
  static constexpr size_t InternedBytes(size_t len) {
    return len + sizeof(std::string) + 48;
  }

 private:
  static constexpr size_t kChunkShift = 12;
  static constexpr size_t kChunkSize = size_t{1} << kChunkShift;  // 4096
  static constexpr size_t kMaxChunks = size_t{1} << 14;  // 64M strings

  // One generation of the index: a power-of-two number of slots, each 0
  // (empty) or (hash tag << 32 | id + 1). Linear probing, and ids are
  // inserted in ascending order, so removing the newest ids first leaves
  // exactly the table that held only the older ones.
  struct Table {
    explicit Table(size_t capacity);
    size_t mask;
    std::unique_ptr<std::atomic<uint64_t>[]> slots;
  };

  // Returns the id of `s` (hashed to `h`) in `table`, or kAbsent with
  // *slot at the empty slot that ends its probe.
  static constexpr StrId kAbsent = ~StrId{0};
  StrId Probe(const Table& table, std::string_view s, uint64_t h,
              size_t* slot) const;
  // Publishes `id` (hashed to `h`) in the first empty slot of its probe.
  static void Insert(Table* table, uint64_t h, StrId id);

  // chunks_[c] is null until the pool grows into chunk c, then an
  // immovable array of kChunkSize strings.
  std::unique_ptr<std::atomic<std::string*>[]> chunks_;
  std::atomic<size_t> size_{0};
  std::atomic<Table*> table_{nullptr};  // the current generation

  std::mutex mu_;  // guards inserts, growth, tables_, and budget_
  // Every generation since construction or the last TruncateTo, the
  // current one last: readers may still probe a replaced one.
  std::vector<std::unique_ptr<Table>> tables_;
  MemoryBudget* budget_ = nullptr;
};

}  // namespace exrquy

#endif  // EXRQUY_COMMON_STR_POOL_H_
