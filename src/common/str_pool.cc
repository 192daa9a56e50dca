#include "common/str_pool.h"

#include <functional>

#include "common/check.h"
#include "common/governor.h"

namespace exrquy {
namespace {

constexpr size_t kInitialSlots = 64;

uint64_t Hash(std::string_view s) { return std::hash<std::string_view>{}(s); }

}  // namespace

StrPool::Table::Table(size_t capacity)
    : mask(capacity - 1), slots(new std::atomic<uint64_t>[capacity]()) {}

StrPool::StrPool()
    : chunks_(new std::atomic<std::string*>[kMaxChunks]()) {
  tables_.push_back(std::make_unique<Table>(kInitialSlots));
  table_.store(tables_.back().get(), std::memory_order_relaxed);
  StrId id = Intern("");
  EXRQUY_CHECK(id == kEmpty);
}

StrPool::~StrPool() {
  for (size_t c = 0; c < kMaxChunks; ++c) {
    delete[] chunks_[c].load(std::memory_order_relaxed);
  }
}

StrId StrPool::Probe(const Table& table, std::string_view s, uint64_t h,
                     size_t* slot) const {
  uint64_t tag = h >> 32;
  for (size_t i = h & table.mask;; i = (i + 1) & table.mask) {
    uint64_t v = table.slots[i].load(std::memory_order_acquire);
    *slot = i;
    if (v == 0) return kAbsent;
    if ((v >> 32) == tag) {
      StrId id = static_cast<StrId>(v) - 1;
      if (Get(id) == s) return id;
    }
  }
}

void StrPool::Insert(Table* table, uint64_t h, StrId id) {
  size_t i = h & table->mask;
  while (table->slots[i].load(std::memory_order_relaxed) != 0) {
    i = (i + 1) & table->mask;
  }
  table->slots[i].store((h >> 32) << 32 | (uint64_t{id} + 1),
                        std::memory_order_release);
}

StrId StrPool::Intern(std::string_view s) {
  uint64_t h = Hash(s);
  size_t slot;
  StrId id = Probe(*table_.load(std::memory_order_acquire), s, h, &slot);
  if (id != kAbsent) return id;

  std::lock_guard<std::mutex> lock(mu_);
  // Another writer may have interned `s` (or grown the table) since.
  Table* table = table_.load(std::memory_order_relaxed);
  id = Probe(*table, s, h, &slot);
  if (id != kAbsent) return id;
  size_t n = size_.load(std::memory_order_relaxed);
  EXRQUY_CHECK(n < kMaxChunks * kChunkSize);
  size_t chunk = n >> kChunkShift;
  std::string* block = chunks_[chunk].load(std::memory_order_relaxed);
  if (block == nullptr) {
    block = new std::string[kChunkSize];
    chunks_[chunk].store(block, std::memory_order_release);
  }
  // The string is stored before its slot is published, so a reader that
  // finds the slot also sees the string.
  block[n & (kChunkSize - 1)] = std::string(s);
  id = static_cast<StrId>(n);
  size_.store(n + 1, std::memory_order_release);
  size_t capacity = table->mask + 1;
  if (2 * (n + 1) <= capacity) {
    Insert(table, h, id);
  } else {
    // Rebuild at twice the size, inserting every id in ascending order,
    // and publish it whole; readers of the old table that miss retry
    // under the lock and see the new one.
    auto grown = std::make_unique<Table>(2 * capacity);
    for (StrId i = 0; i < id; ++i) Insert(grown.get(), Hash(Get(i)), i);
    Insert(grown.get(), h, id);
    table_.store(grown.get(), std::memory_order_release);
    tables_.push_back(std::move(grown));
  }
  if (budget_ != nullptr) budget_->Charge(InternedBytes(s.size()));
  return id;
}

void StrPool::set_budget(MemoryBudget* budget) {
  std::lock_guard<std::mutex> lock(mu_);
  budget_ = budget;
}

void StrPool::TruncateTo(size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  // No reader runs beside a truncation, so no replaced table is held.
  tables_.erase(tables_.begin(), tables_.end() - 1);
  size_t cur = size_.load(std::memory_order_relaxed);
  EXRQUY_CHECK(n <= cur);
  if (n == cur) return;
  Table* table = table_.load(std::memory_order_relaxed);
  size_t released = 0;
  // Newest first: clearing the slot of the newest id undoes its insert
  // exactly, so the probe chains of the older ids stay intact.
  for (size_t i = cur; i-- > n;) {
    std::string& s =
        chunks_[i >> kChunkShift].load(std::memory_order_relaxed)
            [i & (kChunkSize - 1)];
    released += InternedBytes(s.size());
    size_t slot;
    EXRQUY_CHECK(Probe(*table, s, Hash(s), &slot) == i);
    table->slots[slot].store(0, std::memory_order_relaxed);
    s.clear();
    s.shrink_to_fit();
  }
  size_.store(n, std::memory_order_release);
  if (budget_ != nullptr) budget_->Release(released);
}

const std::string& StrPool::Get(StrId id) const {
  EXRQUY_DCHECK(id < size_.load(std::memory_order_acquire));
  const std::string* block =
      chunks_[id >> kChunkShift].load(std::memory_order_acquire);
  return block[id & (kChunkSize - 1)];
}

}  // namespace exrquy
