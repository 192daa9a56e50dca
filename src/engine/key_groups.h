// KeyGroups, the one hash kernel behind the engine's hash operators
// (DESIGN.md, "Execution engine"). Rows get dense group ids in
// first-appearance order from one open-addressing table, and each
// group's rows lie ascending in one flat array. Keys compare by
// Value::operator== (NaN equals nothing; int 1 is not double 1.0). A
// Build makes a fixed number of allocations whatever the row and group
// counts; Find is const, so concurrent probes are safe.
#ifndef EXRQUY_ENGINE_KEY_GROUPS_H_
#define EXRQUY_ENGINE_KEY_GROUPS_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "engine/table.h"

namespace exrquy {

// The most rows a kernel numbers with uint32_t row ids. Kernels take it
// as a defaulted parameter, so only tests ever lower it.
inline constexpr size_t kMaxRows = std::numeric_limits<uint32_t>::max();

// kResourceExhausted naming `what` when `rows` exceeds `limit`.
inline Status CheckRows(size_t rows, size_t limit, std::string_view what) {
  if (rows <= limit) return Status::Ok();
  return ResourceExhausted(std::string(what) + ": " + std::to_string(rows) +
                           " rows exceed the kernel row limit of " +
                           std::to_string(limit));
}

class KeyGroups {
 public:
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

  // Builds fail past `max_rows` rows.
  explicit KeyGroups(size_t max_rows = kMaxRows) : max_rows_(max_rows) {}

  // Groups rows [0, rows) of the key columns (no columns: all in one).
  Status Build(std::vector<const Column*> keys, size_t rows,
               bool normalize = false) {
    EXRQUY_RETURN_IF_ERROR(CheckRows(rows, max_rows_, "hash grouping"));
    keys_ = std::move(keys);
    normalize_ = normalize;
    // 2-4 slots per row keep probe runs short.
    const int bits = std::max(4, static_cast<int>(std::bit_width(rows)) + 1);
    shift_ = 64 - bits;
    slots_.assign(size_t{1} << bits, kEmpty);
    gid_.resize(rows);
    reps_.clear();
    reps_.reserve(rows);
    for (size_t r = 0; r < rows; ++r) {
      const uint64_t h = Hash(keys_, r);
      uint32_t g = kNone;
      const size_t s = Probe(keys_, r, h, &g);
      if (g == kNone) {
        g = static_cast<uint32_t>(reps_.size());
        reps_.push_back(static_cast<uint32_t>(r));
        // A key holding NaN equals no key: no probe can find its group,
        // so it stays out of the table and out of every probe run.
        if (Equal(static_cast<uint32_t>(r), keys_, r)) slots_[s] = h << 32 | g;
      }
      gid_[r] = g;
    }
    return Status::Ok();
  }

  size_t size() const { return reps_.size(); }  // group count
  uint32_t group_of(size_t row) const { return gid_[row]; }
  const std::vector<uint32_t>& reps() const { return reps_; }  // first rows

  // The group whose key equals row `row` of `probe` (columns aligned
  // with the build's), or kNone.
  uint32_t Find(const std::vector<const Column*>& probe, size_t row) const {
    uint32_t g = kNone;
    Probe(probe, row, Hash(probe, row), &g);
    return g;
  }

  // Lays out every group's rows, ascending, for members(). Counting
  // sort: offsets_[g + 1] starts as group g's first position and ends,
  // once g's rows are placed, as its end, the next group's start.
  void CollectMembers() {
    offsets_.assign(size() + 2, 0);
    for (size_t g : gid_) ++offsets_[g + 2];
    for (size_t i = 2; i < offsets_.size(); ++i) offsets_[i] += offsets_[i - 1];
    members_.resize(gid_.size());
    for (size_t r = 0; r < gid_.size(); ++r) {
      members_[offsets_[gid_[r] + 1]++] = static_cast<uint32_t>(r);
    }
  }
  std::span<const uint32_t> members(size_t g) const {
    return {members_.data() + offsets_[g], offsets_[g + 1] - offsets_[g]};
  }

 private:
  static constexpr uint64_t kMul = 0x9e3779b97f4a7c15ull;  // 2^64 / phi
  static constexpr uint64_t kEmpty = ~uint64_t{0};

  // Value joins compare xs:untypedAtomic keys as xs:string. The
  // verifier's [join-isolation-claim] audit confines their keys to {int,
  // string-class, bool}, where bit equality after this is exactly `eq`.
  // A deferred constructor's record (ValueKind::kRecord) is never a key:
  // one here means an unsound identity-indifference mark.
  Value Key(const Value& v) const {
    EXRQUY_CHECK(v.kind != ValueKind::kRecord);
    return normalize_ && v.kind == ValueKind::kUntyped ? Value::Str(v.str)
                                                       : v;
  }
  uint64_t Hash(const std::vector<const Column*>& cols, size_t row) const {
    uint64_t h = 0;
    for (const Column* c : cols) h = (h ^ Key((*c)[row]).Hash()) * kMul;
    return h;
  }
  bool Equal(uint32_t build_row, const std::vector<const Column*>& cols,
             size_t row) const {
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (!(Key((*keys_[i])[build_row]) == Key((*cols[i])[row]))) {
        return false;
      }
    }
    return true;
  }
  // The slot holding the probe's group (stored in *g), else the empty
  // slot that ends its run. Slots hold the low hash bits over the group.
  size_t Probe(const std::vector<const Column*>& cols, size_t row,
               uint64_t h, uint32_t* g) const {
    size_t s = h >> shift_;
    for (; slots_[s] != kEmpty; s = (s + 1) & (slots_.size() - 1)) {
      if ((slots_[s] >> 32) == (h & 0xFFFFFFFF) &&
          Equal(reps_[static_cast<uint32_t>(slots_[s])], cols, row)) {
        *g = static_cast<uint32_t>(slots_[s]);
        break;
      }
    }
    return s;
  }

  size_t max_rows_;
  std::vector<const Column*> keys_;
  bool normalize_ = false;
  int shift_ = 64;                 // slot = hash >> shift_
  std::vector<uint64_t> slots_;    // low hash bits << 32 | group
  std::vector<uint32_t> gid_;      // group per row
  std::vector<uint32_t> reps_;     // first row per group
  std::vector<uint32_t> offsets_;  // members_ bounds: group g at [g, g + 1]
  std::vector<uint32_t> members_;
};

}  // namespace exrquy

#endif  // EXRQUY_ENGINE_KEY_GROUPS_H_
