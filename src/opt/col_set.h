// Small sorted containers for the planner's per-operator facts.
//
// Every fact the analyses derive (opt/analyses.h, opt/facts_audit.h) is
// a set of columns, or a map keyed by column, per operator — and nearly
// all of them hold a handful of columns. A node-based std::set/std::map
// pays one heap allocation per column; these keep the elements in one
// sorted array with inline storage that spills to the heap only past a
// fixed capacity, so a typical fact allocates nothing.
//
// They offer the std::set/std::map subset the planner uses, with the
// same semantics: iteration is in ascending ColId order (every plan,
// diagnostic and certificate text that lists columns is unchanged),
// insert/emplace never overwrite, and == / < compare the sorted
// sequences. Unlike the node-based containers, inserting or erasing
// invalidates iterators and references into the same container.
#ifndef EXRQUY_OPT_COL_SET_H_
#define EXRQUY_OPT_COL_SET_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <new>
#include <utility>

#include "common/symbols.h"

namespace exrquy {

// A vector with room for N elements inside the object; it moves to a
// heap buffer (doubling) only when it outgrows that.
template <typename T, size_t N>
class InlineVec {
 public:
  InlineVec() = default;
  InlineVec(const InlineVec& other) { CopyFrom(other); }
  InlineVec(InlineVec&& other) noexcept { MoveFrom(&other); }
  InlineVec& operator=(const InlineVec& other) {
    if (this != &other) {
      clear();
      CopyFrom(other);
    }
    return *this;
  }
  InlineVec& operator=(InlineVec&& other) noexcept {
    if (this != &other) {
      Release();
      MoveFrom(&other);
    }
    return *this;
  }
  ~InlineVec() { Release(); }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T& back() const { return data_[size_ - 1]; }

  void clear() {
    std::destroy(begin(), end());
    size_ = 0;
  }

  // Constructs a `value` at `pos`, shifting the tail up by one.
  T* insert(const T* pos, T value) {
    size_t at = pos - data_;
    if (size_ == cap_) Grow(size_ + 1);
    ::new (static_cast<void*>(end())) T(std::move(value));
    ++size_;
    std::rotate(data_ + at, end() - 1, end());
    return data_ + at;
  }

  // Removes the element at `pos`, shifting the tail down by one.
  T* erase(const T* pos) {
    T* at = data_ + (pos - data_);
    std::move(at + 1, end(), at);
    --size_;
    std::destroy_at(end());
    return at;
  }

 private:
  T* Inline() { return reinterpret_cast<T*>(inline_); }
  bool OnHeap() const { return cap_ > N; }

  void Grow(size_t need) {
    size_t cap = std::max(need, size_t{2} * cap_);
    T* heap = std::allocator<T>().allocate(cap);
    std::uninitialized_move(begin(), end(), heap);
    uint32_t n = size_;
    Release();
    data_ = heap;
    size_ = n;
    cap_ = static_cast<uint32_t>(cap);
  }

  // Destroys the elements and frees a heap buffer; back to empty inline.
  void Release() {
    clear();
    if (OnHeap()) std::allocator<T>().deallocate(data_, cap_);
    data_ = Inline();
    cap_ = N;
  }

  // Requires *this empty.
  void CopyFrom(const InlineVec& other) {
    if (other.size_ > cap_) Grow(other.size_);
    std::uninitialized_copy(other.begin(), other.end(), data_);
    size_ = other.size_;
  }

  // Requires *this empty and inline. Leaves `other` empty and inline.
  void MoveFrom(InlineVec* other) {
    if (other->OnHeap()) {
      data_ = other->data_;
      size_ = other->size_;
      cap_ = other->cap_;
      other->data_ = other->Inline();
      other->size_ = 0;
      other->cap_ = N;
      return;
    }
    std::uninitialized_move(other->begin(), other->end(), data_);
    size_ = other->size_;
    other->clear();
  }

  T* data_ = Inline();
  uint32_t size_ = 0;
  uint32_t cap_ = N;
  alignas(T) unsigned char inline_[N * sizeof(T)];
};

// A sorted set of ids, a drop-in for the std::set subset the planner
// uses. Inserting in ascending order (the common case: facts are built
// by walking other sorted facts) appends.
template <typename Id, size_t N>
class IdSet {
 public:
  using value_type = Id;
  using const_iterator = const Id*;

  IdSet() = default;
  IdSet(std::initializer_list<Id> ids) { insert(ids.begin(), ids.end()); }

  const_iterator begin() const { return ids_.begin(); }
  const_iterator end() const { return ids_.end(); }
  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }

  const_iterator find(Id id) const {
    const_iterator it = LowerBound(id);
    return it != end() && *it == id ? it : end();
  }
  size_t count(Id id) const { return find(id) != end() ? 1 : 0; }

  std::pair<const_iterator, bool> insert(Id id) {
    if (ids_.empty() || ids_.back() < id) {
      return {ids_.insert(ids_.end(), id), true};
    }
    const_iterator it = LowerBound(id);
    if (*it == id) return {it, false};
    return {ids_.insert(it, id), true};
  }
  template <typename It>
  void insert(It first, It last) {
    for (; first != last; ++first) insert(*first);
  }

  size_t erase(Id id) {
    const_iterator it = find(id);
    if (it == end()) return 0;
    ids_.erase(it);
    return 1;
  }
  const_iterator erase(const_iterator it) { return ids_.erase(it); }

  friend bool operator==(const IdSet& a, const IdSet& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator<(const IdSet& a, const IdSet& b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  }

 private:
  const_iterator LowerBound(Id id) const {
    return std::lower_bound(begin(), end(), id);
  }

  InlineVec<Id, N> ids_;
};

// The planner's column set. Six inline columns hold the iter|pos|item
// encoding plus the few order and scaffolding columns most operators
// carry.
using ColSet = IdSet<ColId, 6>;

// A map from columns to V, sorted by column, a drop-in for the std::map
// subset the planner uses. Elements are std::pair<ColId, V>, so
// structured bindings and it->first / it->second read as with std::map;
// the key must not be modified through an iterator.
template <typename V, size_t N = 6>
class ColMap {
 public:
  using value_type = std::pair<ColId, V>;
  using iterator = value_type*;
  using const_iterator = const value_type*;

  iterator begin() { return items_.begin(); }
  iterator end() { return items_.end(); }
  const_iterator begin() const { return items_.begin(); }
  const_iterator end() const { return items_.end(); }
  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  iterator find(ColId c) {
    iterator it = LowerBound(c);
    return it != end() && it->first == c ? it : end();
  }
  const_iterator find(ColId c) const {
    return const_cast<ColMap*>(this)->find(c);
  }

  // Inserts (c, v) unless `c` is present; never overwrites.
  std::pair<iterator, bool> emplace(ColId c, V v) {
    iterator it = LowerBound(c);
    if (it != end() && it->first == c) return {it, false};
    return {items_.insert(it, value_type(c, std::move(v))), true};
  }
  // The value of `c`, default-constructed first when absent.
  V& operator[](ColId c) { return emplace(c, V()).first->second; }

  size_t erase(ColId c) {
    iterator it = find(c);
    if (it == end()) return 0;
    items_.erase(it);
    return 1;
  }

  friend bool operator==(const ColMap& a, const ColMap& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  iterator LowerBound(ColId c) {
    if (!items_.empty() && items_.back().first < c) return end();
    return std::lower_bound(
        begin(), end(), c,
        [](const value_type& e, ColId k) { return e.first < k; });
  }

  InlineVec<value_type, N> items_;
};

}  // namespace exrquy

#endif  // EXRQUY_OPT_COL_SET_H_
