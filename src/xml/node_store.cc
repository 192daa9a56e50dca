#include "xml/node_store.h"

#include <algorithm>

#include "common/check.h"

namespace exrquy {

namespace {

uint64_t IndexKey(NodeKind kind, StrId name) {
  return (static_cast<uint64_t>(kind) << 32) | name;
}

}  // namespace

std::string NodeStore::StringValue(NodeIdx n) const {
  NodeKind k = kind(n);
  if (k == NodeKind::kAttribute || k == NodeKind::kText ||
      k == NodeKind::kComment) {
    return value_str(n);
  }
  std::string out;
  NodeIdx end = n + size(n);
  for (NodeIdx i = n + 1; i <= end; ++i) {
    if (kind(i) == NodeKind::kText) out += value_str(i);
  }
  return out;
}

const NodeStore::Fragment& NodeStore::FragmentOf(NodeIdx n) const {
  EXRQUY_DCHECK(!fragments_.empty());
  auto it = std::upper_bound(
      fragments_.begin(), fragments_.end(), n,
      [](NodeIdx v, const Fragment& f) { return v < f.root; });
  EXRQUY_DCHECK(it != fragments_.begin());
  --it;
  EXRQUY_DCHECK(n >= it->root && n < it->root + it->node_count);
  return *it;
}

NodeIdx NodeStore::CopySubtreeInto(NodeIdx src, uint16_t level_delta,
                                   NodeIdx new_parent) {
  NodeIdx dst_root = kind_.size();
  size_t count = size_t{size(src)} + 1;
  NodeIdx src_end = src + count;
  // Kinds, names, values and subtree sizes are position independent:
  // copy them as ranges (each source range lies below dst_root, so a
  // self-append copies no element it has just written).
  auto append_range = [&](auto& v) {
    v.resize(dst_root + count);
    std::copy(v.begin() + src, v.begin() + src_end, v.begin() + dst_root);
  };
  append_range(kind_);
  append_range(name_);
  append_range(value_);
  append_range(size_);
  // Levels and parents are rebased in one loop.
  level_.resize(dst_root + count);
  parent_.resize(dst_root + count);
  uint16_t src_level = level_[src];
  NodeIdx idx_delta = dst_root - src;  // dst_root > src: no wrap-around
  level_[dst_root] = level_delta;
  parent_[dst_root] = new_parent;
  for (size_t k = 1; k < count; ++k) {
    level_[dst_root + k] =
        static_cast<uint16_t>(level_[src + k] - src_level + level_delta);
    parent_[dst_root + k] = parent_[src + k] + idx_delta;
  }
  // Charge per node, as AppendNode does, so the budget's charge count
  // (and with it every fail-at fault point) is the same as node by node.
  if (budget_ != nullptr) {
    for (size_t k = 0; k < count; ++k) budget_->Charge(kBytesPerNode);
  }
  return dst_root;
}

NodeIdx NodeStore::MakeAttribute(StrId name, StrId value) {
  NodeIdx n = AppendNode(NodeKind::kAttribute, name, value, 0, kInvalidNode);
  fragments_.push_back(Fragment{n, 1, false});
  return n;
}

NodeIdx NodeStore::MakeText(StrId value) {
  NodeIdx n = AppendNode(NodeKind::kText, StrPool::kEmpty, value, 0,
                         kInvalidNode);
  fragments_.push_back(Fragment{n, 1, false});
  return n;
}

void NodeStore::TruncateTo(size_t node_count, size_t fragment_count) {
  EXRQUY_CHECK(node_count <= kind_.size());
  EXRQUY_CHECK(fragment_count <= fragments_.size());
  for (size_t i = fragment_count; i < fragments_.size(); ++i) {
    EXRQUY_CHECK(!fragments_[i].indexed);
  }
  if (budget_ != nullptr && node_count < kind_.size()) {
    budget_->Release((kind_.size() - node_count) * kBytesPerNode);
  }
  kind_.resize(node_count);
  name_.resize(node_count);
  value_.resize(node_count);
  size_.resize(node_count);
  level_.resize(node_count);
  parent_.resize(node_count);
  fragments_.resize(fragment_count);
}

void NodeStore::CloneFrom(const NodeStore& src) {
  EXRQUY_CHECK(strings_ == src.strings_);
  kind_ = src.kind_;
  name_ = src.name_;
  value_ = src.value_;
  size_ = src.size_;
  level_ = src.level_;
  parent_ = src.parent_;
  fragments_ = src.fragments_;
  name_index_ = src.name_index_;
}

const std::vector<NodeIdx>* NodeStore::IndexedNodes(NodeKind kind,
                                                    StrId name) const {
  auto it = name_index_.find(IndexKey(kind, name));
  if (it == name_index_.end()) return nullptr;
  return &it->second;
}

void NodeStore::IndexFragment(size_t frag_id) {
  Fragment& f = fragments_[frag_id];
  if (f.indexed) return;
  for (NodeIdx i = f.root; i < f.root + f.node_count; ++i) {
    NodeKind k = kind(i);
    if (k == NodeKind::kElement || k == NodeKind::kAttribute) {
      std::vector<NodeIdx>& v = name_index_[IndexKey(k, name_[i])];
      // Creation order equals preorder within a fragment; indexing
      // fragments in creation order keeps every vector sorted.
      EXRQUY_DCHECK(v.empty() || v.back() < i);
      v.push_back(i);
    }
  }
  f.indexed = true;
}

NodeIdx NodeStore::AppendNode(NodeKind kind, StrId name, StrId value,
                              uint16_t level, NodeIdx parent) {
  NodeIdx n = kind_.size();
  kind_.push_back(static_cast<uint8_t>(kind));
  name_.push_back(name);
  value_.push_back(value);
  size_.push_back(0);
  level_.push_back(level);
  parent_.push_back(parent);
  if (budget_ != nullptr) budget_->Charge(kBytesPerNode);
  return n;
}

// ---------------------------------------------------------------------------
// NodeBuilder

NodeBuilder::NodeBuilder(NodeStore* store)
    : store_(store), first_(store->node_count()) {}

NodeBuilder::~NodeBuilder() {
  if (!finished_) {
    // Abandoned build (e.g. a parse error): roll the partial fragment
    // back so the store is unchanged.
    store_->TruncateTo(first_, store_->fragment_count());
  }
}

uint16_t NodeBuilder::CurrentLevel() const {
  return static_cast<uint16_t>(open_.size());
}

NodeIdx NodeBuilder::CurrentParent() const {
  return open_.empty() ? kInvalidNode : open_.back();
}

void NodeBuilder::BeginDocument() {
  EXRQUY_CHECK(open_.empty() && store_->node_count() == first_);
  NodeIdx n = store_->AppendNode(NodeKind::kDocument, StrPool::kEmpty,
                                 StrPool::kEmpty, 0, kInvalidNode);
  open_.push_back(n);
}

void NodeBuilder::BeginElement(StrId name) {
  NodeIdx n = store_->AppendNode(NodeKind::kElement, name, StrPool::kEmpty,
                                 CurrentLevel(), CurrentParent());
  open_.push_back(n);
}

void NodeBuilder::BeginElement(std::string_view name) {
  BeginElement(store_->strings().Intern(name));
}

void NodeBuilder::Attribute(StrId name, StrId value) {
  EXRQUY_CHECK(!open_.empty());
  store_->AppendNode(NodeKind::kAttribute, name, value, CurrentLevel(),
                     CurrentParent());
}

void NodeBuilder::Attribute(std::string_view name, std::string_view value) {
  Attribute(store_->strings().Intern(name), store_->strings().Intern(value));
}

void NodeBuilder::Text(StrId value) {
  store_->AppendNode(NodeKind::kText, StrPool::kEmpty, value, CurrentLevel(),
                     CurrentParent());
}

void NodeBuilder::Text(std::string_view value) {
  Text(store_->strings().Intern(value));
}

void NodeBuilder::Comment(std::string_view value) {
  store_->AppendNode(NodeKind::kComment, StrPool::kEmpty,
                     store_->strings().Intern(value), CurrentLevel(),
                     CurrentParent());
}

void NodeBuilder::CopySubtree(NodeIdx src) {
  store_->CopySubtreeInto(src, CurrentLevel(), CurrentParent());
}

void NodeBuilder::EndElement() {
  EXRQUY_CHECK(!open_.empty());
  NodeIdx n = open_.back();
  EXRQUY_CHECK(store_->kind(n) == NodeKind::kElement);
  open_.pop_back();
  store_->size_[n] = static_cast<uint32_t>(store_->node_count() - n - 1);
}

void NodeBuilder::EndDocument() {
  EXRQUY_CHECK(open_.size() == 1);
  NodeIdx n = open_.back();
  EXRQUY_CHECK(store_->kind(n) == NodeKind::kDocument);
  open_.pop_back();
  store_->size_[n] = static_cast<uint32_t>(store_->node_count() - n - 1);
}

NodeIdx NodeBuilder::Finish() {
  EXRQUY_CHECK(open_.empty() && !finished_);
  EXRQUY_CHECK(store_->node_count() > first_);
  finished_ = true;
  store_->fragments_.push_back(NodeStore::Fragment{
      first_, static_cast<uint32_t>(store_->node_count() - first_), false});
  return first_;
}

void NodeBuilder::Restart() {
  EXRQUY_CHECK(finished_);
  first_ = store_->node_count();
  finished_ = false;
}

}  // namespace exrquy
