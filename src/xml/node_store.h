// Columnar XML node storage using the pre/size/level encoding of
// Grust et al. (Figure 5 of the paper): every node is identified by its
// preorder rank; `size` is the number of nodes in its subtree (excluding
// itself); `level` is its depth. Preorder ranks are document
// order-preserving node identifiers, which is all the compilation scheme
// requires. All loaded documents and all fragments constructed at query
// runtime live in one store, so a single integer comparison decides
// document order globally (order across fragments is implementation
// defined, as XQuery permits).
#ifndef EXRQUY_XML_NODE_STORE_H_
#define EXRQUY_XML_NODE_STORE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/governor.h"
#include "common/status.h"
#include "common/str_pool.h"

namespace exrquy {

using NodeIdx = uint64_t;
inline constexpr NodeIdx kInvalidNode = ~NodeIdx{0};

enum class NodeKind : uint8_t {
  kDocument = 0,
  kElement = 1,
  kAttribute = 2,
  kText = 3,
  kComment = 4,
};

class NodeStore {
 public:
  // `strings` must outlive the store; names and text values are interned
  // there so that items referring to them stay fixed-width.
  explicit NodeStore(StrPool* strings) : strings_(strings) {}

  NodeStore(const NodeStore&) = delete;
  NodeStore& operator=(const NodeStore&) = delete;

  // -- Node accessors ------------------------------------------------------
  size_t node_count() const { return kind_.size(); }
  NodeKind kind(NodeIdx n) const { return static_cast<NodeKind>(kind_[n]); }
  StrId name(NodeIdx n) const { return name_[n]; }
  StrId value(NodeIdx n) const { return value_[n]; }
  // Number of nodes in the subtree below n (attributes included).
  uint32_t size(NodeIdx n) const { return size_[n]; }
  uint16_t level(NodeIdx n) const { return level_[n]; }
  // Parent preorder rank, or kInvalidNode for fragment roots.
  NodeIdx parent(NodeIdx n) const { return parent_[n]; }

  const std::string& name_str(NodeIdx n) const {
    return strings_->Get(name_[n]);
  }
  const std::string& value_str(NodeIdx n) const {
    return strings_->Get(value_[n]);
  }

  StrPool& strings() const { return *strings_; }

  // Typed-value / string-value of a node: concatenation of the values of
  // all text nodes in its subtree (attribute and text nodes yield their
  // own value).
  std::string StringValue(NodeIdx n) const;

  // -- Fragments -----------------------------------------------------------
  struct Fragment {
    NodeIdx root;
    uint32_t node_count;
    bool indexed;  // has per-tag name index entries (loaded documents)
  };

  size_t fragment_count() const { return fragments_.size(); }
  const Fragment& fragment(size_t i) const { return fragments_[i]; }
  // Fragment that contains node n (binary search over fragment roots).
  const Fragment& FragmentOf(NodeIdx n) const;

  // Deep-copies the subtree rooted at src to the end of the store as part
  // of the currently open fragment built by a NodeBuilder, or as a new
  // standalone fragment when none is open. Returns the copy's root.
  // (Used by element constructors: sequence order establishes document
  // order in the new fragment — interaction seq->doc of Section 2.)
  NodeIdx CopySubtreeInto(NodeIdx src, uint16_t level_delta,
                          NodeIdx new_parent);

  // Creates a standalone (parentless) attribute/text node as its own
  // one-node fragment. Used by computed attribute/text constructors.
  NodeIdx MakeAttribute(StrId name, StrId value);
  NodeIdx MakeText(StrId value);

  // Discards all nodes and fragments appended after the snapshot taken
  // as (node_count(), fragment_count()). Dropped fragments must not be
  // name indexed (query-constructed fragments never are); used to free
  // constructed fragments between query executions.
  void TruncateTo(size_t node_count, size_t fragment_count);

  // Replaces this store's entire contents with a copy of `src` — nodes,
  // fragments, and name index. Both stores must share the same StrPool
  // (interned ids are copied verbatim). Used by the query service to
  // stamp per-worker snapshots of the loaded-document store: workers
  // append (and truncate) constructed fragments privately while reading
  // identical document bytes at identical preorder ranks, which is what
  // makes results byte-identical across workers.
  void CloneFrom(const NodeStore& src);

  // -- Name index ----------------------------------------------------------
  // Sorted preorder ranks of all element/attribute nodes with the given
  // name in *indexed* fragments. Enables the binary-searched
  // `descendant::nt` fast path (the staircase-join/TwigStack stand-in).
  const std::vector<NodeIdx>* IndexedNodes(NodeKind kind, StrId name) const;

  // Builds index entries for fragment `frag_id` (loaded documents only;
  // must be called in fragment creation order to keep index vectors
  // sorted).
  void IndexFragment(size_t frag_id);

  // -- Resource governance -------------------------------------------------
  // Attaches (nullptr detaches) a per-query MemoryBudget: every appended
  // node charges kBytesPerNode, and TruncateTo returns the bytes of the
  // dropped range. Mutations already serialize behind the evaluator's
  // store mutex, so no extra locking here.
  void set_budget(MemoryBudget* budget) { budget_ = budget; }

  // Columnar footprint of one node: kind + name + value + size + level +
  // parent. Exposed so tests can predict budget numbers.
  static constexpr size_t kBytesPerNode =
      sizeof(uint8_t) + 2 * sizeof(StrId) + sizeof(uint32_t) +
      sizeof(uint16_t) + sizeof(NodeIdx);

 private:
  friend class NodeBuilder;

  NodeIdx AppendNode(NodeKind kind, StrId name, StrId value, uint16_t level,
                     NodeIdx parent);

  StrPool* strings_;

  std::vector<uint8_t> kind_;
  std::vector<StrId> name_;
  std::vector<StrId> value_;
  std::vector<uint32_t> size_;
  std::vector<uint16_t> level_;
  std::vector<NodeIdx> parent_;

  std::vector<Fragment> fragments_;

  // (kind, name) -> sorted preorder ranks.
  std::unordered_map<uint64_t, std::vector<NodeIdx>> name_index_;

  MemoryBudget* budget_ = nullptr;
};

// Builds one fragment (a loaded document or a constructed element) in
// preorder. Usage:
//   NodeBuilder b(&store);
//   b.BeginDocument();              // optional document node
//   b.BeginElement(name);
//   b.Attribute(name, value);       // only directly after BeginElement
//   b.Text(value);
//   b.EndElement();
//   NodeIdx root = b.Finish();
class NodeBuilder {
 public:
  explicit NodeBuilder(NodeStore* store);
  ~NodeBuilder();

  NodeBuilder(const NodeBuilder&) = delete;
  NodeBuilder& operator=(const NodeBuilder&) = delete;

  void BeginDocument();
  void BeginElement(StrId name);
  void BeginElement(std::string_view name);
  void Attribute(StrId name, StrId value);
  void Attribute(std::string_view name, std::string_view value);
  void Text(StrId value);
  void Text(std::string_view value);
  void Comment(std::string_view value);
  // Deep-copies an existing subtree as the next child.
  void CopySubtree(NodeIdx src);
  void EndElement();
  void EndDocument();

  // Closes the fragment and registers it with the store; returns its root.
  NodeIdx Finish();

  // After Finish: starts the next fragment at the end of the store,
  // keeping this builder's buffers (constructors build one element per
  // loop row without allocating a builder each).
  void Restart();

 private:
  uint16_t CurrentLevel() const;
  NodeIdx CurrentParent() const;

  NodeStore* store_;
  NodeIdx first_;                 // first node of the fragment
  std::vector<NodeIdx> open_;     // stack of open element/document nodes
  bool finished_ = false;
};

}  // namespace exrquy

#endif  // EXRQUY_XML_NODE_STORE_H_
