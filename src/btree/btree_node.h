// In-memory B-tree node and its on-"disk" image.
//
// A node is either a leaf (sorted key/value entries, chained to the next
// leaf B+-tree style) or an internal node (n-1 pivots, n child ids).
//
// Records live in a node::SlottedPage in wire format, so deserialize is
// one bulk copy plus a header walk (no per-entry string allocations),
// serialize of an untouched node is one memcpy, and key()/value()/pivot()
// are zero-copy kv::Slice views into the page. The wire image is
// byte-identical to the pre-slotted layout, and byte_size() is derived
// from the page's live bytes, so sizes (and therefore every split/merge
// decision and sim-time gauge) are unchanged by construction.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "kv/slice.h"
#include "node/records.h"
#include "node/slotted_page.h"

namespace damkit::btree {

inline constexpr uint64_t kInvalidNode = ~0ULL;

class BTreeNode {
 public:
  static std::shared_ptr<BTreeNode> make_leaf();
  static std::shared_ptr<BTreeNode> make_internal();

  bool is_leaf() const { return is_leaf_; }
  uint64_t byte_size() const {
    return header_bytes() + child_bytes() * children_.size() +
           page_.live_bytes();
  }

  // --- Leaf accessors (views are invalidated by any mutation) ---
  size_t entry_count() const { return page_.count(); }
  kv::Slice key(size_t i) const {
    return node::leaf_record::key(page_.record(i));
  }
  kv::Slice value(size_t i) const {
    return node::leaf_record::value(page_.record(i));
  }
  uint64_t next_leaf() const { return next_leaf_; }
  void set_next_leaf(uint64_t id) { next_leaf_ = id; }

  /// Index of the first entry with key >= `key` (leaf binary search).
  size_t lower_bound(std::string_view key) const;
  /// True if entry `i` exists and equals `key`.
  bool key_equals(size_t i, std::string_view key) const;

  /// Insert or overwrite; returns true if a new entry was created.
  bool leaf_put(std::string_view key, std::string_view value);
  /// Remove `key` if present; returns true if removed.
  bool leaf_erase(std::string_view key);
  /// Append an entry known to sort after all existing ones (bulk load).
  void leaf_append(std::string_view key, std::string_view value);

  // --- Internal accessors ---
  size_t child_count() const { return children_.size(); }
  uint64_t child(size_t i) const { return children_[i]; }
  size_t pivot_count() const { return page_.count(); }
  kv::Slice pivot(size_t i) const {
    return node::pivot_record::key(page_.record(i));
  }

  /// Index of the child covering `key`: first pivot > key.
  size_t child_index(std::string_view key) const;

  /// Seed an internal node with its first child (no pivot yet).
  void internal_init(uint64_t first_child);
  /// Insert `(pivot, right_child)` after child at `child_idx`.
  void internal_insert(size_t child_idx, std::string_view pivot,
                       uint64_t right_child);
  /// Remove pivot `i` and child `i+1` (after a merge of i+1 into i).
  void internal_remove(size_t pivot_idx);
  /// Replace pivot i's key (borrow rebalancing).
  void internal_set_pivot(size_t i, std::string_view key);

  // --- Splitting (both kinds) ---
  struct SplitResult {
    std::string separator;             // pivot to insert into the parent
    std::shared_ptr<BTreeNode> right;  // new right sibling
  };
  /// Split roughly in half by bytes. For internal nodes the median pivot
  /// moves up (classic B-tree); for leaves the separator is the right
  /// node's first key (B+-tree).
  SplitResult split();

  /// Move entries/pivots from `right` (this node's right sibling, with
  /// `separator` between them for internal nodes) into this node. The
  /// caller removes the separator from the parent and frees `right`.
  void merge_from_right(BTreeNode& right, std::string_view separator);

  /// Rebalance with the right sibling by moving whole entries so both end
  /// up near half the combined bytes. Returns the new separator.
  std::string borrow_balance(BTreeNode& right, std::string_view separator);

  // --- Serialization ---
  void serialize(std::vector<uint8_t>& out) const;
  static std::shared_ptr<BTreeNode> deserialize(
      std::span<const uint8_t> image);

  /// Recompute byte_size_ from scratch (used by tests to cross-check the
  /// record length fields against the encoded key/value lengths).
  uint64_t recomputed_byte_size() const;

  static uint64_t header_bytes();
  static uint64_t leaf_entry_bytes(size_t klen, size_t vlen) {
    return node::leaf_record::bytes(klen, vlen);
  }
  static uint64_t pivot_bytes(size_t klen) {
    return node::pivot_record::bytes(klen);
  }
  static uint64_t child_bytes() { return 8; }

 private:
  BTreeNode() = default;

  bool is_leaf_ = true;
  // Leaf: node::leaf_record records. Internal: node::pivot_record
  // records (child_count-1 of them).
  node::SlottedPage page_;
  std::vector<uint64_t> children_;     // internal only
  uint64_t next_leaf_ = kInvalidNode;  // leaf only
};

}  // namespace damkit::btree
