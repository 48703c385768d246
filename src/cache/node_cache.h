// NodeCache: the one node-caching protocol of the paged trees.
//
// A B-tree and a Bε-tree read, cache, dirty and write back whole nodes
// the same way; NodeCache is that protocol, owned once. It holds the
// tree's NodeStore (the extents on the device), its BufferPool (the M of
// the models) and the node-IO scratch buffer, and it is the only code
// that knows how a node is fetched, inserted, written back, checkpointed
// and freed. `Node` must provide
//
//   void serialize(std::vector<uint8_t>& out) const;
//   static std::shared_ptr<Node> deserialize(std::span<const uint8_t>);
//
// Every fallible call returns a Status; the destructor CHECKs the final
// flush (call checkpoint() first to handle its failure, or abandon()).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "blockdev/block_device.h"
#include "cache/buffer_pool.h"
#include "stats/metrics.h"
#include "stats/trace_buffer.h"
#include "util/status.h"

namespace damkit::cache {

template <typename Node>
class NodeCache {
 public:
  using NodeRef = std::shared_ptr<Node>;

  /// Nodes of `node_bytes` carved from `dev` at `base_offset` (stored
  /// through `codec`), cached in `cache_bytes` of memory. The IoContext is
  /// borrowed and must outlive the cache.
  NodeCache(sim::Device& dev, sim::IoContext& io, uint64_t node_bytes,
            uint64_t cache_bytes, uint64_t base_offset,
            blockdev::CodecKind codec)
      : store_(dev, io, node_bytes, base_offset, codec),
        pool_(
            cache_bytes,
            [this](uint64_t id, void* object) {
              static_cast<const Node*>(object)->serialize(buf_);
              return store_.try_write_node(id, buf_);
            },
            // Checkpoints serialize every dirty node, then write all
            // extents as one submission, so a flush pays the slowest
            // write instead of the sum.
            [this](std::span<const std::pair<uint64_t, void*>> dirty,
                   std::vector<bool>* written) {
              std::vector<std::vector<uint8_t>> images(dirty.size());
              std::vector<blockdev::NodeStore::NodeImage> writes;
              writes.reserve(dirty.size());
              for (size_t i = 0; i < dirty.size(); ++i) {
                static_cast<const Node*>(dirty[i].second)->serialize(images[i]);
                writes.push_back({dirty[i].first, images[i]});
              }
              return store_.try_write_nodes(writes, written);
            }) {}

  ~NodeCache() { DAMKIT_CHECK_OK(pool_.flush_all()); }

  // The writebacks capture `this`.
  NodeCache(const NodeCache&) = delete;
  NodeCache& operator=(const NodeCache&) = delete;

  /// The node, from the pool on a hit; on a miss read whole, deserialized
  /// and inserted clean at node_bytes.
  StatusOr<NodeRef> fetch(uint64_t id) {
    if (NodeRef cached = pool_.template get<Node>(id)) return cached;
    DAMKIT_RETURN_IF_ERROR(store_.try_read_node(id, buf_));
    NodeRef node = Node::deserialize(buf_);
    pool_.put(id, node, store_.node_bytes(), /*dirty=*/false);
    return node;
  }

  /// The resident node or nullptr, counting a hit or a miss; no IO.
  NodeRef get(uint64_t id) { return pool_.template get<Node>(id); }

  /// Batch-read the ids that are not resident (one vectored device IO)
  /// and insert them clean. Residency is tested without counting hits or
  /// misses, and fewer than two missing ids gain nothing over the fetch
  /// the caller will do, so nothing is read then.
  Status prefetch(std::vector<uint64_t> ids) {
    std::erase_if(ids, [this](uint64_t id) { return pool_.contains(id); });
    if (ids.size() < 2) return Status();
    std::vector<std::vector<uint8_t>> images;
    DAMKIT_RETURN_IF_ERROR(store_.try_read_nodes(ids, images));
    for (size_t i = 0; i < ids.size(); ++i) {
      pool_.put(ids[i], Node::deserialize(images[i]), store_.node_bytes(),
                /*dirty=*/false);
    }
    return Status();
  }

  void insert(uint64_t id, NodeRef node, uint64_t charged_bytes, bool dirty) {
    pool_.put(id, std::move(node), charged_bytes, dirty);
  }
  void mark_dirty(uint64_t id) { pool_.mark_dirty(id); }

  /// Drop the node without writeback and release its extent.
  void free(uint64_t id) {
    pool_.erase(id);
    store_.free(id);
  }

  /// Re-insert a resident clean node at a new charge. Erase-then-put on
  /// purpose: the entry moves to MRU and the put may evict, exactly as
  /// a fresh insert would.
  void recharge(uint64_t id, NodeRef node, uint64_t bytes) {
    pool_.erase(id);
    pool_.put(id, std::move(node), bytes, /*dirty=*/false);
  }

  /// Serialize and write `node` to its extent without caching it.
  Status write_through(uint64_t id, const Node& node) {
    node.serialize(buf_);
    return store_.try_write_node(id, buf_);
  }

  /// The stored node with NO IO charged (the caller charges the sub-node
  /// IO it needs); kCorruption when its codec frame does not decode.
  StatusOr<NodeRef> peek(uint64_t id) {
    DAMKIT_RETURN_IF_ERROR(store_.peek_node(id, buf_));
    return Node::deserialize(buf_);
  }

  /// Write back every dirty node as one batch; failed nodes stay dirty.
  Status checkpoint() { return pool_.flush_all(); }
  /// Crash teardown: drop every node, dirty or not, without IO.
  void abandon() { pool_.discard_all(); }

  /// Sink for the pool's `cache` evict/writeback events (nullptr stops).
  void set_event_trace(stats::TraceBuffer* events) {
    pool_.set_event_trace(events);
  }

  void set_retry_policy(const blockdev::RetryPolicy& policy) {
    store_.set_retry_policy(policy);
  }
  const blockdev::RetryCounters& retry_counters() const {
    return store_.retry_counters();
  }

  blockdev::NodeStore& store() { return store_; }
  const blockdev::NodeStore& store() const { return store_; }
  const BufferPool& pool() const { return pool_; }

  /// Pool counters under `<prefix>cache.`, store IO mix under
  /// `<prefix>store.`.
  void export_metrics(stats::MetricsRegistry& reg,
                      std::string_view prefix) const {
    const std::string p(prefix);
    pool_.export_metrics(reg, p + "cache.");
    store_.export_metrics(reg, p + "store.");
  }

 private:
  blockdev::NodeStore store_;
  std::vector<uint8_t> buf_;  // node-IO scratch
  BufferPool pool_;
};

}  // namespace damkit::cache
