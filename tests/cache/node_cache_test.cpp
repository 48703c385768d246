#include "cache/node_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <span>
#include <string_view>
#include <vector>

#include "betree/betree.h"
#include "btree/btree.h"
#include "kv/slice.h"
#include "sim/profiles.h"
#include "sim/ssd.h"
#include "stats/metrics.h"
#include "stats/trace_buffer.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace damkit::cache {
namespace {

constexpr uint64_t kNode = 4 * kKiB;

/// The smallest node NodeCache can hold: one u32 at the front of its image.
struct Blob {
  explicit Blob(uint32_t v) : value(v) {}
  uint32_t value;

  void serialize(std::vector<uint8_t>& out) const {
    out.resize(4);
    store_u32(out.data(), value);
  }
  static std::shared_ptr<Blob> deserialize(std::span<const uint8_t> image) {
    return std::make_shared<Blob>(load_u32(image.data()));
  }
};

/// An SSD whose checked writes to the listed offsets always fail.
class FailingWritesSsd final : public sim::SsdDevice {
 public:
  FailingWritesSsd() : sim::SsdDevice(sim::testbed_ssd_profile()) {}
  std::set<uint64_t> failing_offsets;

 protected:
  Status inject_fault(const sim::IoRequest& req, sim::SimTime) override {
    if (req.kind == sim::IoKind::kWrite && failing_offsets.count(req.offset)) {
      return Status::unavailable("injected");
    }
    return Status();
  }
};

class NodeCacheTest : public testing::Test {
 protected:
  NodeCacheTest()
      : io_(dev_),
        cache_(dev_, io_, kNode, 2 * kNode, 0,
               blockdev::CodecKind::kIdentity) {}

  /// Allocate a node and insert it dirty at a full-node charge.
  uint64_t insert_dirty(uint32_t value) {
    const uint64_t id = cache_.store().allocate();
    cache_.insert(id, std::make_shared<Blob>(value), kNode, /*dirty=*/true);
    return id;
  }

  FailingWritesSsd dev_;
  sim::IoContext io_;
  NodeCache<Blob> cache_;
};

TEST_F(NodeCacheTest, MissReadsOnceAndHitReadsNothing) {
  const uint64_t id = cache_.store().allocate();
  ASSERT_TRUE(cache_.write_through(id, Blob(42)).ok());
  EXPECT_FALSE(cache_.pool().contains(id));  // write-through does not cache

  StatusOr<std::shared_ptr<Blob>> miss = cache_.fetch(id);
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ((*miss)->value, 42u);
  EXPECT_EQ(cache_.store().stats().node_reads, 1u);
  EXPECT_EQ(cache_.pool().stats().misses, 1u);

  const uint64_t reads_before = dev_.stats().reads;
  StatusOr<std::shared_ptr<Blob>> hit = cache_.fetch(id);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->get(), miss->get());  // the cached object itself
  EXPECT_EQ(cache_.store().stats().node_reads, 1u);
  EXPECT_EQ(dev_.stats().reads, reads_before);
  EXPECT_EQ(cache_.pool().stats().hits, 1u);
}

TEST_F(NodeCacheTest, EvictionWritesBackScalarAndCheckpointBatches) {
  const uint64_t a = insert_dirty(1);
  const uint64_t b = insert_dirty(2);
  const uint64_t c = insert_dirty(3);  // over budget: evicts a, the LRU
  EXPECT_FALSE(cache_.pool().contains(a));
  EXPECT_EQ(cache_.store().stats().node_writes, 1u);  // scalar writeback
  EXPECT_EQ(cache_.store().stats().write_batches, 0u);
  EXPECT_EQ(dev_.stats().batches, 0u);

  ASSERT_TRUE(cache_.checkpoint().ok());
  EXPECT_EQ(cache_.store().stats().write_batches, 1u);
  EXPECT_EQ(cache_.store().stats().batched_writes, 2u);
  EXPECT_EQ(dev_.stats().batches, 1u);  // b and c in one device batch
  EXPECT_EQ(dev_.stats().batch_ios, 2u);
  EXPECT_FALSE(cache_.pool().is_dirty(b));
  EXPECT_FALSE(cache_.pool().is_dirty(c));

  // Every image landed: a cold fetch of the evicted node reads it back.
  StatusOr<std::shared_ptr<Blob>> back = cache_.fetch(a);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ((*back)->value, 1u);
}

TEST_F(NodeCacheTest, FreeDropsTheNodeWithoutWriteback) {
  const uint64_t id = insert_dirty(7);
  EXPECT_EQ(cache_.store().nodes_in_use(), 1u);
  cache_.free(id);
  EXPECT_FALSE(cache_.pool().contains(id));
  EXPECT_EQ(cache_.store().nodes_in_use(), 0u);
  ASSERT_TRUE(cache_.checkpoint().ok());
  EXPECT_EQ(dev_.stats().writes, 0u);
}

TEST_F(NodeCacheTest, RechargeMovesTheCharge) {
  const uint64_t a = cache_.store().allocate();
  const uint64_t b = cache_.store().allocate();
  auto node_a = std::make_shared<Blob>(1);
  cache_.insert(a, node_a, kNode / 4, /*dirty=*/false);
  cache_.insert(b, std::make_shared<Blob>(2), kNode, /*dirty=*/false);
  EXPECT_EQ(cache_.pool().charged_bytes(), kNode / 4 + kNode);

  cache_.recharge(a, std::move(node_a), kNode);
  EXPECT_EQ(cache_.pool().charged_bytes(), 2 * kNode);
  EXPECT_EQ(cache_.pool().entries(), 2u);

  // The re-insert made `a` the MRU entry, so the next insert evicts `b`.
  const uint64_t c = cache_.store().allocate();
  cache_.insert(c, std::make_shared<Blob>(3), kNode, /*dirty=*/false);
  EXPECT_TRUE(cache_.pool().contains(a));
  EXPECT_FALSE(cache_.pool().contains(b));
}

TEST_F(NodeCacheTest, AbandonDropsDirtyNodesWithoutIo) {
  insert_dirty(1);
  insert_dirty(2);
  cache_.abandon();
  EXPECT_EQ(cache_.pool().entries(), 0u);
  EXPECT_EQ(dev_.stats().writes, 0u);
  EXPECT_EQ(io_.now(), 0u);
  // The destructor's final flush finds nothing dirty.
}

TEST_F(NodeCacheTest, FailedBatchWritebackKeepsExactlyUnwrittenNodesDirty) {
  cache_.set_retry_policy(blockdev::RetryPolicy{.max_attempts = 1});
  const uint64_t a = insert_dirty(1);
  const uint64_t b = insert_dirty(2);
  dev_.failing_offsets = {b * kNode};  // extents start at offset 0

  const Status s = cache_.checkpoint();
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(cache_.pool().is_dirty(a));
  EXPECT_TRUE(cache_.pool().is_dirty(b));
  EXPECT_EQ(cache_.pool().stats().dirty_writebacks, 1u);
  EXPECT_EQ(cache_.pool().stats().writeback_failures, 1u);

  // Once the device recovers, the next checkpoint writes only `b` (the
  // store counts a batch once it succeeds).
  dev_.failing_offsets.clear();
  ASSERT_TRUE(cache_.checkpoint().ok());
  EXPECT_EQ(cache_.store().stats().batched_writes, 1u);
  EXPECT_FALSE(cache_.pool().is_dirty(b));
}

#if DAMKIT_STATS_ENABLED
size_t count_events(const stats::TraceBuffer& events, std::string_view name) {
  size_t n = 0;
  for (const stats::Event& e : events.events()) {
    if (std::string_view(e.category) == "cache" && name == e.name) ++n;
  }
  return n;
}

/// Drive `tree` through random puts (evictions, scalar writebacks), then a
/// checkpoint (batched writebacks), and check the trace against the pool's
/// counters.
void expect_cache_events_match_counters(kv::Dictionary& tree) {
  stats::TraceBuffer events(1 << 20);
  tree.set_event_trace(&events);
  Rng rng(5);
  for (int i = 0; i < 3000; ++i) {
    tree.put(kv::encode_key(rng.uniform(20000)), kv::make_value(i, 60));
  }
  ASSERT_TRUE(tree.checkpoint().ok());
  ASSERT_FALSE(events.overflowed());

  stats::MetricsRegistry reg;
  tree.export_metrics(reg, "t.");
  EXPECT_GT(reg.counter("t.cache.evictions"), 0u);
  EXPECT_GT(reg.counter("t.cache.dirty_writebacks"), 0u);
  EXPECT_EQ(count_events(events, "evict"), reg.counter("t.cache.evictions"));
  EXPECT_EQ(count_events(events, "writeback"),
            reg.counter("t.cache.dirty_writebacks"));
}

TEST(NodeCacheTraceTest, BTreeCacheEventsMatchCounters) {
  sim::SsdDevice dev(sim::testbed_ssd_profile());
  sim::IoContext io(dev);
  btree::BTreeConfig cfg;
  cfg.node_bytes = 4 * kKiB;
  cfg.cache_bytes = 8 * cfg.node_bytes;
  btree::BTree tree(dev, io, cfg);
  expect_cache_events_match_counters(tree);
}

TEST(NodeCacheTraceTest, BeTreeCacheEventsMatchCounters) {
  sim::SsdDevice dev(sim::testbed_ssd_profile());
  sim::IoContext io(dev);
  betree::BeTreeConfig cfg;
  cfg.node_bytes = 16 * kKiB;
  cfg.target_fanout = 8;
  cfg.cache_bytes = 4 * cfg.node_bytes;
  betree::BeTree tree(dev, io, cfg);
  expect_cache_events_match_counters(tree);
}
#endif

}  // namespace
}  // namespace damkit::cache
