#include "cache/buffer_pool.h"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace damkit::cache {
namespace {

struct Obj {
  explicit Obj(int v) : value(v) {}
  int value;
};

using Dirty = std::span<const std::pair<uint64_t, void*>>;

/// A batch writeback that lands every entry except `failing_id`, logging
/// the landed ids in order.
BufferPool::BatchWritebackFn batch_into(std::vector<uint64_t>* landed,
                                        const uint64_t* failing_id = nullptr) {
  return [=](Dirty dirty, std::vector<bool>* written) {
    Status first;
    for (size_t i = 0; i < dirty.size(); ++i) {
      EXPECT_NE(dirty[i].second, nullptr);
      if (failing_id != nullptr && dirty[i].first == *failing_id) {
        if (first.ok()) first = Status::unavailable("injected");
        continue;
      }
      (*written)[i] = true;
      landed->push_back(dirty[i].first);
    }
    return first;
  };
}

class BufferPoolTest : public testing::Test {
 protected:
  std::vector<uint64_t> written_;  // scalar (eviction) writebacks
  std::vector<uint64_t> batched_;  // flush_all batch writebacks
  std::unique_ptr<BufferPool> make_pool(uint64_t capacity) {
    return std::make_unique<BufferPool>(
        capacity,
        [this](uint64_t id, void* obj) {
          written_.push_back(id);
          EXPECT_NE(obj, nullptr);
          return Status();
        },
        batch_into(&batched_));
  }
};

TEST_F(BufferPoolTest, GetMissThenHit) {
  auto pool = make_pool(1000);
  EXPECT_EQ(pool->get<Obj>(1), nullptr);
  EXPECT_EQ(pool->stats().misses, 1u);
  pool->put(1, std::make_shared<Obj>(42), 100, false);
  auto obj = pool->get<Obj>(1);
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(obj->value, 42);
  EXPECT_EQ(pool->stats().hits, 1u);
}

TEST_F(BufferPoolTest, EvictsLruFirst) {
  auto pool = make_pool(300);
  pool->put(1, std::make_shared<Obj>(1), 100, false);
  pool->put(2, std::make_shared<Obj>(2), 100, false);
  pool->put(3, std::make_shared<Obj>(3), 100, false);
  // Touch 1 so 2 becomes the LRU victim.
  EXPECT_NE(pool->get<Obj>(1), nullptr);
  pool->put(4, std::make_shared<Obj>(4), 100, false);
  EXPECT_TRUE(pool->contains(1));
  EXPECT_FALSE(pool->contains(2));
  EXPECT_TRUE(pool->contains(3));
  EXPECT_TRUE(pool->contains(4));
  EXPECT_EQ(pool->stats().evictions, 1u);
}

TEST_F(BufferPoolTest, DirtyEvictionWritesBack) {
  auto pool = make_pool(200);
  pool->put(1, std::make_shared<Obj>(1), 100, true);
  pool->put(2, std::make_shared<Obj>(2), 100, false);
  pool->put(3, std::make_shared<Obj>(3), 100, false);  // evicts 1 (dirty)
  EXPECT_EQ(written_, std::vector<uint64_t>{1});
  EXPECT_EQ(pool->stats().dirty_writebacks, 1u);
}

TEST_F(BufferPoolTest, CleanEvictionSkipsWriteback) {
  auto pool = make_pool(100);
  pool->put(1, std::make_shared<Obj>(1), 100, false);
  pool->put(2, std::make_shared<Obj>(2), 100, false);
  EXPECT_TRUE(written_.empty());
}

TEST_F(BufferPoolTest, PinnedEntriesSurviveEviction) {
  auto pool = make_pool(200);
  auto pinned = std::make_shared<Obj>(1);
  pool->put(1, pinned, 100, false);  // we keep a reference → pinned
  pool->put(2, std::make_shared<Obj>(2), 100, false);
  pool->put(3, std::make_shared<Obj>(3), 100, false);  // must evict 2, not 1
  EXPECT_TRUE(pool->contains(1));
  EXPECT_FALSE(pool->contains(2));
}

TEST_F(BufferPoolTest, TransientPinOverflowTolerated) {
  // One pinned entry plus an incoming one may exceed M transiently (a
  // tree descent pins the parent while loading the child); only a pinned
  // set that alone exceeds M is a hard error (see the death test below).
  auto pool = make_pool(150);
  auto a = std::make_shared<Obj>(1);
  pool->put(1, a, 100, false);           // pinned (we hold a reference)
  pool->put(2, std::make_shared<Obj>(2), 50, false);
  EXPECT_TRUE(pool->contains(1));
  EXPECT_TRUE(pool->contains(2));
  EXPECT_EQ(pool->charged_bytes(), 150u);
}

TEST_F(BufferPoolTest, PinnedBytesTracked) {
  auto pool = make_pool(1000);
  auto pinned = std::make_shared<Obj>(1);
  pool->put(1, pinned, 300, false);
  pool->put(2, std::make_shared<Obj>(2), 400, false);  // unpinned
  EXPECT_EQ(pool->pinned_bytes(), 300u);
  EXPECT_EQ(pool->stats().pinned_bytes, 300u);
  pinned.reset();  // drop our reference → nothing pinned
  EXPECT_EQ(pool->pinned_bytes(), 0u);
  EXPECT_EQ(pool->stats().pinned_bytes, 0u);
}

TEST_F(BufferPoolTest, FlushAllUsesBatchWriteback) {
  auto pool = make_pool(1000);
  pool->put(1, std::make_shared<Obj>(1), 100, true);
  pool->put(2, std::make_shared<Obj>(2), 100, false);
  pool->put(3, std::make_shared<Obj>(3), 100, true);
  ASSERT_TRUE(pool->flush_all().ok());
  EXPECT_EQ(batched_, (std::vector<uint64_t>{3, 1}));  // MRU → LRU order
  EXPECT_TRUE(written_.empty());  // batch path replaces per-entry callback
  EXPECT_EQ(pool->stats().dirty_writebacks, 2u);
  EXPECT_FALSE(pool->is_dirty(1));
  EXPECT_FALSE(pool->is_dirty(3));
  ASSERT_TRUE(pool->flush_all().ok());
  EXPECT_EQ(batched_.size(), 2u);  // nothing dirty: no second batch
}

TEST_F(BufferPoolTest, MarkDirtyThenFlushAll) {
  auto pool = make_pool(1000);
  pool->put(1, std::make_shared<Obj>(1), 100, false);
  pool->put(2, std::make_shared<Obj>(2), 100, false);
  pool->mark_dirty(1);
  EXPECT_TRUE(pool->is_dirty(1));
  EXPECT_FALSE(pool->is_dirty(2));
  ASSERT_TRUE(pool->flush_all().ok());
  EXPECT_EQ(batched_, std::vector<uint64_t>{1});
  EXPECT_FALSE(pool->is_dirty(1));  // clean after writeback
  ASSERT_TRUE(pool->flush_all().ok());
  EXPECT_EQ(batched_.size(), 1u);  // no double write
}

TEST_F(BufferPoolTest, FlushAllBatchesOnlyDirtyEntriesMruFirst) {
  // flush_all hands the dirty entries, MRU→LRU, to the batch writeback
  // and skips clean ones; the scalar callback is for evictions only.
  auto pool = make_pool(1000);
  pool->put(1, std::make_shared<Obj>(1), 100, true);
  pool->put(2, std::make_shared<Obj>(2), 100, false);
  pool->put(3, std::make_shared<Obj>(3), 100, true);
  pool->put(4, std::make_shared<Obj>(4), 100, true);
  ASSERT_TRUE(pool->flush_all().ok());
  EXPECT_EQ(batched_, (std::vector<uint64_t>{4, 3, 1}));
  EXPECT_TRUE(written_.empty());
  EXPECT_EQ(pool->stats().dirty_writebacks, 3u);
  EXPECT_FALSE(pool->is_dirty(1));
  EXPECT_FALSE(pool->is_dirty(3));
  EXPECT_FALSE(pool->is_dirty(4));
  ASSERT_TRUE(pool->flush_all().ok());
  EXPECT_EQ(batched_.size(), 3u);  // all clean: nothing rewritten
}

TEST_F(BufferPoolTest, FlushAllFailureKeepsEntryDirtyAndResident) {
  // A writeback failure mid-checkpoint must not lose the entry or its
  // dirty bit: flush_all keeps going (other entries still land), reports
  // the first failure, and the failed entry can be flushed again later.
  uint64_t failing_id = 3;
  std::vector<uint64_t> written;
  BufferPool pool(
      1000, [](uint64_t, void*) { return Status(); },
      batch_into(&written, &failing_id));
  pool.put(1, std::make_shared<Obj>(1), 100, true);
  pool.put(2, std::make_shared<Obj>(2), 100, true);
  pool.put(3, std::make_shared<Obj>(3), 100, true);
  const uint64_t charged_before = pool.charged_bytes();

  const Status s = pool.flush_all();
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  // The healthy entries were still written and cleaned...
  EXPECT_EQ(written, (std::vector<uint64_t>{2, 1}));
  EXPECT_FALSE(pool.is_dirty(1));
  EXPECT_FALSE(pool.is_dirty(2));
  // ...the failed one stays resident, dirty, and fully charged.
  EXPECT_TRUE(pool.contains(3));
  EXPECT_TRUE(pool.is_dirty(3));
  EXPECT_EQ(pool.charged_bytes(), charged_before);
  EXPECT_EQ(pool.stats().writeback_failures, 1u);
  EXPECT_EQ(pool.stats().dirty_writebacks, 2u);

  // Once the device recovers, a later checkpoint completes the flush.
  failing_id = ~0ULL;
  ASSERT_TRUE(pool.flush_all().ok());
  EXPECT_EQ(written, (std::vector<uint64_t>{2, 1, 3}));
  EXPECT_FALSE(pool.is_dirty(3));
  EXPECT_EQ(pool.stats().dirty_writebacks, 3u);
}

TEST_F(BufferPoolTest, EraseDropsWithoutWriteback) {
  auto pool = make_pool(1000);
  pool->put(1, std::make_shared<Obj>(1), 100, true);
  pool->erase(1);
  EXPECT_FALSE(pool->contains(1));
  EXPECT_TRUE(written_.empty());
  EXPECT_EQ(pool->charged_bytes(), 0u);
  pool->erase(99);  // absent: no-op
}

TEST_F(BufferPoolTest, ChargedBytesTracked) {
  auto pool = make_pool(1000);
  pool->put(1, std::make_shared<Obj>(1), 300, false);
  pool->put(2, std::make_shared<Obj>(2), 400, false);
  EXPECT_EQ(pool->charged_bytes(), 700u);
  pool->erase(1);
  EXPECT_EQ(pool->charged_bytes(), 400u);
}

TEST_F(BufferPoolTest, HitRate) {
  auto pool = make_pool(1000);
  pool->put(1, std::make_shared<Obj>(1), 10, false);
  pool->get<Obj>(1);
  pool->get<Obj>(1);
  pool->get<Obj>(2);
  EXPECT_NEAR(pool->stats().hit_rate(), 2.0 / 3.0, 1e-12);
}

TEST_F(BufferPoolTest, DestructorToleratesCleanEntries) {
  auto pool = make_pool(1000);
  pool->put(1, std::make_shared<Obj>(1), 10, false);
  pool.reset();  // clean entries: fine
}

TEST_F(BufferPoolTest, DiscardAllDropsDirtyStateWithoutWriteback) {
  // The crash-teardown path: a pool over a dead device must be emptiable
  // without issuing a single writeback (which would CHECK-abort or spend
  // simulated IO that never happened).
  auto pool = make_pool(1000);
  pool->put(1, std::make_shared<Obj>(1), 100, true);
  pool->put(2, std::make_shared<Obj>(2), 100, true);
  pool->put(3, std::make_shared<Obj>(3), 100, false);
  pool->discard_all();
  EXPECT_TRUE(written_.empty());
  EXPECT_FALSE(pool->contains(1));
  EXPECT_FALSE(pool->contains(2));
  EXPECT_FALSE(pool->contains(3));
  EXPECT_EQ(pool->charged_bytes(), 0u);
  // And the destructor's dirty-entry abort no longer fires.
  pool.reset();
}

TEST_F(BufferPoolTest, DiscardAllAfterFailedWritebackIsClean) {
  // Entries kept resident because their writeback failed (the deferred
  // set) are exactly what discard_all must be able to drop post-crash.
  const auto dead = [](auto&&...) { return Status::unavailable("dead"); };
  auto pool = std::make_unique<BufferPool>(1000, dead, dead);
  pool->put(1, std::make_shared<Obj>(1), 100, true);
  EXPECT_FALSE(pool->flush_all().ok());
  pool->discard_all();
  pool.reset();
}

using BufferPoolDeathTest = BufferPoolTest;

TEST_F(BufferPoolDeathTest, DiscardAllWithPinnedEntryAborts) {
  auto pool = make_pool(1000);
  auto held = std::make_shared<Obj>(1);
  pool->put(1, held, 100, true);
  EXPECT_DEATH(pool->discard_all(), "pinned");
  // The death ran in a forked child; clean up the parent's dirty entry.
  held.reset();
  pool->discard_all();
}

TEST_F(BufferPoolDeathTest, PinnedSetOverBudgetAborts) {
  auto pool = make_pool(100);
  auto a = std::make_shared<Obj>(1);
  auto b = std::make_shared<Obj>(2);
  pool->put(1, a, 100, false);
  pool->put(2, b, 100, false);  // transient overflow: still tolerated
  auto c = std::make_shared<Obj>(3);
  // Resident pinned set (200) now exceeds M on its own: loud failure.
  EXPECT_DEATH(pool->put(3, c, 100, false), "pinned set exceeds capacity");
}

TEST_F(BufferPoolDeathTest, DoublePutAborts) {
  auto pool = make_pool(1000);
  pool->put(1, std::make_shared<Obj>(1), 10, false);
  EXPECT_DEATH(pool->put(1, std::make_shared<Obj>(2), 10, false),
               "already-resident");
}

TEST_F(BufferPoolDeathTest, MarkDirtyAbsentAborts) {
  auto pool = make_pool(1000);
  EXPECT_DEATH(pool->mark_dirty(5), "absent");
}

TEST_F(BufferPoolDeathTest, DestructorWithDirtyAborts) {
  EXPECT_DEATH(
      {
        std::vector<uint64_t> landed;
        BufferPool p(
            1000, [](uint64_t, void*) { return Status(); },
            batch_into(&landed));
        p.put(1, std::make_shared<Obj>(1), 10, true);
        // p destroyed with dirty entry
      },
      "dirty entry");
}

}  // namespace
}  // namespace damkit::cache
