#include "ftl/write_buffer.h"

#include <gtest/gtest.h>

namespace flex::ftl {
namespace {

TEST(WriteBufferTest, AbsorbsUntilFull) {
  WriteBuffer buf(4, 2);
  for (std::uint64_t lpn = 0; lpn < 4; ++lpn) {
    EXPECT_TRUE(buf.write(lpn).empty());
    EXPECT_TRUE(buf.contains(lpn));
  }
  EXPECT_EQ(buf.size(), 4u);
}

TEST(WriteBufferTest, OverflowFlushesOldestBatch) {
  WriteBuffer buf(4, 2);
  for (std::uint64_t lpn = 0; lpn < 4; ++lpn) buf.write(lpn);
  const auto flushed = buf.write(99);
  ASSERT_EQ(flushed.size(), 2u);
  EXPECT_EQ(flushed[0], 0u);  // oldest first
  EXPECT_EQ(flushed[1], 1u);
  EXPECT_FALSE(buf.contains(0));
  EXPECT_FALSE(buf.contains(1));
  EXPECT_TRUE(buf.contains(99));
  EXPECT_EQ(buf.size(), 3u);
}

TEST(WriteBufferTest, OverwriteRefreshesRecency) {
  WriteBuffer buf(3, 1);
  buf.write(1);
  buf.write(2);
  buf.write(3);
  EXPECT_TRUE(buf.write(1).empty());  // rewrite in place, no flush
  const auto flushed = buf.write(4);
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0], 2u);  // 1 was refreshed; 2 is now the oldest
}

TEST(WriteBufferTest, SizeNeverExceedsCapacity) {
  WriteBuffer buf(16, 4);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    buf.write(i % 37);
    EXPECT_LE(buf.size(), 16u);
  }
}

TEST(WriteBufferTest, WritesAreDirtyUntilFlushed) {
  WriteBuffer buf(4, 2);
  buf.write(7);
  EXPECT_TRUE(buf.dirty(7));
  EXPECT_EQ(buf.dirty_pages(), 1u);
  EXPECT_FALSE(buf.dirty(8));  // absent pages are not dirty
}

TEST(WriteBufferTest, InsertCleanCachesWithoutDirtying) {
  WriteBuffer buf(4, 2);
  EXPECT_TRUE(buf.insert_clean(7).empty());
  EXPECT_TRUE(buf.contains(7));
  EXPECT_FALSE(buf.dirty(7));
  EXPECT_EQ(buf.dirty_pages(), 0u);
  // A host write to a clean cached page makes it dirty again.
  buf.write(7);
  EXPECT_TRUE(buf.dirty(7));
  EXPECT_EQ(buf.dirty_pages(), 1u);
}

TEST(WriteBufferTest, CleanVictimsEvictWithoutFlush) {
  // Eviction must not re-program clean pages: their data is already on
  // NAND, so only dirty victims come back from write().
  WriteBuffer buf(4, 2);
  buf.insert_clean(0);
  buf.insert_clean(1);
  buf.write(2);
  buf.write(3);
  const auto flushed = buf.write(4);  // evicts {0, 1}, both clean
  EXPECT_TRUE(flushed.empty());
  EXPECT_FALSE(buf.contains(0));
  EXPECT_FALSE(buf.contains(1));
  EXPECT_TRUE(buf.contains(2));
}

TEST(WriteBufferTest, FlushBarrierDrainsDirtyOldestFirstAndKeepsEntries) {
  WriteBuffer buf(8, 2);
  buf.write(10);
  buf.insert_clean(20);
  buf.write(30);
  const auto flushed = buf.flush_barrier();
  ASSERT_EQ(flushed.size(), 2u);
  EXPECT_EQ(flushed[0], 10u);  // oldest dirty first
  EXPECT_EQ(flushed[1], 30u);
  // A barrier makes data durable; it does not evict the cache.
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.dirty_pages(), 0u);
  EXPECT_FALSE(buf.dirty(10));
  EXPECT_TRUE(buf.flush_barrier().empty());  // idempotent when clean
}

TEST(WriteBufferTest, PowerLossReportsDirtyLossAndEmptiesBuffer) {
  WriteBuffer buf(8, 2);
  buf.write(1);
  buf.write(2);
  buf.insert_clean(3);
  EXPECT_EQ(buf.power_loss(), 2u);  // only dirty pages were lost data
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.dirty_pages(), 0u);
  EXPECT_FALSE(buf.contains(1));
  EXPECT_FALSE(buf.contains(3));
}

TEST(WriteBufferDeathTest, FlushBatchBounded) {
  EXPECT_DEATH(WriteBuffer(4, 5), "precondition");
  EXPECT_DEATH(WriteBuffer(0, 1), "precondition");
}

}  // namespace
}  // namespace flex::ftl
