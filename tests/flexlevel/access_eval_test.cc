#include "flexlevel/access_eval.h"

#include <gtest/gtest.h>

namespace flex::flexlevel {
namespace {

AccessEval::Config small_config(std::uint64_t pool_pages = 8) {
  AccessEval::Config cfg;
  cfg.pool_capacity_pages = pool_pages;
  cfg.hotness = {.filter_count = 4,
                 .bits_per_filter = 1 << 12,
                 .hashes = 2,
                 .window_accesses = 16};
  return cfg;
}

// Reads `lpn` enough times (spread over hotness windows) to reach the top
// frequency level.
void make_hot(AccessEval& eval, std::uint64_t lpn, int extra_levels) {
  for (int i = 0; i < 100; ++i) {
    eval.on_read(lpn, extra_levels);
    eval.on_read(900'000 + static_cast<std::uint64_t>(i), 0);  // filler
  }
}

TEST(AccessEvalTest, SensingBuckets) {
  const AccessEval eval(small_config());
  EXPECT_EQ(eval.sensing_level_bucket(0), 1);
  EXPECT_EQ(eval.sensing_level_bucket(1), 2);
  EXPECT_EQ(eval.sensing_level_bucket(6), 2);  // M = 2 caps the bucket
}

TEST(AccessEvalTest, FreqLevels) {
  const AccessEval eval(small_config());  // 4 filters, N = 2
  EXPECT_EQ(eval.freq_level(0), 1);
  EXPECT_EQ(eval.freq_level(1), 1);
  EXPECT_EQ(eval.freq_level(2), 2);  // half the filters = hot
  EXPECT_EQ(eval.freq_level(4), 2);
}

TEST(AccessEvalTest, ColdDataIsNotMigrated) {
  AccessEval eval(small_config());
  // A single hard-decision read: L_f = 1, L_sensing = 1, product 1 <= 2.
  const AccessDecision d = eval.on_read(5, 0);
  EXPECT_FALSE(d.migrate_to_reduced);
  EXPECT_FALSE(d.evicted.has_value());
  EXPECT_FALSE(eval.is_reduced(5));
}

TEST(AccessEvalTest, HotSoftReadDataIsMigrated) {
  AccessEval eval(small_config());
  make_hot(eval, 5, /*extra_levels=*/2);
  EXPECT_TRUE(eval.is_reduced(5));
  EXPECT_GE(eval.pool_size(), 1u);
}

TEST(AccessEvalTest, HotHardReadDataStaysNormal) {
  // High read frequency alone is not HLO: with 0 extra sensing levels the
  // product L_f * L_sensing = 2 does not exceed the threshold.
  AccessEval eval(small_config());
  make_hot(eval, 5, /*extra_levels=*/0);
  EXPECT_FALSE(eval.is_reduced(5));
}

TEST(AccessEvalTest, ColdSoftReadDataStaysNormal) {
  AccessEval eval(small_config());
  const AccessDecision d = eval.on_read(5, 6);  // first read, deep soft
  EXPECT_FALSE(d.migrate_to_reduced);
}

TEST(AccessEvalTest, PoolNeverExceedsCapacity) {
  AccessEval eval(small_config(4));
  for (std::uint64_t lpn = 0; lpn < 20; ++lpn) {
    make_hot(eval, lpn, 4);
    EXPECT_LE(eval.pool_size(), 4u);
  }
  EXPECT_EQ(eval.pool_size(), 4u);
}

TEST(AccessEvalTest, EvictionIsLeastRecentlyRead) {
  AccessEval eval(small_config(2));
  make_hot(eval, 1, 4);
  make_hot(eval, 2, 4);
  ASSERT_TRUE(eval.is_reduced(1));
  ASSERT_TRUE(eval.is_reduced(2));
  // Touch 1 so 2 becomes the LRU, then admit 3.
  eval.on_read(1, 4);
  make_hot(eval, 3, 4);
  EXPECT_TRUE(eval.is_reduced(3));
  EXPECT_TRUE(eval.is_reduced(1));
  EXPECT_FALSE(eval.is_reduced(2));  // evicted
}

TEST(AccessEvalTest, EvictionIsReportedToCaller) {
  AccessEval eval(small_config(1));
  make_hot(eval, 1, 4);
  ASSERT_TRUE(eval.is_reduced(1));
  // Hotting up a second page must evict page 1 and say so.
  bool saw_eviction = false;
  for (int i = 0; i < 100 && !saw_eviction; ++i) {
    const AccessDecision d = eval.on_read(2, 4);
    if (d.evicted.has_value()) {
      EXPECT_EQ(*d.evicted, 1u);
      saw_eviction = true;
    }
    eval.on_read(900'000 + static_cast<std::uint64_t>(i), 0);
  }
  EXPECT_TRUE(saw_eviction);
  EXPECT_FALSE(eval.is_reduced(1));
}

TEST(AccessEvalTest, FullPoolOnlyChurnsForMaximallyHotData) {
  AccessEval eval(small_config(2));
  make_hot(eval, 1, 4);
  make_hot(eval, 2, 4);
  ASSERT_EQ(eval.pool_size(), 2u);
  // A page at half-hotness (enough to qualify into a non-full pool) must
  // not displace members once the pool is full.
  AccessDecision d = eval.on_read(3, 4);
  d = eval.on_read(3, 4);  // hotness likely 1-2 here: below filter_count
  EXPECT_FALSE(d.migrate_to_reduced);
  EXPECT_TRUE(eval.is_reduced(1));
  EXPECT_TRUE(eval.is_reduced(2));
}

TEST(AccessEvalTest, ShrinkCapacityEvictsLruTail) {
  AccessEval eval(small_config(4));
  make_hot(eval, 1, 4);
  make_hot(eval, 2, 4);
  make_hot(eval, 3, 4);
  ASSERT_EQ(eval.pool_size(), 3u);
  eval.on_read(1, 0);  // 1 becomes most recent: eviction order is 2, 3, 1
  const auto evicted = eval.shrink_capacity(1);
  EXPECT_EQ(eval.pool_capacity(), 1u);
  EXPECT_EQ(eval.pool_size(), 1u);
  ASSERT_EQ(evicted.size(), 2u);
  EXPECT_TRUE(eval.is_reduced(1));
  EXPECT_FALSE(eval.is_reduced(2));
  EXPECT_FALSE(eval.is_reduced(3));
}

TEST(AccessEvalTest, ShrinkCapacityIsMonotoneAndFloored) {
  AccessEval eval(small_config(8));
  // Growing back is ignored: retirement is permanent, so is the shrink.
  EXPECT_TRUE(eval.shrink_capacity(3).empty());
  EXPECT_EQ(eval.pool_capacity(), 3u);
  EXPECT_TRUE(eval.shrink_capacity(100).empty());
  EXPECT_EQ(eval.pool_capacity(), 3u);
  // A penalty larger than the budget floors at one page, not zero.
  EXPECT_TRUE(eval.shrink_capacity(0).empty());
  EXPECT_EQ(eval.pool_capacity(), 1u);
}

TEST(AccessEvalTest, ReducedPageReadsDoNotReMigrate) {
  AccessEval eval(small_config());
  make_hot(eval, 7, 4);
  ASSERT_TRUE(eval.is_reduced(7));
  const AccessDecision d = eval.on_read(7, 0);
  EXPECT_FALSE(d.migrate_to_reduced);
  EXPECT_FALSE(d.evicted.has_value());
}

}  // namespace
}  // namespace flex::flexlevel
