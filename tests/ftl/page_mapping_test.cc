#include "ftl/page_mapping.h"

#include <cstdint>
#include <iterator>
#include <unordered_map>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace flex::ftl {
namespace {

// Tiny drive: 2 chips x 16 blocks x 16 pages = 512 physical pages.
FtlConfig tiny_config() {
  FtlConfig cfg;
  cfg.spec.page_size_bytes = 4096;
  cfg.spec.pages_per_block = 16;
  cfg.spec.blocks_per_chip = 16;
  cfg.spec.chips = 2;
  cfg.over_provisioning = 0.25;
  cfg.gc_low_watermark = 3;
  return cfg;
}

TEST(PageMappingTest, CapacityAccounting) {
  const PageMappingFtl ftl(tiny_config());
  EXPECT_EQ(ftl.physical_blocks(), 32u);
  EXPECT_EQ(ftl.logical_pages(), 384u);  // 512 * 0.75
  EXPECT_EQ(ftl.free_blocks(), 32u);
}

TEST(PageMappingTest, LookupUnwrittenIsEmpty) {
  const PageMappingFtl ftl(tiny_config());
  EXPECT_FALSE(ftl.lookup(0).has_value());
  EXPECT_FALSE(ftl.lookup(383).has_value());
}

TEST(PageMappingTest, WriteThenLookup) {
  PageMappingFtl ftl(tiny_config());
  const WriteResult w = ftl.write(7, PageMode::kNormal, 1234);
  const auto info = ftl.lookup(7);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->ppn, w.ppn);
  EXPECT_EQ(info->mode, PageMode::kNormal);
  EXPECT_EQ(info->write_time, 1234);
}

TEST(PageMappingTest, OverwriteRemaps) {
  PageMappingFtl ftl(tiny_config());
  const WriteResult first = ftl.write(7, PageMode::kNormal, 1);
  const WriteResult second = ftl.write(7, PageMode::kNormal, 2);
  EXPECT_NE(first.ppn, second.ppn);
  const auto info = ftl.lookup(7);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->ppn, second.ppn);
  EXPECT_EQ(info->write_time, 2);
}

TEST(PageMappingTest, ReducedBlocksHoldFewerPages) {
  PageMappingFtl ftl(tiny_config());
  // 16 pages/block * 0.75 = 12 usable slots in a reduced block: writing 13
  // reduced pages must span two blocks.
  std::uint64_t first_block_ppn = 0;
  for (std::uint64_t lpn = 0; lpn < 13; ++lpn) {
    const WriteResult w = ftl.write(lpn, PageMode::kReduced, 0);
    if (lpn == 0) first_block_ppn = w.ppn / 16;
    if (lpn < 12) {
      EXPECT_EQ(w.ppn / 16, first_block_ppn) << "lpn " << lpn;
    } else {
      EXPECT_NE(w.ppn / 16, first_block_ppn);
    }
  }
  EXPECT_EQ(ftl.reduced_blocks(), 2u);
}

TEST(PageMappingTest, MigrateSwitchesMode) {
  PageMappingFtl ftl(tiny_config());
  ftl.write(5, PageMode::kNormal, 10);
  const WriteResult moved = ftl.migrate(5, PageMode::kReduced, 20);
  EXPECT_EQ(moved.mode, PageMode::kReduced);
  const auto info = ftl.lookup(5);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->mode, PageMode::kReduced);
  EXPECT_EQ(info->write_time, 20);
  EXPECT_EQ(ftl.stats().mode_migrations, 1u);
}

TEST(PageMappingTest, GcReclaimsInvalidatedSpace) {
  PageMappingFtl ftl(tiny_config());
  Rng rng(1);
  // Hammer a small working set: far more writes than physical pages fit,
  // which is only possible if GC keeps reclaiming.
  for (int i = 0; i < 5'000; ++i) {
    ftl.write(rng.below(100), PageMode::kNormal, i);
  }
  EXPECT_GT(ftl.stats().nand_erases, 0u);
  EXPECT_GT(ftl.stats().gc_runs, 0u);
  EXPECT_GE(ftl.free_blocks(), 3u);  // watermark held
}

TEST(PageMappingTest, GcPreservesAllLiveData) {
  PageMappingFtl ftl(tiny_config());
  Rng rng(2);
  std::unordered_map<std::uint64_t, SimTime> expected;
  for (int i = 0; i < 8'000; ++i) {
    const std::uint64_t lpn = rng.below(ftl.logical_pages());
    ftl.write(lpn, rng.chance(0.2) ? PageMode::kReduced : PageMode::kNormal,
              i);
    expected[lpn] = i;
  }
  // Every logical page written must still resolve; unwritten ones must not.
  for (std::uint64_t lpn = 0; lpn < ftl.logical_pages(); ++lpn) {
    const auto info = ftl.lookup(lpn);
    EXPECT_EQ(info.has_value(), expected.contains(lpn)) << "lpn " << lpn;
  }
}

TEST(PageMappingTest, WriteAmplificationAboveOneUnderChurn) {
  PageMappingFtl ftl(tiny_config());
  Rng rng(3);
  for (int i = 0; i < 10'000; ++i) {
    ftl.write(rng.below(ftl.logical_pages()), PageMode::kNormal, i);
  }
  EXPECT_GT(ftl.stats().write_amplification(), 1.0);
  EXPECT_EQ(ftl.stats().nand_writes,
            ftl.stats().host_writes + ftl.stats().gc_page_moves);
}

TEST(PageMappingTest, ReducedModeCausesMoreGc) {
  // Reduced blocks waste a quarter of their slots, so the same workload
  // must erase more often — the over-provisioning-loss effect behind
  // LevelAdjust-only's Fig. 6(a) penalty.
  const auto churn = [](PageMode mode) {
    PageMappingFtl ftl(tiny_config());
    Rng rng(4);
    for (int i = 0; i < 10'000; ++i) {
      ftl.write(rng.below(300), mode, i);
    }
    return ftl.stats().nand_erases;
  };
  EXPECT_GT(churn(PageMode::kReduced), churn(PageMode::kNormal));
}

TEST(PageMappingTest, WearStaysRoughlyLevelled) {
  FtlConfig cfg = tiny_config();
  cfg.static_wl_interval = 16;
  PageMappingFtl ftl(cfg);
  Rng rng(5);
  // Skewed workload: a cold half that greedy GC alone would never touch.
  for (int i = 0; i < 30'000; ++i) {
    ftl.write(rng.below(ftl.logical_pages() / 2), PageMode::kNormal, i);
  }
  ASSERT_GT(ftl.max_erase_count(), 0u);
  // Static wear leveling circulates even the cold blocks.
  EXPECT_GT(ftl.min_erase_count(), 0u);
  EXPECT_GT(ftl.mean_erase_count(), 0.0);
}

TEST(PageMappingTest, StaticWlDisabledLeavesColdBlocksAlone) {
  FtlConfig cfg = tiny_config();
  cfg.static_wl_interval = 0;
  PageMappingFtl ftl(cfg);
  Rng rng(6);
  // Fill everything once, then churn only a hot quarter: the cold blocks
  // stay full-valid and are never reclaimed without static WL.
  for (std::uint64_t lpn = 0; lpn < ftl.logical_pages(); ++lpn) {
    ftl.write(lpn, PageMode::kNormal, 0);
  }
  for (int i = 0; i < 20'000; ++i) {
    ftl.write(rng.below(ftl.logical_pages() / 4), PageMode::kNormal, i);
  }
  EXPECT_EQ(ftl.min_erase_count(), 0u);
}

TEST(PageMappingTest, InitialPeCyclesApplied) {
  FtlConfig cfg = tiny_config();
  cfg.initial_pe_cycles = 6000;
  PageMappingFtl ftl(cfg);
  ftl.write(0, PageMode::kNormal, 0);
  const auto info = ftl.lookup(0);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->pe_cycles, 6000u);
  EXPECT_EQ(ftl.min_erase_count(), 6000u);
}

TEST(FtlStatsTest, DifferenceSubtractsEveryFieldOnItsOwn) {
  // Every field, so a field operator- forgets or crosses shows up here.
  constexpr std::uint64_t FtlStats::*kFields[] = {
      &FtlStats::host_writes,         &FtlStats::nand_writes,
      &FtlStats::nand_erases,         &FtlStats::gc_runs,
      &FtlStats::gc_page_moves,       &FtlStats::mode_migrations,
      &FtlStats::refresh_runs,        &FtlStats::refresh_page_moves,
      &FtlStats::program_fails,       &FtlStats::erase_fails,
      &FtlStats::grown_defects,       &FtlStats::retired_blocks,
      &FtlStats::retire_page_moves,   &FtlStats::mounts,
      &FtlStats::mount_pages_scanned, &FtlStats::mount_mappings_recovered,
      &FtlStats::mount_stale_records, &FtlStats::misdirected_writes,
      &FtlStats::torn_relocations,    &FtlStats::repair_writes,
  };
  static_assert(std::size(kFields) * sizeof(std::uint64_t) ==
                sizeof(FtlStats));
  FtlStats before;
  FtlStats after;
  for (std::uint64_t i = 0; i < std::size(kFields); ++i) {
    // Distinct baselines and distinct deltas per field.
    before.*kFields[i] = 1000 * (i + 1);
    after.*kFields[i] = 1000 * (i + 1) + 7 * (i + 1);
  }
  const FtlStats delta = after - before;
  for (std::uint64_t i = 0; i < std::size(kFields); ++i) {
    EXPECT_EQ(delta.*kFields[i], 7 * (i + 1)) << "field " << i;
  }
  EXPECT_EQ(after - after, FtlStats{});
  EXPECT_EQ(after - FtlStats{}, after);
}

TEST(PageMappingDeathTest, MigrateRequiresMappedPage) {
  PageMappingFtl ftl(tiny_config());
  EXPECT_DEATH((void)ftl.migrate(3, PageMode::kReduced, 0), "precondition");
}

TEST(PageMappingDeathTest, LpnRangeChecked) {
  PageMappingFtl ftl(tiny_config());
  EXPECT_DEATH((void)ftl.write(ftl.logical_pages(), PageMode::kNormal, 0),
               "precondition");
}

}  // namespace
}  // namespace flex::ftl
