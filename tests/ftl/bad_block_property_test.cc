// Property tests for the FTL's bad-block management under fault
// injection: no acknowledged write is ever lost, retired blocks leave
// service permanently (never a frontier, GC, wear-leveling, or refresh
// victim), the retirement ledger balances, and identical (seed, workload)
// runs retire identically.
#include <cstdint>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "faults/fault_injector.h"
#include "ftl/page_mapping.h"

namespace flex::ftl {
namespace {

// Small drive: 4 chips x 64 blocks x 8 pages = 2048 physical pages. Small
// blocks make block-level faults frequent at modest write counts, and the
// 30% over-provisioning (~77 blocks) leaves room for the dozens of
// retirements the noisy rates below produce without exhausting the drive.
FtlConfig tiny_config() {
  FtlConfig cfg;
  cfg.spec.page_size_bytes = 4096;
  cfg.spec.pages_per_block = 8;
  cfg.spec.blocks_per_chip = 64;
  cfg.spec.chips = 4;
  cfg.over_provisioning = 0.30;
  cfg.gc_low_watermark = 3;
  cfg.static_wl_interval = 8;  // small: wear leveling runs often
  return cfg;
}

faults::FaultConfig noisy_faults() {
  faults::FaultConfig cfg;
  cfg.enabled = true;
  // Rates far above field values on purpose: a short run must exercise
  // every fault path several times over, while the expected retirement
  // count stays well inside the over-provisioning margin.
  cfg.program_fail_rate = 2e-4;
  cfg.erase_fail_rate = 2e-3;
  cfg.grown_defect_rate = 2e-3;
  return cfg;
}

/// Random overwrite workload against a shadow map of expected mappings.
struct Churn {
  explicit Churn(std::uint64_t seed) : rng(seed) {}

  void run(PageMappingFtl& ftl, std::uint64_t writes) {
    const std::uint64_t logical = ftl.logical_pages();
    for (std::uint64_t i = 0; i < writes; ++i) {
      const std::uint64_t lpn = rng.below(logical);
      const PageMode mode =
          rng.below(8) == 0 ? PageMode::kReduced : PageMode::kNormal;
      ftl.write(lpn, mode, static_cast<SimTime>(i));
      written[lpn] = static_cast<SimTime>(i);
    }
  }

  Rng rng;
  std::unordered_map<std::uint64_t, SimTime> written;
};

class BadBlockPropertyTest : public ::testing::Test {
 protected:
  BadBlockPropertyTest()
      : injector_(noisy_faults(), 0x5EED), ftl_(tiny_config()) {
    ftl_.attach_fault_injector(&injector_);
  }

  faults::FaultInjector injector_;
  PageMappingFtl ftl_;
};

TEST_F(BadBlockPropertyTest, NoAcknowledgedWriteIsEverLost) {
  Churn churn(42);
  churn.run(ftl_, 20'000);
  // Every fault path must have fired for the property to mean anything.
  const FtlStats& stats = ftl_.stats();
  ASSERT_GT(stats.program_fails, 0u);
  ASSERT_GT(stats.erase_fails, 0u);
  ASSERT_GT(stats.grown_defects, 0u);
  ASSERT_GT(ftl_.retired_block_count(), 0u);
  // Every acknowledged write still maps to a valid page with the written
  // identity, and never inside a retired block.
  for (const auto& [lpn, _] : churn.written) {
    const auto info = ftl_.lookup(lpn);
    ASSERT_TRUE(info.has_value()) << "lpn " << lpn << " lost";
    EXPECT_FALSE(ftl_.block_retired(info->ppn))
        << "lpn " << lpn << " maps into a retired block";
  }
}

TEST_F(BadBlockPropertyTest, RetirementLedgerBalances) {
  Churn churn(43);
  churn.run(ftl_, 20'000);
  const FtlStats& stats = ftl_.stats();
  // Every retirement has exactly one cause, and the live count matches
  // the counter (blocks never return from retirement).
  EXPECT_EQ(stats.retired_blocks,
            stats.program_fails + stats.erase_fails + stats.grown_defects);
  EXPECT_EQ(stats.retired_blocks, ftl_.retired_block_count());
  // Program-fail retirements relocated their valid pages somewhere.
  EXPECT_GT(stats.retire_page_moves, 0u);
}

TEST_F(BadBlockPropertyTest, RefreshNeverTouchesARetiredBlock) {
  Churn churn(44);
  churn.run(ftl_, 10'000);
  ASSERT_GT(ftl_.retired_block_count(), 0u);
  const std::uint32_t pages_per_block = tiny_config().spec.pages_per_block;
  const std::uint64_t refresh_runs_before = ftl_.stats().refresh_runs;
  for (std::uint64_t block = 0; block < ftl_.physical_blocks(); ++block) {
    const std::uint64_t ppn = block * pages_per_block;
    if (!ftl_.block_retired(ppn)) continue;
    // Refreshing a retired block is a no-op request, not a scrub.
    EXPECT_FALSE(ftl_.refresh_block(ppn, 0).has_value());
  }
  EXPECT_EQ(ftl_.stats().refresh_runs, refresh_runs_before);
}

TEST_F(BadBlockPropertyTest, GcAndWearLevelingSkipRetiredBlocks) {
  // candidate_insert asserts !retired and allocate_block asserts the free
  // list never yields a retired block, so simply surviving a long churn —
  // with GC, static wear leveling (interval 8), and all three fault kinds
  // active — is the property. Then confirm service continues: more churn
  // with further faults still loses nothing.
  Churn churn(45);
  churn.run(ftl_, 15'000);
  const std::uint32_t retired_mid = ftl_.retired_block_count();
  ASSERT_GT(retired_mid, 0u);
  churn.run(ftl_, 15'000);
  EXPECT_GE(ftl_.retired_block_count(), retired_mid);
  for (const auto& [lpn, _] : churn.written) {
    ASSERT_TRUE(ftl_.lookup(lpn).has_value());
  }
}

TEST_F(BadBlockPropertyTest, IdenticalRunsRetireIdentically) {
  Churn churn_a(46);
  churn_a.run(ftl_, 12'000);

  faults::FaultInjector injector_b(noisy_faults(), 0x5EED);
  PageMappingFtl ftl_b(tiny_config());
  ftl_b.attach_fault_injector(&injector_b);
  Churn churn_b(46);
  churn_b.run(ftl_b, 12'000);

  const FtlStats& a = ftl_.stats();
  const FtlStats& b = ftl_b.stats();
  EXPECT_EQ(a.nand_writes, b.nand_writes);
  EXPECT_EQ(a.nand_erases, b.nand_erases);
  EXPECT_EQ(a.program_fails, b.program_fails);
  EXPECT_EQ(a.erase_fails, b.erase_fails);
  EXPECT_EQ(a.grown_defects, b.grown_defects);
  EXPECT_EQ(a.retired_blocks, b.retired_blocks);
  EXPECT_EQ(a.retire_page_moves, b.retire_page_moves);
  for (std::uint64_t lpn = 0; lpn < ftl_.logical_pages(); ++lpn) {
    const auto ia = ftl_.lookup(lpn);
    const auto ib = ftl_b.lookup(lpn);
    ASSERT_EQ(ia.has_value(), ib.has_value());
    if (ia) {
      EXPECT_EQ(ia->ppn, ib->ppn);
    }
  }
}

TEST_F(BadBlockPropertyTest, DisabledInjectorChangesNothing) {
  // A null injector (the default) must reproduce the exact placement of a
  // never-attached FTL: fault support costs nothing when off.
  ftl_.attach_fault_injector(nullptr);
  Churn churn_a(47);
  churn_a.run(ftl_, 8'000);

  PageMappingFtl plain(tiny_config());
  Churn churn_b(47);
  churn_b.run(plain, 8'000);

  EXPECT_EQ(ftl_.stats().nand_writes, plain.stats().nand_writes);
  EXPECT_EQ(ftl_.stats().retired_blocks, 0u);
  for (std::uint64_t lpn = 0; lpn < ftl_.logical_pages(); ++lpn) {
    const auto ia = ftl_.lookup(lpn);
    const auto ib = plain.lookup(lpn);
    ASSERT_EQ(ia.has_value(), ib.has_value());
    if (ia) {
      EXPECT_EQ(ia->ppn, ib->ppn);
    }
  }
}

}  // namespace
}  // namespace flex::ftl
