#include "ssd/simulator.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc64.h"
#include "common/rng.h"
#include "flexlevel/nunma.h"
#include "flexlevel/reduce_mapper.h"
#include "nand/level_config.h"
#include "trace/workloads.h"

namespace flex::ssd {
namespace {

// Shared BerModels (expensive to construct) for all simulator tests.
class SimulatorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(1234);
    const reliability::BerEngine::Config mc{.wordlines = 32,
                                            .bitlines = 128,
                                            .rounds = 2,
                                            .coupling = {}};
    static const reliability::GrayMapper gray;
    static const flexlevel::ReduceCodeMapper reduce;
    normal_ = new reliability::BerModel(nand::LevelConfig::baseline_mlc(),
                                        gray, reliability::RetentionModel{},
                                        mc, rng);
    reduced_ = new reliability::BerModel(
        flexlevel::nunma_config(flexlevel::NunmaScheme::kNunma3), reduce,
        reliability::RetentionModel{}, mc, rng);
  }
  static void TearDownTestSuite() {
    delete normal_;
    delete reduced_;
    normal_ = nullptr;
    reduced_ = nullptr;
  }

  // Small drive: 4 chips x 64 blocks x 32 pages = 8192 physical pages.
  static SsdConfig small_config(Scheme scheme) {
    SsdConfig cfg;
    cfg.scheme = scheme;
    cfg.ftl.spec.page_size_bytes = 4096;
    cfg.ftl.spec.pages_per_block = 32;
    cfg.ftl.spec.blocks_per_chip = 64;
    cfg.ftl.spec.chips = 4;
    cfg.ftl.over_provisioning = 0.27;
    cfg.ftl.gc_low_watermark = 4;
    cfg.ftl.initial_pe_cycles = 6000;
    cfg.min_prefill_age = kDay;
    cfg.max_prefill_age = kMonth;
    cfg.write_buffer_pages = 64;
    cfg.write_buffer_flush_batch = 8;
    cfg.access_eval.pool_capacity_pages = 1024;
    cfg.access_eval.hotness = {.filter_count = 4,
                               .bits_per_filter = 1 << 14,
                               .hashes = 2,
                               .window_accesses = 512};
    return cfg;
  }

  static std::vector<trace::Request> small_trace(double read_fraction,
                                                 std::uint64_t seed) {
    trace::WorkloadParams params;
    params.name = "test";
    params.read_fraction = read_fraction;
    params.zipf_theta = 1.0;
    params.footprint_pages = 4000;
    params.mean_request_pages = 1.2;
    params.max_request_pages = 4;
    params.iops = 1500;
    params.requests = 20'000;
    return trace::generate(params, seed);
  }

  static reliability::BerModel* normal_;
  static reliability::BerModel* reduced_;
};

reliability::BerModel* SimulatorTest::normal_ = nullptr;
reliability::BerModel* SimulatorTest::reduced_ = nullptr;

// Scrambles a sorted trace the way a hand-edited CSV might arrive: ties
// with the predecessor, adjacent inversions, and a few long-range
// inversions and far-apart ties. read_csv keeps file order, so the
// simulator must accept this.
std::vector<trace::Request> disorder(std::vector<trace::Request> trace) {
  for (std::size_t i = 1; i + 1 < trace.size(); ++i) {
    if (i % 11 == 5) trace[i].arrival = trace[i - 1].arrival;
    if (i % 7 == 3) std::swap(trace[i], trace[i + 1]);
  }
  const std::size_t n = trace.size();
  std::swap(trace[10], trace[n - 10]);
  std::swap(trace[n / 2], trace[n / 3]);
  trace[50].arrival = trace[n / 4].arrival;
  return trace;
}

void expect_stats_identical(const RunningStats& a, const RunningStats& b,
                            const char* what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(a.count(), b.count());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

void expect_results_identical(const SsdResults& a, const SsdResults& b) {
  expect_stats_identical(a.read_response, b.read_response, "read");
  expect_stats_identical(a.write_response, b.write_response, "write");
  expect_stats_identical(a.all_response, b.all_response, "all");
  EXPECT_TRUE(a.read_latency_hist == b.read_latency_hist);
  EXPECT_EQ(a.read_breakdown, b.read_breakdown);
  EXPECT_EQ(a.ftl, b.ftl);
  EXPECT_EQ(a.chip_stats, b.chip_stats);
  EXPECT_EQ(a.sensing_level_reads, b.sensing_level_reads);
  EXPECT_EQ(a.buffer_hits, b.buffer_hits);
  EXPECT_EQ(a.migrations_to_reduced, b.migrations_to_reduced);
  EXPECT_EQ(a.migrations_to_normal, b.migrations_to_normal);
}

TEST_F(SimulatorTest, RunsEverySchemeToCompletion) {
  for (const Scheme scheme : {Scheme::kBaseline, Scheme::kLdpcInSsd,
                              Scheme::kLevelAdjustOnly, Scheme::kFlexLevel}) {
    SsdSimulator sim(small_config(scheme), *normal_, *reduced_);
    sim.prefill(4000);
    const SsdResults results = sim.run(small_trace(0.7, 42));
    EXPECT_EQ(results.all_response.count(), 20'000u) << scheme_name(scheme);
    EXPECT_GT(results.read_response.mean(), 0.0) << scheme_name(scheme);
  }
}

TEST_F(SimulatorTest, BaselineSlowerThanProgressive) {
  SsdSimulator base(small_config(Scheme::kBaseline), *normal_, *reduced_);
  base.prefill(4000);
  const auto base_results = base.run(small_trace(0.9, 7));

  SsdSimulator prog(small_config(Scheme::kLdpcInSsd), *normal_, *reduced_);
  prog.prefill(4000);
  const auto prog_results = prog.run(small_trace(0.9, 7));

  EXPECT_GT(base_results.read_response.mean(),
            prog_results.read_response.mean());
}

TEST_F(SimulatorTest, FlexLevelMigratesHotSoftData) {
  SsdSimulator sim(small_config(Scheme::kFlexLevel), *normal_, *reduced_);
  sim.prefill(4000);
  const auto results = sim.run(small_trace(0.9, 11));
  EXPECT_GT(results.migrations_to_reduced, 0u);
  EXPECT_GT(sim.ftl().reduced_blocks(), 0u);
}

TEST_F(SimulatorTest, FlexLevelFasterReadsThanLdpcInSsd) {
  // At P/E 6000 with old data, hot reads need soft sensing; FlexLevel moves
  // them to reduced pages and strips that cost. Measure steady state after
  // a warmup pass over the first half of the trace.
  const auto trace = small_trace(0.98, 13);
  const auto split =
      trace.begin() + static_cast<std::ptrdiff_t>(trace.size() / 2);
  auto steady = [&](Scheme scheme) {
    SsdSimulator sim(small_config(scheme), *normal_, *reduced_);
    sim.prefill(4000);
    sim.run({trace.begin(), split});
    sim.reset_measurements();
    return sim.run({split, trace.end()});
  };
  const auto flex_results = steady(Scheme::kFlexLevel);
  const auto prog_results = steady(Scheme::kLdpcInSsd);
  EXPECT_LT(flex_results.read_response.mean(),
            prog_results.read_response.mean());
}

TEST_F(SimulatorTest, FlexLevelWritesMoreThanLdpcInSsd) {
  // Fig. 7(a)/(b): migrations add NAND writes and erases.
  SsdSimulator flex(small_config(Scheme::kFlexLevel), *normal_, *reduced_);
  flex.prefill(4000);
  const auto flex_results = flex.run(small_trace(0.7, 17));

  SsdSimulator prog(small_config(Scheme::kLdpcInSsd), *normal_, *reduced_);
  prog.prefill(4000);
  const auto prog_results = prog.run(small_trace(0.7, 17));

  EXPECT_GT(flex_results.ftl.nand_writes, prog_results.ftl.nand_writes);
}

TEST_F(SimulatorTest, WriteBufferAbsorbsRewrites) {
  SsdSimulator sim(small_config(Scheme::kLdpcInSsd), *normal_, *reduced_);
  sim.prefill(4000);
  const auto results = sim.run(small_trace(0.2, 19));  // write-heavy
  EXPECT_GT(results.buffer_hits, 0u);
  // Host page writes that reached NAND are fewer than host writes issued
  // (buffer coalescing).
  EXPECT_LT(results.ftl.host_writes, results.all_response.count() * 4);
}

TEST_F(SimulatorTest, SensingLevelDistributionTracked) {
  SsdSimulator sim(small_config(Scheme::kLdpcInSsd), *normal_, *reduced_);
  sim.prefill(4000);
  const auto results = sim.run(small_trace(0.95, 23));
  std::uint64_t nand_reads = 0;
  for (const auto count : results.sensing_level_reads) nand_reads += count;
  EXPECT_GT(nand_reads, 0u);
  // Week-old P/E-6000 data needs soft sensing (Table 5: 2 levels).
  EXPECT_GT(results.sensing_level_reads[2] + results.sensing_level_reads[4] +
                results.sensing_level_reads[6],
            0u);
}

TEST_F(SimulatorTest, ReducedPagesReadHardEvenWhenOld) {
  // LevelAdjust-only drive: every page reduced (NUNMA 3) -> all NAND reads
  // at zero extra levels despite age and wear.
  SsdSimulator sim(small_config(Scheme::kLevelAdjustOnly), *normal_,
                   *reduced_);
  sim.prefill(4000);
  const auto results = sim.run(small_trace(0.95, 29));
  std::uint64_t soft_reads = 0;
  for (std::size_t l = 1; l < results.sensing_level_reads.size(); ++l) {
    soft_reads += results.sensing_level_reads[l];
  }
  EXPECT_EQ(soft_reads, 0u);
  EXPECT_GT(results.sensing_level_reads[0], 0u);
}

TEST_F(SimulatorTest, NoUncorrectableReadsAtPaperOperatingPoint) {
  SsdSimulator sim(small_config(Scheme::kLdpcInSsd), *normal_, *reduced_);
  sim.prefill(4000);
  const auto results = sim.run(small_trace(0.8, 31));
  EXPECT_EQ(results.uncorrectable_reads, 0u);
}

TEST_F(SimulatorTest, PrefillStateIsPinned) {
  // The drive state prefill() leaves behind, pinned bit for bit: the L2P
  // table, the durability ledger and every FTL counter. Covers normal- and
  // reduced-mode prefill, an integrity-on drive, and precondition counts
  // of 0, 1, 5, and ones that are not a multiple of the overwrite loop's
  // look-ahead distance.
  constexpr std::uint64_t kFull = 4784;  // 80% of the logical space
  struct Case {
    Scheme scheme;
    bool integrity;
    double passes;
    std::uint64_t pages;
    std::uint64_t l2p_crc;
    std::uint64_t durable_crc;
    ftl::FtlStats stats;
  };
  const Case cases[] = {
      {Scheme::kLdpcInSsd, false, 0.0, 0, 0xeb59f69f996367d0ULL,
       0x695b206839d2d624ULL,
       {}},
      {Scheme::kLdpcInSsd, false, 0.0, 5, 0x8d4ffe57aa325507ULL,
       0x513f27ac013684daULL,
       {.host_writes = 5, .nand_writes = 5}},
      {Scheme::kLdpcInSsd, false, 0.0, kFull, 0xe9a6b31e0c997ca1ULL,
       0x22346ac7f19ce0b1ULL,
       {.host_writes = 4784, .nand_writes = 4784}},
      {Scheme::kLdpcInSsd, false, 0.37, 0, 0xeb59f69f996367d0ULL,
       0x695b206839d2d624ULL,
       {}},
      {Scheme::kLdpcInSsd, false, 0.37, 5, 0xcaef7aa9df9dabffULL,
       0x6c5f5bf9d253d172ULL,
       {.host_writes = 6, .nand_writes = 6}},
      {Scheme::kLdpcInSsd, false, 0.37, kFull, 0xd60ca62759aae05eULL,
       0xcd414354390a5f20ULL,
       {.host_writes = 6554, .nand_writes = 6554}},
      {Scheme::kLdpcInSsd, false, 1.0, 0, 0xeb59f69f996367d0ULL,
       0x695b206839d2d624ULL,
       {}},
      {Scheme::kLdpcInSsd, false, 1.0, 5, 0xffc2c4375bc59d5dULL,
       0x827b9c67b1c26cc0ULL,
       {.host_writes = 10, .nand_writes = 10}},
      {Scheme::kLdpcInSsd, false, 1.0, kFull, 0x590ff23270154769ULL,
       0xcfef10b359cf814dULL,
       {.host_writes = 9568, .nand_writes = 10360, .nand_erases = 72, .gc_runs = 72, .gc_page_moves = 792}},
      {Scheme::kLevelAdjustOnly, false, 0.0, 0, 0xeb59f69f996367d0ULL,
       0x695b206839d2d624ULL,
       {}},
      {Scheme::kLevelAdjustOnly, false, 0.0, 5, 0x8d4ffe57aa325507ULL,
       0x513f27ac013684daULL,
       {.host_writes = 5, .nand_writes = 5}},
      {Scheme::kLevelAdjustOnly, false, 0.0, kFull, 0x5b1c61a1e0f827b8ULL,
       0x22346ac7f19ce0b1ULL,
       {.host_writes = 4784, .nand_writes = 4784}},
      {Scheme::kLevelAdjustOnly, false, 0.37, 0, 0xeb59f69f996367d0ULL,
       0x695b206839d2d624ULL,
       {}},
      {Scheme::kLevelAdjustOnly, false, 0.37, 5, 0xcaef7aa9df9dabffULL,
       0x6c5f5bf9d253d172ULL,
       {.host_writes = 6, .nand_writes = 6}},
      {Scheme::kLevelAdjustOnly, false, 0.37, kFull, 0xd96b79f6ac1db65cULL,
       0xcd414354390a5f20ULL,
       {.host_writes = 6554, .nand_writes = 7341, .nand_erases = 54, .gc_runs = 54, .gc_page_moves = 787}},
      {Scheme::kLevelAdjustOnly, false, 1.0, 0, 0xeb59f69f996367d0ULL,
       0x695b206839d2d624ULL,
       {}},
      {Scheme::kLevelAdjustOnly, false, 1.0, 5, 0xffc2c4375bc59d5dULL,
       0x827b9c67b1c26cc0ULL,
       {.host_writes = 10, .nand_writes = 10}},
      {Scheme::kLevelAdjustOnly, false, 1.0, kFull, 0x42c5a37d06908d0cULL,
       0xcfef10b359cf814dULL,
       {.host_writes = 9568, .nand_writes = 14587, .nand_erases = 356, .gc_runs = 356, .gc_page_moves = 5019}},
      {Scheme::kLdpcInSsd, true, 0.0, 0, 0xeb59f69f996367d0ULL,
       0x695b206839d2d624ULL,
       {}},
      {Scheme::kLdpcInSsd, true, 0.0, 5, 0x8d4ffe57aa325507ULL,
       0x513f27ac013684daULL,
       {.host_writes = 5, .nand_writes = 5}},
      {Scheme::kLdpcInSsd, true, 0.0, kFull, 0xe9a6b31e0c997ca1ULL,
       0x22346ac7f19ce0b1ULL,
       {.host_writes = 4784, .nand_writes = 4784}},
      {Scheme::kLdpcInSsd, true, 0.37, 0, 0xeb59f69f996367d0ULL,
       0x695b206839d2d624ULL,
       {}},
      {Scheme::kLdpcInSsd, true, 0.37, 5, 0xcaef7aa9df9dabffULL,
       0x6c5f5bf9d253d172ULL,
       {.host_writes = 6, .nand_writes = 6}},
      {Scheme::kLdpcInSsd, true, 0.37, kFull, 0xd60ca62759aae05eULL,
       0xcd414354390a5f20ULL,
       {.host_writes = 6554, .nand_writes = 6554}},
      {Scheme::kLdpcInSsd, true, 1.0, 0, 0xeb59f69f996367d0ULL,
       0x695b206839d2d624ULL,
       {}},
      {Scheme::kLdpcInSsd, true, 1.0, 5, 0xffc2c4375bc59d5dULL,
       0x827b9c67b1c26cc0ULL,
       {.host_writes = 10, .nand_writes = 10}},
      {Scheme::kLdpcInSsd, true, 1.0, kFull, 0x590ff23270154769ULL,
       0xcfef10b359cf814dULL,
       {.host_writes = 9568, .nand_writes = 10360, .nand_erases = 72, .gc_runs = 72, .gc_page_moves = 792}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message()
                 << scheme_name(c.scheme) << " integrity=" << c.integrity
                 << " passes=" << c.passes << " pages=" << c.pages);
    SsdConfig cfg = small_config(c.scheme);
    cfg.integrity.enabled = c.integrity;
    cfg.precondition_passes = c.passes;
    SsdSimulator sim(std::move(cfg), *normal_, *reduced_);
    ASSERT_EQ(sim.ftl().logical_pages() * 4 / 5, kFull);
    sim.prefill(c.pages);
    const std::vector<std::uint64_t>& l2p = sim.ftl().l2p_dump();
    const std::vector<std::uint64_t>& durable = sim.durable_versions();
    EXPECT_EQ(crc64(l2p.data(), l2p.size() * sizeof(l2p[0])), c.l2p_crc);
    EXPECT_EQ(crc64(durable.data(), durable.size() * sizeof(durable[0])),
              c.durable_crc);
    EXPECT_EQ(sim.ftl().stats(), c.stats);
    EXPECT_TRUE(sim.ftl().check_consistency().ok());
  }
}

// Hex-exact digest of a run's results: the response statistics, the read
// tail, the sensing-depth distribution, the read-time components and the
// FTL counters.
std::uint64_t results_digest(const SsdResults& r) {
  std::ostringstream out;
  out << std::hexfloat;
  for (const RunningStats* stats :
       {&r.read_response, &r.write_response, &r.all_response}) {
    out << stats->count() << ' ' << stats->sum() << ' ' << stats->min()
        << ' ' << stats->max() << '\n';
  }
  for (const double q : {0.5, 0.99, 0.999}) {
    out << r.read_latency_hist.quantile(q) << ' ';
  }
  out << '\n';
  for (const std::uint64_t reads : r.sensing_level_reads) out << reads << ' ';
  out << '\n'
      << r.read_breakdown.queue_wait << ' ' << r.read_breakdown.sensing << ' '
      << r.read_breakdown.transfer << ' ' << r.read_breakdown.decode << ' '
      << r.read_breakdown.buffer << '\n'
      << r.buffer_hits << ' ' << r.unmapped_reads << ' '
      << r.uncorrectable_reads << ' ' << r.ftl.host_writes << ' '
      << r.ftl.nand_writes << ' ' << r.ftl.gc_page_moves << '\n';
  const std::string text = out.str();
  return crc64(text.data(), text.size());
}

TEST_F(SimulatorTest, StaticPerLbaAgesArePinned) {
  // Under kStaticPerLba a read of a prefilled lpn ages from its prefill
  // extent's birth time; past the prefilled range it falls back to the
  // page's write time. 2,500 of the trace's 4,000 footprint pages are
  // prefilled, so reads land on both sides (and on unmapped pages), and
  // with 7-page extents the last extent is partial. Digests taken on the
  // per-lpn birth table this per-extent one replaced.
  struct Case {
    std::uint64_t extent_pages;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {1, 0xb05dbf15cab4bd9bULL},
      {7, 0x5db5ff97567ebe7aULL},
      {64, 0x22388745ed308504ULL},
  };
  const std::vector<trace::Request> trace = small_trace(0.7, 59);
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "extent=" << c.extent_pages);
    SsdConfig cfg = small_config(Scheme::kLdpcInSsd);
    cfg.age_model = AgeModel::kStaticPerLba;
    cfg.prefill_extent_pages = c.extent_pages;
    SsdSimulator sim(std::move(cfg), *normal_, *reduced_);
    sim.prefill(2500);
    const SsdResults results = sim.run(trace);
    EXPECT_GT(results.unmapped_reads, 0u);
    EXPECT_EQ(results_digest(results), c.digest);
  }
}

TEST_F(SimulatorTest, UnsortedTraceRunsAsItsStableSort) {
  // Equal arrivals fire in trace order, so an unsorted trace must replay
  // exactly as its stable sort by arrival.
  const auto unsorted = disorder(small_trace(0.7, 37));
  const auto by_arrival = [](const trace::Request& a,
                             const trace::Request& b) {
    return a.arrival < b.arrival;
  };
  ASSERT_FALSE(std::is_sorted(unsorted.begin(), unsorted.end(), by_arrival));
  auto sorted = unsorted;
  std::stable_sort(sorted.begin(), sorted.end(), by_arrival);

  auto run = [&](const std::vector<trace::Request>& trace) {
    SsdSimulator sim(small_config(Scheme::kFlexLevel), *normal_, *reduced_);
    sim.prefill(4000);
    return sim.run(trace);
  };
  expect_results_identical(run(unsorted), run(sorted));
}

TEST_F(SimulatorTest, KernelSlabDoesNotGrowWithTraceLength) {
  // Trace arrivals stream from the caller's vector instead of occupying
  // event records, so the slab only ever holds in-flight chip work. A
  // read-only trace at a 1 ms pitch finishes each request's chip work
  // before the next arrival: the high-water mark is one request's worth,
  // however long the trace.
  auto slab_after = [&](std::uint64_t requests) {
    trace::WorkloadParams params;
    params.name = "tripwire";
    params.read_fraction = 1.0;
    params.footprint_pages = 4000;
    params.mean_request_pages = 1.2;
    params.max_request_pages = 4;
    params.requests = requests;
    auto trace = trace::generate(params, 41);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      trace[i].arrival = static_cast<SimTime>(i) * kMillisecond;
    }
    SsdSimulator sim(small_config(Scheme::kLdpcInSsd), *normal_, *reduced_);
    sim.prefill(4000);
    sim.run_segment(trace);
    EXPECT_EQ(sim.results().all_response.count(), requests);
    return sim.events().slab_slots();
  };
  const std::size_t short_trace = slab_after(10'000);
  EXPECT_EQ(slab_after(100'000), short_trace);
  EXPECT_LE(short_trace, 4u);
}

}  // namespace
}  // namespace flex::ssd
