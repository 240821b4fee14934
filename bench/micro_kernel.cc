// Hot-path microbench for the discrete-event kernel and the end-to-end
// simulator: the perf-regression tripwire behind the CI `perf-smoke` job.
//
// Reports three numbers (stdout table + BENCH_micro_kernel.json):
//   * events/sec — raw EventQueue throughput on run_segment's path:
//     arrivals streamed from a request vector (stream_arrivals), each
//     firing scheduling one completion 1.5 us out on the heap. The
//     kernel loop runs kRepeats times on fresh queues; the median is the
//     reported figure, with the min, max and spread (max - min over the
//     median) beside it.
//   * allocations/event — operator new calls per fired event in the
//     steady state (after one warmup round that grows the slab and heap
//     to their high-water mark). The kernel's memory contract says this
//     is 0.0: callbacks live inline in POD slab records, a sorted stream
//     is walked in place, and every container is recycled, never shrunk.
//   * requests/sec — simulated requests per wall-second of the measured
//     window of one fig6a cell (fin-2 / LevelAdjust+AccessEval @ P/E
//     6000): FTL, scheduler, BER cache and telemetry-off read path. The
//     cell's set-up (trace generation, build, prefill, warmup) is timed
//     and reported on its own as setup_s, so set-up work neither hides
//     nor inflates a read-path change.
//
// Wall-clock throughput is machine-dependent; the committed
// BENCH_micro_kernel.json is the reference point the CI perf-smoke job
// compares against with a generous (25%) regression margin. Simulated
// *results* remain byte-identical regardless — this bench guards speed,
// not correctness.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/alloc_counter.h"
#include "ssd/event_queue.h"

FLEX_DEFINE_COUNTING_ALLOCATOR()

namespace {

#ifndef FLEX_GIT_SHA
#define FLEX_GIT_SHA "unknown"
#endif

/// Kernel-loop repetitions: enough for a median and a spread, short
/// enough (~0.05 s each at the defaults) to keep the CI job quick.
constexpr int kRepeats = 5;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// One request of the streamed mix; stream_arrivals reads `arrival`.
struct Arrival {
  flex::SimTime arrival;
};

/// One round of the simulator's scheduling mix, as run_segment drives it:
/// the arrivals, 1 us apart, stream from `arrivals`; each firing schedules
/// a completion 1.5 us out on the heap. Fires 2 * arrivals.size() events.
/// The vector is re-stamped in place, so a round allocates nothing.
void run_round(flex::ssd::EventQueue& queue, std::vector<Arrival>& arrivals) {
  const flex::SimTime base = queue.now();
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    arrivals[i].arrival = base + static_cast<flex::SimTime>(i + 1) * 1000;
  }
  queue.stream_arrivals(arrivals, [&queue](const Arrival&, flex::SimTime now) {
    queue.schedule(now + 1500, [](flex::SimTime) {});
  });
  queue.run_all();
}

struct KernelNumbers {
  std::uint64_t events = 0;
  double events_per_sec = 0.0;
  double allocations_per_event = 0.0;
  std::size_t slab_slots = 0;
};

KernelNumbers bench_kernel(std::uint64_t count, int rounds) {
  namespace alloc = flex::common::alloc_counter;
  flex::ssd::EventQueue queue;
  std::vector<Arrival> arrivals(count);
  // Warmup: grows the slab, the heap and the free stack to their
  // high-water marks. Steady state starts here.
  run_round(queue, arrivals);

  const std::uint64_t allocs_before = alloc::allocation_count();
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) run_round(queue, arrivals);
  const double elapsed = seconds_since(start);
  const std::uint64_t allocs = alloc::allocation_count() - allocs_before;

  KernelNumbers out;
  out.events = 2 * count * static_cast<std::uint64_t>(rounds);
  out.events_per_sec = static_cast<double>(out.events) / elapsed;
  out.allocations_per_event =
      static_cast<double>(allocs) / static_cast<double>(out.events);
  out.slab_slots = queue.slab_slots();
  return out;
}

/// kRepeats kernel runs: the median run's figures, with the worst
/// allocation rate of any run, and the events/sec distribution.
struct KernelSummary {
  KernelNumbers median;
  double min_events_per_sec = 0.0;
  double max_events_per_sec = 0.0;
  /// (max - min) / median events/sec.
  double spread = 0.0;
};

KernelSummary bench_kernel_repeated(std::uint64_t count, int rounds) {
  std::vector<KernelNumbers> runs;
  KernelSummary out;
  double worst_allocations = 0.0;
  for (int r = 0; r < kRepeats; ++r) {
    runs.push_back(bench_kernel(count, rounds));
    worst_allocations =
        std::max(worst_allocations, runs.back().allocations_per_event);
  }
  std::sort(runs.begin(), runs.end(),
            [](const KernelNumbers& a, const KernelNumbers& b) {
              return a.events_per_sec < b.events_per_sec;
            });
  out.median = runs[runs.size() / 2];
  out.median.allocations_per_event = worst_allocations;
  out.min_events_per_sec = runs.front().events_per_sec;
  out.max_events_per_sec = runs.back().events_per_sec;
  out.spread = (out.max_events_per_sec - out.min_events_per_sec) /
               out.median.events_per_sec;
  return out;
}

struct SsdNumbers {
  std::uint64_t requests = 0;
  double requests_per_sec = 0.0;
  double setup_s = 0.0;
};

SsdNumbers bench_ssd(const flex::bench::ExperimentHarness& harness,
                     std::uint64_t requests_override) {
  const flex::ssd::SsdResults results =
      harness.run(flex::trace::Workload::kFin2, flex::ssd::Scheme::kFlexLevel,
                  /*pe_cycles=*/6000, requests_override);
  SsdNumbers out;
  out.requests = results.all_response.count();
  out.setup_s = results.setup_seconds;
  out.requests_per_sec =
      static_cast<double>(out.requests) /
      (results.wall_seconds - results.setup_seconds);
  return out;
}

void write_json(const std::string& path, const KernelSummary& summary,
                const SsdNumbers& ssd) {
  const KernelNumbers& kernel = summary.median;
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (!file) {
    std::fprintf(stderr, "micro_kernel: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(file,
               "{\n"
               "\"bench\":\"micro_kernel\",\n"
               "\"git_sha\":\"%s\",\n"
               "\"kernel\":{\"events\":%" PRIu64
               ",\"repeats\":%d,\"events_per_sec\":%.1f,"
               "\"events_per_sec_min\":%.1f,\"events_per_sec_max\":%.1f,"
               "\"events_per_sec_spread\":%.4f,"
               "\"allocations_per_event\":%.6f,\"slab_slots\":%zu},\n"
               "\"ssd\":{\"workload\":\"fin-2\","
               "\"scheme\":\"LevelAdjust+AccessEval\",\"requests\":%" PRIu64
               ",\"requests_per_sec\":%.1f,\"setup_s\":%.4f}\n"
               "}\n",
               FLEX_GIT_SHA, kernel.events, kRepeats, kernel.events_per_sec,
               summary.min_events_per_sec, summary.max_events_per_sec,
               summary.spread, kernel.allocations_per_event,
               kernel.slab_slots, ssd.requests, ssd.requests_per_sec,
               ssd.setup_s);
  std::fclose(file);
}

}  // namespace

int main(int argc, char** argv) {
  flex::bench::OutputOptions outputs = flex::bench::parse_outputs(&argc, argv);
  flex::bench::parse_jobs(&argc, argv);  // accepted for CLI uniformity
  // Positional overrides: [arrivals-per-round [rounds]].
  std::uint64_t arrivals = 200000;
  int rounds = 5;
  if (argc > 1) arrivals = std::strtoull(argv[1], nullptr, 10);
  if (argc > 2) rounds = static_cast<int>(std::strtol(argv[2], nullptr, 10));

  std::printf("micro_kernel: hot-path throughput "
              "(counting allocator %s)\n\n",
              flex::common::alloc_counter::counting_enabled() ? "active"
                                                              : "MISSING");

  const KernelSummary summary = bench_kernel_repeated(arrivals, rounds);
  const KernelNumbers& kernel = summary.median;
  std::printf("event kernel : %.2fM events/sec median of %d  (min %.2fM, "
              "max %.2fM, spread %.1f%%; %" PRIu64
              " events, %zu slab slots per run)\n",
              kernel.events_per_sec / 1e6, kRepeats,
              summary.min_events_per_sec / 1e6,
              summary.max_events_per_sec / 1e6, 100.0 * summary.spread,
              kernel.events, kernel.slab_slots);
  std::printf("steady state : %.6f allocations/event\n",
              kernel.allocations_per_event);

  const flex::bench::ExperimentHarness harness;
  const SsdNumbers ssd = bench_ssd(harness, /*requests_override=*/20000);
  std::printf("cell set-up  : %.3f s  (trace, build, prefill, warmup)\n",
              ssd.setup_s);
  std::printf("end-to-end   : %.0f requests/sec  (fin-2, "
              "LevelAdjust+AccessEval, %" PRIu64 " measured requests)\n",
              ssd.requests_per_sec, ssd.requests);

  const std::string out_path =
      outputs.bench_out.empty() ? "BENCH_micro_kernel.json" : outputs.bench_out;
  write_json(out_path, summary, ssd);

  // The memory contract is part of the bench's pass criterion: a nonzero
  // steady-state allocation rate is a regression even if throughput holds.
  if (kernel.allocations_per_event != 0.0) {
    std::fprintf(stderr,
                 "FAIL: steady-state allocations/event = %.6f (expected 0)\n",
                 kernel.allocations_per_event);
    return 1;
  }
  return 0;
}
