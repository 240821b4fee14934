// Repository benchmark program. Runs one named workload of the FlexLevel
// simulator on a single thread, times every call into a layer from the
// outside, reads the layers' exact counters, checks its own outputs, and
// prints one JSON object as its last stdout line. perfbench/run.py builds
// and runs it; perfbench/README.md maps each metric to its layer.
//
//   flexbench --workload read-steady --seed 2015 --seconds 10
//             [--trace-dir DIR]
//
// Workloads (all on ExperimentHarness::drive_config at P/E 6000):
//   fig6a-grid   the Fig. 6(a) static-age table, 7 traces x 4 schemes,
//                each cell building, prefilling, warming and measuring
//                its own drive, exactly as fig6a_response_time does;
//   read-steady  long web-1 runs under LevelAdjust+AccessEval on the
//                synchronous path;
//   qos-mixed    an open-loop 4-tenant WorkloadEngine stream, half writes,
//                under the deadline QoS scheduler with integrity on.
//
// --seed reseeds the trace / engine stream only (the drive keeps its
// seed). --seconds fixes the amount of work, never a time budget: it sets
// the number of fixed-size repetitions (seconds / a per-workload nominal),
// so one setting gives the same simulated work on any machine and commit.
// Every repetition splits into set-up (calibration, trace generation and
// each drive's build, prefill and warmup), the measured windows, and
// teardown. --trace-dir turns on
// host-time spans and adds a telemetry-attached repetition after each
// plain one; their files land in DIR.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/crc64.h"
#include "common/table.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"
#include "workload/engine.h"

namespace {

namespace ssd = flex::ssd;
namespace trace = flex::trace;
namespace telemetry = flex::telemetry;
using flex::bench::ExperimentHarness;
using Clock = std::chrono::steady_clock;

constexpr int kPeCycles = 6000;
/// Work per repetition (set-up, measured window, teardown). A run makes
/// --seconds / kNominal*Seconds repetitions (at least one; two when traced)
/// and reports medians; the nominal seconds are roughly one repetition's
/// measured window (fig6a-grid: its whole sweep) on a 4-core x86 box.
constexpr std::uint64_t kGridRequests = 60'000;  // per cell, warmup included
constexpr double kNominalGridSeconds = 3.5;
constexpr std::uint64_t kReadSteadyRequests = 1'000'000;  // warmup included
constexpr double kNominalReadSteadySeconds = 1.0;
constexpr std::uint64_t kQosRequests = 400'000;  // after a third as warmup
constexpr double kNominalQosSeconds = 1.0;
/// Simulated-time spans cover only this many measured requests.
constexpr std::uint64_t kSpanSliceRequests = 2'000;
/// Chrome process track of the host-time spans; simulated-time tracks
/// use 1 and up.
constexpr std::int32_t kHostPid = 0;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

// ------------------------------------------------------------ host spans

/// Host wall-clock spans the benchmark records around its calls into the
/// layers. Each span has an id, its parent's id (0 = none) and the run id,
/// and is exported as a Chrome complete event on the host process track.
class HostSpans {
 public:
  HostSpans(bool enabled, Clock::time_point origin)
      : enabled_(enabled), origin_(origin) {}

  int open(std::string name, int parent) {
    if (!enabled_) return 0;
    const Clock::time_point now = Clock::now();
    spans_.push_back({std::move(name), parent, now, now});
    return static_cast<int>(spans_.size());
  }
  void close(int id) {
    if (id > 0) spans_[static_cast<std::size_t>(id) - 1].end = Clock::now();
  }

  void write(const std::string& path, const std::string& run_id) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[\n{\"ph\":\"M\",\"name\":\"process_name\","
           "\"pid\":"
        << kHostPid
        << ",\"tid\":0,\"args\":{\"name\":\"benchmark host wall-clock\"}}";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      out << ",\n{\"ph\":\"X\",\"cat\":\"sim\",\"name\":\""
          << telemetry::json_escape(span.name) << "\",\"pid\":" << kHostPid
          << ",\"tid\":0,\"ts\":" << micros(span.start)
          << ",\"dur\":" << micros(span.end) - micros(span.start)
          << ",\"args\":{\"id\":" << i + 1 << ",\"parent\":" << span.parent
          << ",\"run\":\"" << run_id << "\"}}";
    }
    out << "\n]}\n";
  }

 private:
  struct Span {
    std::string name;
    int parent = 0;
    Clock::time_point start;
    Clock::time_point end;
  };

  double micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Runs `fn` under span `name` and returns its host seconds.
template <typename Fn>
double timed(HostSpans& spans, std::string name, int parent, Fn&& fn) {
  const int id = spans.open(std::move(name), parent);
  const Clock::time_point start = Clock::now();
  fn();
  const double elapsed = seconds_since(start);
  spans.close(id);
  return elapsed;
}

/// Host seconds per layer call. Calls within one repetition add up; each
/// repetition contributes one sample and the report takes the median.
class LayerTimes {
 public:
  void add(const std::string& name, double seconds) {
    current_[name] += seconds;
  }
  /// Closes a repetition; `keep == false` drops its samples (repetitions
  /// with telemetry attached, whose times include the telemetry cost).
  void end_repetition(bool keep) {
    if (keep) {
      for (const auto& [name, seconds] : current_) {
        samples_[name].push_back(seconds);
      }
    }
    current_.clear();
  }
  double median_of(const std::string& name) const {
    const auto it = samples_.find(name);
    return it == samples_.end() ? 0.0 : median(it->second);
  }

 private:
  std::map<std::string, double> current_;
  std::map<std::string, std::vector<double>> samples_;
};

// ------------------------------------------------------- result handling

/// Serialises every deterministic field of `r` the benchmark reports or
/// checks, with exact (hex) floating point; its CRC64 is the digest.
std::string results_text(const ssd::SsdResults& r) {
  std::ostringstream out;
  out << std::hexfloat;
  const auto stats = [&](const flex::RunningStats& s) {
    out << s.count() << ' ' << s.sum() << ' ' << s.variance() << ' ';
  };
  const auto hist = [&](const flex::Histogram& h) {
    out << h.total() << ':';
    for (std::size_t i = 0; i < h.bins(); ++i) {
      if (h.bin_count(i) != 0) out << i << '=' << h.bin_count(i) << ',';
    }
    out << ' ';
  };
  stats(r.read_response);
  stats(r.write_response);
  stats(r.all_response);
  hist(r.read_latency_hist);
  const ssd::ReadBreakdown& b = r.read_breakdown;
  out << b.queue_wait << ' ' << b.sensing << ' ' << b.transfer << ' '
      << b.decode << ' ' << b.buffer << '\n';
  const flex::ftl::FtlStats& f = r.ftl;
  out << f.host_writes << ' ' << f.nand_writes << ' ' << f.nand_erases << ' '
      << f.gc_runs << ' ' << f.gc_page_moves << ' ' << f.mode_migrations
      << '\n';
  out << r.buffer_hits << ' ' << r.unmapped_reads << ' '
      << r.uncorrectable_reads << ' ' << r.migrations_to_reduced << ' '
      << r.migrations_to_normal << ' ' << r.pool_pages << ' '
      << r.pool_capacity_pages << ' ' << r.data_loss_reads << ' '
      << r.integrity_verified_reads << ' ' << r.integrity_mismatch_reads
      << ' ' << r.integrity_unrecovered_reads << ' '
      << r.integrity_undetected_reads << ' ' << r.admission_rejected << ' '
      << r.qos_pending_high_water << ' ' << r.background_deferrals << ' '
      << r.fairness_overrides << '\n';
  for (const std::uint64_t n : r.sensing_level_reads) out << n << ' ';
  out << '\n';
  for (const ssd::ChipStats& c : r.chip_stats) {
    out << c.commands << ' ' << c.queued_commands << ' ' << c.wait_time
        << ' ' << c.die_busy << ' ' << c.max_queue_depth << ';';
  }
  out << '\n';
  for (const ssd::TenantStats& t : r.tenant) {
    stats(t.read_response);
    stats(t.write_response);
    hist(t.read_latency_hist);
    out << t.admission_rejected << '\n';
  }
  return out.str();
}

std::uint64_t digest_of(const ssd::SsdResults& r) {
  const std::string text = results_text(r);
  return flex::crc64(text.data(), text.size());
}

/// Adds `r` into `into` (field-wise for the fields the report reads).
void accumulate(ssd::SsdResults& into, const ssd::SsdResults& r) {
  into.read_response.merge(r.read_response);
  into.write_response.merge(r.write_response);
  into.all_response.merge(r.all_response);
  into.read_latency_hist.merge(r.read_latency_hist);
  into.read_breakdown.queue_wait += r.read_breakdown.queue_wait;
  into.read_breakdown.sensing += r.read_breakdown.sensing;
  into.read_breakdown.transfer += r.read_breakdown.transfer;
  into.read_breakdown.decode += r.read_breakdown.decode;
  into.read_breakdown.buffer += r.read_breakdown.buffer;
  into.ftl.host_writes += r.ftl.host_writes;
  into.ftl.nand_writes += r.ftl.nand_writes;
  into.ftl.nand_erases += r.ftl.nand_erases;
  into.ftl.gc_page_moves += r.ftl.gc_page_moves;
  into.buffer_hits += r.buffer_hits;
  into.unmapped_reads += r.unmapped_reads;
  into.uncorrectable_reads += r.uncorrectable_reads;
  into.migrations_to_reduced += r.migrations_to_reduced;
  into.migrations_to_normal += r.migrations_to_normal;
  into.pool_pages += r.pool_pages;
  into.pool_capacity_pages += r.pool_capacity_pages;
  into.data_loss_reads += r.data_loss_reads;
  into.integrity_verified_reads += r.integrity_verified_reads;
  into.integrity_unrecovered_reads += r.integrity_unrecovered_reads;
  into.integrity_undetected_reads += r.integrity_undetected_reads;
  into.admission_rejected += r.admission_rejected;
  into.background_deferrals += r.background_deferrals;
  into.fairness_overrides += r.fairness_overrides;
  into.qos_pending_high_water =
      std::max(into.qos_pending_high_water, r.qos_pending_high_water);
  if (into.sensing_level_reads.size() < r.sensing_level_reads.size()) {
    into.sensing_level_reads.resize(r.sensing_level_reads.size(), 0);
  }
  for (std::size_t i = 0; i < r.sensing_level_reads.size(); ++i) {
    into.sensing_level_reads[i] += r.sensing_level_reads[i];
  }
  if (into.chip_stats.size() < r.chip_stats.size()) {
    into.chip_stats.resize(r.chip_stats.size());
  }
  for (std::size_t i = 0; i < r.chip_stats.size(); ++i) {
    ssd::ChipStats& c = into.chip_stats[i];
    c.commands += r.chip_stats[i].commands;
    c.wait_time += r.chip_stats[i].wait_time;
    c.die_busy += r.chip_stats[i].die_busy;
    c.max_queue_depth =
        std::max(c.max_queue_depth, r.chip_stats[i].max_queue_depth);
  }
  if (into.tenant.empty()) {
    into.tenant = r.tenant;
  } else if (!r.tenant.empty()) {
    into.tenant[0].read_response.merge(r.tenant[0].read_response);
    into.tenant[0].read_latency_hist.merge(r.tenant[0].read_latency_hist);
  }
}

/// Requests that failed: refused at admission, lost to an uncorrectable
/// read, or served with bad data (flagged and unrepaired, or undetected).
std::uint64_t failed_requests(const ssd::SsdResults& r) {
  return r.admission_rejected + r.data_loss_reads +
         r.integrity_unrecovered_reads + r.integrity_undetected_reads;
}

/// Output checks every run makes, whatever the seed. `expected` is the
/// number of requests the measured window issued; each must have completed
/// or been refused at admission.
void check_results(const std::string& what, const ssd::SsdResults& r,
                   std::uint64_t expected, std::vector<std::string>* failures) {
  const double breakdown_s =
      static_cast<double>(r.read_breakdown.total()) * 1e-9;
  const double response_s = r.read_response.sum();
  if (std::abs(breakdown_s - response_s) >
      1e-9 * std::max(1.0, response_s)) {
    failures->push_back(what + ": ReadBreakdown total " +
                        std::to_string(breakdown_s) +
                        " s != read response sum " +
                        std::to_string(response_s) + " s");
  }
  if (r.integrity_undetected_reads != 0) {
    failures->push_back(what + ": " +
                        std::to_string(r.integrity_undetected_reads) +
                        " reads returned undetected bad data");
  }
  const std::uint64_t served = r.all_response.count() + r.admission_rejected;
  if (served != expected) {
    failures->push_back(what + ": " + std::to_string(served) +
                        " requests completed or refused, " +
                        std::to_string(expected) + " issued");
  }
}

// ------------------------------------------------------------- the runs

struct Options {
  std::string workload;
  std::uint64_t seed = 2015;
  std::uint64_t seconds = 10;
  std::string trace_dir;  ///< empty: untraced run
  bool traced() const { return !trace_dir.empty(); }
};

/// Everything one run measured.
struct Outcome {
  std::vector<double> setup_s;     ///< one per set-up
  std::vector<double> timed_s;     ///< one per timed section
  std::vector<double> teardown_s;  ///< one per teardown
  std::vector<double> rate;        ///< measured requests / timed s (plain)
  std::vector<double> traced_rate; ///< the same with telemetry attached
  std::vector<double> next_s;      ///< engine next() seconds (traced)
  LayerTimes layers;
  /// Results the end-to-end latencies come from, and the results the
  /// per-layer counts come from (the same except on fig6a-grid).
  ssd::SsdResults latency;
  ssd::SsdResults counts;
  /// Simulated time from first to last measured arrival, summed over
  /// drives (the chip-busy denominator).
  flex::Duration window = 0;
  flex::ftl::FtlStats prefill;  ///< FTL counters after prefill, summed
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  std::string table;  ///< fig6a-grid's normalized table
  std::vector<std::string> failures;
  /// Telemetry-attached results to export, with their track labels.
  std::vector<flex::bench::RunLabel> telemetry_runs;
  std::vector<ssd::SsdResults> telemetry_results;
};

std::unique_ptr<ExperimentHarness> calibrate(HostSpans& spans, int parent,
                                             LayerTimes& layers) {
  std::unique_ptr<ExperimentHarness> harness;
  layers.add("reliability.calibrate_s",
             timed(spans, "reliability.calibrate", parent, [&] {
               harness = std::make_unique<ExperimentHarness>();
             }));
  return harness;
}

/// The trace of one closed-loop cell, split into warmup (first third) and
/// measured remainder — ExperimentHarness::run_with's methodology.
struct SplitTrace {
  std::vector<trace::Request> warmup;
  std::vector<trace::Request> measure;
};

SplitTrace make_trace(trace::Workload workload, std::uint64_t requests,
                      std::uint64_t seed) {
  trace::WorkloadParams params = trace::workload_params(workload);
  params.requests = requests;
  params.iops *= 0.45;  // the drive has 1/8 of the paper's chips
  std::vector<trace::Request> all = trace::generate(params, seed);
  const auto split = all.begin() + static_cast<std::ptrdiff_t>(all.size() / 3);
  SplitTrace out{{all.begin(), split}, {}};
  all.erase(all.begin(), split);
  out.measure = std::move(all);
  return out;
}

flex::Duration arrival_span(const std::vector<trace::Request>& requests) {
  return requests.empty() ? 0
                          : requests.back().arrival - requests.front().arrival;
}

/// Builds and prefills (80% of logical space) one drive, as run_with does.
std::unique_ptr<ssd::SsdSimulator> build_drive(
    const ExperimentHarness& harness, ssd::SsdConfig cfg, HostSpans& spans,
    int parent, Outcome& out) {
  std::unique_ptr<ssd::SsdSimulator> sim;
  out.layers.add("ssd.build_s", timed(spans, "ssd.build", parent, [&] {
    auto built = ssd::SsdSimulator::Builder(harness.normal_model(),
                                            harness.reduced_model())
                     .config(std::move(cfg))
                     .Build();
    if (!built.ok()) {
      std::fprintf(stderr, "flexbench: configuration rejected: %s\n",
                   built.status().to_string().c_str());
      std::exit(2);
    }
    sim = std::move(*built);
  }));
  out.layers.add("ssd.prefill_s", timed(spans, "ssd.prefill", parent, [&] {
    sim->prefill(sim->ftl().logical_pages() * 4 / 5);
  }));
  return sim;
}

/// Runs a measured window. With `telemetry`, its metrics cover the whole
/// window and, when `spans` is set, its simulated-time spans cover the
/// first kSpanSliceRequests requests (the window then runs as two
/// segments; the output checks confirm the results are unchanged).
void measure_window(ssd::SsdSimulator& sim,
                    const std::vector<trace::Request>& measure,
                    telemetry::Telemetry* telemetry, bool spans) {
  if (telemetry == nullptr) {
    sim.run_segment(measure);
    return;
  }
  telemetry->trace = false;
  sim.attach_telemetry(telemetry);
  if (!spans) {
    sim.run_segment(measure);
    return;
  }
  const auto cut = measure.begin() +
                   static_cast<std::ptrdiff_t>(std::min<std::uint64_t>(
                       kSpanSliceRequests, measure.size()));
  telemetry->trace = true;
  sim.run_segment({measure.begin(), cut});
  telemetry->trace = false;
  sim.run_segment({cut, measure.end()});
}

/// One repetition's simulated outcome. `latency` feeds the end-to-end
/// latencies, `counts` the per-layer counts (the same drive except on
/// fig6a-grid); `digest` covers every result the repetition produced.
struct Measured {
  const ssd::SsdResults& latency;
  const ssd::SsdResults& counts;
  std::uint64_t digest = 0;
  flex::Duration window = 0;
  flex::ftl::FtlStats prefill;
};

/// Records a finished repetition: the first becomes the reported one;
/// every later one must match it exactly.
void record_repetition(const std::string& what, const Measured& m,
                       bool first, Outcome& out) {
  out.attempted += m.counts.all_response.count() + m.counts.admission_rejected;
  out.failed += failed_requests(m.counts);
  if (first) {
    out.latency = m.latency;
    out.counts = m.counts;
    out.window = m.window;
    out.prefill = m.prefill;
    out.digest = m.digest;
  } else if (m.digest != out.digest) {
    out.failures.push_back(what + ": simulated results differ from the "
                                  "first repetition (nondeterminism)");
  }
}

int repetitions(const Options& opt, double nominal_seconds) {
  const int reps = static_cast<int>(
      std::lround(static_cast<double>(opt.seconds) / nominal_seconds));
  return std::max(reps, opt.traced() ? 2 : 1);
}

/// Checks and records a single-drive repetition, keeping the first one
/// with telemetry attached for export under `track`.
void finish_single_drive(const std::string& name, const ssd::SsdResults& r,
                         std::uint64_t issued, flex::Duration window,
                         const flex::ftl::FtlStats& prefill, bool first,
                         const telemetry::Telemetry* telemetry,
                         const char* track, Outcome& out) {
  check_results(name, r, issued, &out.failures);
  record_repetition(name, {r, r, digest_of(r), window, prefill}, first, out);
  if (telemetry != nullptr && out.telemetry_results.empty()) {
    out.telemetry_runs.push_back({track, telemetry->pid});
    out.telemetry_results.push_back(r);
  }
}

void run_read_steady(const Options& opt, HostSpans& spans, Outcome& out) {
  const int reps = repetitions(opt, kNominalReadSteadySeconds);
  for (int rep = 0; rep < reps; ++rep) {
    const bool with_telemetry = opt.traced() && rep % 2 == 1;
    const std::string name = "read-steady rep " + std::to_string(rep) +
                             (with_telemetry ? " +telemetry" : "");
    const int rep_span = spans.open(name, 0);
    const Clock::time_point setup_start = Clock::now();
    auto harness = calibrate(spans, rep_span, out.layers);
    SplitTrace requests_split;
    out.layers.add("trace.generate_s",
                   timed(spans, "trace.generate", rep_span, [&] {
                     requests_split = make_trace(trace::Workload::kWeb1,
                                                 kReadSteadyRequests,
                                                 opt.seed);
                   }));
    ssd::SsdConfig cfg =
        ExperimentHarness::drive_config(ssd::Scheme::kFlexLevel, kPeCycles);
    cfg.age_model = ssd::AgeModel::kStaticPerLba;
    auto sim = build_drive(*harness, std::move(cfg), spans, rep_span, out);
    const flex::ftl::FtlStats prefill = sim->ftl().stats();
    out.layers.add("ssd.warmup_s", timed(spans, "ssd.warmup", rep_span, [&] {
      sim->run_segment(requests_split.warmup);
      sim->reset_measurements();
    }));
    out.setup_s.push_back(seconds_since(setup_start));

    telemetry::Telemetry telemetry;
    telemetry.pid = 1;
    const double measure_s =
        timed(spans, "ssd.measure", rep_span, [&] {
          measure_window(*sim, requests_split.measure,
                         with_telemetry ? &telemetry : nullptr,
                         with_telemetry);
        });
    out.layers.add("ssd.measure_s", measure_s);
    out.timed_s.push_back(measure_s);
    const double rate =
        static_cast<double>(requests_split.measure.size()) / measure_s;
    (with_telemetry ? out.traced_rate : out.rate).push_back(rate);

    const Clock::time_point teardown_start = Clock::now();
    timed(spans, "teardown", rep_span, [&] {
      finish_single_drive(name, sim->results(), requests_split.measure.size(),
                          arrival_span(requests_split.measure), prefill,
                          rep == 0, with_telemetry ? &telemetry : nullptr,
                          "read-steady/web-1 (simulated time)", out);
      sim.reset();
      harness.reset();
      requests_split = {};
    });
    out.teardown_s.push_back(seconds_since(teardown_start));
    out.layers.end_repetition(!with_telemetry);
    spans.close(rep_span);
  }
}

/// Request source wrapper: counts draws and the arrival span, optionally
/// times each engine next() call, and ends the simulated-time span slice
/// after kSpanSliceRequests draws.
class MeteredSource final : public trace::RequestSource {
 public:
  MeteredSource(trace::RequestSource& inner,
                telemetry::Telemetry* telemetry)
      : inner_(inner), telemetry_(telemetry) {}

  std::optional<trace::Request> next() override {
    std::optional<trace::Request> request;
    if (telemetry_ != nullptr) {
      const Clock::time_point start = Clock::now();
      request = inner_.next();
      next_s_ += seconds_since(start);
      if (drawn_ + 1 == kSpanSliceRequests) telemetry_->trace = false;
    } else {
      request = inner_.next();
    }
    if (request.has_value()) {
      if (drawn_ == 0) first_arrival_ = request->arrival;
      last_arrival_ = request->arrival;
      ++drawn_;
    }
    return request;
  }

  std::uint64_t drawn() const { return drawn_; }
  flex::Duration arrival_span() const { return last_arrival_ - first_arrival_; }
  double next_seconds() const { return next_s_; }

 private:
  trace::RequestSource& inner_;
  telemetry::Telemetry* telemetry_;
  std::uint64_t drawn_ = 0;
  flex::SimTime first_arrival_ = 0;
  flex::SimTime last_arrival_ = 0;
  double next_s_ = 0.0;
};

flex::workload::EngineConfig qos_engine(std::uint64_t seed) {
  // ablation_qos's tenant population (4 Zipf tenants over 240k pages,
  // tenant 0 latency-sensitive) at half writes, Poisson at 80% of its
  // 4k requests/s knee.
  flex::workload::EngineConfig engine;
  engine.arrivals.base_iops = 0.8 * 4'000.0;
  engine.tenants = flex::workload::zipf_tenant_population(4, 0.9, 240'000);
  for (auto& tenant : engine.tenants) tenant.read_fraction = 0.5;
  engine.tenants[0].priority = 1;
  engine.tenants[0].qos_weight = 4.0;
  engine.seed = seed;
  return engine;
}

ssd::SsdConfig qos_drive() {
  ssd::SsdConfig cfg =
      ExperimentHarness::drive_config(ssd::Scheme::kLdpcInSsd, kPeCycles);
  cfg.qos.enabled = true;
  cfg.qos.policy = ssd::QosPolicy::kDeadline;
  cfg.qos.tenants = 4;
  cfg.qos.tenant_weights = {4.0, 1.0, 1.0, 1.0};
  cfg.integrity.enabled = true;
  return cfg;
}

void run_qos_mixed(const Options& opt, HostSpans& spans, Outcome& out) {
  const std::uint64_t measure = kQosRequests;
  const std::uint64_t warmup = measure / 3;
  const int reps = repetitions(opt, kNominalQosSeconds);
  for (int rep = 0; rep < reps; ++rep) {
    const bool with_telemetry = opt.traced() && rep % 2 == 1;
    const std::string name = "qos-mixed rep " + std::to_string(rep) +
                             (with_telemetry ? " +telemetry" : "");
    const int rep_span = spans.open(name, 0);
    const Clock::time_point setup_start = Clock::now();
    auto harness = calibrate(spans, rep_span, out.layers);
    std::unique_ptr<flex::workload::WorkloadEngine> engine;
    out.layers.add("trace.generate_s",
                   timed(spans, "trace.generate", rep_span, [&] {
                     const auto config = qos_engine(opt.seed);
                     if (const flex::Status status = config.Validate();
                         !status.ok()) {
                       std::fprintf(stderr, "flexbench: engine rejected: %s\n",
                                    status.to_string().c_str());
                       std::exit(2);
                     }
                     engine =
                         std::make_unique<flex::workload::WorkloadEngine>(
                             config);
                   }));
    auto sim = build_drive(*harness, qos_drive(), spans, rep_span, out);
    const flex::ftl::FtlStats prefill = sim->ftl().stats();
    out.layers.add("ssd.warmup_s", timed(spans, "ssd.warmup", rep_span, [&] {
      sim->run_open_loop(*engine, warmup);
      sim->reset_measurements();
    }));
    out.setup_s.push_back(seconds_since(setup_start));

    telemetry::Telemetry telemetry;
    telemetry.pid = 1;
    MeteredSource source(*engine, with_telemetry ? &telemetry : nullptr);
    const double measure_s =
        timed(spans, "ssd.measure", rep_span, [&] {
          if (with_telemetry) {
            telemetry.trace = true;
            sim->attach_telemetry(&telemetry);
          }
          sim->run_open_loop(source, measure);
        });
    out.layers.add("ssd.measure_s", measure_s);
    out.timed_s.push_back(measure_s);
    const double rate = static_cast<double>(source.drawn()) / measure_s;
    if (with_telemetry) {
      out.traced_rate.push_back(rate);
      out.next_s.push_back(source.next_seconds());
    } else {
      out.rate.push_back(rate);
    }

    const Clock::time_point teardown_start = Clock::now();
    timed(spans, "teardown", rep_span, [&] {
      if (source.drawn() != measure) {
        out.failures.push_back(name + ": engine stream ended early");
      }
      finish_single_drive(name, sim->results(), measure,
                          source.arrival_span(), prefill, rep == 0,
                          with_telemetry ? &telemetry : nullptr,
                          "qos-mixed (simulated time)", out);
      sim.reset();
      engine.reset();
      harness.reset();
    });
    out.teardown_s.push_back(seconds_since(teardown_start));
    out.layers.end_repetition(!with_telemetry);
    spans.close(rep_span);
  }
}

/// fig6a_response_time's primary table and averages, character for
/// character; results in (workload, scheme) order.
std::string grid_table(const std::vector<ssd::SsdResults>& results) {
  using flex::TablePrinter;
  TablePrinter table({"workload", "baseline", "LDPC-in-SSD",
                      "LevelAdjust-only", "LevelAdjust+AccessEval"});
  double flex_vs_base = 0.0;
  double flex_vs_ldpc = 0.0;
  double lvladj_vs_ldpc = 0.0;
  int workloads = 0;
  std::size_t cell = 0;
  for (const auto workload : trace::kAllWorkloads) {
    std::vector<double> means;
    for (std::size_t s = 0; s < 4; ++s) {
      means.push_back(results[cell++].all_response.mean());
    }
    const double base = means[0];
    table.add_row({trace::workload_name(workload), "1.00",
                   TablePrinter::num(means[1] / base, 3),
                   TablePrinter::num(means[2] / base, 3),
                   TablePrinter::num(means[3] / base, 3)});
    flex_vs_base += 1.0 - means[3] / means[0];
    flex_vs_ldpc += 1.0 - means[3] / means[1];
    lvladj_vs_ldpc += means[2] / means[1] - 1.0;
    ++workloads;
  }
  char averages[512];
  std::snprintf(
      averages, sizeof averages,
      "Averages across workloads (paper targets in parentheses):\n"
      "  LevelAdjust+AccessEval vs baseline:    %s reduction "
      "(paper: -66%%)\n"
      "  LevelAdjust+AccessEval vs LDPC-in-SSD: %s reduction "
      "(paper: -33%%)\n"
      "  LevelAdjust-only vs LDPC-in-SSD:       %s overhead "
      "(paper: +27%%)\n",
      TablePrinter::percent(-flex_vs_base / workloads).c_str(),
      TablePrinter::percent(-flex_vs_ldpc / workloads).c_str(),
      TablePrinter::percent(lvladj_vs_ldpc / workloads).c_str());
  return table.to_string() + "\n" + averages;
}

/// Mean absolute gap, in percentage points, between the grid's three
/// Fig. 6(a) averages and the paper's -66 / -33 / +27.
double paper_gap_pp(const std::vector<ssd::SsdResults>& results) {
  double vs_base = 0.0;
  double vs_ldpc = 0.0;
  double lvl_overhead = 0.0;
  for (std::size_t w = 0; w < trace::kAllWorkloads.size(); ++w) {
    const auto mean = [&](std::size_t s) {
      return results[4 * w + s].all_response.mean();
    };
    vs_base += 100.0 * (mean(3) / mean(0) - 1.0);
    vs_ldpc += 100.0 * (mean(3) / mean(1) - 1.0);
    lvl_overhead += 100.0 * (mean(2) / mean(1) - 1.0);
  }
  const double n = static_cast<double>(trace::kAllWorkloads.size());
  return (std::abs(vs_base / n + 66.0) + std::abs(vs_ldpc / n + 33.0) +
          std::abs(lvl_overhead / n - 27.0)) /
         3.0;
}

void run_fig6a_grid(const Options& opt, HostSpans& spans, Outcome& out,
                    double* gap_pp) {
  const std::vector<ssd::Scheme> schemes = {
      ssd::Scheme::kBaseline, ssd::Scheme::kLdpcInSsd,
      ssd::Scheme::kLevelAdjustOnly, ssd::Scheme::kFlexLevel};
  const int reps = repetitions(opt, kNominalGridSeconds);
  for (int rep = 0; rep < reps; ++rep) {
    const bool with_telemetry = opt.traced() && rep % 2 == 1;
    const std::string name = "fig6a-grid rep " + std::to_string(rep) +
                             (with_telemetry ? " +telemetry" : "");
    const int rep_span = spans.open(name, 0);
    const Clock::time_point setup_start = Clock::now();
    auto harness = calibrate(spans, rep_span, out.layers);
    std::vector<SplitTrace> traces;
    out.layers.add("trace.generate_s",
                   timed(spans, "trace.generate", rep_span, [&] {
                     for (const auto workload : trace::kAllWorkloads) {
                       traces.push_back(
                           make_trace(workload, kGridRequests, opt.seed));
                     }
                   }));
    const double setup_before_sweep = seconds_since(setup_start);

    // Every cell builds, prefills, warms up and measures its own drive.
    // The timed section is the 28 measured windows; the rest of the sweep
    // counts as set-up, so prefill and write-path work show in setup_s.
    std::vector<ssd::SsdResults> cells;
    std::vector<flex::bench::RunLabel> labels;
    flex::Duration window = 0;
    flex::ftl::FtlStats prefill;
    std::uint64_t measured = 0;
    double measure_s = 0.0;
    const double sweep_s = timed(spans, "sweep", rep_span, [&] {
      for (std::size_t w = 0; w < trace::kAllWorkloads.size(); ++w) {
        for (const ssd::Scheme scheme : schemes) {
          const std::string label =
              trace::workload_name(trace::kAllWorkloads[w]) + "/" +
              ssd::scheme_name(scheme);
          const int cell_span = spans.open(label, rep_span);
          ssd::SsdConfig cfg =
              ExperimentHarness::drive_config(scheme, kPeCycles);
          cfg.age_model = ssd::AgeModel::kStaticPerLba;
          auto sim = build_drive(*harness, std::move(cfg), spans, cell_span,
                                 out);
          prefill.nand_writes += sim->ftl().stats().nand_writes;
          prefill.gc_page_moves += sim->ftl().stats().gc_page_moves;
          out.layers.add("ssd.warmup_s",
                         timed(spans, "ssd.warmup", cell_span, [&] {
                           sim->run_segment(traces[w].warmup);
                           sim->reset_measurements();
                         }));
          // With telemetry: metrics on every cell, simulated-time spans
          // for a slice of the paper's system on web-1.
          const bool spans_here = with_telemetry &&
                                  scheme == ssd::Scheme::kFlexLevel &&
                                  trace::kAllWorkloads[w] ==
                                      trace::Workload::kWeb1;
          telemetry::Telemetry telemetry;
          telemetry.pid = static_cast<std::int32_t>(cells.size() + 1);
          const double cell_measure_s =
              timed(spans, "ssd.measure", cell_span, [&] {
                measure_window(*sim, traces[w].measure,
                               with_telemetry ? &telemetry : nullptr,
                               spans_here);
              });
          out.layers.add("ssd.measure_s", cell_measure_s);
          measure_s += cell_measure_s;
          cells.push_back(sim->results());
          labels.push_back({"fig6a-grid/" + label, telemetry.pid});
          window += arrival_span(traces[w].measure);
          measured += traces[w].measure.size();
          sim.reset();
          spans.close(cell_span);
        }
      }
    });
    out.setup_s.push_back(setup_before_sweep + sweep_s - measure_s);
    out.timed_s.push_back(measure_s);
    (with_telemetry ? out.traced_rate : out.rate)
        .push_back(static_cast<double>(measured) / measure_s);

    const Clock::time_point teardown_start = Clock::now();
    timed(spans, "teardown", rep_span, [&] {
      ssd::SsdResults flexlevel_cells;
      ssd::SsdResults all_cells;
      std::string text;
      for (std::size_t i = 0; i < cells.size(); ++i) {
        check_results(name + " " + labels[i].label, cells[i],
                      traces[i / schemes.size()].measure.size(),
                      &out.failures);
        accumulate(all_cells, cells[i]);
        if (i % schemes.size() == schemes.size() - 1) {
          accumulate(flexlevel_cells, cells[i]);
        }
        text += results_text(cells[i]);
      }
      record_repetition(name,
                        {flexlevel_cells, all_cells,
                         flex::crc64(text.data(), text.size()), window,
                         prefill},
                        rep == 0, out);
      if (rep == 0) {
        out.table = grid_table(cells);
        *gap_pp = paper_gap_pp(cells);
      }
      if (with_telemetry && out.telemetry_results.empty()) {
        out.telemetry_runs = std::move(labels);
        out.telemetry_results = std::move(cells);
      }
      harness.reset();
      traces.clear();
    });
    out.teardown_s.push_back(seconds_since(teardown_start));
    out.layers.end_repetition(!with_telemetry);
    spans.close(rep_span);
  }
}

// --------------------------------------------------------------- report

double share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

/// Every metric the benchmark knows, by name (run.py picks the ones
/// BENCHMARK.json declares for the run's mode).
std::map<std::string, double> metrics_of(const Outcome& out) {
  std::map<std::string, double> m;
  const ssd::SsdResults& lat = out.latency;
  const ssd::SsdResults& c = out.counts;
  const double rate = median(out.rate);

  // End to end (host).
  m["setup_s"] = median(out.setup_s);
  m["sim_req_per_s"] = rate;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  m["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
  // End to end (simulated).
  m["mean_response_us"] = lat.all_response.mean() * 1e6;
  m["read_p50_us"] = lat.read_latency_hist.quantile(0.5) * 1e6;
  m["read_p99_us"] = lat.read_latency_hist.quantile(0.99) * 1e6;
  m["read_p999_us"] = lat.read_latency_hist.quantile(0.999) * 1e6;
  m["t0_read_p99_us"] =
      lat.tenant.empty()
          ? 0.0
          : lat.tenant[0].read_latency_hist.quantile(0.99) * 1e6;

  // Per layer: host timings (medians over plain repetitions).
  for (const char* name :
       {"reliability.calibrate_s", "trace.generate_s", "ssd.build_s",
        "ssd.prefill_s", "ssd.warmup_s", "ssd.measure_s"}) {
    m[name] = out.layers.median_of(name);
  }
  m["workload.next_s"] = median(out.next_s);
  m["telemetry.overhead_share"] =
      out.traced_rate.empty() || rate <= 0.0
          ? 0.0
          : median(out.traced_rate) / rate - 1.0;

  // Per layer: exact counts.
  m["ftl.prefill_nand_writes"] = static_cast<double>(out.prefill.nand_writes);
  m["ftl.prefill_gc_page_moves"] =
      static_cast<double>(out.prefill.gc_page_moves);
  std::uint64_t commands = 0;
  double wait_s = 0.0;
  double die_busy_s = 0.0;
  std::uint64_t max_depth = 0;
  for (const ssd::ChipStats& chip : c.chip_stats) {
    commands += chip.commands;
    wait_s += static_cast<double>(chip.wait_time) * 1e-9;
    die_busy_s += static_cast<double>(chip.die_busy) * 1e-9;
    max_depth = std::max(max_depth, chip.max_queue_depth);
  }
  m["ssd.chip_commands"] = static_cast<double>(commands);
  m["ssd.host_ns_per_chip_cmd"] =
      commands == 0 ? 0.0
                    : m["ssd.measure_s"] * 1e9 / static_cast<double>(commands);
  m["ssd.chip_wait_s"] = wait_s;
  m["ssd.max_queue_depth"] = static_cast<double>(max_depth);
  m["ssd.chip_busy_share"] = share(
      die_busy_s, static_cast<double>(c.chip_stats.size()) *
                      static_cast<double>(out.window) * 1e-9);

  std::uint64_t nand_reads = 0;
  double extra_levels = 0.0;
  for (std::size_t i = 0; i < c.sensing_level_reads.size(); ++i) {
    nand_reads += c.sensing_level_reads[i];
    extra_levels += static_cast<double>(i * c.sensing_level_reads[i]);
  }
  const double reads = static_cast<double>(nand_reads);
  m["read_policy.extra_levels_mean"] = share(extra_levels, reads);
  m["read_policy.hard_read_share"] =
      c.sensing_level_reads.empty()
          ? 0.0
          : share(static_cast<double>(c.sensing_level_reads[0]), reads);
  m["read_policy.uncorrectable_reads"] =
      static_cast<double>(c.uncorrectable_reads);
  m["flexlevel.migrations_to_reduced"] =
      static_cast<double>(c.migrations_to_reduced);
  m["flexlevel.migrations_to_normal"] =
      static_cast<double>(c.migrations_to_normal);
  m["flexlevel.pool_fill"] =
      share(static_cast<double>(c.pool_pages),
            static_cast<double>(c.pool_capacity_pages));

  const ssd::ReadBreakdown& b = c.read_breakdown;
  const double response_ns = static_cast<double>(b.total());
  m["ssd.read_wait_share"] = share(static_cast<double>(b.queue_wait),
                                   response_ns);
  m["ssd.read_sensing_share"] = share(static_cast<double>(b.sensing),
                                      response_ns);
  m["ssd.read_transfer_share"] = share(static_cast<double>(b.transfer),
                                       response_ns);
  m["ssd.read_decode_share"] = share(static_cast<double>(b.decode),
                                     response_ns);
  m["ssd.read_buffer_share"] = share(static_cast<double>(b.buffer),
                                     response_ns);
  m["ftl.buffer_hit_share"] = share(
      static_cast<double>(c.buffer_hits),
      static_cast<double>(c.buffer_hits + c.unmapped_reads + nand_reads));

  m["ftl.host_writes"] = static_cast<double>(c.ftl.host_writes);
  m["ftl.write_amplification"] = c.ftl.write_amplification();
  m["ftl.gc_page_moves"] = static_cast<double>(c.ftl.gc_page_moves);
  m["ftl.nand_erases"] = static_cast<double>(c.ftl.nand_erases);
  m["chip_scheduler.background_deferrals"] =
      static_cast<double>(c.background_deferrals);
  m["chip_scheduler.fairness_overrides"] =
      static_cast<double>(c.fairness_overrides);
  m["chip_scheduler.pending_high_water"] =
      static_cast<double>(c.qos_pending_high_water);
  m["ssd.admission_rejected"] = static_cast<double>(c.admission_rejected);
  m["ftl.integrity_verified_reads"] =
      static_cast<double>(c.integrity_verified_reads);
  m["ftl.integrity_undetected_reads"] =
      static_cast<double>(c.integrity_undetected_reads);
  return m;
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

std::string json_number(double v) { return telemetry::format_double(v); }

void write_telemetry_files(const Options& opt, const Outcome& out,
                           const HostSpans& spans) {
  char run_id[32];
  std::snprintf(run_id, sizeof run_id, "%08x%08x",
                static_cast<unsigned>(getpid()),
                static_cast<unsigned>(
                    Clock::now().time_since_epoch().count()));
  spans.write(opt.trace_dir + "/host_spans.json", run_id);
  flex::bench::write_trace_file(opt.trace_dir + "/sim_trace.json",
                                out.telemetry_runs, out.telemetry_results);
  flex::bench::write_metrics_file(opt.trace_dir + "/metrics.jsonl",
                                  out.telemetry_runs, out.telemetry_results);
}

bool parse_options(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opt->workload = value;
    } else if (flag == "--seed") {
      opt->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt->seconds = std::strtoull(value, nullptr, 10);
    } else if (flag == "--trace-dir") {
      opt->trace_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && opt->seconds > 0 &&
         (opt->workload == "fig6a-grid" || opt->workload == "read-steady" ||
          opt->workload == "qos-mixed");
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point origin = Clock::now();
  Options opt;
  if (!parse_options(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: flexbench --workload fig6a-grid|read-steady|"
                 "qos-mixed [--seed N] [--seconds N] [--trace-dir DIR]\n");
    return 2;
  }
  HostSpans spans(opt.traced(), origin);
  Outcome out;
  double gap_pp = 0.0;
  if (opt.workload == "fig6a-grid") {
    run_fig6a_grid(opt, spans, out, &gap_pp);
  } else if (opt.workload == "read-steady") {
    run_read_steady(opt, spans, out);
  } else {
    run_qos_mixed(opt, spans, out);
  }

  const Clock::time_point report_start = Clock::now();
  const std::map<std::string, double> metrics = metrics_of(out);
  if (opt.traced()) write_telemetry_files(opt, out, spans);
  out.teardown_s.push_back(seconds_since(report_start));

  char digest[17];
  std::snprintf(digest, sizeof digest, "%016" PRIx64, out.digest);
  std::ostringstream json;
  json << "{\"workload\":\"" << opt.workload << "\",\"seed\":" << opt.seed
       << ",\"seconds\":" << opt.seconds << ",\"digest\":\"" << digest
       << "\",\"table\":\"" << telemetry::json_escape(out.table)
       << "\",\"failures\":[";
  for (std::size_t i = 0; i < out.failures.size(); ++i) {
    json << (i ? "," : "") << '"' << telemetry::json_escape(out.failures[i])
         << '"';
  }
  json << "],\"attempted\":" << out.attempted << ",\"failed\":" << out.failed
       << ",\"phases\":{\"setup_s\":" << json_number(sum(out.setup_s))
       << ",\"timed_s\":" << json_number(sum(out.timed_s))
       << ",\"teardown_s\":" << json_number(sum(out.teardown_s))
       << "},\"rates\":[";
  for (std::size_t i = 0; i < out.rate.size(); ++i) {
    json << (i ? "," : "") << json_number(out.rate[i]);
  }
  json << "],\"samples\":{\"read\":" << out.latency.read_latency_hist.total()
       << ",\"t0_read\":"
       << (out.latency.tenant.empty()
               ? 0
               : out.latency.tenant[0].read_latency_hist.total())
       << "},\"paper_gap_pp\":" << json_number(gap_pp) << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    json << (first ? "" : ",") << '"' << name << "\":" << json_number(value);
    first = false;
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  return out.failures.empty() ? 0 : 1;
}
