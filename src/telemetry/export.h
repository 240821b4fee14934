// Exporters: Chrome trace-event JSON (loads in chrome://tracing and
// Perfetto) and JSONL metrics dumps.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/metrics.h"
#include "telemetry/span.h"

namespace flex::telemetry {

/// Escapes `s` for use inside a JSON string literal (backslash, quote,
/// and control characters; everything else passes through byte-wise).
std::string json_escape(std::string_view s);

/// Human-readable names for trace tracks, emitted as Chrome "M" metadata
/// events. `thread == false` names the process `pid`; otherwise the
/// thread `(pid, tid)`.
struct TrackLabel {
  std::int32_t pid = 0;
  std::int32_t tid = 0;
  bool thread = false;
  std::string name;
};

/// The default thread label of track `(pid, tid)`: "host", "ftl" or
/// "chip N".
TrackLabel thread_label(std::int32_t pid, std::int32_t tid);

/// Writes `{"traceEvents":[...]}`: metadata first, then spans as complete
/// ("X") or instant ("i") events in non-decreasing `ts` order (stable with
/// respect to recording order, so same-instant parents precede their
/// children). `ts`/`dur` are microseconds of simulated time, printed at
/// nanosecond resolution.
void write_chrome_trace(std::ostream& out, const std::vector<Span>& spans,
                        const std::vector<TrackLabel>& labels);

/// write_chrome_trace with default "chip N" / "host" / "ftl" thread labels
/// derived from the tids present, for single-process traces.
void write_chrome_trace(std::ostream& out, const std::vector<Span>& spans);

/// One metric per line (see MetricsSnapshot::write_jsonl), each object
/// tagged with `"cell":<label>` so multi-cell dumps stay distinguishable.
void write_metrics_jsonl(std::ostream& out, std::string_view cell_label,
                         const MetricsSnapshot& snapshot);

}  // namespace flex::telemetry
