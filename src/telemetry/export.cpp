#include "telemetry/export.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <set>

namespace flex::telemetry {
namespace {

/// ts/dur in microseconds at nanosecond resolution: SimTime is integral
/// ns, so three decimals are exact.
void write_micros(std::ostream& out, std::int64_t ns) {
  const bool negative = ns < 0;
  const std::int64_t magnitude = negative ? -ns : ns;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%lld.%03lld", negative ? "-" : "",
                static_cast<long long>(magnitude / 1000),
                static_cast<long long>(magnitude % 1000));
  out << buf;
}

void write_args(std::ostream& out, const Span& span) {
  if (!span.arg0_key && !span.arg1_key) return;
  out << ",\"args\":{";
  bool first = true;
  char buf[40];
  for (const auto& [key, value] :
       {std::pair{span.arg0_key, span.arg0},
        std::pair{span.arg1_key, span.arg1}}) {
    if (!key) continue;
    if (!first) out << ',';
    first = false;
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out << '"' << json_escape(key) << "\":" << buf;
  }
  out << '}';
}

void write_metadata(std::ostream& out, const TrackLabel& label) {
  out << "{\"ph\":\"M\",\"pid\":" << label.pid;
  if (label.thread) out << ",\"tid\":" << label.tid;
  out << ",\"name\":\"" << (label.thread ? "thread_name" : "process_name")
      << "\",\"args\":{\"name\":\"" << json_escape(label.name) << "\"}}";
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_chrome_trace(std::ostream& out, const std::vector<Span>& spans,
                        const std::vector<TrackLabel>& labels) {
  // Sort by simulated start time; stable so same-instant spans keep
  // recording order (parents were recorded before their children).
  std::vector<const Span*> ordered;
  ordered.reserve(spans.size());
  for (const Span& span : spans) ordered.push_back(&span);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const Span* a, const Span* b) {
                     return a->start < b->start;
                   });

  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TrackLabel& label : labels) {
    if (!first) out << ",";
    first = false;
    out << "\n";
    write_metadata(out, label);
  }
  for (const Span* span : ordered) {
    if (!first) out << ",";
    first = false;
    out << "\n{\"ph\":\"" << (span->dur > 0 ? 'X' : 'i') << "\",\"pid\":"
        << span->pid << ",\"tid\":" << span->tid << ",\"ts\":";
    write_micros(out, span->start);
    if (span->dur > 0) {
      out << ",\"dur\":";
      write_micros(out, span->dur);
    } else {
      out << ",\"s\":\"t\"";  // instant event, thread scope
    }
    out << ",\"name\":\"" << json_escape(span->name) << "\",\"cat\":\""
        << json_escape(span->cat) << '"';
    write_args(out, *span);
    out << '}';
  }
  out << "\n]}\n";
}

TrackLabel thread_label(std::int32_t pid, std::int32_t tid) {
  std::string name = tid == kHostTrack  ? "host"
                     : tid == kFtlTrack ? "ftl"
                                        : "chip " + std::to_string(tid);
  return {.pid = pid, .tid = tid, .thread = true, .name = std::move(name)};
}

void write_chrome_trace(std::ostream& out, const std::vector<Span>& spans) {
  std::set<std::pair<std::int32_t, std::int32_t>> tracks;
  for (const Span& span : spans) tracks.emplace(span.pid, span.tid);
  std::vector<TrackLabel> labels;
  for (const auto& [pid, tid] : tracks) {
    labels.push_back(thread_label(pid, tid));
  }
  write_chrome_trace(out, spans, labels);
}

void write_metrics_jsonl(std::ostream& out, std::string_view cell_label,
                         const MetricsSnapshot& snapshot) {
  std::string prefix = "\"cell\":\"";
  prefix += json_escape(cell_label);
  prefix += "\",";
  snapshot.write_jsonl(out, prefix);
}

}  // namespace flex::telemetry
