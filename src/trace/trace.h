// Block-level I/O trace records and CSV (de)serialisation.
//
// Format (one request per line): `timestamp_us,op,lpn,pages` with op R or W
// — the same information the MSR-Cambridge / UMass traces carry after
// sector-to-page alignment.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "common/units.h"

namespace flex::trace {

/// Longest request a trace can carry (Request::pages is 16 bits).
inline constexpr std::uint32_t kMaxRequestPages = 0xFFFF;

/// Declared widest-first so the record packs into 24 bytes: a
/// materialised million-request trace is 24 MB.
struct Request {
  SimTime arrival = 0;        ///< ns since trace start
  std::uint64_t lpn = 0;      ///< first logical page
  std::uint16_t pages = 1;    ///< request length in pages
  bool is_write = false;
  std::uint16_t tenant = 0;   ///< QoS tenant index (0 = default tenant)
  std::uint8_t priority = 0;  ///< 0 = normal; higher tightens deadlines
  /// Host port originating the request in an array (src/host): requests
  /// from different requesters contend on different uplinks into the
  /// switch. Single-drive runs and CSV traces leave it 0.
  std::uint8_t requester = 0;

  bool operator==(const Request&) const = default;
};
static_assert(sizeof(Request) == 24);

/// Pull-based request stream: the open-loop workload engine implements this
/// so the simulator can draw arrivals one at a time instead of replaying a
/// pre-materialised vector. `next()` returns requests in non-decreasing
/// arrival order and std::nullopt when the stream is exhausted.
class RequestSource {
 public:
  virtual ~RequestSource() = default;
  virtual std::optional<Request> next() = 0;
};

/// Summary statistics of a trace (used by tests and the workload report).
struct TraceSummary {
  std::uint64_t requests = 0;
  std::uint64_t reads = 0;
  std::uint64_t read_pages = 0;
  std::uint64_t write_pages = 0;
  std::uint64_t max_lpn = 0;
  double read_fraction() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(reads) /
                               static_cast<double>(requests);
  }
};

TraceSummary summarize(const std::vector<Request>& trace);

void write_csv(std::ostream& out, const std::vector<Request>& trace);
/// Throws std::runtime_error on malformed lines, including a page count of
/// 0 or above kMaxRequestPages.
std::vector<Request> read_csv(std::istream& in);

}  // namespace flex::trace
