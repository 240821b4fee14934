// AccessEval (paper §5): decides which logical pages deserve reduced-state
// storage and bounds how many may hold it at once.
//
// Three components, as in the paper:
//  * the HLO (high-LDPC-overhead) identifier: read-frequency level L_f
//    (from the multi-Bloom hot-read identifier) times soft-sensing bucket
//    L_sensing; a product above the threshold marks the data HLO;
//  * the ReducedCell pool: a bounded LRU set of the pages currently kept in
//    reduced state (the paper caps it at 64 GB of a 256 GB drive);
//  * the controller: on each read, classifies the page and emits the
//    migration/eviction decisions the FTL must carry out.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/lru_map.h"
#include "flexlevel/bloom.h"

namespace flex::flexlevel {

/// What the FTL should do after a read completed.
struct AccessDecision {
  /// Store this page's data in a reduced-state page on its next placement.
  bool migrate_to_reduced = false;
  /// A page the pool evicted to make room; the FTL converts it back to a
  /// normal-state placement.
  std::optional<std::uint64_t> evicted = std::nullopt;
};

class AccessEval {
 public:
  struct Config {
    int freq_levels = 2;      ///< N in the paper (L_f in [1, N])
    int sensing_buckets = 2;  ///< M in the paper (L_sensing in [1, M])
    /// HLO iff L_f * L_sensing > threshold; with N = M = 2 the paper's
    /// intent (hot AND high-sensing) is product > 2.
    int overhead_threshold = 2;
    /// Maximum pages simultaneously held in reduced state (the pool size).
    std::uint64_t pool_capacity_pages = 1024;
    MultiBloomHotness::Config hotness;
  };

  explicit AccessEval(Config config);

  /// Records a completed read of `lpn` that needed `extra_sensing_levels`
  /// soft levels, and returns the controller's decision.
  AccessDecision on_read(std::uint64_t lpn, int extra_sensing_levels);

  bool is_reduced(std::uint64_t lpn) const;
  std::uint64_t pool_size() const { return pool_.size(); }
  std::uint64_t pool_capacity() const { return config_.pool_capacity_pages; }

  /// Shrinks the pool budget to `new_capacity` pages (floored at 1) and
  /// returns the LRU victims evicted to fit; the caller converts them back
  /// to normal state. Graceful degradation under block retirement: every
  /// retired block costs physical over-provisioning, so the ReducedCell
  /// budget gives it back. Shrink-only — a larger value is ignored
  /// (retirement is permanent).
  std::vector<std::uint64_t> shrink_capacity(std::uint64_t new_capacity);

  /// Power-on recovery: replaces the pool membership with `lpns` (the
  /// reduced-state survivors Mount() found on the medium, ascending) and
  /// forgets the hotness history — LRU order and Bloom filters are
  /// controller DRAM, so recovery is conservative: registration order
  /// stands in for recency and hotness re-learns from zero. LPNs past the
  /// pool budget are returned for the caller to migrate back to normal
  /// state (possible when a crash interrupted a shrink).
  std::vector<std::uint64_t> rebuild_pool(
      const std::vector<std::uint64_t>& lpns);

  /// L_f for a hotness count (exposed for tests).
  int freq_level(int hotness_count) const;
  /// L_sensing for an extra-sensing-level count (exposed for tests).
  int sensing_level_bucket(int extra_sensing_levels) const;

 private:
  std::optional<std::uint64_t> insert(std::uint64_t lpn);

  Config config_;
  MultiBloomHotness hotness_;
  // Pool membership as an intrusive LRU set: most-recently-read at the
  // front. Values are unused (membership only).
  LruMap<std::uint8_t> pool_;
};

}  // namespace flex::flexlevel
