// Write-back DRAM write buffer (the paper's modification to FlashSim:
// "We modified the simulator by adding a write-back write buffer").
//
// Host writes land in the buffer and complete immediately; dirty pages are
// flushed to the FTL when the buffer fills (batch eviction of the
// least-recently-written pages). Reads must consult the buffer first.
//
// Durability semantics: a buffered write is *acknowledged* but not
// *durable* — only a page the FTL has programmed survives power loss.
// Entries therefore carry a dirty bit. `write()` inserts dirty,
// `insert_clean()` inserts already-programmed data (the FUA path keeps the
// page cached for reads), `flush_barrier()` hands every dirty page to the
// caller for programming and downgrades them to clean in place, and
// `power_loss()` models the DRAM vanishing: dirty contents are simply
// gone.
//
// Recency lives in an intrusive LRU over a flat slot array (common/
// lru_map.h); the flush lists returned by reference are reused scratch
// vectors, so the steady state allocates nothing. A returned reference is
// valid until the next call on the same buffer — copy it to keep it.
#pragma once

#include <cstdint>
#include <vector>

#include "common/lru_map.h"

namespace flex::ftl {

class WriteBuffer {
 public:
  /// `capacity_pages` >= 1; `flush_batch` pages are evicted per overflow
  /// (batching amortises the program cost the way real controllers do).
  WriteBuffer(std::uint64_t capacity_pages, std::uint64_t flush_batch);

  /// Buffers a host write (dirty). Returns the dirty LPNs that must be
  /// flushed to NAND now (empty unless the buffer overflowed; clean
  /// victims are dropped without a program).
  const std::vector<std::uint64_t>& write(std::uint64_t lpn);

  /// Caches a page whose data is already on NAND (clean) — the FUA write
  /// path programs first, then caches for subsequent reads. Returns dirty
  /// LPNs evicted by the insertion, as `write()` does.
  const std::vector<std::uint64_t>& insert_clean(std::uint64_t lpn);

  /// True when the page's newest data lives in the buffer.
  bool contains(std::uint64_t lpn) const { return lru_.contains(lpn); }

  /// True when the buffered copy is newer than NAND (unprogrammed).
  bool dirty(std::uint64_t lpn) const {
    const bool* entry = lru_.find(lpn);
    return entry && *entry;
  }

  /// Flush barrier: every dirty page, oldest first, for the caller to
  /// program now. The entries stay cached, downgraded to clean — a
  /// barrier makes data durable, it does not evict it.
  const std::vector<std::uint64_t>& flush_barrier();

  /// Power loss: DRAM contents vanish. Returns the number of dirty
  /// (acknowledged but never programmed) pages that were lost.
  std::uint64_t power_loss();

  std::uint64_t size() const { return lru_.size(); }
  std::uint64_t dirty_pages() const { return dirty_count_; }
  std::uint64_t capacity() const { return capacity_; }

 private:
  /// Inserts or refreshes `lpn` with the given dirty bit and evicts past
  /// capacity; shared body of write() / insert_clean().
  const std::vector<std::uint64_t>& insert(std::uint64_t lpn, bool dirty);

  std::uint64_t capacity_;
  std::uint64_t flush_batch_;
  std::uint64_t dirty_count_ = 0;
  // LRU by write order: most recently written at front. Value = dirty bit.
  LruMap<bool> lru_;
  // Reused result storage. Separate scratch for the insert path and the
  // barrier path: a caller may iterate an insert's eviction list
  // while issuing a barrier-triggering operation on another code path.
  std::vector<std::uint64_t> insert_scratch_;
  std::vector<std::uint64_t> flush_scratch_;
};

}  // namespace flex::ftl
