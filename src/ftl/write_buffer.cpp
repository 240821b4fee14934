#include "ftl/write_buffer.h"

#include "common/assert.h"

namespace flex::ftl {

WriteBuffer::WriteBuffer(std::uint64_t capacity_pages,
                         std::uint64_t flush_batch)
    : capacity_(capacity_pages),
      flush_batch_(flush_batch),
      lru_(capacity_pages + 1) {
  FLEX_EXPECTS(capacity_pages >= 1);
  FLEX_EXPECTS(flush_batch >= 1 && flush_batch <= capacity_pages);
}

const std::vector<std::uint64_t>& WriteBuffer::insert(std::uint64_t lpn,
                                                      bool dirty) {
  insert_scratch_.clear();
  if (bool* entry = lru_.find(lpn)) {
    // Overwrite in place: refresh recency, nothing to flush.
    lru_.touch(lpn);
    if (*entry != dirty) {
      dirty_count_ += dirty ? 1 : -1;
      *entry = dirty;
    }
    return insert_scratch_;
  }
  lru_.push_front(lpn, dirty);
  if (dirty) ++dirty_count_;
  if (lru_.size() > capacity_) {
    std::uint64_t evicted = 0;
    while (!lru_.empty() && evicted < flush_batch_) {
      const std::uint64_t victim = lru_.back_key();
      if (*lru_.find(victim)) {
        --dirty_count_;
        insert_scratch_.push_back(victim);
      }
      lru_.pop_back();
      ++evicted;
    }
  }
  FLEX_ENSURES(lru_.size() <= capacity_);
  return insert_scratch_;
}

const std::vector<std::uint64_t>& WriteBuffer::write(std::uint64_t lpn) {
  return insert(lpn, /*dirty=*/true);
}

const std::vector<std::uint64_t>& WriteBuffer::insert_clean(
    std::uint64_t lpn) {
  return insert(lpn, /*dirty=*/false);
}

const std::vector<std::uint64_t>& WriteBuffer::flush_barrier() {
  flush_scratch_.clear();
  // Oldest first, matching the overflow eviction order.
  lru_.for_each_oldest_first([this](std::uint64_t lpn, bool& dirty) {
    if (dirty) {
      dirty = false;
      flush_scratch_.push_back(lpn);
    }
  });
  dirty_count_ = 0;
  return flush_scratch_;
}

std::uint64_t WriteBuffer::power_loss() {
  const std::uint64_t lost = dirty_count_;
  lru_.clear();
  dirty_count_ = 0;
  return lost;
}

}  // namespace flex::ftl
