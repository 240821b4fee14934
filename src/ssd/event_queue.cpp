#include "ssd/event_queue.h"

#include <algorithm>
#include <numeric>

#include "common/assert.h"

namespace flex::ssd {

std::uint32_t EventQueue::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  FLEX_ASSERT(slab_.size() < kNotQueued);
  slab_.emplace_back();
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t slot) {
  Record& record = slab_[slot];
  record.invoke = nullptr;
  record.heap_pos = kNotQueued;
  ++record.gen;  // stale handles to this slot now fail cancel()
  free_slots_.push_back(slot);
}

void EventQueue::push_queued(std::uint32_t slot, SimTime when) {
  heap_.push_back(HeapEntry{when, next_seq_++, slot});
  sift_up(heap_.size() - 1);
  if (scheduled_metric_) ++scheduled_metric_->value;
}

void EventQueue::install_stream(const Stream& stream, std::size_t count) {
  FLEX_EXPECTS(stream_next_ == stream_count_);  // one stream at a time
  FLEX_EXPECTS(count < kNotQueued);
  stream_ = stream;
  stream_count_ = count;
  stream_next_ = 0;
  stream_base_ = next_seq_;
  next_seq_ += count;
  if (scheduled_metric_) scheduled_metric_->value += count;
  const auto arrival = [this](std::size_t i) {
    return stream_.arrival(stream_.items, i);
  };
  // Generated traces are sorted and stream in place. An unsorted one
  // (read_csv keeps file order) fires in (arrival, index) order, which is
  // a stable sort of its indices by arrival.
  stream_order_.clear();
  for (std::size_t i = 1; i < count; ++i) {
    if (arrival(i) < arrival(i - 1)) {
      stream_order_.resize(count);
      std::iota(stream_order_.begin(), stream_order_.end(), 0u);
      std::stable_sort(stream_order_.begin(), stream_order_.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         return arrival(a) < arrival(b);
                       });
      break;
    }
  }
  load_stream_head();
}

void EventQueue::load_stream_head() {
  if (stream_next_ == stream_count_) return;
  const std::size_t index =
      stream_order_.empty() ? stream_next_ : stream_order_[stream_next_];
  stream_head_ = HeapEntry{stream_.arrival(stream_.items, index),
                           stream_base_ + index,
                           static_cast<std::uint32_t>(index)};
}

void EventQueue::fire_stream_head() {
  const HeapEntry top = stream_head_;
  // Copy the callable out first: once the last element is consumed the
  // callback may install the next stream over stream_.
  const Stream stream = stream_;
  ++stream_next_;
  load_stream_head();
  now_ = top.when;
  ++fired_;
  if (fired_metric_) ++fired_metric_->value;
  stream.invoke(stream.storage, stream.items, top.slot, top.when);
}

bool EventQueue::cancel(EventId id) {
  if (id.slot >= slab_.size()) return false;
  Record& record = slab_[id.slot];
  if (record.gen != id.gen || record.heap_pos == kNotQueued) return false;
  heap_remove(record.heap_pos);
  release_slot(id.slot);
  return true;
}

bool EventQueue::run_next() {
  if (stream_next_ < stream_count_ &&
      (heap_.empty() || before(stream_head_, heap_[0]))) {
    fire_stream_head();
    return true;
  }
  if (heap_.empty()) return false;
  const HeapEntry top = heap_[0];
  heap_remove(0);
  Record& record = slab_[top.slot];
  // Copy the callable out of the slab before releasing the slot: the
  // callback may re-enter schedule() and reuse this very record.
  auto* const invoke = record.invoke;
  alignas(std::max_align_t) unsigned char storage[kInlineStorage];
  std::memcpy(storage, record.storage, kInlineStorage);
  release_slot(top.slot);
  now_ = top.when;
  ++fired_;
  if (fired_metric_) ++fired_metric_->value;
  invoke(storage, top.when);
  return true;
}

void EventQueue::run_all() {
  while (run_next()) {
  }
}

std::size_t EventQueue::drop_pending() {
  const std::size_t dropped = pending();
  stream_count_ = 0;
  stream_next_ = 0;
  // Release in heap order (deterministic), so the post-crash free stack
  // — and therefore slot reuse — replays identically run-to-run.
  for (const HeapEntry& entry : heap_) release_slot(entry.slot);
  heap_.clear();
  return dropped;
}

void EventQueue::heap_remove(std::size_t pos) {
  const std::size_t last = heap_.size() - 1;
  if (pos == last) {
    heap_.pop_back();
    return;
  }
  heap_[pos] = heap_[last];
  slab_[heap_[pos].slot].heap_pos = static_cast<std::uint32_t>(pos);
  heap_.pop_back();
  // The displaced last element may violate order in exactly one direction.
  if (pos > 0 && before(heap_[pos], heap_[(pos - 1) / 4])) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
}

void EventQueue::sift_up(std::size_t pos) {
  const HeapEntry entry = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!before(entry, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    slab_[heap_[pos].slot].heap_pos = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = entry;
  slab_[entry.slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void EventQueue::sift_down(std::size_t pos) {
  const std::size_t size = heap_.size();
  const HeapEntry entry = heap_[pos];
  while (true) {
    const std::size_t first_child = pos * 4 + 1;
    if (first_child >= size) break;
    const std::size_t last_child = std::min(first_child + 4, size);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], entry)) break;
    heap_[pos] = heap_[best];
    slab_[heap_[pos].slot].heap_pos = static_cast<std::uint32_t>(pos);
    pos = best;
  }
  heap_[pos] = entry;
  slab_[entry.slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void EventQueue::attach_telemetry(telemetry::Telemetry* telemetry) {
  if (!telemetry) {
    scheduled_metric_ = nullptr;
    fired_metric_ = nullptr;
    return;
  }
  scheduled_metric_ = &telemetry->metrics.counter("event_queue.scheduled");
  fired_metric_ = &telemetry->metrics.counter("event_queue.fired");
}

}  // namespace flex::ssd
