// Steady-state allocation contract of the event kernel, counted with the
// replacement operator new from common/alloc_counter.h. It lives in its
// own test binary because that replacement applies to the whole binary.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/alloc_counter.h"
#include "ssd/event_queue.h"

FLEX_DEFINE_COUNTING_ALLOCATOR()

namespace flex::ssd {
namespace {

/// An open-loop chain: each link schedules its successor 1000 ns out plus
/// a completion 1500 ns out, so some event is always pending and the
/// queue never drains — the shape of an open-loop arrival process.
struct ChainLink {
  EventQueue* queue;
  void operator()(SimTime now) const {
    queue->schedule(now + 1000, *this);
    queue->schedule(now + 1500, [](SimTime) {});
  }
};

TEST(EventQueueAllocTest, OpenLoopChainAllocatesNothingInSteadyState) {
  namespace alloc = common::alloc_counter;
  ASSERT_TRUE(alloc::counting_enabled());
  // A container that grows with the number of events fired (rather than
  // the number pending) doubles at least once in any window longer than
  // the warm-up, so the count below would catch it.
  constexpr std::uint64_t kWarmup = 100000;
  constexpr std::uint64_t kWindow = 400000;
  static_assert(kWindow > kWarmup);

  EventQueue queue;
  queue.schedule(0, ChainLink{&queue});
  while (queue.fired() < kWarmup) ASSERT_TRUE(queue.run_next());

  const std::uint64_t before = alloc::allocation_count();
  while (queue.fired() < kWarmup + kWindow && queue.run_next()) {
  }
  const std::uint64_t allocations = alloc::allocation_count() - before;

  EXPECT_EQ(queue.fired(), kWarmup + kWindow);
  EXPECT_EQ(allocations, 0u);
  EXPECT_LE(queue.slab_slots(), 3u);  // successor + up to two completions
}

}  // namespace
}  // namespace flex::ssd
