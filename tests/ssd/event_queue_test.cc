#include "ssd/event_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "telemetry/telemetry.h"

namespace flex::ssd {
namespace {

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  // Scheduled out of time order (30, 10, 20); the heap must still pop
  // them by time.
  queue.schedule(30, [&order](SimTime) { order.push_back(3); });
  queue.schedule(10, [&order](SimTime) { order.push_back(1); });
  queue.schedule(20, [&order](SimTime) { order.push_back(2); });
  queue.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(queue.now(), 30);
  EXPECT_EQ(queue.fired(), 3u);
}

TEST(EventQueueTest, SameTimestampFiresInScheduleOrder) {
  // The ordinal tie-break contract: equal `when` resolves by scheduling
  // order. Event 4 is scheduled after a later event (3) already exists;
  // its ordinal still slots it after event 2, before nothing earlier.
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(5, [&order](SimTime) { order.push_back(0); });
  queue.schedule(5, [&order](SimTime) { order.push_back(1); });
  queue.schedule(5, [&order](SimTime) { order.push_back(2); });
  queue.schedule(9, [&order](SimTime) { order.push_back(3); });
  queue.schedule(5, [&order](SimTime) { order.push_back(4); });  // after 3
  queue.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 4, 3}));
}

TEST(EventQueueTest, MixedLaneInterleaving) {
  EventQueue queue;
  std::vector<SimTime> fired_at;
  for (const SimTime when : {10, 20, 30, 40}) {  // in time order
    queue.schedule(when, [&fired_at](SimTime now) { fired_at.push_back(now); });
  }
  for (const SimTime when : {15, 35, 5}) {  // out of order
    queue.schedule(when, [&fired_at](SimTime now) { fired_at.push_back(now); });
  }
  queue.run_all();
  EXPECT_EQ(fired_at, (std::vector<SimTime>{5, 10, 15, 20, 30, 35, 40}));
}

TEST(EventQueueTest, CallbackReceivesItsOwnDeadline) {
  EventQueue queue;
  SimTime seen = -1;
  queue.schedule(1234, [&seen](SimTime now) { seen = now; });
  EXPECT_TRUE(queue.run_next());
  EXPECT_EQ(seen, 1234);
  EXPECT_FALSE(queue.run_next());
}

TEST(EventQueueTest, ReentrantScheduleFromCallback) {
  // The chip-service pattern: a firing arrival schedules its completion.
  EventQueue queue;
  std::vector<SimTime> fired_at;
  for (int i = 1; i <= 3; ++i) {
    queue.schedule(i * 10, [&queue, &fired_at](SimTime now) {
      fired_at.push_back(now);
      queue.schedule(now + 5, [&fired_at](SimTime t) { fired_at.push_back(t); });
    });
  }
  queue.run_all();
  EXPECT_EQ(fired_at, (std::vector<SimTime>{10, 15, 20, 25, 30, 35}));
  EXPECT_EQ(queue.fired(), 6u);
}

TEST(EventQueueTest, CancelHeapEvent) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(30, [&order](SimTime) { order.push_back(3); });
  const EventQueue::EventId id =
      queue.schedule(10, [&order](SimTime) { order.push_back(1); });
  queue.schedule(20, [&order](SimTime) { order.push_back(2); });
  EXPECT_TRUE(queue.cancel(id));
  EXPECT_FALSE(queue.cancel(id));  // stale handle
  queue.run_all();
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
}

TEST(EventQueueTest, CancelFifoEventTombstones) {
  // Cancelling an event in the middle of the pending set must not
  // disturb the order of the others.
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(10, [&order](SimTime) { order.push_back(1); });
  const EventQueue::EventId mid =
      queue.schedule(20, [&order](SimTime) { order.push_back(2); });
  queue.schedule(30, [&order](SimTime) { order.push_back(3); });
  EXPECT_EQ(queue.pending(), 3u);
  EXPECT_TRUE(queue.cancel(mid));
  EXPECT_EQ(queue.pending(), 2u);
  queue.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(queue.fired(), 2u);  // cancelled events never count as fired
}

TEST(EventQueueTest, CancelFifoHeadSkipsToNextLive) {
  EventQueue queue;
  std::vector<int> order;
  const EventQueue::EventId head =
      queue.schedule(10, [&order](SimTime) { order.push_back(1); });
  queue.schedule(20, [&order](SimTime) { order.push_back(2); });
  EXPECT_TRUE(queue.cancel(head));
  EXPECT_TRUE(queue.run_next());
  EXPECT_EQ(order, (std::vector<int>{2}));
}

TEST(EventQueueTest, HandleGoesStaleAfterFiring) {
  EventQueue queue;
  const EventQueue::EventId id = queue.schedule(10, [](SimTime) {});
  queue.run_all();
  EXPECT_FALSE(queue.cancel(id));
}

TEST(EventQueueTest, SlabSlotsReusedAfterCancel) {
  // Cancelled slots return to the free stack: scheduling the same number
  // again must not grow the slab.
  EventQueue queue;
  std::vector<EventQueue::EventId> ids;
  for (SimTime t = 1; t <= 100; ++t) {
    ids.push_back(queue.schedule(t, [](SimTime) {}));
  }
  const std::size_t high_water = queue.slab_slots();
  EXPECT_EQ(high_water, 100u);
  for (const auto& id : ids) EXPECT_TRUE(queue.cancel(id));
  EXPECT_TRUE(queue.empty());
  for (SimTime t = 101; t <= 200; ++t) queue.schedule(t, [](SimTime) {});
  EXPECT_EQ(queue.slab_slots(), high_water);  // no new allocations
  queue.run_all();
  EXPECT_EQ(queue.fired(), 100u);
}

TEST(EventQueueTest, SlabStopsGrowingInSteadyState) {
  EventQueue queue;
  for (int round = 0; round < 3; ++round) {
    const SimTime base = queue.now();
    for (SimTime i = 1; i <= 50; ++i) queue.schedule(base + i, [](SimTime) {});
    queue.run_all();
    EXPECT_EQ(queue.slab_slots(), 50u) << round;
  }
}

TEST(EventQueueTest, DropPendingDiscardsBothLanes) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(10, [&order](SimTime) { order.push_back(1); });
  EXPECT_TRUE(queue.run_next());
  // Pending mix: two in-order events (one later cancelled), one
  // scheduled ahead of them.
  queue.schedule(20, [&order](SimTime) { order.push_back(2); });
  const EventQueue::EventId doomed =
      queue.schedule(30, [&order](SimTime) { order.push_back(3); });
  queue.schedule(15, [&order](SimTime) { order.push_back(4); });
  EXPECT_TRUE(queue.cancel(doomed));
  EXPECT_EQ(queue.pending(), 2u);

  EXPECT_EQ(queue.drop_pending(), 2u);
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(queue.run_next());
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(queue.now(), 10);    // clock survives the power loss
  EXPECT_EQ(queue.fired(), 1u);  // dropped events never fire

  // Ordinals are not reset: same-instant events scheduled after the drop
  // still fire in scheduling order.
  queue.schedule(50, [&order](SimTime) { order.push_back(5); });
  queue.schedule(50, [&order](SimTime) { order.push_back(6); });
  queue.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 5, 6}));
}

TEST(EventQueueTest, PendingCountsBothLanes) {
  EventQueue queue;
  EXPECT_TRUE(queue.empty());
  queue.schedule(10, [](SimTime) {});
  queue.schedule(20, [](SimTime) {});  // in time order
  queue.schedule(5, [](SimTime) {});   // out of order
  EXPECT_EQ(queue.pending(), 3u);
  EXPECT_FALSE(queue.empty());
  queue.run_all();
  EXPECT_TRUE(queue.empty());
}

// Kernel differential: one scripted mix run once through a schedule() call
// per arrival and once through one arrival stream. Arrivals sit on a
// 10 ns grid; each schedules a completion 20 ns later (landing exactly on
// the arrival two slots ahead, so ties resolve by ordinal), every third
// an event 5 ns later that must fire between two arrivals, every fifth a
// dynamic event that the next arrival cancels, and the run is cut by a
// drop_pending() partway through.
struct Arrival {
  SimTime arrival;
  int label;
};

class DifferentialMix {
 public:
  using Firing = std::pair<SimTime, int>;

  explicit DifferentialMix(bool use_stream) : use_stream_(use_stream) {
    queue_.attach_telemetry(&telemetry_);
  }

  void run(const std::vector<Arrival>& arrivals, std::uint64_t drop_after) {
    if (use_stream_) {
      queue_.stream_arrivals(arrivals, [this](const Arrival& a, SimTime now) {
        on_arrival(a, now);
      });
    } else {
      for (const Arrival& a : arrivals) {
        queue_.schedule(a.arrival, [this, &a](SimTime now) {
          on_arrival(a, now);
        });
      }
    }
    while (queue_.fired() < drop_after && queue_.run_next()) {
      pending_.push_back(queue_.pending());
    }
    dropped_ = queue_.drop_pending();
    // Post-drop ordinals keep counting from where the stream left them.
    for (int i = 0; i < 3; ++i) {
      queue_.schedule(queue_.now() + 7, [this, i](SimTime now) {
        log_.push_back({now, 5000 + i});
      });
    }
    queue_.run_all();
  }

  const std::vector<Firing>& log() const { return log_; }
  const std::vector<std::size_t>& pending() const { return pending_; }
  std::size_t dropped() const { return dropped_; }
  int cancels() const { return cancels_; }
  const EventQueue& queue() const { return queue_; }
  std::uint64_t counter(const char* name) {
    return telemetry_.metrics.counter(name).value;
  }

 private:
  void on_arrival(const Arrival& a, SimTime now) {
    log_.push_back({now, a.label});
    queue_.schedule(now + 20, [this, label = a.label](SimTime t) {
      log_.push_back({t, 1000 + label});
    });
    if (a.label % 3 == 0) {  // fires before the next arrival
      queue_.schedule(now + 5, [this, label = a.label](SimTime t) {
        log_.push_back({t, 2000 + label});
      });
    }
    if (a.label % 5 == 0) {
      doomed_ = queue_.schedule(now + 15, [this](SimTime t) {
        log_.push_back({t, -1});
      });
      have_doomed_ = true;
    } else if (a.label % 5 == 1 && have_doomed_) {
      const bool cancelled = queue_.cancel(doomed_);
      cancels_ += cancelled ? 1 : 0;
      log_.push_back({now, cancelled ? -2 : -3});
      have_doomed_ = false;
    }
  }

  bool use_stream_;
  telemetry::Telemetry telemetry_;
  EventQueue queue_;
  EventQueue::EventId doomed_;
  bool have_doomed_ = false;
  int cancels_ = 0;
  std::vector<Firing> log_;
  std::vector<std::size_t> pending_;
  std::size_t dropped_ = 0;
};

void expect_stream_matches_schedule(const std::vector<Arrival>& arrivals,
                                    std::uint64_t drop_after) {
  DifferentialMix scheduled(false);
  DifferentialMix streamed(true);
  scheduled.run(arrivals, drop_after);
  streamed.run(arrivals, drop_after);
  EXPECT_EQ(streamed.log(), scheduled.log());
  EXPECT_EQ(streamed.pending(), scheduled.pending());
  EXPECT_EQ(streamed.dropped(), scheduled.dropped());
  EXPECT_GT(scheduled.dropped(), 0u);
  EXPECT_GT(scheduled.cancels(), 0);
  EXPECT_EQ(streamed.queue().fired(), scheduled.queue().fired());
  EXPECT_EQ(streamed.queue().pending(), 0u);
  EXPECT_EQ(streamed.queue().now(), scheduled.queue().now());
  EXPECT_EQ(streamed.counter("event_queue.scheduled"),
            scheduled.counter("event_queue.scheduled"));
  EXPECT_EQ(streamed.counter("event_queue.fired"),
            scheduled.counter("event_queue.fired"));
  EXPECT_EQ(streamed.counter("event_queue.fired"), streamed.queue().fired());
}

TEST(EventQueueTest, StreamFiresExactlyAsPerArrivalSchedules) {
  std::vector<Arrival> arrivals;
  for (int i = 0; i < 40; ++i) arrivals.push_back({10 * (i / 2), i});
  expect_stream_matches_schedule(arrivals, 50);
}

TEST(EventQueueTest, UnsortedStreamFiresAsItsStableSort) {
  // Out-of-order and tied arrivals: schedule() fires them by (when,
  // index), which the stream reproduces with a stable index sort.
  std::vector<Arrival> arrivals;
  for (int i = 0; i < 40; ++i) {
    arrivals.push_back({10 * ((i * 7) % 13), i});
  }
  expect_stream_matches_schedule(arrivals, 45);
}

TEST(EventQueueTest, StreamDrainsWithoutTakingSlabRecords) {
  EventQueue queue;
  std::vector<Arrival> arrivals;
  for (int i = 0; i < 1000; ++i) arrivals.push_back({i, i});
  std::vector<int> labels;
  queue.stream_arrivals(arrivals, [&labels](const Arrival& a, SimTime) {
    labels.push_back(a.label);
  });
  EXPECT_EQ(queue.pending(), 1000u);
  queue.run_all();
  EXPECT_EQ(labels.size(), 1000u);
  EXPECT_EQ(queue.fired(), 1000u);
  EXPECT_EQ(queue.slab_slots(), 0u);
  EXPECT_TRUE(queue.empty());
}

}  // namespace
}  // namespace flex::ssd
