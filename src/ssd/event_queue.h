// Deterministic discrete-event kernel for the SSD simulator.
//
// Two pending-event lanes:
//  * an arrival stream that reads a trace straight from the caller's
//    request vector (stream_arrivals()): a trace of N requests costs no
//    event records at all, just a cursor — the vector already holds every
//    arrival, so copying each one into the kernel would only duplicate it;
//  * an indexed 4-ary min-heap of slab records for every schedule()d
//    event. Arrivals ride the stream, so the slab and the heap only ever
//    hold the in-flight dynamic events (tens: chip completions, the
//    open-loop engine's next arrival), not the trace (hundreds of
//    thousands).
// run_next() fires the smaller of the stream head and the heap top.
// Determinism is load-bearing — identical seeds must give bit-identical
// results, including when independent simulations run on different
// threads of the bench harness — so the kernel holds no global state and
// draws no entropy of its own.
//
// Ordering contract (the tie-break rule): every event carries a 64-bit
// ordinal (`seq`) taken from a monotonically increasing counter that never
// repeats and never resets (not even across power loss — see
// drop_pending()). schedule() stamps one ordinal per call; a stream
// reserves one per element at install, element i getting base + i, so it
// orders exactly like one schedule() call per element. Events are fired in
// lexicographic (when, seq) order, so events scheduled for the same
// simulated instant fire in exactly the order they were scheduled. The
// ordinal is part of the heap entry, not a fallback comparator detail: any
// future heap implementation must preserve (when, seq) as the total order
// or byte-identical replay breaks.
//
// Memory contract: callbacks are stored inline in the event record (no
// std::function, no per-event heap allocation). The slab and heap grow to
// the high-water mark of *pending* dynamic events and are reused
// thereafter, so the steady state allocates nothing — also in open-loop
// runs, where some event is always pending; a stream over a sorted trace
// allocates nothing either. Callables must be trivially copyable and at
// most kInlineStorage bytes — in practice small capturing lambdas like
// `[this, chip]`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <vector>

#include "common/units.h"
#include "telemetry/telemetry.h"

namespace flex::ssd {

class EventQueue {
 public:
  /// Max inline callable size; sized for `this` plus two words of capture.
  static constexpr std::size_t kInlineStorage = 24;

  /// Handle for cancel(). `gen` guards against slot reuse: a handle goes
  /// stale the moment its event fires, is cancelled, or is dropped.
  struct EventId {
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
  };

  /// Schedules `fn` at `when`. Events at the same `when` fire in
  /// scheduling order (ordinals never tie). The callable is copied into
  /// the event record; it receives the simulated time the event fires at.
  template <class Fn>
  EventId schedule(SimTime when, Fn fn) {
    static_assert(std::is_trivially_copyable_v<Fn>,
                  "event callables are memcpy'd into a POD slab record");
    static_assert(sizeof(Fn) <= kInlineStorage,
                  "callable capture exceeds inline event storage");
    static_assert(alignof(Fn) <= alignof(std::max_align_t));
    const std::uint32_t slot = acquire_slot();
    Record& record = slab_[slot];
    record.invoke = [](const void* storage, SimTime now) {
      // The blob is a byte-copy of a trivially copyable Fn; run_next()
      // copies it to a stack buffer before the call, so re-entrant
      // schedule() calls cannot clobber it mid-invoke.
      (*std::launder(reinterpret_cast<const Fn*>(storage)))(now);
    };
    std::memcpy(record.storage, &fn, sizeof(Fn));
    const EventId id{slot, record.gen};
    push_queued(slot, when);
    return id;
  }

  /// Installs an arrival stream over `items`, which must outlive it (until
  /// every element has fired or drop_pending() discarded the rest):
  /// element i fires `fn(items[i], now)` at `items[i].arrival` with
  /// ordinal base + i, where base is the next unused ordinal, so the
  /// stream fires exactly as one schedule() call per element in index
  /// order would. Arrivals need not be sorted: an unsorted vector is
  /// walked through a stable sort of its indices by arrival (ties keep
  /// index order); a sorted one is walked in place. One stream at a time.
  template <class T, class Fn>
  void stream_arrivals(const std::vector<T>& items, Fn fn) {
    static_assert(std::is_trivially_copyable_v<Fn>,
                  "stream callables are memcpy'd into inline storage");
    static_assert(sizeof(Fn) <= kInlineStorage,
                  "callable capture exceeds inline event storage");
    static_assert(alignof(Fn) <= alignof(std::max_align_t));
    Stream stream{};
    stream.items = items.data();
    stream.arrival = [](const void* base, std::size_t i) -> SimTime {
      return static_cast<const T*>(base)[i].arrival;
    };
    stream.invoke = [](const void* storage, const void* base, std::size_t i,
                       SimTime now) {
      (*std::launder(reinterpret_cast<const Fn*>(storage)))(
          static_cast<const T*>(base)[i], now);
    };
    std::memcpy(stream.storage, &fn, sizeof(Fn));
    install_stream(stream, items.size());
  }

  /// Removes a pending event without firing it. Returns false when the
  /// handle is stale (already fired, cancelled, or dropped). The event's
  /// ordinal is consumed either way; cancelling never renumbers survivors.
  bool cancel(EventId id);

  /// Pops and runs the earliest event; returns false when none is pending.
  bool run_next();

  /// Drains the queue, including events scheduled by running events.
  void run_all();

  /// Discards every pending event, stream elements included, without
  /// firing it — power loss. The clock (`now()`) and the fired/ordinal
  /// counters are preserved so a post-crash mount continues on the same
  /// timeline.
  /// Returns the number of events dropped.
  std::size_t drop_pending();

  /// Time of the most recently fired event.
  SimTime now() const { return now_; }
  std::size_t pending() const {
    return heap_.size() + (stream_count_ - stream_next_);
  }
  bool empty() const { return pending() == 0; }
  /// Total events fired since construction.
  std::uint64_t fired() const { return fired_; }
  /// Slab high-water mark: number of event records ever allocated. Stops
  /// growing once the pending dynamic-event peak is reached (slots are
  /// recycled); stream elements never take a record.
  std::size_t slab_slots() const { return slab_.size(); }

  /// Binds the kernel's counters into `telemetry` (see telemetry.h for
  /// the null-sink contract); nullptr detaches.
  void attach_telemetry(telemetry::Telemetry* telemetry);

 private:
  /// Marks a slot as not currently in the heap.
  static constexpr std::uint32_t kNotQueued = 0xffffffffu;

  /// Slab record. POD by construction: the callable is a trivially
  /// copyable capture blob plus a type-erasing invoke thunk.
  struct Record {
    void (*invoke)(const void* storage, SimTime now) = nullptr;
    alignas(std::max_align_t) unsigned char storage[kInlineStorage];
    std::uint32_t gen = 0;
    /// Pending position: heap index, or kNotQueued.
    std::uint32_t heap_pos = kNotQueued;
  };

  /// Heap entries carry the full (when, seq) sort key so compares stay
  /// inside the contiguous heap array instead of chasing into the slab.
  struct HeapEntry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static bool before(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  /// Type-erased view of a caller's arrival vector plus its callable.
  struct Stream {
    const void* items = nullptr;
    SimTime (*arrival)(const void* items, std::size_t i) = nullptr;
    void (*invoke)(const void* storage, const void* items, std::size_t i,
                   SimTime now) = nullptr;
    alignas(std::max_align_t) unsigned char storage[kInlineStorage];
  };

  void install_stream(const Stream& stream, std::size_t count);
  /// Loads stream_head_ with the element at firing position stream_next_.
  void load_stream_head();
  void fire_stream_head();

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void push_queued(std::uint32_t slot, SimTime when);
  void heap_remove(std::size_t pos);
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);

  std::vector<Record> slab_;
  std::vector<std::uint32_t> free_slots_;  ///< LIFO recycle stack
  std::vector<HeapEntry> heap_;            ///< 4-ary min-heap on (when, seq)
  /// Arrival stream: elements [stream_next_, stream_count_) of the firing
  /// order are pending. The firing order is the identity for a sorted
  /// vector, else stream_order_ (a stable sort of indices by arrival).
  Stream stream_;
  std::size_t stream_count_ = 0;
  std::size_t stream_next_ = 0;
  std::uint64_t stream_base_ = 0;  ///< ordinal of element 0
  std::vector<std::uint32_t> stream_order_;
  /// Key of the next stream element; `slot` holds its index into items.
  HeapEntry stream_head_{};
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  SimTime now_ = 0;
  telemetry::MetricsRegistry::Counter* scheduled_metric_ = nullptr;
  telemetry::MetricsRegistry::Counter* fired_metric_ = nullptr;
};

}  // namespace flex::ssd
