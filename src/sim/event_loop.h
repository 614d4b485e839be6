#pragma once
// Discrete-event simulation core.
//
// Every subsystem (links, TCP subflows, the DASH player's playback clock,
// the MP-DASH decision timer) schedules callbacks on one EventLoop. Events
// fire in (time, scheduling sequence) order, so events at equal timestamps
// fire in scheduling order, which keeps runs bitwise deterministic for a
// given seed.
//
// Callbacks live in a slot pool (a vector plus a free list); a binary heap
// orders (at, seq, slot) entries. See DESIGN.md §2.1 for the carrier rule
// that lets rearm() move a deadline later without touching the heap.

#include <cstdint>
#include <functional>
#include <vector>

#include "telemetry/telemetry.h"
#include "util/units.h"

namespace mpdash {

// Handle for cancelling or re-arming a scheduled event: slot index + 1 in
// the low 32 bits, the slot's generation above them. Firing or cancelling
// an event bumps its slot's generation, so a stale id stays a no-op even
// after the slot is reused. Default-constructed ids are invalid and safe
// to cancel (no-op).
struct EventId {
  std::uint64_t value = 0;
};

class EventLoop {
 public:
  using Callback = std::function<void()>;

  TimePoint now() const { return now_; }

  // Schedules `cb` to run at absolute time `at` (clamped to now()).
  EventId schedule_at(TimePoint at, Callback cb);
  // Schedules `cb` to run `delay` from now.
  EventId schedule_in(Duration delay, Callback cb);

  // Cancels a pending event. Cancelling an already-fired or invalid id is a
  // no-op. Returns true if the event was pending.
  bool cancel(EventId id);

  // Moves a pending event to `at` (clamped to now()), keeping its id and
  // callback. Exactly equivalent to cancel(id) followed by schedule_at(at)
  // with the same callback: the event takes a fresh sequence number from
  // the same counter, so it orders after everything already scheduled at
  // `at`. Returns false, doing nothing, if `id` is not pending; callers
  // then schedule afresh.
  bool rearm(EventId id, TimePoint at);

  // Runs events until the queue is empty.
  void run();
  // Runs events with timestamp <= deadline, then advances now() to deadline.
  void run_until(TimePoint deadline);

  // True if any event is pending.
  bool has_pending() const { return live_ > 0; }
  std::size_t executed_events() const { return executed_; }
  // Live (non-cancelled) callbacks awaiting execution.
  std::size_t pending_callbacks() const { return live_; }
  // Heap entries including stale ones left behind by cancel() and by an
  // earlier rearm(); bounded by compaction (see cancel()), exposed for the
  // regression tests.
  std::size_t queued_entries() const { return heap_.size(); }

  // Attaches telemetry (counter `sim.executed_events`). Pass nullptr to
  // detach. Never changes scheduling behavior.
  void set_telemetry(Telemetry* telemetry);

  // Installs a poll hook called once every `interval` executed events,
  // before the event runs. The hook may throw to abort run()/run_until()
  // — that is how RunWatchdog kills a livelocked simulation without the
  // loop itself knowing about budgets. The check never observes or
  // mutates scheduling state, so an armed-but-silent hook cannot change
  // what a run computes. One hook at a time; `interval` 0 means 1.
  void set_interrupt(std::function<void()> check, std::uint64_t interval);
  void clear_interrupt();

  // Allocates a simulation-unique id (packet ids, etc.). Keeping the
  // counter on the loop — not in a process-wide static — lets concurrent
  // simulations share nothing mutable, so parallel campaigns stay both
  // race-free and bitwise deterministic.
  std::uint64_t allocate_id() { return next_alloc_id_++; }

 private:
  // A heap entry. Sequence numbers are unique across the whole run, so
  // `seq` alone tells whether an entry is its slot's current carrier.
  struct Entry {
    TimePoint at;
    std::uint64_t seq;
    std::uint32_t slot;
    // Ordering for min-heap via std::greater.
    friend bool operator>(const Entry& a, const Entry& b) {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  struct Slot {
    Callback cb;
    TimePoint at;               // true deadline
    std::uint64_t seq = 0;      // true sequence number; 0 while free
    TimePoint carrier_at;       // key of the one heap entry carrying the
    std::uint64_t carrier_seq = 0;  // slot; <= (at, seq), 0 while free
    std::uint32_t generation = 0;
    std::uint32_t next_free = 0;    // free-list link (index + 1, 0 = end)
  };

  // Resolves a pending id to its slot, or nullptr if not pending.
  Slot* live_slot(EventId id);
  std::uint32_t index_of(const Slot& s) const {
    return static_cast<std::uint32_t>(&s - slots_.data());
  }
  void push_entry(TimePoint at, std::uint64_t seq, std::uint32_t slot);
  // Frees a slot: bumps its generation (killing every outstanding id and
  // heap entry for it) and returns its callback to the caller.
  Callback release(std::uint32_t slot);
  // Discards stale entries and re-pushes carriers of later-rearmed events
  // at their true key until the heap top is a live event at its true key.
  // Returns false if no event is pending.
  bool settle_top();
  // Pops and runs the next event; returns false if queue empty after
  // discarding cancelled entries.
  bool step();
  // Drops every stale heap entry once they dominate the heap (cancel() and
  // an earlier rearm() leave them behind; without this a schedule/cancel
  // loop would grow the heap without bound).
  void compact();

  TimePoint now_ = kTimeZero;
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_alloc_id_ = 1;
  std::size_t executed_ = 0;
  std::size_t live_ = 0;
  std::size_t stale_ = 0;  // stale entries still in the heap
  std::vector<Entry> heap_;  // min-heap on (at, seq)
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = 0;  // index + 1 of the first free slot

  Telemetry* telemetry_ = nullptr;
  Counter executed_counter_;

  std::function<void()> interrupt_;
  std::uint64_t interrupt_interval_ = 0;
  std::uint64_t interrupt_countdown_ = 0;
};

}  // namespace mpdash
