#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "sim/event_loop.h"

namespace mpdash {
namespace {

TEST(EventLoop, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(seconds(3.0), [&] { order.push_back(3); });
  loop.schedule_at(seconds(1.0), [&] { order.push_back(1); });
  loop.schedule_at(seconds(2.0), [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), TimePoint(seconds(3.0)));
}

TEST(EventLoop, EqualTimesFifoBySchedulingOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.schedule_at(seconds(1.0), [&order, i] { order.push_back(i); });
  }
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  const EventId id = loop.schedule_in(seconds(1.0), [&] { ran = true; });
  EXPECT_TRUE(loop.cancel(id));
  EXPECT_FALSE(loop.cancel(id));  // second cancel is a no-op
  loop.run();
  EXPECT_FALSE(ran);
}

TEST(EventLoop, CancelInvalidIdIsNoop) {
  EventLoop loop;
  EXPECT_FALSE(loop.cancel(EventId{}));
}

TEST(EventLoop, RunUntilAdvancesClockToDeadline) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_at(seconds(1.0), [&] { ++fired; });
  loop.schedule_at(seconds(5.0), [&] { ++fired; });
  loop.run_until(TimePoint(seconds(2.0)));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now(), TimePoint(seconds(2.0)));
  EXPECT_TRUE(loop.has_pending());
  loop.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventLoop, EventsScheduleMoreEvents) {
  EventLoop loop;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 10) loop.schedule_in(seconds(1.0), tick);
  };
  loop.schedule_in(seconds(1.0), tick);
  loop.run();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(loop.now(), TimePoint(seconds(10.0)));
}

TEST(EventLoop, PastDeadlinesClampToNow) {
  EventLoop loop;
  loop.schedule_at(seconds(2.0), [] {});
  loop.run();
  TimePoint fired_at = kTimeZero;
  loop.schedule_at(seconds(1.0), [&] { fired_at = loop.now(); });
  loop.run();
  EXPECT_EQ(fired_at, TimePoint(seconds(2.0)));  // not in the past
}

TEST(EventLoop, CancelSelfWhileRunningOtherEvent) {
  EventLoop loop;
  bool second_ran = false;
  EventId second;
  loop.schedule_at(seconds(1.0), [&] { loop.cancel(second); });
  second = loop.schedule_at(seconds(1.0), [&] { second_ran = true; });
  loop.run();
  EXPECT_FALSE(second_ran);
}

TEST(EventLoop, CountsExecutedEvents) {
  EventLoop loop;
  for (int i = 0; i < 7; ++i) loop.schedule_in(seconds(1.0), [] {});
  loop.run();
  EXPECT_EQ(loop.executed_events(), 7u);
}

// Regression: schedule 10k events, cancel half, run, then re-run a second
// batch on the same loop. Cancelled events must neither fire nor leak
// callbacks, and executed_events() must count exactly the survivors.
TEST(EventLoop, ScheduleCancelRerunTenThousandEvents) {
  constexpr int kEvents = 10'000;
  EventLoop loop;
  int fired = 0;
  std::vector<EventId> ids;
  ids.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    ids.push_back(
        loop.schedule_in(milliseconds(i % 97), [&fired] { ++fired; }));
  }
  for (int i = 0; i < kEvents; i += 2) EXPECT_TRUE(loop.cancel(ids[i]));
  EXPECT_EQ(loop.pending_callbacks(), static_cast<std::size_t>(kEvents / 2));
  loop.run();
  EXPECT_EQ(fired, kEvents / 2);
  EXPECT_EQ(loop.executed_events(), static_cast<std::size_t>(kEvents / 2));
  EXPECT_EQ(loop.pending_callbacks(), 0u);  // nothing leaked
  EXPECT_EQ(loop.queued_entries(), 0u);     // heap fully drained

  // Second batch on the same loop: counters keep accumulating, cancelled
  // ids from the first batch stay dead.
  for (int i = 0; i < kEvents; i += 2) EXPECT_FALSE(loop.cancel(ids[i]));
  for (int i = 0; i < kEvents; ++i) {
    loop.schedule_in(milliseconds(i % 31), [&fired] { ++fired; });
  }
  loop.run();
  EXPECT_EQ(fired, kEvents / 2 + kEvents);
  EXPECT_EQ(loop.executed_events(),
            static_cast<std::size_t>(kEvents / 2 + kEvents));
  EXPECT_EQ(loop.pending_callbacks(), 0u);
}

// Regression: an RTO-style schedule/cancel churn loop must not grow the
// heap without bound — compact() rebuilds it once stale entries dominate.
TEST(EventLoop, CancelChurnKeepsHeapBounded) {
  EventLoop loop;
  std::size_t peak = 0;
  for (int i = 0; i < 10'000; ++i) {
    const EventId id = loop.schedule_in(seconds(1.0), [] {});
    EXPECT_TRUE(loop.cancel(id));
    peak = std::max(peak, loop.queued_entries());
  }
  // Compaction triggers once cancelled entries outnumber live ones (with a
  // small hysteresis floor), so the heap never holds more than ~the floor.
  EXPECT_LT(peak, 200u);
  EXPECT_EQ(loop.pending_callbacks(), 0u);
  loop.run();
  EXPECT_EQ(loop.executed_events(), 0u);
}

// --- rearm() ---------------------------------------------------------------

TEST(EventLoopRearm, LaterRearmAddsNoHeapEntry) {
  EventLoop loop;
  std::vector<std::pair<int, TimePoint>> fired;
  const EventId x = loop.schedule_at(
      seconds(1.0), [&] { fired.emplace_back(1, loop.now()); });
  loop.schedule_at(seconds(2.0), [&] { fired.emplace_back(2, loop.now()); });
  const std::size_t entries = loop.queued_entries();
  EXPECT_TRUE(loop.rearm(x, seconds(5.0)));
  EXPECT_EQ(loop.queued_entries(), entries);
  EXPECT_EQ(loop.pending_callbacks(), 2u);
  loop.run();
  const std::vector<std::pair<int, TimePoint>> want = {{2, seconds(2.0)},
                                                       {1, seconds(5.0)}};
  EXPECT_EQ(fired, want);
  EXPECT_EQ(loop.executed_events(), 2u);
  EXPECT_EQ(loop.queued_entries(), 0u);
}

TEST(EventLoopRearm, EarlierRearmFiresAtTheNewTime) {
  EventLoop loop;
  std::vector<std::pair<int, TimePoint>> fired;
  const EventId x = loop.schedule_at(
      seconds(5.0), [&] { fired.emplace_back(1, loop.now()); });
  loop.schedule_at(seconds(3.0), [&] { fired.emplace_back(2, loop.now()); });
  EXPECT_TRUE(loop.rearm(x, seconds(1.0)));
  loop.run();
  // One fire at the new time, ahead of the 3 s event; the superseded
  // entry is stale, not a second fire.
  const std::vector<std::pair<int, TimePoint>> want = {{1, seconds(1.0)},
                                                       {2, seconds(3.0)}};
  EXPECT_EQ(fired, want);
  EXPECT_EQ(loop.queued_entries(), 0u);
}

TEST(EventLoopRearm, EqualTimeRearmOrdersAfterPeers) {
  // Same as cancel + schedule: the re-armed event takes a fresh sequence
  // number, so it fires after everything already scheduled at that time.
  EventLoop loop;
  std::vector<int> order;
  const EventId x = loop.schedule_at(seconds(1.0), [&] { order.push_back(0); });
  loop.schedule_at(seconds(1.0), [&] { order.push_back(1); });
  EXPECT_TRUE(loop.rearm(x, seconds(1.0)));
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 0}));
}

TEST(EventLoopRearm, PastDeadlineClampsToNow) {
  EventLoop loop;
  loop.run_until(TimePoint(seconds(2.0)));
  TimePoint fired_at = kTimeZero;
  const EventId x =
      loop.schedule_at(seconds(3.0), [&] { fired_at = loop.now(); });
  EXPECT_TRUE(loop.rearm(x, seconds(1.0)));
  loop.run();
  EXPECT_EQ(fired_at, TimePoint(seconds(2.0)));
}

TEST(EventLoopRearm, LaterRearmRespectsRunUntilDeadline) {
  // The carrier entry surfaces before the deadline; the event itself is
  // due after it and must not fire.
  EventLoop loop;
  int fires = 0;
  const EventId x = loop.schedule_at(seconds(1.0), [&] { ++fires; });
  EXPECT_TRUE(loop.rearm(x, seconds(3.0)));
  loop.run_until(TimePoint(seconds(2.0)));
  EXPECT_EQ(fires, 0);
  EXPECT_TRUE(loop.has_pending());
  EXPECT_EQ(loop.now(), TimePoint(seconds(2.0)));
  loop.run_until(TimePoint(seconds(3.0)));
  EXPECT_EQ(fires, 1);
}

TEST(EventLoopRearm, FiredCancelledAndDefaultIdsReturnFalse) {
  EventLoop loop;
  EXPECT_FALSE(loop.rearm(EventId{}, seconds(1.0)));
  const EventId fired = loop.schedule_in(seconds(1.0), [] {});
  loop.run();
  EXPECT_FALSE(loop.rearm(fired, seconds(2.0)));
  const EventId cancelled = loop.schedule_in(seconds(1.0), [] {});
  EXPECT_TRUE(loop.cancel(cancelled));
  EXPECT_FALSE(loop.rearm(cancelled, seconds(2.0)));
  // Inside its own callback an event is no longer pending either.
  EventId self;
  bool rearmed_self = true;
  self = loop.schedule_in(
      seconds(1.0), [&] { rearmed_self = loop.rearm(self, seconds(9.0)); });
  loop.run();
  EXPECT_FALSE(rearmed_self);
  EXPECT_EQ(loop.executed_events(), 2u);
  EXPECT_FALSE(loop.has_pending());
}

TEST(EventLoopRearm, StaleIdOfAReusedSlotIsANoop) {
  // ABA: the free list hands the slot straight back, so `old` and `next`
  // share a slot index. The generation tells them apart.
  EventLoop loop;
  int old_fires = 0, next_fires = 0;
  const EventId old = loop.schedule_in(seconds(1.0), [&] { ++old_fires; });
  ASSERT_TRUE(loop.cancel(old));
  const EventId next = loop.schedule_in(seconds(2.0), [&] { ++next_fires; });
  EXPECT_EQ(old.value & 0xffffffffULL, next.value & 0xffffffffULL);
  EXPECT_NE(old.value, next.value);
  EXPECT_FALSE(loop.cancel(old));
  EXPECT_FALSE(loop.rearm(old, seconds(3.0)));
  loop.run();
  EXPECT_EQ(old_fires, 0);
  EXPECT_EQ(next_fires, 1);
  EXPECT_EQ(loop.now(), TimePoint(seconds(2.0)));

  // Same after a fire: the fired id must not reach the slot's next tenant.
  const EventId again = loop.schedule_in(seconds(1.0), [&] { ++next_fires; });
  EXPECT_EQ(next.value & 0xffffffffULL, again.value & 0xffffffffULL);
  EXPECT_FALSE(loop.cancel(next));
  EXPECT_FALSE(loop.rearm(next, seconds(9.0)));
  loop.run();
  EXPECT_EQ(next_fires, 2);
  EXPECT_EQ(loop.now(), TimePoint(seconds(3.0)));
}

// Reference semantics for rearm(): a sorted map of (at, seq) keys where a
// re-arm is literally cancel + schedule of the same callback.
class ReferenceLoop {
 public:
  TimePoint now() const { return now_; }
  std::size_t executed() const { return executed_; }

  std::size_t schedule(TimePoint at, std::function<void()> cb) {
    keys_.emplace_back();
    insert(keys_.size() - 1, at, std::move(cb));
    return keys_.size() - 1;
  }
  bool cancel(std::size_t h) {
    if (!keys_[h]) return false;
    queue_.erase(*keys_[h]);
    keys_[h].reset();
    return true;
  }
  bool rearm(std::size_t h, TimePoint at) {
    if (!keys_[h]) return false;
    auto node = queue_.extract(*keys_[h]);
    insert(h, at, std::move(node.mapped().second));
    return true;
  }
  void run_until(TimePoint deadline) {
    while (!queue_.empty() && queue_.begin()->first.first <= deadline) {
      auto node = queue_.extract(queue_.begin());
      keys_[node.mapped().first].reset();
      now_ = node.key().first;
      ++executed_;
      node.mapped().second();
    }
    now_ = std::max(now_, deadline);
  }

 private:
  using Key = std::pair<TimePoint, std::uint64_t>;
  void insert(std::size_t h, TimePoint at, std::function<void()> cb) {
    const Key key{std::max(at, now_), next_seq_++};
    keys_[h] = key;
    queue_.emplace(key, std::make_pair(h, std::move(cb)));
  }

  TimePoint now_ = kTimeZero;
  std::uint64_t next_seq_ = 1;
  std::size_t executed_ = 0;
  std::map<Key, std::pair<std::size_t, std::function<void()>>> queue_;
  std::vector<std::optional<Key>> keys_;
};

// The same handle-based interface over the real loop.
class RealLoop {
 public:
  TimePoint now() const { return loop_.now(); }
  std::size_t executed() const { return loop_.executed_events(); }
  std::size_t schedule(TimePoint at, std::function<void()> cb) {
    ids_.push_back(loop_.schedule_at(at, std::move(cb)));
    return ids_.size() - 1;
  }
  bool cancel(std::size_t h) { return loop_.cancel(ids_[h]); }
  bool rearm(std::size_t h, TimePoint at) { return loop_.rearm(ids_[h], at); }
  void run_until(TimePoint deadline) { loop_.run_until(deadline); }

 private:
  EventLoop loop_;
  std::vector<EventId> ids_;
};

// Drives ~10k seeded schedule/cancel/rearm/run ops (plus rearms and
// schedules from inside callbacks) and logs every fire and return value.
template <class Loop>
std::vector<std::int64_t> drive(std::uint64_t seed) {
  Loop loop;
  std::mt19937_64 rng(seed);
  std::vector<std::int64_t> log;
  std::vector<TimePoint> deadline;  // last requested time per handle
  // A handful of shared instants makes equal-time ties common.
  const std::vector<Duration> anchors = {kDurationZero, microseconds(1),
                                         milliseconds(3), milliseconds(10)};
  auto pick_time = [&](TimePoint around) -> TimePoint {
    switch (rng() % 6) {
      case 0: return loop.now();                                // same instant
      case 1: return around;                                    // equal time
      case 2: return around - milliseconds(rng() % 5);          // earlier
      case 3: return around + milliseconds(rng() % 20);         // later
      case 4: return loop.now() + anchors[rng() % anchors.size()];
      default: return loop.now() + microseconds(rng() % 40'000);
    }
  };
  std::function<void(std::size_t)> fire;
  auto schedule = [&](TimePoint at) {
    const std::size_t h = loop.schedule(at, [&fire, h = deadline.size()] {
      fire(h);
    });
    deadline.push_back(at);
    log.push_back(-static_cast<std::int64_t>(h) - 1);
  };
  fire = [&](std::size_t h) {
    log.push_back(static_cast<std::int64_t>(h));
    log.push_back(loop.now().count());
    // Callbacks re-arm and schedule too, at the current instant and later.
    if (h % 3 == 0 && !deadline.empty()) {
      const std::size_t other = (h * 31) % deadline.size();
      const TimePoint at = loop.now() + milliseconds(h % 7);
      log.push_back(loop.rearm(other, at));
      if (log.back()) deadline[other] = at;
    }
    if (h % 5 == 0 && deadline.size() < 20'000) schedule(loop.now());
  };

  for (int op = 0; op < 10'000; ++op) {
    const unsigned r = static_cast<unsigned>(rng() % 100);
    if (r < 35 || deadline.empty()) {
      schedule(pick_time(loop.now() + milliseconds(10)));
    } else if (r < 50) {
      log.push_back(loop.cancel(rng() % deadline.size()));
    } else if (r < 88) {
      const std::size_t h = rng() % deadline.size();
      const TimePoint at = pick_time(deadline[h]);
      log.push_back(loop.rearm(h, at));
      if (log.back()) deadline[h] = at;
    } else {
      loop.run_until(loop.now() + microseconds(rng() % 15'000));
    }
  }
  loop.run_until(TimePoint::max());
  log.push_back(static_cast<std::int64_t>(loop.executed()));
  return log;
}

TEST(EventLoopRearm, MatchesCancelPlusScheduleReference) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const std::vector<std::int64_t> want = drive<ReferenceLoop>(seed);
    const std::vector<std::int64_t> got = drive<RealLoop>(seed);
    ASSERT_GT(want.size(), 10'000u);
    EXPECT_GT(want.back(), 1000);  // plenty of events actually fired
    EXPECT_EQ(got, want) << "seed " << seed;
  }
}

}  // namespace
}  // namespace mpdash
