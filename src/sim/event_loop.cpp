#include "sim/event_loop.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace mpdash {

namespace {

constexpr std::uint64_t kSlotMask = 0xffffffffULL;

}  // namespace

EventId EventLoop::schedule_at(TimePoint at, Callback cb) {
  if (at < now_) at = now_;
  std::uint32_t index;
  if (free_head_ != 0) {
    index = free_head_ - 1;
    free_head_ = slots_[index].next_free;
  } else {
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[index];
  s.cb = std::move(cb);
  s.at = at;
  s.seq = next_seq_++;
  ++live_;
  push_entry(at, s.seq, index);
  return EventId{(static_cast<std::uint64_t>(s.generation) << 32) |
                 (index + 1)};
}

EventId EventLoop::schedule_in(Duration delay, Callback cb) {
  return schedule_at(now_ + delay, std::move(cb));
}

EventLoop::Slot* EventLoop::live_slot(EventId id) {
  const std::uint64_t index = id.value & kSlotMask;  // slot + 1
  if (index == 0 || index > slots_.size()) return nullptr;
  Slot& s = slots_[index - 1];
  const auto generation = static_cast<std::uint32_t>(id.value >> 32);
  if (s.seq == 0 || s.generation != generation) return nullptr;
  return &s;
}

void EventLoop::push_entry(TimePoint at, std::uint64_t seq,
                           std::uint32_t slot) {
  slots_[slot].carrier_at = at;
  slots_[slot].carrier_seq = seq;
  heap_.push_back(Entry{at, seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

EventLoop::Callback EventLoop::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  Callback cb = std::move(s.cb);
  s.cb = nullptr;
  s.seq = 0;
  s.carrier_seq = 0;
  ++s.generation;
  s.next_free = free_head_;
  free_head_ = slot + 1;
  --live_;
  return cb;
}

bool EventLoop::cancel(EventId id) {
  Slot* s = live_slot(id);
  if (!s) return false;
  // The callback dies at scope exit, after the slot is consistent again.
  const Callback dead = release(index_of(*s));
  ++stale_;
  // A schedule/cancel-heavy workload would otherwise accumulate stale heap
  // entries without bound; rebuild once they outnumber the live ones.
  if (stale_ > 64 && stale_ > live_) compact();
  return true;
}

bool EventLoop::rearm(EventId id, TimePoint at) {
  Slot* s = live_slot(id);
  if (!s) return false;
  if (at < now_) at = now_;
  s->at = at;
  s->seq = next_seq_++;
  // Carrier rule: the slot's one heap entry may sit at or before its true
  // key. A later (or equal-time) deadline keeps it; settle_top() re-pushes
  // it at the true key when it surfaces. An earlier deadline sorts before
  // the carrier, so it needs a new entry and the old one goes stale.
  if (at < s->carrier_at) {
    push_entry(at, s->seq, index_of(*s));
    ++stale_;
    if (stale_ > 64 && stale_ > live_) compact();
  }
  return true;
}

void EventLoop::compact() {
  heap_.clear();
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    Slot& s = slots_[i];
    if (s.seq == 0) continue;
    s.carrier_at = s.at;
    s.carrier_seq = s.seq;
    heap_.push_back(Entry{s.at, s.seq, i});
  }
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
  stale_ = 0;
}

bool EventLoop::settle_top() {
  while (!heap_.empty()) {
    const Entry top = heap_.front();
    const Slot& s = slots_[top.slot];
    if (top.seq == s.seq) return true;  // live, at its true key
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    if (top.seq != s.carrier_seq) {
      heap_.pop_back();  // cancelled, fired, or superseded by a rearm
      assert(stale_ > 0);
      --stale_;
      continue;
    }
    // The carrier of a later-rearmed event: move it to the true key.
    heap_.pop_back();
    push_entry(s.at, s.seq, top.slot);
  }
  return false;
}

bool EventLoop::step() {
  // Interrupt poll runs before the queue is touched, so a throwing hook
  // aborts the run with the next event still scheduled (nothing is lost
  // half-executed).
  if (interrupt_ && --interrupt_countdown_ == 0) {
    interrupt_countdown_ = interrupt_interval_;
    interrupt_();
  }
  if (!settle_top()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  const Entry top = heap_.back();
  heap_.pop_back();
  Callback cb = release(top.slot);
  assert(top.at >= now_);
  now_ = top.at;
  ++executed_;
  if (telemetry_) executed_counter_.increment();
  cb();
  return true;
}

void EventLoop::run() {
  while (step()) {
  }
}

void EventLoop::run_until(TimePoint deadline) {
  while (settle_top() && heap_.front().at <= deadline) step();
  if (now_ < deadline) now_ = deadline;
}

void EventLoop::set_interrupt(std::function<void()> check,
                              std::uint64_t interval) {
  interrupt_ = std::move(check);
  interrupt_interval_ = interval > 0 ? interval : 1;
  interrupt_countdown_ = interrupt_interval_;
}

void EventLoop::clear_interrupt() {
  interrupt_ = nullptr;
  interrupt_interval_ = 0;
  interrupt_countdown_ = 0;
}

void EventLoop::set_telemetry(Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (telemetry_) {
    executed_counter_ = telemetry_->metrics().counter("sim.executed_events");
  } else {
    executed_counter_ = Counter{};
  }
}

}  // namespace mpdash
