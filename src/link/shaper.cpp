#include "link/shaper.h"

#include <algorithm>
#include <utility>

namespace mpdash {

TokenBucketShaper::TokenBucketShaper(EventLoop& loop, ShaperConfig config)
    : loop_(loop),
      config_(config),
      tokens_(static_cast<double>(config.burst)) {}

void TokenBucketShaper::set_telemetry(Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (!telemetry_) {
    queue_gauge_ = Gauge{};
    forwarded_counter_ = Counter{};
    dropped_counter_ = Counter{};
    return;
  }
  MetricsRegistry& m = telemetry_->metrics();
  const std::string prefix = "shaper." + config_.name;
  queue_gauge_ = m.gauge(prefix + ".queue_bytes");
  forwarded_counter_ = m.counter(prefix + ".forwarded_bytes");
  dropped_counter_ = m.counter(prefix + ".dropped_bytes");
}

void TokenBucketShaper::refill() {
  const TimePoint now = loop_.now();
  const double earned =
      config_.rate.bps() / 8.0 * to_seconds(now - last_refill_);
  tokens_ = std::min(static_cast<double>(config_.burst), tokens_ + earned);
  last_refill_ = now;
}

void TokenBucketShaper::send(Packet p) {
  if (queued_bytes_ + p.wire_size > config_.queue_capacity) {
    dropped_bytes_ += p.wire_size;
    if (telemetry_) dropped_counter_.add(static_cast<double>(p.wire_size));
    return;
  }
  queued_bytes_ += p.wire_size;
  if (telemetry_) queue_gauge_.set(static_cast<double>(queued_bytes_));
  queue_.push_back(std::move(p));
  drain();
}

void TokenBucketShaper::drain() {
  refill();
  while (!queue_.empty() &&
         tokens_ >= static_cast<double>(queue_.front().wire_size)) {
    Packet p = std::move(queue_.front());
    queue_.pop_front();
    queued_bytes_ -= p.wire_size;
    tokens_ -= static_cast<double>(p.wire_size);
    if (telemetry_) {
      forwarded_counter_.add(static_cast<double>(p.wire_size));
      queue_gauge_.set(static_cast<double>(queued_bytes_));
    }
    if (forward_) forward_(std::move(p));
  }
  if (!queue_.empty() && !drain_scheduled_) {
    // Wake when enough tokens accumulate for the head packet.
    const double deficit =
        static_cast<double>(queue_.front().wire_size) - tokens_;
    const Duration wait =
        config_.rate.time_to_send(static_cast<Bytes>(deficit) + 1);
    drain_scheduled_ = true;
    loop_.schedule_in(std::max(wait, microseconds(10)), [this] {
      drain_scheduled_ = false;
      drain();
    });
  }
}

}  // namespace mpdash
