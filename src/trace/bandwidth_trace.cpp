#include "trace/bandwidth_trace.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace mpdash {

BandwidthTrace::BandwidthTrace(std::vector<RatePoint> points)
    : points_(std::move(points)) {
  if (!points_.empty() && points_.front().start != kTimeZero) {
    throw std::invalid_argument("trace must start at t=0");
  }
  for (std::size_t i = 1; i < points_.size(); ++i) {
    if (points_[i].start <= points_[i - 1].start) {
      throw std::invalid_argument("trace points must be strictly increasing");
    }
  }
}

BandwidthTrace BandwidthTrace::constant(DataRate rate) {
  return BandwidthTrace({RatePoint{kTimeZero, rate}});
}

void BandwidthTrace::set_loop(Duration period) {
  if (period <= kDurationZero) {
    throw std::invalid_argument("loop period must be positive");
  }
  loop_period_ = period;
}

TimePoint BandwidthTrace::fold(TimePoint t) const {
  if (loop_period_ <= kDurationZero) return t;
  return TimePoint(t.count() % loop_period_.count());
}

std::size_t BandwidthTrace::segment_index(TimePoint t) const {
  // Last point with start <= t.
  auto it = std::upper_bound(
      points_.begin(), points_.end(), t,
      [](TimePoint v, const RatePoint& p) { return v < p.start; });
  assert(it != points_.begin());
  return static_cast<std::size_t>(std::distance(points_.begin(), it)) - 1;
}

DataRate BandwidthTrace::rate_at(TimePoint t) const {
  if (points_.empty()) return DataRate::bits_per_second(0);
  if (t < kTimeZero) t = kTimeZero;
  return points_[segment_index(fold(t))].rate;
}

Bytes BandwidthTrace::bytes_between(TimePoint from, TimePoint to) const {
  if (points_.empty() || to <= from) return 0;
  // Accumulate fractional bytes to avoid per-segment truncation bias.
  double bytes = 0.0;
  TimePoint t = from;
  while (t < to) {
    const TimePoint folded = fold(t);
    const std::size_t idx = segment_index(folded);
    // End of current constant-rate segment, in absolute time.
    TimePoint seg_end;
    if (idx + 1 < points_.size()) {
      seg_end = t + (points_[idx + 1].start - folded);
    } else if (looped()) {
      seg_end = t + (loop_period_ - folded);
    } else {
      seg_end = to;  // final rate holds forever
    }
    const TimePoint upto = std::min(seg_end, to);
    bytes += points_[idx].rate.bps() / 8.0 * to_seconds(upto - t);
    t = upto;
  }
  return static_cast<Bytes>(bytes);
}

TimePoint BandwidthTrace::time_to_deliver(TimePoint from, Bytes bytes) const {
  if (bytes <= 0) return from;
  if (points_.empty()) return TimePoint::max();
  double remaining = static_cast<double>(bytes);
  TimePoint t = from;
  // Guard against a zero-rate tail that never completes.
  const int kMaxSegments = 1'000'000;
  for (int i = 0; i < kMaxSegments; ++i) {
    const TimePoint folded = fold(t);
    const std::size_t idx = segment_index(folded);
    const double rate_Bps = points_[idx].rate.bps() / 8.0;
    TimePoint seg_end;
    bool final_segment = false;
    if (idx + 1 < points_.size()) {
      seg_end = t + (points_[idx + 1].start - folded);
    } else if (looped()) {
      seg_end = t + (loop_period_ - folded);
    } else {
      final_segment = true;
      seg_end = TimePoint::max();
    }
    if (rate_Bps > 0.0) {
      const double needed_s = remaining / rate_Bps;
      const TimePoint done = t + seconds(needed_s);
      if (final_segment || done <= seg_end) return done;
      remaining -= rate_Bps * to_seconds(seg_end - t);
    } else if (final_segment) {
      return TimePoint::max();
    }
    t = seg_end;
  }
  return TimePoint::max();
}

DataRate BandwidthTrace::mean_rate(Duration horizon) const {
  if (horizon <= kDurationZero) return DataRate::bits_per_second(0);
  return rate_of(bytes_between(kTimeZero, TimePoint(horizon)), horizon);
}

BandwidthTrace BandwidthTrace::scaled(double factor) const {
  std::vector<RatePoint> pts = points_;
  for (auto& p : pts) p.rate = p.rate * factor;
  BandwidthTrace t(std::move(pts));
  if (looped()) t.set_loop(loop_period_);
  return t;
}

}  // namespace mpdash
