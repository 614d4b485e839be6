#pragma once
// Token-bucket traffic shaper — the equivalent of the Dummynet pipes the
// paper uses both to emulate metropolitan WiFi RTT/bandwidth and to build
// the "throttle cellular at N kbps" strawman of Table 4.

#include <deque>
#include <functional>

#include "link/packet.h"
#include "sim/event_loop.h"

namespace mpdash {

struct ShaperConfig {
  DataRate rate = DataRate::mbps(1.0);
  Bytes burst = 16 * 1000;  // bucket depth
  Bytes queue_capacity = 256 * 1000;
  std::string name = "shaper";  // metric key: `shaper.{name}.*`
};

// Packets pass through at most at `rate` (after an initial burst); excess
// queues up to queue_capacity, then drops.
class TokenBucketShaper {
 public:
  using ForwardHandler = std::function<void(Packet)>;

  TokenBucketShaper(EventLoop& loop, ShaperConfig config);

  void send(Packet p);
  void set_forward_handler(ForwardHandler h) { forward_ = std::move(h); }

  // Registers `shaper.{name}.*` queue/drop metrics. nullptr detaches.
  void set_telemetry(Telemetry* telemetry);

  Bytes dropped_bytes() const { return dropped_bytes_; }

 private:
  void refill();
  void drain();

  EventLoop& loop_;
  ShaperConfig config_;
  ForwardHandler forward_;

  Telemetry* telemetry_ = nullptr;
  Gauge queue_gauge_;
  Counter forwarded_counter_;
  Counter dropped_counter_;

  double tokens_;  // bytes
  TimePoint last_refill_ = kTimeZero;
  std::deque<Packet> queue_;
  Bytes queued_bytes_ = 0;
  bool drain_scheduled_ = false;

  Bytes dropped_bytes_ = 0;
};

}  // namespace mpdash
