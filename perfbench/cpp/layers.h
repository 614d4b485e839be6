#pragma once
// Per-layer accounting for the traced run, all of it observed from
// outside the simulator: registry counters, a record-tallying trace sink,
// and (on `field`, where the benchmark owns the event loop) a read-only
// per-event hook that times each event and classifies it by the layer of
// its first trace record.

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include "exp/session.h"
#include "sim/event_loop.h"
#include "span_log.h"
#include "telemetry/telemetry.h"

namespace perfbench {

// Layer an event belongs to, by its first emitted trace record; kTimer
// when the event emitted none.
enum class Layer : int { kLink, kTcp, kSched, kDash, kHttp, kFault, kTimer };
inline constexpr int kLayerCount = 7;
const char* layer_name(Layer l);
Layer layer_of(mpdash::TraceType t);

// Deterministic work counts summed over a run's traced units.
struct LayerCounts {
  double sim_events = 0;
  double link_delivered = 0;
  double link_dropped = 0;
  double tcp_retransmissions = 0;  // data packets sent marked retransmit
  double tcp_data_sends = 0;       // data packets offered to a link
  double tcp_timeouts = 0;
  double mptcp_reinjected = 0;
  double mptcp_mask_changes = 0;
  double http_requests = 0;
  double http_retries = 0;
  double http_timeouts = 0;
  double fault_injected = 0;
  double dash_chunks = 0;
  double dash_stalls = 0;
  double sched_activations = 0;
  double sched_deadline_misses = 0;
  double telemetry_records = 0;  // records the workload's own sinks kept

  // Adds the counters a run's registry holds (every workload whose
  // telemetry reaches the instrumented layer).
  void add_registry(const mpdash::MetricsRegistry& m);
  // Adds the per-session counts of a result whose session instrumented
  // into a registry the benchmark cannot see (fleet tenants).
  void add_session_result(const mpdash::SessionResult& r);
};

// Counts records by kind as they are emitted.
class RecordTally final : public mpdash::TraceSink {
 public:
  explicit RecordTally(LayerCounts& counts) : counts_(counts) {}
  void on_record(const mpdash::TraceRecord& r) override;

 private:
  LayerCounts& counts_;
};

// Per-event samples accumulated over every probed unit.
struct ProbeStats {
  std::vector<std::uint32_t> event_ns;
  std::array<double, kLayerCount> layer_s{};
  std::vector<double> first_event_s;  // unit start → first event
  std::uint64_t heap_entries_max = 0;
  double queued_sum = 0;  // heap entries seen before each event
  double stale_sum = 0;   // of which left behind by cancel()
};

// Installs itself as the loop's interrupt hook (interval 1) and as a
// trace sink. Read-only: it never touches scheduling state. The loop's
// watchdog must be disabled (one hook per loop).
class EventProbe final : public mpdash::TraceSink {
 public:
  using Clock = std::chrono::steady_clock;

  EventProbe(mpdash::EventLoop& loop, ProbeStats& stats,
             Clock::time_point unit_start);
  ~EventProbe() override;
  EventProbe(const EventProbe&) = delete;
  EventProbe& operator=(const EventProbe&) = delete;

  void on_record(const mpdash::TraceRecord& r) override;
  // Closes the last event at the end of the run.
  void finish();

 private:
  void before_event();
  void close_event(Clock::time_point t);

  mpdash::EventLoop& loop_;
  ProbeStats& stats_;
  Clock::time_point unit_start_;
  Clock::time_point event_start_{};
  bool in_event_ = false;
  bool classified_ = false;
  Layer layer_ = Layer::kTimer;
};

// Everything the traced run carries into a unit.
struct Tracer {
  SpanLog spans{true};
  LayerCounts counts;
  ProbeStats probe;
};

}  // namespace perfbench
