#include "layers.h"

#include <algorithm>
#include <cstring>
#include <string_view>

namespace perfbench {

using mpdash::TraceRecord;
using mpdash::TraceType;

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kLink: return "link";
    case Layer::kTcp: return "tcp";
    case Layer::kSched: return "sched";
    case Layer::kDash: return "dash";
    case Layer::kHttp: return "http";
    case Layer::kFault: return "fault";
    case Layer::kTimer: return "timer";
  }
  return "timer";
}

Layer layer_of(TraceType t) {
  switch (t) {
    case TraceType::kPacketSend:
    case TraceType::kPacketDeliver:
    case TraceType::kPacketDrop: return Layer::kLink;
    case TraceType::kSubflowUpdate: return Layer::kTcp;
    case TraceType::kSchedDecision:
    case TraceType::kPathMask: return Layer::kSched;
    case TraceType::kPlayer:
    case TraceType::kSpanStart:
    case TraceType::kSpanEnd: return Layer::kDash;
    case TraceType::kHttp: return Layer::kHttp;
    case TraceType::kFault: return Layer::kFault;
  }
  return Layer::kTimer;
}

namespace {

bool starts_with(std::string_view s, std::string_view p) {
  return s.substr(0, p.size()) == p;
}
bool ends_with(std::string_view s, std::string_view p) {
  return s.size() >= p.size() && s.substr(s.size() - p.size()) == p;
}

}  // namespace

void LayerCounts::add_registry(const mpdash::MetricsRegistry& m) {
  const mpdash::MetricsSnapshot snap = m.snapshot(mpdash::kTimeZero);
  for (const mpdash::MetricValue& v : snap.values) {
    if (v.kind != mpdash::MetricKind::kCounter) continue;
    const std::string_view n = v.name;
    if (n == "sim.executed_events") sim_events += v.value;
    else if (starts_with(n, "link.") && ends_with(n, ".delivered_packets"))
      link_delivered += v.value;
    else if (starts_with(n, "link.") && ends_with(n, ".dropped_packets"))
      link_dropped += v.value;
    else if (n == "http.timeouts") http_timeouts += v.value;
    else if (n == "http.retries") http_retries += v.value;
    else if (ends_with(n, ".timeouts")) tcp_timeouts += v.value;  // subflows
    else if (ends_with(n, "reinjected_packets")) mptcp_reinjected += v.value;
    else if (n == "mptcp.mask_changes") mptcp_mask_changes += v.value;
    else if (n == "fault.injected") fault_injected += v.value;
    else if (n == "player.chunks") dash_chunks += v.value;
    else if (n == "player.stalls") dash_stalls += v.value;
    else if (n == "sched.activations") sched_activations += v.value;
    else if (n == "sched.deadline_misses") sched_deadline_misses += v.value;
  }
}

void LayerCounts::add_session_result(const mpdash::SessionResult& r) {
  mptcp_reinjected += r.reinjected_packets;
  http_retries += r.http_retries;
  http_timeouts += r.http_timeouts;
  dash_chunks += r.chunks;
  dash_stalls += r.stalls;
  sched_deadline_misses += r.deadline_misses;
}

void RecordTally::on_record(const TraceRecord& r) {
  if (r.type == TraceType::kPacketSend &&
      r.kind == mpdash::PacketKind::kData) {
    counts_.tcp_data_sends += 1;
    if (r.retransmit) counts_.tcp_retransmissions += 1;
  } else if (r.type == TraceType::kHttp && r.label != nullptr &&
             std::strcmp(r.label, "request") == 0) {
    counts_.http_requests += 1;
  }
}

EventProbe::EventProbe(mpdash::EventLoop& loop, ProbeStats& stats,
                       Clock::time_point unit_start)
    : loop_(loop), stats_(stats), unit_start_(unit_start) {
  loop_.set_interrupt([this] { before_event(); }, 1);
}

EventProbe::~EventProbe() { loop_.clear_interrupt(); }

void EventProbe::on_record(const TraceRecord& r) {
  if (in_event_ && !classified_) {
    layer_ = layer_of(r.type);
    classified_ = true;
  }
}

void EventProbe::before_event() {
  const Clock::time_point t = Clock::now();
  if (in_event_) {
    close_event(t);
  } else {
    stats_.first_event_s.push_back(
        std::chrono::duration<double>(t - unit_start_).count());
  }
  in_event_ = true;
  classified_ = false;
  layer_ = Layer::kTimer;
  event_start_ = t;
  const std::uint64_t queued = loop_.queued_entries();
  const std::uint64_t live = loop_.pending_callbacks();
  stats_.heap_entries_max = std::max(stats_.heap_entries_max, queued);
  stats_.queued_sum += static_cast<double>(queued);
  stats_.stale_sum += static_cast<double>(queued - std::min(queued, live));
}

void EventProbe::close_event(Clock::time_point t) {
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t - event_start_)
          .count();
  stats_.event_ns.push_back(static_cast<std::uint32_t>(
      std::clamp<long long>(ns, 0, 0xffffffffLL)));
  stats_.layer_s[static_cast<int>(layer_)] += static_cast<double>(ns) * 1e-9;
}

void EventProbe::finish() {
  if (in_event_) close_event(Clock::now());
  in_event_ = false;
}

}  // namespace perfbench
