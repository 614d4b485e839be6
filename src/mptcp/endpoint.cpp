#include "mptcp/endpoint.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "predict/holt_winters.h"

namespace mpdash {

MptcpEndpoint::MptcpEndpoint(EventLoop& loop, Role role)
    : loop_(loop), role_(role), scheduler_(std::make_unique<MinRttScheduler>()) {}

MptcpEndpoint::~MptcpEndpoint() {
  loop_.cancel(sampler_timer_);
  for (auto& [id, st] : paths_) loop_.cancel(st.reprobe_timer);
}

void MptcpEndpoint::add_path(SubflowConfig config,
                             std::function<void(Packet)> transmit) {
  const int id = config.path_id;
  if (paths_.contains(id)) throw std::invalid_argument("duplicate path id");
  PathState st;
  st.transmit = std::move(transmit);
  st.sender = std::make_unique<SubflowSender>(
      loop_, config, st.transmit, [this] { try_send(); });
  st.sampler = std::make_unique<RateSampler>(
      std::make_shared<HoltWinters>(), kSamplerInterval);
  if (telemetry_) wire_sender_telemetry(st);
  if (failure_policy_.max_consecutive_rtos > 0) wire_failure_detection(id, st);
  paths_.emplace(id, std::move(st));
}

void MptcpEndpoint::set_failure_policy(const MptcpFailureConfig& policy) {
  failure_policy_ = policy;
  for (auto& [id, st] : paths_) {
    if (failure_policy_.max_consecutive_rtos > 0) {
      wire_failure_detection(id, st);
    } else {
      st.sender->set_max_consecutive_rtos(0);
      st.sender->set_failure_handler(nullptr);
    }
  }
}

void MptcpEndpoint::wire_failure_detection(int path_id, PathState& st) {
  st.sender->set_max_consecutive_rtos(failure_policy_.max_consecutive_rtos);
  st.sender->set_failure_handler(
      [this, path_id] { on_subflow_failure(path_id); });
}

void MptcpEndpoint::on_subflow_failure(int path_id) {
  PathState& st = path_state(path_id);
  st.dead = true;
  ++subflow_failures_;
  if (telemetry_) subflow_failures_counter_.increment();
  // Reinjection preserves the original data_seq: if the "lost" original
  // actually arrived (only its ack died), the receiver's dedupe discards
  // the copy and connection-level accounting stays exact.
  std::vector<UnackedData> stranded = st.sender->take_unacked();
  reinjected_packets_ += stranded.size();
  if (telemetry_) {
    reinjections_counter_.add(static_cast<double>(stranded.size()));
  }
  for (auto& u : stranded) reinject_.push_back(std::move(u));
  if (failure_policy_.reprobe_interval > kDurationZero) {
    if (!loop_.rearm(st.reprobe_timer,
                     loop_.now() + failure_policy_.reprobe_interval)) {
      st.reprobe_timer = loop_.schedule_in(
          failure_policy_.reprobe_interval,
          [this, path_id] { revive_path(path_id); });
    }
  }
  try_send();
}

void MptcpEndpoint::revive_path(int path_id) {
  PathState& st = path_state(path_id);
  st.reprobe_timer = EventId{};
  if (!st.dead) return;
  st.dead = false;
  st.sender->reset_for_reconnect();
  ++subflow_revivals_;
  // The revived path immediately competes for data again; if it is still
  // dead the probe traffic re-kills it after another K RTOs.
  try_send();
}

void MptcpEndpoint::set_telemetry(Telemetry* telemetry) {
  telemetry_ = telemetry;
  for (auto& [id, st] : paths_) wire_sender_telemetry(st);
  if (telemetry_ && role_ == Role::kClient) {
    mask_changes_counter_ = telemetry_->metrics().counter("mptcp.mask_changes");
  } else {
    mask_changes_counter_ = Counter{};
  }
  if (telemetry_) {
    const std::string scope =
        role_ == Role::kServer ? "mptcp" : "mptcp.client";
    subflow_failures_counter_ =
        telemetry_->metrics().counter(scope + ".subflow_failures");
    reinjections_counter_ =
        telemetry_->metrics().counter(scope + ".reinjected_packets");
  } else {
    subflow_failures_counter_ = Counter{};
    reinjections_counter_ = Counter{};
  }
}

void MptcpEndpoint::wire_sender_telemetry(PathState& st) {
  // Server subflows carry the video data; their window trajectory is the
  // one worth tracing. Client senders only push requests/acks.
  const bool server = role_ == Role::kServer;
  st.sender->set_telemetry(
      telemetry_, server ? "mptcp.subflow" : "mptcp.client.subflow",
      /*emit_trace=*/server);
}

void MptcpEndpoint::set_scheduler(std::unique_ptr<MptcpScheduler> scheduler) {
  assert(scheduler != nullptr);
  scheduler_ = std::move(scheduler);
}

void MptcpEndpoint::send(WireData data, SpanId span) {
  if (span != 0) {
    for (SegmentRef& seg : data) seg.span = span;
  }
  send_buffer_.append(std::move(data));
  try_send();
}

void MptcpEndpoint::try_send() {
  if (in_try_send_) return;  // sender callbacks can re-enter via transmit
  in_try_send_ = true;
  // Reinjected data first (it is the oldest data the peer is waiting on),
  // then new stream data.
  while (!reinject_.empty() || !send_buffer_.empty()) {
    // Recovery data overrides the MP-DASH preference mask (§4.3 fallback
    // to vanilla MPTCP): the peer is head-of-line blocked on it, so any
    // live subflow may carry it.
    const bool vanilla = !reinject_.empty();
    std::vector<SubflowSnapshot> snaps;
    snaps.reserve(paths_.size());
    for (const auto& [id, st] : paths_) {
      if (st.dead) continue;  // a dead subflow can't carry anything
      SubflowSnapshot s;
      s.path_id = id;
      s.has_cwnd_space = st.sender->can_send();
      s.enabled = vanilla || ((send_mask_ >> id) & 1u);
      s.srtt = st.sender->srtt();
      snaps.push_back(s);
    }
    const int pick = scheduler_->select(snaps);
    if (pick < 0) break;
    PathState& st = path_state(pick);
    if (!reinject_.empty()) {
      UnackedData u = std::move(reinject_.front());
      reinject_.pop_front();
      st.sender->send_data(u.data_seq, u.payload_len, std::move(u.segments));
      continue;
    }
    WireData payload = send_buffer_.pull(kMaxSegmentSize);
    const Bytes len = wire_length(payload);
    const std::uint64_t seq = next_data_seq_;
    next_data_seq_ += static_cast<std::uint64_t>(len);
    st.sender->send_data(seq, len, std::move(payload));
  }
  in_try_send_ = false;
}

void MptcpEndpoint::on_packet(Packet p) {
  if (p.kind == PacketKind::kData) {
    handle_data(std::move(p));
  } else {
    handle_ack(p);
  }
}

void MptcpEndpoint::handle_data(Packet p) {
  send_ack(p, p.path_id);

  PathState& st = path_state(p.path_id);
  // Duplicate suppression: retransmits re-deliver identical ranges.
  const bool is_new = p.data_seq >= next_expected_ &&
                      !out_of_order_.contains(p.data_seq);
  if (is_new) {
    st.delivered_payload += p.payload_len;
    // The kernel predictor samples a subflow whenever it carries traffic
    // (the paper's HW predictor lives in the MPTCP stack, not in the
    // MP-DASH activation window); the sampler itself skips idle gaps.
    st.sampler->on_bytes(loop_.now(), p.payload_len);
    out_of_order_.emplace(p.data_seq, std::move(p.segments));
    deliver_in_order();
  }
}

void MptcpEndpoint::deliver_in_order() {
  while (true) {
    auto it = out_of_order_.find(next_expected_);
    if (it == out_of_order_.end()) break;
    WireData data = std::move(it->second);
    out_of_order_.erase(it);
    next_expected_ += static_cast<std::uint64_t>(wire_length(data));
    if (on_receive_) on_receive_(data);
  }
}

void MptcpEndpoint::send_ack(const Packet& data, int path_id) {
  Packet ack;
  ack.kind = PacketKind::kAck;
  ack.path_id = path_id;
  ack.wire_size = kAckWireSize;
  ack.ack_subflow_seq = data.subflow_seq;
  ack.echo_sent_at = data.sent_at;
  ack.echo_is_retransmit = data.is_retransmit;
  ack.dss_path_mask = signal_mask_;
  ack.dss_mask_version = signal_version_;
  ack.sent_at = loop_.now();
  path_state(path_id).transmit(ack);
}

void MptcpEndpoint::handle_ack(const Packet& p) {
  if (role_ == Role::kServer) {
    // Enforcement side of the split scheduler: the client's decision bit
    // arrives in the DSS option of every ack.
    if (p.dss_mask_version > applied_version_) {
      applied_version_ = p.dss_mask_version;
      if (p.dss_path_mask != send_mask_) {
        send_mask_ = p.dss_path_mask;
        try_send();
      }
    }
  }
  if (p.ack_subflow_seq != 0) {
    path_state(p.path_id).sender->on_ack(p);
  }
}

void MptcpEndpoint::signal_path_mask(std::uint32_t mask) {
  if (mask == signal_mask_) return;
  const std::uint32_t old_mask = signal_mask_;
  signal_mask_ = mask;
  ++signal_version_;
  if (telemetry_) {
    mask_changes_counter_.increment();
    if (telemetry_->tracing()) {
      TraceRecord r;
      r.at = loop_.now();
      r.type = TraceType::kPathMask;
      r.mask = mask;
      telemetry_->emit(r);
    }
  }
  update_sampler_modes();
  // The decision function lives in the client's own MPTCP stack, so the
  // client's outgoing data (requests) obeys the mask too.
  send_mask_ = mask;
  // Bare control acks push the change even when the connection is idle —
  // but only over paths enabled before *and* after the flip: touching a
  // path that is (or was just) disabled would wake the very radio the
  // decision tries to keep asleep, and its tail energy dwarfs the signal.
  std::uint32_t signal_paths = old_mask & mask;
  if (signal_paths == 0) signal_paths = mask;
  for (auto& [id, st] : paths_) {
    if (!((signal_paths >> id) & 1u)) continue;
    Packet ctrl;
    ctrl.kind = PacketKind::kAck;
    ctrl.path_id = id;
    ctrl.wire_size = kAckWireSize;
    ctrl.ack_subflow_seq = 0;
    ctrl.dss_path_mask = mask;
    ctrl.dss_mask_version = signal_version_;
    ctrl.sent_at = loop_.now();
    st.transmit(ctrl);
  }
  try_send();
}

void MptcpEndpoint::set_send_mask(std::uint32_t mask) {
  if (mask == send_mask_) return;
  send_mask_ = mask;
  try_send();
}

Bytes MptcpEndpoint::delivered_payload_bytes(int path_id) const {
  return path_state(path_id).delivered_payload;
}

Bytes MptcpEndpoint::delivered_payload_total() const {
  Bytes total = 0;
  for (const auto& [id, st] : paths_) total += st.delivered_payload;
  return total;
}

DataRate MptcpEndpoint::path_throughput_estimate(int path_id) const {
  return path_state(path_id).sampler->estimate();
}

DataRate MptcpEndpoint::aggregate_throughput_estimate() const {
  DataRate total = DataRate::bits_per_second(0);
  for (const auto& [id, st] : paths_) total = total + st.sampler->estimate();
  return total;
}

void MptcpEndpoint::set_sampling_active(bool active) {
  if (active == sampling_active_) return;
  sampling_active_ = active;
  loop_.cancel(sampler_timer_);
  sampler_timer_ = EventId{};
  update_sampler_modes();
  if (active) {
    // Restart interval boundaries "now" so the idle gap between transfers
    // is not misread as zero-throughput history.
    for (auto& [id, st] : paths_) st.sampler->resync(loop_.now());
    flush_samplers();
  }
}

void MptcpEndpoint::update_sampler_modes() {
  // A path's samples may lower its estimate only while a tracked transfer
  // is deliberately driving that path at full rate; otherwise the path is
  // app-limited and samples may only raise the estimate. On the
  // transition *into* the driven state, restart interval accounting: the
  // enable decision needs a round trip to produce packets, and counting
  // that in-flight gap as zero throughput would crater the estimate.
  for (auto& [id, st] : paths_) {
    const bool driven = sampling_active_ && ((signal_mask_ >> id) & 1u);
    if (driven && !st.sampler->can_lower()) st.sampler->resync(loop_.now());
    st.sampler->set_can_lower(driven);
  }
}

void MptcpEndpoint::flush_samplers() {
  if (!sampling_active_) return;
  for (auto& [id, st] : paths_) {
    // Only sample paths allowed to carry data; a deliberately disabled
    // path would otherwise record misleading zero-throughput intervals.
    if ((signal_mask_ >> id) & 1u) st.sampler->advance_to(loop_.now());
  }
  sampler_timer_ =
      loop_.schedule_in(kSamplerInterval, [this] { flush_samplers(); });
}

SubflowSender& MptcpEndpoint::subflow(int path_id) {
  return *path_state(path_id).sender;
}

const SubflowSender& MptcpEndpoint::subflow(int path_id) const {
  return *path_state(path_id).sender;
}

MptcpEndpoint::PathState& MptcpEndpoint::path_state(int path_id) {
  auto it = paths_.find(path_id);
  if (it == paths_.end()) throw std::out_of_range("unknown path id");
  return it->second;
}

const MptcpEndpoint::PathState& MptcpEndpoint::path_state(int path_id) const {
  auto it = paths_.find(path_id);
  if (it == paths_.end()) throw std::out_of_range("unknown path id");
  return it->second;
}

}  // namespace mpdash
