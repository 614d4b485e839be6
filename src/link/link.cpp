#include "link/link.h"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace mpdash {

Link::Link(EventLoop& loop, LinkConfig config)
    : loop_(loop), config_(std::move(config)), rng_(config_.loss_seed) {
  if (config_.name.empty()) {
    config_.name = "link" + std::to_string(config_.id);
  }
  if (config_.ge_loss) ge_.emplace(*config_.ge_loss);
  if (config_.fq_quantum < 1) config_.fq_quantum = 1;
}

Link::Flow& Link::flow_state(int flow) {
  if (flow < 0) {
    throw std::invalid_argument("link " + config_.name +
                                ": negative flow id " + std::to_string(flow));
  }
  const auto index = static_cast<std::size_t>(flow);
  if (index >= flows_.size()) flows_.resize(index + 1);
  return flows_[index];
}

const Link::Flow* Link::find_flow(int flow) const {
  if (flow < 0 || static_cast<std::size_t>(flow) >= flows_.size()) {
    return nullptr;
  }
  return &flows_[static_cast<std::size_t>(flow)];
}

void Link::set_flow_deliver(int flow, DeliverHandler h) {
  flow_state(flow).deliver = std::move(h);
}

Bytes Link::delivered_bytes_for_flow(int flow) const {
  const Flow* f = find_flow(flow);
  return f ? f->delivered : 0;
}

Bytes Link::dropped_bytes_for_flow(int flow) const {
  const Flow* f = find_flow(flow);
  return f ? f->dropped : 0;
}

Bytes Link::queued_bytes_for_flow(int flow) const {
  const Flow* f = find_flow(flow);
  return f ? f->queued : 0;
}

void Link::set_telemetry(Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (!telemetry_) {
    queue_gauge_ = Gauge{};
    delivered_bytes_counter_ = Counter{};
    delivered_packets_counter_ = Counter{};
    dropped_packets_counter_ = Counter{};
    return;
  }
  MetricsRegistry& m = telemetry_->metrics();
  const std::string prefix = "link." + config_.name;
  queue_gauge_ = m.gauge(prefix + ".queue_bytes");
  delivered_bytes_counter_ = m.counter(prefix + ".delivered_bytes");
  delivered_packets_counter_ = m.counter(prefix + ".delivered_packets");
  dropped_packets_counter_ = m.counter(prefix + ".dropped_packets");
}

void Link::emit_packet(TraceType type, const Packet& p) const {
  TraceRecord r;
  r.at = loop_.now();
  r.type = type;
  r.span = p.span;
  r.path_id = p.path_id;
  r.link_id = config_.id;
  r.kind = p.kind;
  r.wire_size = p.wire_size;
  r.payload_len = p.payload_len;
  r.data_seq = p.data_seq;
  r.retransmit = p.is_retransmit;
  if (type == TraceType::kPacketDeliver && telemetry_->capture_payload() &&
      p.kind == PacketKind::kData && p.payload_len > 0) {
    r.segments = p.segments;
  }
  telemetry_->emit(r);
}

void Link::drop_packet(const Packet& p) {
  dropped_bytes_ += p.wire_size;
  ++dropped_packets_;
  flow_state(p.flow).dropped += p.wire_size;
  if (telemetry_) {
    dropped_packets_counter_.increment();
    if (telemetry_->tracing()) emit_packet(TraceType::kPacketDrop, p);
  }
}

double Link::draw_uniform() {
  return loss_rng_ ? loss_rng_() : rng_.uniform();
}

bool Link::loss_model_drops() {
  // Fixed draw order (i.i.d. first, then the GE pair) so a given seed maps
  // to one loss pattern regardless of which models are active elsewhere.
  bool drop = false;
  if (config_.random_loss > 0.0 && draw_uniform() < config_.random_loss) {
    drop = true;
  }
  if (ge_) {
    const double u_loss = draw_uniform();
    const double u_flip = draw_uniform();
    if (ge_->step(u_loss, u_flip)) drop = true;
  }
  return drop;
}

void Link::send(Packet p) {
  if (telemetry_ && telemetry_->tracing()) {
    emit_packet(TraceType::kPacketSend, p);
  }
  if (config_.discipline == QueueDiscipline::kFairQueue) {
    if (down_ || loss_model_drops()) {
      drop_packet(p);
      return;
    }
    fq_enqueue(std::move(p));
    if (telemetry_) queue_gauge_.set(static_cast<double>(queued_bytes_));
    if (!busy_ && has_backlog()) start_serializing();
    return;
  }
  if (down_ || loss_model_drops() ||
      queued_bytes_ + p.wire_size > config_.queue_capacity) {
    drop_packet(p);
    return;
  }
  queued_bytes_ += p.wire_size;
  if (telemetry_) queue_gauge_.set(static_cast<double>(queued_bytes_));
  queue_.push_back(std::move(p));
  if (!busy_) start_serializing();
}

int Link::fq_victim() const {
  // Flow with the most queued bytes; ties break toward the lowest id so the
  // choice is deterministic.
  int victim = -1;
  Bytes most = 0;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    if (flows_[i].queued > most) {
      most = flows_[i].queued;
      victim = static_cast<int>(i);
    }
  }
  return victim;
}

void Link::fq_deactivate(int flow) {
  Flow& f = flows_[static_cast<std::size_t>(flow)];
  f.queue.clear();
  f.queued = 0;
  f.deficit = 0;
  if (fq_credited_flow_ == flow) fq_credited_flow_ = -1;
  for (auto it = active_flows_.begin(); it != active_flows_.end(); ++it) {
    if (*it == flow) {
      active_flows_.erase(it);
      break;
    }
  }
}

void Link::fq_enqueue(Packet p) {
  // Longest-queue drop: when the shared buffer is full, the flow holding
  // the most bytes pays, so one aggressive tenant cannot squeeze the rest
  // out of the buffer. If the arriving flow already holds the largest share
  // (or the buffer cannot fit the packet at all), the arrival is the drop.
  while (queued_bytes_ + p.wire_size > config_.queue_capacity) {
    const int victim = fq_victim();
    if (victim < 0 || queued_bytes_for_flow(victim) <=
                          queued_bytes_for_flow(p.flow)) {
      drop_packet(p);
      return;
    }
    Flow& v = flows_[static_cast<std::size_t>(victim)];
    Packet shed = std::move(v.queue.back());
    v.queue.pop_back();
    queued_bytes_ -= shed.wire_size;
    v.queued -= shed.wire_size;
    if (v.queue.empty()) fq_deactivate(victim);
    drop_packet(shed);
  }
  Flow& f = flow_state(p.flow);
  queued_bytes_ += p.wire_size;
  f.queued += p.wire_size;
  if (f.queue.empty()) {
    active_flows_.push_back(p.flow);
    f.deficit = 0;
  }
  f.queue.push_back(std::move(p));
}

Packet Link::fq_dequeue() {
  // Deficit round-robin: each time a flow reaches the head of the active
  // ring it earns one quantum; it sends while its deficit covers the head
  // packet, then rotates to the back keeping the remainder. The credit is
  // per *visit* (`fq_credited_flow_`), never re-added while the flow holds
  // the head — otherwise a backlogged flow with packets smaller than the
  // quantum would top up forever and drain completely before rotating,
  // collapsing DRR into per-burst FIFO. A drained flow forfeits its
  // deficit.
  for (;;) {
    assert(!active_flows_.empty());
    const int flow = active_flows_.front();
    Flow& f = flows_[static_cast<std::size_t>(flow)];
    assert(!f.queue.empty());
    if (fq_credited_flow_ != flow) {
      f.deficit += config_.fq_quantum;
      fq_credited_flow_ = flow;
    }
    if (f.deficit < f.queue.front().wire_size) {
      // Out of credit this round; the next visit earns a fresh quantum
      // (clearing the marker also lets a lone flow re-credit until it can
      // afford a packet larger than one quantum).
      active_flows_.pop_front();
      active_flows_.push_back(flow);
      fq_credited_flow_ = -1;
      continue;
    }
    Packet p = std::move(f.queue.front());
    f.queue.pop_front();
    f.deficit -= p.wire_size;
    f.queued -= p.wire_size;
    if (f.queue.empty()) fq_deactivate(flow);
    return p;
  }
}

bool Link::has_backlog() const {
  if (serializing_) return true;
  return config_.discipline == QueueDiscipline::kFairQueue
             ? !active_flows_.empty()
             : !queue_.empty();
}

void Link::set_down(bool down) {
  down_ = down;
  if (!down_) return;
  // Everything still waiting behind the radio is lost with it. The packet
  // currently serializing (queue front while busy_, or serializing_ under
  // fair queueing) is dropped when its serialization completes; packets
  // already propagating still arrive.
  if (config_.discipline == QueueDiscipline::kFairQueue) {
    // Deterministic drop order: flows ascending, each front-to-back.
    for (Flow& f : flows_) {
      for (Packet& p : f.queue) {
        queued_bytes_ -= p.wire_size;
        drop_packet(p);
      }
      f.queue.clear();
      f.queued = 0;
      f.deficit = 0;
    }
    active_flows_.clear();
  } else {
    const std::size_t keep = busy_ ? 1 : 0;
    while (queue_.size() > keep) {
      Packet p = std::move(queue_.back());
      queue_.pop_back();
      queued_bytes_ -= p.wire_size;
      drop_packet(p);
    }
  }
  if (telemetry_) queue_gauge_.set(static_cast<double>(queued_bytes_));
}

void Link::set_rate_factor(double factor) {
  rate_factor_ = factor > 0.0 ? factor : 0.0;
}

void Link::set_ge_loss(const std::optional<GilbertElliottConfig>& ge) {
  config_.ge_loss = ge;
  if (ge) {
    ge_.emplace(*ge);
  } else {
    ge_.reset();
  }
}

void Link::start_serializing() {
  // Under fair queueing the DRR pick is committed here: the packet moves
  // into serializing_ (it still occupies buffer bytes until it leaves the
  // radio). Under FIFO the front of queue_ is the implicit pick.
  if (config_.discipline == QueueDiscipline::kFairQueue && !serializing_) {
    serializing_ = fq_dequeue();
  }
  assert(serializing_ || !queue_.empty());
  busy_ = true;
  const Bytes wire =
      serializing_ ? serializing_->wire_size : queue_.front().wire_size;
  // A factor-f rate scale is equivalent to serializing wire_size/f bytes at
  // the unscaled trace rate; factor 0 behaves like a zero-rate tail.
  TimePoint done = TimePoint::max();
  if (rate_factor_ > 0.0) {
    const auto scaled = static_cast<Bytes>(
        std::ceil(static_cast<double>(wire) / rate_factor_));
    done = config_.rate.time_to_deliver(loop_.now(), scaled);
  }
  if (done == TimePoint::max()) {
    // Zero-rate tail: the packet is stuck; retry after a coarse interval so
    // looped/step traces (or a restored rate factor) can resume.
    loop_.schedule_in(milliseconds(100), [this] {
      busy_ = false;
      if (has_backlog()) start_serializing();
    });
    return;
  }
  loop_.schedule_at(done, [this] { on_serialized(); });
}

void Link::on_serialized() {
  Packet p;
  if (serializing_) {
    p = std::move(*serializing_);
    serializing_.reset();
  } else {
    assert(!queue_.empty());
    p = std::move(queue_.front());
    queue_.pop_front();
  }
  queued_bytes_ -= p.wire_size;
  if (telemetry_) queue_gauge_.set(static_cast<double>(queued_bytes_));

  if (down_) {
    // The link died while this packet was on the radio.
    drop_packet(p);
  } else {
    loop_.schedule_in(config_.propagation_delay + extra_delay_,
                      [this, p = std::move(p)]() mutable {
                        delivered_bytes_ += p.wire_size;
                        ++delivered_packets_;
                        Flow& f = flow_state(p.flow);
                        f.delivered += p.wire_size;
                        if (telemetry_) {
                          delivered_bytes_counter_.add(
                              static_cast<double>(p.wire_size));
                          delivered_packets_counter_.increment();
                          if (telemetry_->tracing()) {
                            emit_packet(TraceType::kPacketDeliver, p);
                          }
                        }
                        if (f.deliver) f.deliver(std::move(p));
                      });
  }

  busy_ = false;
  if (has_backlog()) start_serializing();
}

}  // namespace mpdash
