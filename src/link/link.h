#pragma once
// One-way link with a time-varying rate, propagation delay, and a drop-tail
// queue — the simulator's equivalent of a shaped WiFi or LTE hop.
//
// Every packet carries a flow id, and a link delivers through one per-flow
// table: each flow has its own delivery handler and byte accounting. A
// lone connection is flow 0; fleet tenant i is flow i on the same links.
//
// Besides the static configuration, a link exposes a dynamic impairment
// surface (down/up, rate scaling, extra latency, loss-model swaps) that the
// fault-injection layer (src/fault) drives at scheduled times to reproduce
// the hostile conditions of the paper's field study: AP blackouts, bursty
// interference, and abrupt capacity collapse.

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "link/loss.h"
#include "link/packet.h"
#include "sim/event_loop.h"
#include "trace/bandwidth_trace.h"
#include "util/rng.h"

namespace mpdash {

// How the link arbitrates between flows sharing its queue. kFifo is the
// single-tenant default (one drop-tail queue, arrival order); kFairQueue is
// deficit-round-robin over per-flow queues with longest-queue drop, so one
// aggressive tenant can neither starve the serializer nor steal the whole
// buffer.
enum class QueueDiscipline : std::uint8_t {
  kFifo = 0,
  kFairQueue = 1,
};

inline const char* to_string(QueueDiscipline d) {
  return d == QueueDiscipline::kFairQueue ? "fq" : "fifo";
}

struct LinkConfig {
  int id = 0;
  std::string name;                          // metric key; "link{id}" if empty
  BandwidthTrace rate;                       // serialization capacity
  Duration propagation_delay = milliseconds(25);  // one-way
  Bytes queue_capacity = 192 * 1000;         // drop-tail buffer
  double random_loss = 0.0;                  // extra i.i.d. loss probability
  // Bursty-loss channel (Gilbert–Elliott); composes with random_loss.
  std::optional<GilbertElliottConfig> ge_loss;
  // Seed of the link's private loss stream. Every link owns its own Rng so
  // loss on one link can never perturb another's draws (the seed tests
  // shared one RNG across links, coupling their loss patterns).
  std::uint64_t loss_seed = 0;
  // Multi-tenant arbitration (fleet workloads). kFifo preserves the
  // single-tenant behavior bit-for-bit.
  QueueDiscipline discipline = QueueDiscipline::kFifo;
  // DRR quantum: bytes a flow earns each time it reaches the head of the
  // active ring. >= one MTU gives packet-by-packet round robin.
  Bytes fq_quantum = 1500;
};

class Link {
 public:
  using DeliverHandler = std::function<void(Packet)>;

  Link(EventLoop& loop, LinkConfig config);

  // Offers a packet to the link. Queue overflow (or random loss) silently
  // drops it, exactly as a real bottleneck would — senders learn via
  // missing ACKs.
  void send(Packet p);

  // Delivery demux: packets stamped with `flow` go to that flow's handler;
  // a flow with no handler is counted and discarded. Flow ids index a flat
  // table (connection index, 0..N-1); a negative id throws
  // std::invalid_argument. Register handlers before traffic flows: growing
  // the table from inside one of this link's handlers would move the
  // handler that is running.
  void set_flow_deliver(int flow, DeliverHandler h);
  // Test hook: overrides the link's own loss stream with an external
  // uniform-draw source (used to script exact drop positions).
  void set_loss_rng(std::function<double()> uniform) {
    loss_rng_ = std::move(uniform);
  }

  // --- dynamic impairments (fault-injection surface) -------------------
  // While down, every packet offered or finishing serialization is lost;
  // packets already propagating still arrive (they are past the radio).
  void set_down(bool down);
  bool is_down() const { return down_; }
  // Scales the instantaneous trace rate by `factor` (rate collapse /
  // recovery). Applies to serializations started after the call.
  void set_rate_factor(double factor);
  double rate_factor() const { return rate_factor_; }
  // Extra one-way latency added on top of the propagation delay (RTT
  // spike). Applies to deliveries scheduled after the call.
  void set_extra_delay(Duration extra) { extra_delay_ = extra; }
  Duration extra_delay() const { return extra_delay_; }
  double random_loss() const { return config_.random_loss; }
  // Installs/clears the Gilbert–Elliott burst model at runtime. The chain
  // restarts in the Good state.
  void set_ge_loss(const std::optional<GilbertElliottConfig>& ge);

  // Attaches telemetry: packet send/deliver/drop trace records plus
  // `link.{name}.*` queue/delivery metrics. Pass nullptr to detach.
  void set_telemetry(Telemetry* telemetry);

  int id() const { return config_.id; }
  const std::string& name() const { return config_.name; }
  Duration propagation_delay() const { return config_.propagation_delay; }

  Bytes queued_bytes() const { return queued_bytes_; }
  Bytes delivered_bytes() const { return delivered_bytes_; }
  Bytes dropped_bytes() const { return dropped_bytes_; }
  std::size_t delivered_packets() const { return delivered_packets_; }
  std::size_t dropped_packets() const { return dropped_packets_; }
  // Per-flow wire-byte attribution; 0 for a flow the link has never seen.
  Bytes delivered_bytes_for_flow(int flow) const;
  Bytes dropped_bytes_for_flow(int flow) const;
  Bytes queued_bytes_for_flow(int flow) const;
  QueueDiscipline discipline() const { return config_.discipline; }

 private:
  // Everything the link keeps per flow. A flow is active iff its queue is
  // non-empty; a drained flow keeps its (cleared) deque for reuse.
  struct Flow {
    std::deque<Packet> queue;  // kFairQueue backlog
    Bytes queued = 0;          // bytes in `queue`
    Bytes deficit = 0;         // DRR credit
    DeliverHandler deliver;
    Bytes delivered = 0;
    Bytes dropped = 0;
  };

  // The flow's state, growing the table to cover `flow`.
  Flow& flow_state(int flow);
  // The flow's state if the table covers it, else nullptr.
  const Flow* find_flow(int flow) const;
  void start_serializing();
  void on_serialized();
  void drop_packet(const Packet& p);
  bool loss_model_drops();
  double draw_uniform();
  void emit_packet(TraceType type, const Packet& p) const;
  bool has_backlog() const;
  void fq_enqueue(Packet p);
  Packet fq_dequeue();
  int fq_victim() const;
  void fq_deactivate(int flow);

  EventLoop& loop_;
  LinkConfig config_;
  std::function<double()> loss_rng_;  // optional test override
  Rng rng_;
  std::optional<GilbertElliottLoss> ge_;

  std::deque<Packet> queue_;  // kFifo backlog (front = serializing when busy)
  // Per-flow state indexed by flow id: kFairQueue backlogs and DRR
  // deficits, delivery handlers and byte attribution. The packet being
  // serialized is extracted into serializing_ but still counts toward
  // queued_bytes_ (it occupies the buffer until it leaves the radio).
  std::vector<Flow> flows_;
  std::deque<int> active_flows_;  // DRR ring of flows with a backlog
  int fq_credited_flow_ = -1;  // front flow already credited this visit
  std::optional<Packet> serializing_;

  Bytes queued_bytes_ = 0;
  bool busy_ = false;
  bool down_ = false;
  double rate_factor_ = 1.0;
  Duration extra_delay_ = kDurationZero;

  Bytes delivered_bytes_ = 0;
  Bytes dropped_bytes_ = 0;
  std::size_t delivered_packets_ = 0;
  std::size_t dropped_packets_ = 0;

  Telemetry* telemetry_ = nullptr;
  Gauge queue_gauge_;
  Counter delivered_bytes_counter_;
  Counter delivered_packets_counter_;
  Counter dropped_packets_counter_;
};

}  // namespace mpdash
