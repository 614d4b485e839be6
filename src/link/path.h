#pragma once
// A network path = forward + reverse link pair plus the user-facing
// metadata MP-DASH schedules on (interface kind, unit-data cost,
// preference order).

#include <memory>
#include <optional>
#include <string>

#include "link/link.h"
#include "link/shaper.h"

namespace mpdash {

enum class InterfaceKind : std::uint8_t {
  kWifi,
  kCellular,
  kOther,
};

inline const char* to_string(InterfaceKind k) {
  switch (k) {
    case InterfaceKind::kWifi: return "wifi";
    case InterfaceKind::kCellular: return "cellular";
    default: return "other";
  }
}

struct PathDescription {
  int id = 0;
  std::string name;
  InterfaceKind kind = InterfaceKind::kOther;
  // Unit-data cost c(i) from the paper's formulation; lower = preferred.
  // WiFi defaults to free, cellular to metered.
  double unit_cost = 0.0;
  bool metered = false;
};

struct PathEndpointsConfig {
  PathDescription description;
  BandwidthTrace downlink_rate;   // server -> client (video data)
  BandwidthTrace uplink_rate;     // client -> server (requests, ACKs)
  Duration one_way_delay = milliseconds(25);
  Bytes queue_capacity = 192 * 1000;
  double random_loss = 0.0;
  QueueDiscipline discipline = QueueDiscipline::kFifo;  // both links
  // Bursty loss on the downlink (the direction interference hurts most);
  // uplinks keep i.i.d.-only loss.
  std::optional<GilbertElliottConfig> downlink_ge_loss;
  // Base seed for the path's loss streams; each link derives its own via
  // derive_stream_seed(loss_seed, ".down"/".up").
  std::uint64_t loss_seed = 0;
  // Optional throttle applied to the downlink (Table 4's strawman).
  std::optional<ShaperConfig> downlink_shaper;
};

// Realizes one path over a forward + reverse link pair. Two modes:
//  - owning (the classic single-tenant shape): constructs and owns both
//    links from a PathEndpointsConfig;
//  - shared (fleet workloads): a facade over externally-owned links that
//    multiple sessions contend on. Packets are stamped with the session's
//    flow id and deliveries demux through Link's per-flow handlers, so the
//    MPTCP stack above is oblivious to the sharing.
class NetPath {
 public:
  NetPath(EventLoop& loop, PathEndpointsConfig config);
  // Shared mode. `flow` must be unique per tenant on these links and is
  // an index into their flat per-flow tables (tenant index, 0..N-1); a
  // negative id throws std::invalid_argument. The caller owns the links
  // and wires their telemetry; this facade only stamps and demuxes.
  NetPath(PathDescription desc, Link& shared_down, Link& shared_up, int flow);

  const PathDescription& description() const { return desc_; }
  int id() const { return desc_.id; }
  int flow() const { return flow_; }
  bool shared() const { return !owned_down_; }

  // Entry points: packets from the server side (data) / client side (ACKs,
  // requests).
  void send_downlink(Packet p);
  void send_uplink(Packet p);

  void set_downlink_deliver(Link::DeliverHandler h);
  void set_uplink_deliver(Link::DeliverHandler h);
  // Wires telemetry into both links and the optional shaper. No-op in
  // shared mode: the link owner wires shared links exactly once.
  void set_telemetry(Telemetry* telemetry);

  Link& downlink() { return *down_; }
  Link& uplink() { return *up_; }
  const Link& downlink() const { return *down_; }
  const Link& uplink() const { return *up_; }
  Duration base_rtt() const;
  // Wire bytes this path's tenant put on / took off the links. In owning
  // mode these are the whole-link counters; in shared mode the per-flow
  // slices.
  Bytes delivered_wire_bytes() const;

 private:
  PathDescription desc_;
  std::unique_ptr<Link> owned_down_;
  std::unique_ptr<Link> owned_up_;
  Link* down_ = nullptr;
  Link* up_ = nullptr;
  int flow_ = 0;
  std::unique_ptr<TokenBucketShaper> down_shaper_;
};

}  // namespace mpdash
