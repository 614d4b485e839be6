#pragma once
// A network path = forward + reverse link pair plus the user-facing
// metadata MP-DASH schedules on (interface kind, unit-data cost,
// preference order).

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

// One connection's view of a network path: a facade over a downlink and an
// uplink that the path's owner (a Scenario) builds and keeps. The facade
// stamps its flow id and path id on every packet it sends and registers
// its handlers in the links' per-flow tables, so the MPTCP stack above
// never sees that other flows may share the links. A lone connection is
// flow 0; fleet tenant i is flow i.
class NetPath {
 public:
  // `flow` must be unique per connection on these links and indexes their
  // per-flow tables; a negative id throws std::invalid_argument.
  // `down_shaper` (borrowed, may be null) is a throttle that downlink
  // packets pass before they reach `down`.
  NetPath(PathDescription desc, Link& down, Link& up, int flow,
          TokenBucketShaper* down_shaper = nullptr);

  const PathDescription& description() const { return desc_; }
  int id() const { return desc_.id; }
  int flow() const { return flow_; }

  // Entry points: packets from the server side (data) / client side (ACKs,
  // requests).
  void send_downlink(Packet p);
  void send_uplink(Packet p);

  void set_downlink_deliver(Link::DeliverHandler h);
  void set_uplink_deliver(Link::DeliverHandler h);

  Link& downlink() { return *down_; }
  Link& uplink() { return *up_; }
  const Link& downlink() const { return *down_; }
  const Link& uplink() const { return *up_; }
  Duration base_rtt() const;
  // Wire bytes this flow took off both links (its per-flow slices).
  Bytes delivered_wire_bytes() const;

 private:
  PathDescription desc_;
  Link* down_;
  Link* up_;
  int flow_;
  TokenBucketShaper* down_shaper_;
};

}  // namespace mpdash
