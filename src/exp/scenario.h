#pragma once
// Network scenario construction: WiFi + LTE path pair (or WiFi alone)
// with configurable bandwidth traces, RTTs, and the optional cellular
// throttle of Table 4.

#include <deque>
#include <optional>
#include <vector>

#include "core/policy.h"
#include "link/path.h"
#include "sim/event_loop.h"

namespace mpdash {

inline constexpr int kWifiPathId = 0;
inline constexpr int kCellularPathId = 1;

struct ScenarioConfig {
  BandwidthTrace wifi_down;
  BandwidthTrace lte_down;
  // Uplinks default to generous fixed rates (requests + acks only).
  DataRate wifi_up = DataRate::mbps(10.0);
  DataRate lte_up = DataRate::mbps(8.0);
  Duration wifi_rtt = milliseconds(50);   // paper's Dummynet setting
  Duration lte_rtt = milliseconds(55);    // commercial LTE, 50-60 ms
  Bytes queue_capacity = 192 * 1000;
  double random_loss = 0.0;  // extra i.i.d. loss on every link
  // Arbitration on every link; fleet topologies share the links between
  // tenants and default to fair queueing (see FleetConfig).
  QueueDiscipline discipline = QueueDiscipline::kFifo;
  // Bursty downlink loss (Gilbert–Elliott); per interface so a noisy WiFi
  // AP can coexist with a clean LTE carrier.
  std::optional<GilbertElliottConfig> wifi_ge_loss;
  std::optional<GilbertElliottConfig> lte_ge_loss;
  // Scenario seed. Each link draws loss from its own stream derived as
  // derive_stream_seed(seed, "wifi"/"lte" + ".down"/".up"), so loss on one
  // link never perturbs another's pattern.
  std::uint64_t seed = 1;
  // Table 4 strawman; the Scenario names it "lte" whatever its `name`.
  std::optional<ShaperConfig> lte_throttle;
  PathPolicy policy = prefer_wifi_policy();
  bool wifi_only = false;  // single-path baseline (Figure 11 bottom)
};

struct LocationProfile;

// Convenience constructors for common setups.
ScenarioConfig constant_scenario(DataRate wifi_mbps, DataRate lte_mbps);
// A field-study location: its WiFi/LTE bandwidth traces over `horizon`
// and its measured RTTs.
ScenarioConfig location_scenario(const LocationProfile& loc,
                                 Duration horizon);

// Owns the event loop and the network of one experiment run: the wifi and
// lte down/up links (link id = 2 × path id, +1 for the uplink; names
// "wifi.down", "wifi.up", "lte.down", "lte.up") and the optional lte
// throttle in front of the lte downlink (metrics `shaper.lte.*`).
// Connections ride the links through per-flow NetPath facades: a single
// session is flow 0, fleet tenant i is flow i.
class Scenario {
 public:
  explicit Scenario(ScenarioConfig config);

  EventLoop& loop() { return loop_; }
  // Flow `flow`'s facades, wifi first. Each flow's facades are built on
  // first request and live as long as the scenario; request every flow
  // before traffic starts. A negative flow throws std::invalid_argument.
  std::vector<NetPath*> paths(int flow = 0);
  const ScenarioConfig& config() const { return config_; }

  // Wires telemetry into the event loop, every link and the throttle.
  // nullptr detaches.
  void set_telemetry(Telemetry* telemetry);

  // Bytes that crossed each interface (both directions, every flow).
  Bytes wifi_bytes() const;
  Bytes cellular_bytes() const;

 private:
  ScenarioConfig config_;
  EventLoop loop_;
  std::vector<PathDescription> descs_;  // wifi, then lte unless wifi_only
  std::deque<Link> links_;              // indexed by link id
  std::optional<TokenBucketShaper> lte_throttle_;
  std::deque<NetPath> facades_;  // flow-major: flow f, path k at f·n + k
};

}  // namespace mpdash
