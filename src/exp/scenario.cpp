#include "exp/scenario.h"

#include "trace/locations.h"

namespace mpdash {

ScenarioConfig constant_scenario(DataRate wifi_mbps, DataRate lte_mbps) {
  ScenarioConfig cfg;
  cfg.wifi_down = BandwidthTrace::constant(wifi_mbps);
  cfg.lte_down = BandwidthTrace::constant(lte_mbps);
  return cfg;
}

ScenarioConfig location_scenario(const LocationProfile& loc,
                                 Duration horizon) {
  ScenarioConfig cfg;
  cfg.wifi_down = loc.wifi_trace(horizon);
  cfg.lte_down = loc.lte_trace(horizon);
  cfg.wifi_rtt = loc.wifi_rtt;
  cfg.lte_rtt = loc.lte_rtt;
  return cfg;
}

Scenario::Scenario(ScenarioConfig config) : config_(std::move(config)) {
  // Both interfaces share the queue, loss and discipline settings; each
  // path's loss streams derive from the scenario seed under its own name.
  auto endpoints = [this](int id, const char* name, InterfaceKind kind,
                          const BandwidthTrace& down, DataRate up,
                          Duration rtt,
                          const std::optional<GilbertElliottConfig>& ge) {
    PathEndpointsConfig p;
    p.description.id = id;
    p.description.name = name;
    p.description.kind = kind;
    p.description.metered = kind == InterfaceKind::kCellular;
    p.description.unit_cost = config_.policy.cost_for(kind);
    p.downlink_rate = down;
    p.uplink_rate = BandwidthTrace::constant(up);
    p.one_way_delay = rtt / 2;
    p.queue_capacity = config_.queue_capacity;
    p.random_loss = config_.random_loss;
    p.discipline = config_.discipline;
    p.downlink_ge_loss = ge;
    p.loss_seed = derive_stream_seed(config_.seed, name);
    return p;
  };
  wifi_ = std::make_unique<NetPath>(
      loop_, endpoints(kWifiPathId, "wifi", InterfaceKind::kWifi,
                       config_.wifi_down, config_.wifi_up, config_.wifi_rtt,
                       config_.wifi_ge_loss));
  if (!config_.wifi_only) {
    PathEndpointsConfig lte = endpoints(
        kCellularPathId, "lte", InterfaceKind::kCellular, config_.lte_down,
        config_.lte_up, config_.lte_rtt, config_.lte_ge_loss);
    lte.downlink_shaper = config_.lte_throttle;
    lte_ = std::make_unique<NetPath>(loop_, std::move(lte));
  }
}

std::vector<NetPath*> Scenario::paths() {
  std::vector<NetPath*> out{wifi_.get()};
  if (lte_) out.push_back(lte_.get());
  return out;
}

void Scenario::set_telemetry(Telemetry* telemetry) {
  loop_.set_telemetry(telemetry);
  wifi_->set_telemetry(telemetry);
  if (lte_) lte_->set_telemetry(telemetry);
}

Bytes Scenario::wifi_bytes() const {
  return wifi_->downlink().delivered_bytes() +
         wifi_->uplink().delivered_bytes();
}

Bytes Scenario::cellular_bytes() const {
  if (!lte_) return 0;
  return lte_->downlink().delivered_bytes() + lte_->uplink().delivered_bytes();
}

}  // namespace mpdash
