#include "exp/scenario.h"

#include <stdexcept>
#include <string>
#include <utility>

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
  // link's loss stream derives from the scenario seed under its
  // interface's name and direction.
  auto add_interface = [this](int id, const char* name, InterfaceKind kind,
                              const BandwidthTrace& down, DataRate up,
                              Duration rtt,
                              const std::optional<GilbertElliottConfig>& ge) {
    descs_.push_back({id, name, kind, config_.policy.cost_for(kind),
                      kind == InterfaceKind::kCellular});
    const std::uint64_t seed = derive_stream_seed(config_.seed, name);
    for (const bool downlink : {true, false}) {
      LinkConfig l;
      l.id = id * 2 + (downlink ? 0 : 1);
      l.name = std::string(name) + (downlink ? ".down" : ".up");
      l.rate = downlink ? down : BandwidthTrace::constant(up);
      l.propagation_delay = rtt / 2;
      l.queue_capacity = config_.queue_capacity;
      l.random_loss = config_.random_loss;
      // Bursty loss hits the downlink, the direction interference hurts
      // most; uplinks keep i.i.d.-only loss.
      if (downlink) l.ge_loss = ge;
      l.loss_seed = derive_stream_seed(seed, downlink ? ".down" : ".up");
      l.discipline = config_.discipline;
      links_.emplace_back(loop_, std::move(l));
    }
  };
  add_interface(kWifiPathId, "wifi", InterfaceKind::kWifi, config_.wifi_down,
                config_.wifi_up, config_.wifi_rtt, config_.wifi_ge_loss);
  if (config_.wifi_only) return;
  add_interface(kCellularPathId, "lte", InterfaceKind::kCellular,
                config_.lte_down, config_.lte_up, config_.lte_rtt,
                config_.lte_ge_loss);
  if (config_.lte_throttle) {
    ShaperConfig throttle = *config_.lte_throttle;
    throttle.name = "lte";
    lte_throttle_.emplace(loop_, std::move(throttle));
    Link& lte_down = links_[2 * kCellularPathId];
    lte_throttle_->set_forward_handler(
        [&lte_down](Packet p) { lte_down.send(std::move(p)); });
  }
}

std::vector<NetPath*> Scenario::paths(int flow) {
  if (flow < 0) {
    throw std::invalid_argument("scenario: negative flow id " +
                                std::to_string(flow));
  }
  const std::size_t n = descs_.size();
  const std::size_t first = static_cast<std::size_t>(flow) * n;
  while (facades_.size() < first + n) {
    const std::size_t k = facades_.size() % n;
    const bool throttled = descs_[k].id == kCellularPathId && lte_throttle_;
    facades_.emplace_back(descs_[k], links_[2 * k], links_[2 * k + 1],
                          static_cast<int>(facades_.size() / n),
                          throttled ? &*lte_throttle_ : nullptr);
  }
  std::vector<NetPath*> out;
  for (std::size_t k = 0; k < n; ++k) out.push_back(&facades_[first + k]);
  return out;
}

void Scenario::set_telemetry(Telemetry* telemetry) {
  loop_.set_telemetry(telemetry);
  for (Link& link : links_) link.set_telemetry(telemetry);
  if (lte_throttle_) lte_throttle_->set_telemetry(telemetry);
}

Bytes Scenario::wifi_bytes() const {
  return links_[0].delivered_bytes() + links_[1].delivered_bytes();
}

Bytes Scenario::cellular_bytes() const {
  if (config_.wifi_only) return 0;
  return links_[2].delivered_bytes() + links_[3].delivered_bytes();
}

}  // namespace mpdash
