#include "link/path.h"

#include <stdexcept>
#include <string>
#include <utility>

namespace mpdash {

NetPath::NetPath(EventLoop& loop, PathEndpointsConfig config)
    : desc_(config.description) {
  LinkConfig down;
  down.id = desc_.id * 2;  // even ids: downlink, odd ids: uplink
  down.name = desc_.name.empty() ? "" : desc_.name + ".down";
  down.rate = std::move(config.downlink_rate);
  down.propagation_delay = config.one_way_delay;
  down.queue_capacity = config.queue_capacity;
  down.random_loss = config.random_loss;
  down.ge_loss = config.downlink_ge_loss;
  down.loss_seed = derive_stream_seed(config.loss_seed, ".down");
  down.discipline = config.discipline;
  owned_down_ = std::make_unique<Link>(loop, std::move(down));

  LinkConfig up;
  up.id = desc_.id * 2 + 1;
  up.name = desc_.name.empty() ? "" : desc_.name + ".up";
  up.rate = std::move(config.uplink_rate);
  up.propagation_delay = config.one_way_delay;
  up.queue_capacity = config.queue_capacity;
  up.random_loss = config.random_loss;
  up.loss_seed = derive_stream_seed(config.loss_seed, ".up");
  up.discipline = config.discipline;
  owned_up_ = std::make_unique<Link>(loop, std::move(up));
  down_ = owned_down_.get();
  up_ = owned_up_.get();

  if (config.downlink_shaper) {
    if (config.downlink_shaper->name == "shaper" && !desc_.name.empty()) {
      config.downlink_shaper->name = desc_.name;  // metric key per path
    }
    down_shaper_ =
        std::make_unique<TokenBucketShaper>(loop, *config.downlink_shaper);
    down_shaper_->set_forward_handler(
        [this](Packet p) { down_->send(std::move(p)); });
  }
}

NetPath::NetPath(PathDescription desc, Link& shared_down, Link& shared_up,
                 int flow)
    : desc_(std::move(desc)),
      down_(&shared_down),
      up_(&shared_up),
      flow_(flow) {
  if (flow_ < 0) {
    throw std::invalid_argument("path " + desc_.name +
                                ": negative flow id " + std::to_string(flow_));
  }
}

void NetPath::send_downlink(Packet p) {
  p.path_id = desc_.id;
  p.flow = flow_;
  if (down_shaper_) {
    down_shaper_->send(std::move(p));
  } else {
    down_->send(std::move(p));
  }
}

void NetPath::send_uplink(Packet p) {
  p.path_id = desc_.id;
  p.flow = flow_;
  up_->send(std::move(p));
}

void NetPath::set_downlink_deliver(Link::DeliverHandler h) {
  if (shared()) {
    down_->set_flow_deliver(flow_, std::move(h));
  } else {
    down_->set_deliver_handler(std::move(h));
  }
}

void NetPath::set_uplink_deliver(Link::DeliverHandler h) {
  if (shared()) {
    up_->set_flow_deliver(flow_, std::move(h));
  } else {
    up_->set_deliver_handler(std::move(h));
  }
}

void NetPath::set_telemetry(Telemetry* telemetry) {
  if (shared()) return;  // the link owner wires shared links exactly once
  down_->set_telemetry(telemetry);
  up_->set_telemetry(telemetry);
  if (down_shaper_) down_shaper_->set_telemetry(telemetry);
}

Duration NetPath::base_rtt() const {
  return down_->propagation_delay() + up_->propagation_delay();
}

Bytes NetPath::delivered_wire_bytes() const {
  if (shared()) {
    return down_->delivered_bytes_for_flow(flow_) +
           up_->delivered_bytes_for_flow(flow_);
  }
  return down_->delivered_bytes() + up_->delivered_bytes();
}

}  // namespace mpdash
