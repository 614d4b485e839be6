#include <gtest/gtest.h>

#include <initializer_list>
#include <stdexcept>
#include <vector>

#include "exp/scenario.h"
#include "link/link.h"
#include "link/path.h"
#include "link/shaper.h"
#include "sim/event_loop.h"

namespace mpdash {
namespace {

Packet data_packet(Bytes wire, std::uint64_t id = 1) {
  Packet p;
  p.id = id;
  p.kind = PacketKind::kData;
  p.wire_size = wire;
  p.payload_len = wire - kPacketHeaderBytes;
  return p;
}

TEST(Link, SerializationPlusPropagation) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.rate = BandwidthTrace::constant(DataRate::mbps(8.0));  // 1 MB/s
  cfg.propagation_delay = milliseconds(25);
  Link link(loop, cfg);

  TimePoint delivered_at = kTimeZero;
  link.set_flow_deliver(0, [&](Packet) { delivered_at = loop.now(); });
  link.send(data_packet(1000));
  loop.run();
  // 1000 B at 1 MB/s = 1 ms serialize + 25 ms propagation.
  EXPECT_NEAR(to_milliseconds(delivered_at), 26.0, 0.01);
  EXPECT_EQ(link.delivered_packets(), 1u);
  EXPECT_EQ(link.delivered_bytes(), 1000);
}

TEST(Link, BackToBackPacketsQueueBehindEachOther) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.rate = BandwidthTrace::constant(DataRate::mbps(8.0));
  cfg.propagation_delay = kDurationZero;
  Link link(loop, cfg);

  std::vector<double> times;
  link.set_flow_deliver(0, [&](Packet) {
    times.push_back(to_milliseconds(loop.now()));
  });
  link.send(data_packet(1000, 1));
  link.send(data_packet(1000, 2));
  loop.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_NEAR(times[0], 1.0, 0.01);
  EXPECT_NEAR(times[1], 2.0, 0.01);  // serialized after the first
}

TEST(Link, DropTailOnQueueOverflow) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.rate = BandwidthTrace::constant(DataRate::mbps(1.0));
  cfg.queue_capacity = 2500;
  Link link(loop, cfg);

  int delivered = 0;
  link.set_flow_deliver(0, [&](Packet) { ++delivered; });
  for (int i = 0; i < 5; ++i) link.send(data_packet(1000, i + 1));
  loop.run();
  // 2 fit in the 2500 B queue; the rest drop.
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(link.dropped_packets(), 3u);
  EXPECT_EQ(link.dropped_bytes(), 3000);
}

TEST(Link, RespectsTimeVaryingRate) {
  EventLoop loop;
  LinkConfig cfg;
  // 8 Mbps for 1 s, then 0.8 Mbps.
  cfg.rate = BandwidthTrace({{kTimeZero, DataRate::mbps(8.0)},
                             {TimePoint(seconds(1.0)), DataRate::mbps(0.8)}});
  cfg.propagation_delay = kDurationZero;
  cfg.queue_capacity = 10'000'000;
  Link link(loop, cfg);

  TimePoint last = kTimeZero;
  link.set_flow_deliver(0, [&](Packet) { last = loop.now(); });
  // 1.5 MB: 1 MB in the first second, 0.5 MB at 0.1 MB/s = 5 s more.
  for (int i = 0; i < 1500; ++i) link.send(data_packet(1000, i + 1));
  loop.run();
  EXPECT_NEAR(to_seconds(last), 6.0, 0.05);
}

TEST(Link, TraceSinkSeesSendDeliverDrop) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.rate = BandwidthTrace::constant(DataRate::mbps(1.0));
  cfg.queue_capacity = 1500;
  Link link(loop, cfg);
  Telemetry telemetry;
  TraceCollector sink;
  telemetry.add_sink(&sink);
  link.set_telemetry(&telemetry);
  link.send(data_packet(1000, 1));
  link.send(data_packet(1000, 2));
  loop.run();
  int sends = 0, delivers = 0, drops = 0;
  for (const auto& r : sink.records()) {
    if (r.type == TraceType::kPacketSend) ++sends;
    if (r.type == TraceType::kPacketDeliver) ++delivers;
    if (r.type == TraceType::kPacketDrop) ++drops;
  }
  EXPECT_EQ(sends, 2);
  EXPECT_EQ(delivers, 1);
  EXPECT_EQ(drops, 1);
  EXPECT_EQ(telemetry.metrics().counter("link.link0.dropped_packets").value(),
            1.0);
}

TEST(Link, RandomLossDropsApproximately) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.rate = BandwidthTrace::constant(DataRate::mbps(100.0));
  cfg.queue_capacity = 100'000'000;
  cfg.random_loss = 0.3;
  Link link(loop, cfg);
  // Deterministic "uniform" stream.
  double v = 0.05;
  link.set_loss_rng([&] {
    v += 0.1;
    if (v >= 1.0) v -= 1.0;
    return v;
  });
  int delivered = 0;
  link.set_flow_deliver(0, [&](Packet) { ++delivered; });
  for (int i = 0; i < 100; ++i) link.send(data_packet(500, i + 1));
  loop.run();
  EXPECT_NEAR(static_cast<double>(link.dropped_packets()), 30.0, 5.0);
}

TEST(Shaper, ConformsToTokenRate) {
  EventLoop loop;
  ShaperConfig cfg;
  cfg.rate = DataRate::kbps(800.0);  // 100 KB/s
  cfg.burst = 2000;
  TokenBucketShaper shaper(loop, cfg);
  TimePoint last = kTimeZero;
  Bytes forwarded = 0;
  shaper.set_forward_handler([&](Packet p) {
    last = loop.now();
    forwarded += p.wire_size;
  });
  // 52 KB at 100 KB/s: initial 2 KB burst free, remaining 50 KB -> ~0.5 s.
  for (int i = 0; i < 52; ++i) shaper.send(data_packet(1000, i + 1));
  loop.run();
  EXPECT_EQ(forwarded, 52'000);
  EXPECT_NEAR(to_seconds(last), 0.5, 0.05);
}

TEST(Shaper, DropsWhenQueueFull) {
  EventLoop loop;
  ShaperConfig cfg;
  cfg.rate = DataRate::kbps(8.0);
  cfg.burst = 1000;
  cfg.queue_capacity = 3000;
  TokenBucketShaper shaper(loop, cfg);
  shaper.set_forward_handler([](Packet) {});
  for (int i = 0; i < 10; ++i) shaper.send(data_packet(1000, i + 1));
  EXPECT_GT(shaper.dropped_bytes(), 0);
}

TEST(NetPath, RoutesDirectionsAndRtt) {
  ScenarioConfig cfg =
      constant_scenario(DataRate::mbps(10.0), DataRate::mbps(10.0));
  cfg.lte_rtt = milliseconds(60);
  Scenario sc(cfg);
  NetPath& path = *sc.paths()[kCellularPathId];
  EXPECT_EQ(path.base_rtt(), milliseconds(60));
  EXPECT_EQ(path.downlink().id(), 2);  // 2 * path id
  EXPECT_EQ(path.uplink().id(), 3);
  EXPECT_EQ(path.downlink().name(), "lte.down");
  EXPECT_EQ(path.uplink().name(), "lte.up");
  // Flow 2 rides the same links and stamps its own flow id.
  NetPath& other = *sc.paths(2)[kCellularPathId];
  EXPECT_EQ(&other.downlink(), &path.downlink());
  EXPECT_EQ(sc.paths()[kCellularPathId], &path);  // built once per flow

  int down = 0, up = 0, other_down = 0;
  path.set_downlink_deliver([&](Packet p) {
    ++down;
    EXPECT_EQ(p.path_id, kCellularPathId);  // stamped by the path
    EXPECT_EQ(p.flow, 0);
  });
  path.set_uplink_deliver([&](Packet) { ++up; });
  other.set_downlink_deliver([&](Packet p) {
    ++other_down;
    EXPECT_EQ(p.flow, 2);
  });
  path.send_downlink(data_packet(500, 1));
  path.send_uplink(data_packet(500, 2));
  other.send_downlink(data_packet(700, 3));
  sc.loop().run();
  EXPECT_EQ(down, 1);
  EXPECT_EQ(up, 1);
  EXPECT_EQ(other_down, 1);
  EXPECT_EQ(path.delivered_wire_bytes(), 1000);
  EXPECT_EQ(other.delivered_wire_bytes(), 700);
  EXPECT_EQ(sc.cellular_bytes(), 1700);
}

TEST(NetPath, DownlinkShaperThrottles) {
  ScenarioConfig cfg =
      constant_scenario(DataRate::mbps(10.0), DataRate::mbps(50.0));
  cfg.lte_rtt = kDurationZero;
  ShaperConfig shaper;
  shaper.rate = DataRate::kbps(700.0);
  shaper.burst = 1500;
  shaper.queue_capacity = 10'000'000;
  cfg.lte_throttle = shaper;
  Scenario sc(cfg);
  Telemetry telemetry;
  sc.set_telemetry(&telemetry);
  NetPath& path = *sc.paths()[kCellularPathId];

  TimePoint last = kTimeZero;
  path.set_downlink_deliver([&](Packet) { last = sc.loop().now(); });
  // 88.5 KB at 87.5 KB/s (700 kbps) minus the burst: ~1 s.
  for (int i = 0; i < 89; ++i) path.send_downlink(data_packet(1000, i + 1));
  sc.loop().run();
  EXPECT_GT(to_seconds(last), 0.9);
  // The throttle reports under the lte interface's name.
  EXPECT_EQ(
      telemetry.metrics().counter("shaper.lte.forwarded_bytes").value(),
      89'000.0);
  sc.set_telemetry(nullptr);
}

// --- fair queueing (DRR) on shared links --------------------------------

Packet flow_packet(int flow, Bytes wire, std::uint64_t id) {
  Packet p = data_packet(wire, id);
  p.flow = flow;
  return p;
}

// Routes every listed flow's deliveries to `h`.
void deliver_flows(Link& link, std::initializer_list<int> flows,
                   const Link::DeliverHandler& h) {
  for (const int flow : flows) link.set_flow_deliver(flow, h);
}

LinkConfig fq_config() {
  LinkConfig cfg;
  cfg.rate = BandwidthTrace::constant(DataRate::mbps(8.0));
  cfg.propagation_delay = kDurationZero;
  cfg.discipline = QueueDiscipline::kFairQueue;
  cfg.fq_quantum = 1500;
  return cfg;
}

TEST(FairQueue, DrrInterleavesABurstWithALateArrival) {
  // Flow 0 dumps its whole burst before flow 1 shows up. FIFO would
  // serve 0,0,0,0 first; DRR must alternate service from the second
  // packet on (the first was already on the wire).
  EventLoop loop;
  Link link(loop, fq_config());
  std::vector<int> order;
  deliver_flows(link, {0, 1}, [&](Packet p) { order.push_back(p.flow); });
  for (int i = 0; i < 4; ++i) link.send(flow_packet(0, 1000, i + 1));
  for (int i = 0; i < 4; ++i) link.send(flow_packet(1, 1000, 10 + i));
  loop.run();
  // Classic DRR with quantum 1.5×MTU: flow 0's first packet went out
  // before flow 1 existed, then each visit earns 1500 B — one packet on
  // the first visit (500 B carried), two on the next (2000 B credit) —
  // so service alternates in 1-then-2 packet bursts instead of FIFO's
  // solid run of four.
  const std::vector<int> want = {0, 0, 1, 0, 0, 1, 1, 1};
  EXPECT_EQ(order, want);
  EXPECT_EQ(link.delivered_bytes_for_flow(0), 4000);
  EXPECT_EQ(link.delivered_bytes_for_flow(1), 4000);
}

TEST(FairQueue, FifoOrderingIsPreservedUnderTheDefaultDiscipline) {
  // Same arrival pattern through the default FIFO queue: strict arrival
  // order, no interleaving — the single-tenant behavior is untouched.
  EventLoop loop;
  LinkConfig cfg = fq_config();
  cfg.discipline = QueueDiscipline::kFifo;
  Link link(loop, cfg);
  std::vector<int> order;
  deliver_flows(link, {0, 1}, [&](Packet p) { order.push_back(p.flow); });
  for (int i = 0; i < 4; ++i) link.send(flow_packet(0, 1000, i + 1));
  for (int i = 0; i < 4; ++i) link.send(flow_packet(1, 1000, 10 + i));
  loop.run();
  const std::vector<int> want = {0, 0, 0, 0, 1, 1, 1, 1};
  EXPECT_EQ(order, want);
}

TEST(FairQueue, LongestQueueDropChargesTheAggressiveFlow) {
  // A 3000 B shared buffer, one aggressive flow and one light flow. The
  // drops — both the overflow arrivals and the shed backlog — must all
  // come out of the heavy flow; the light flow's packet rides through.
  EventLoop loop;
  LinkConfig cfg = fq_config();
  cfg.rate = BandwidthTrace::constant(DataRate::mbps(1.0));
  cfg.queue_capacity = 3000;
  Link link(loop, cfg);
  int light_delivered = 0;
  link.set_flow_deliver(1, [&](Packet) { ++light_delivered; });
  for (int i = 0; i < 5; ++i) link.send(flow_packet(0, 1000, i + 1));
  link.send(flow_packet(1, 1000, 10));
  loop.run();
  EXPECT_EQ(light_delivered, 1);
  EXPECT_EQ(link.dropped_bytes_for_flow(1), 0);
  EXPECT_EQ(link.dropped_bytes_for_flow(0), 3000);
  EXPECT_EQ(link.delivered_bytes_for_flow(0), 2000);
}

TEST(FairQueue, LoneFlowAccumulatesQuantaForAJumboPacket) {
  // One flow, one packet bigger than the quantum: the flow must keep
  // earning quanta round after round until it can afford the packet
  // instead of livelocking the serializer.
  EventLoop loop;
  Link link(loop, fq_config());  // quantum 1500
  int delivered = 0;
  link.set_flow_deliver(3, [&](Packet) { ++delivered; });
  link.send(flow_packet(3, 4000, 1));
  link.send(flow_packet(3, 1000, 2));
  loop.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(link.delivered_bytes_for_flow(3), 5000);
}

TEST(FairQueue, FlowDeliverHandlersDemux) {
  // Per-flow handlers receive exactly their flow; a flow with no handler
  // is counted and discarded. Per-flow accounting holds under FIFO too.
  EventLoop loop;
  LinkConfig cfg = fq_config();
  cfg.discipline = QueueDiscipline::kFifo;
  Link link(loop, cfg);
  int flow0 = 0, flow1 = 0;
  link.set_flow_deliver(0, [&](Packet p) {
    EXPECT_EQ(p.flow, 0);
    ++flow0;
  });
  link.set_flow_deliver(1, [&](Packet p) {
    EXPECT_EQ(p.flow, 1);
    ++flow1;
  });
  link.send(flow_packet(0, 1000, 1));
  link.send(flow_packet(1, 1000, 2));
  link.send(flow_packet(1, 1000, 3));
  link.send(flow_packet(2, 1000, 4));
  loop.run();
  EXPECT_EQ(flow1, 2);
  EXPECT_EQ(flow0, 1);
  EXPECT_EQ(link.delivered_bytes_for_flow(1), 2000);
  EXPECT_EQ(link.delivered_bytes_for_flow(0), 1000);
  EXPECT_EQ(link.delivered_bytes_for_flow(2), 1000);
  EXPECT_EQ(link.delivered_bytes(), 4000);
}

TEST(FairQueue, SparseFlowIdsShedLongestQueueLowestIdFirst) {
  // Flows 0, 9 and 63 hold equal backlogs in a full buffer. Each arrival
  // from an empty flow sheds one packet from the longest queue, ties
  // broken toward the lowest flow id: 0, then 9, then 63.
  EventLoop loop;
  LinkConfig cfg = fq_config();
  cfg.rate = BandwidthTrace::constant(DataRate::mbps(1.0));
  cfg.queue_capacity = 7000;
  Link link(loop, cfg);
  link.send(flow_packet(5, 1000, 1));  // on the radio, out of flow 5's queue
  std::uint64_t id = 10;
  for (int flow : {63, 9, 0}) {
    for (int i = 0; i < 2; ++i) link.send(flow_packet(flow, 1000, id++));
  }
  ASSERT_EQ(link.queued_bytes(), 7000);
  link.send(flow_packet(5, 1000, id++));
  EXPECT_EQ(link.dropped_bytes_for_flow(0), 1000);
  EXPECT_EQ(link.dropped_bytes_for_flow(9), 0);
  EXPECT_EQ(link.dropped_bytes_for_flow(63), 0);
  link.send(flow_packet(6, 1000, id++));
  EXPECT_EQ(link.dropped_bytes_for_flow(9), 1000);
  EXPECT_EQ(link.dropped_bytes_for_flow(63), 0);
  link.send(flow_packet(7, 1000, id++));
  EXPECT_EQ(link.dropped_bytes_for_flow(63), 1000);
  for (int flow : {5, 6, 7}) {
    EXPECT_EQ(link.dropped_bytes_for_flow(flow), 0);
    EXPECT_EQ(link.queued_bytes_for_flow(flow), 1000);
  }
  loop.run();
  EXPECT_EQ(link.delivered_bytes_for_flow(5), 2000);
  EXPECT_EQ(link.delivered_bytes(), 7000);
}

TEST(FairQueue, SetDownDropsFlowsAscendingFrontToBack) {
  EventLoop loop;
  Link link(loop, fq_config());
  Telemetry telemetry;
  TraceCollector sink;
  telemetry.add_sink(&sink);
  link.set_telemetry(&telemetry);
  auto tagged = [](int flow, std::uint64_t tag) {
    Packet p = flow_packet(flow, 1000, tag);
    p.data_seq = tag;
    return p;
  };
  link.send(tagged(7, 1));  // serializing: dropped later, not by set_down
  link.send(tagged(63, 2));
  link.send(tagged(9, 3));
  link.send(tagged(0, 4));
  link.send(tagged(63, 5));
  link.send(tagged(0, 6));
  link.send(tagged(9, 7));
  sink.clear();
  link.set_down(true);
  std::vector<std::uint64_t> dropped;
  for (const TraceRecord& r : sink.records()) {
    if (r.type == TraceType::kPacketDrop) dropped.push_back(r.data_seq);
  }
  EXPECT_EQ(dropped, (std::vector<std::uint64_t>{4, 6, 3, 7, 2, 5}));
  for (int flow : {0, 9, 63}) EXPECT_EQ(link.queued_bytes_for_flow(flow), 0);
  EXPECT_EQ(link.queued_bytes(), 1000);  // the packet on the radio
  loop.run();
  EXPECT_EQ(link.dropped_packets(), 7u);

  // Drained flows keep working once the link is back.
  link.set_down(false);
  link.send(tagged(9, 8));
  link.send(tagged(0, 9));
  loop.run();
  EXPECT_EQ(link.delivered_bytes_for_flow(9), 1000);
  EXPECT_EQ(link.delivered_bytes_for_flow(0), 1000);
}

TEST(FairQueue, UnseenFlowAccessorsReturnZero) {
  EventLoop loop;
  Link link(loop, fq_config());
  link.set_flow_deliver(2, [](Packet) {});
  const Link& view = link;  // const: a lookup can never grow the table
  for (int flow : {-7, 0, 3, 1'000'000}) {
    EXPECT_EQ(view.delivered_bytes_for_flow(flow), 0);
    EXPECT_EQ(view.dropped_bytes_for_flow(flow), 0);
    EXPECT_EQ(view.queued_bytes_for_flow(flow), 0);
  }
}

TEST(FairQueue, NegativeFlowIdThrows) {
  EventLoop loop;
  Link down(loop, fq_config());
  Link up(loop, fq_config());
  EXPECT_THROW(down.set_flow_deliver(-1, [](Packet) {}),
               std::invalid_argument);
  PathDescription desc;
  desc.name = "wifi";
  EXPECT_THROW(NetPath(desc, down, up, -3), std::invalid_argument);
  EXPECT_NO_THROW(NetPath(desc, down, up, 0));
  Scenario sc(constant_scenario(DataRate::mbps(1.0), DataRate::mbps(1.0)));
  EXPECT_THROW(sc.paths(-1), std::invalid_argument);
}

}  // namespace
}  // namespace mpdash
