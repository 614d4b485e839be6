// Failure-injection and edge-condition tests across the stack: lossy
// links, zero-rate outages, pathological traces, and adversarial inputs.

#include <gtest/gtest.h>

#include "core/mpdash_socket.h"
#include "dash/video.h"
#include "exp/scenario.h"
#include "exp/session.h"
#include "http/client.h"
#include "http/server.h"
#include "mptcp/connection.h"
#include "trace/generators.h"

namespace mpdash {
namespace {

Video tiny_video() {
  return Video("Tiny", seconds(4.0), 12,
               {DataRate::mbps(0.58), DataRate::mbps(1.01),
                DataRate::mbps(1.47), DataRate::mbps(2.41),
                DataRate::mbps(3.94)},
               0.12, 3);
}

TEST(Robustness, StreamSurvivesRandomPacketLoss) {
  ScenarioConfig cfg =
      constant_scenario(DataRate::mbps(6.0), DataRate::mbps(6.0));
  cfg.random_loss = 0.01;  // 1 % i.i.d. loss on every link
  cfg.seed = 123;          // each link draws from its own derived stream
  Scenario scenario(cfg);

  SessionConfig scfg;
  scfg.adaptation = "festive";
  scfg.scheme = Scheme::kMpDashRate;
  const SessionResult res =
      run_streaming_session(scenario, tiny_video(), scfg);
  ASSERT_TRUE(res.completed);
  // Loss costs retransmissions, not correctness.
  EXPECT_EQ(res.chunks, 12);
}

TEST(Robustness, StreamSurvivesBurstyWifiLoss) {
  // Gilbert–Elliott bursts on the WiFi downlink: ~100-packet clean spells
  // interrupted by ~5-packet bursts where 90 % of packets die.
  ScenarioConfig cfg =
      constant_scenario(DataRate::mbps(6.0), DataRate::mbps(6.0));
  cfg.wifi_ge_loss = GilbertElliottConfig{};
  cfg.seed = 7;
  Scenario scenario(cfg);

  SessionConfig scfg;
  scfg.adaptation = "festive";
  scfg.scheme = Scheme::kMpDashRate;
  const SessionResult res =
      run_streaming_session(scenario, tiny_video(), scfg);
  ASSERT_TRUE(res.completed);
  EXPECT_EQ(res.chunks, 12);
  // The bursts actually bit: the WiFi downlink recorded drops.
  EXPECT_GT(scenario.paths()[kWifiPathId]->downlink().dropped_packets(), 0u);
}

TEST(Robustness, WifiBlackoutMidSessionCellularRescues) {
  // WiFi dies completely from t=30..60 s; MP-DASH must lean on LTE and
  // keep the stream alive.
  std::vector<RatePoint> pts{
      {kTimeZero, DataRate::mbps(5.0)},
      {TimePoint(seconds(30.0)), DataRate::kbps(1.0)},
      {TimePoint(seconds(60.0)), DataRate::mbps(5.0)},
  };
  ScenarioConfig cfg;
  cfg.wifi_down = BandwidthTrace(pts);
  cfg.lte_down = BandwidthTrace::constant(DataRate::mbps(5.0));
  Scenario scenario(cfg);

  SessionConfig scfg;
  scfg.adaptation = "festive";
  scfg.scheme = Scheme::kMpDashRate;
  const SessionResult res =
      run_streaming_session(scenario, tiny_video(), scfg);
  ASSERT_TRUE(res.completed);
  EXPECT_GT(res.cell_bytes, megabytes(1));  // LTE carried the blackout
}

TEST(Robustness, BothPathsDieSessionHitsTimeLimitGracefully) {
  std::vector<RatePoint> dead{
      {kTimeZero, DataRate::mbps(5.0)},
      {TimePoint(seconds(10.0)), DataRate::bits_per_second(10.0)},
  };
  ScenarioConfig cfg;
  cfg.wifi_down = BandwidthTrace(dead);
  cfg.lte_down = BandwidthTrace(dead);
  Scenario scenario(cfg);
  SessionConfig scfg;
  scfg.adaptation = "gpac";
  scfg.time_limit = seconds(60.0);
  const SessionResult res =
      run_streaming_session(scenario, tiny_video(), scfg);
  EXPECT_FALSE(res.completed);  // but no crash, no hang
}

TEST(Robustness, ServerRespondsToUnknownTargets) {
  Scenario scenario(
      constant_scenario(DataRate::mbps(5.0), DataRate::mbps(5.0)));
  MptcpConnection conn(scenario.loop(), scenario.paths());
  HttpServer server(conn.server(),
                    [](const HttpRequest&) { return not_found(); });
  HttpClient client(scenario.loop(), conn.client());
  int status = 0;
  client.get("/nope", [&](const HttpTransfer& t) { status = t.response.status; });
  scenario.loop().run();
  EXPECT_EQ(status, 404);
}

TEST(Robustness, ManyTinyResponsesKeepFraming) {
  Scenario scenario(
      constant_scenario(DataRate::mbps(5.0), DataRate::mbps(5.0)));
  MptcpConnection conn(scenario.loop(), scenario.paths());
  HttpServer server(conn.server(), [](const HttpRequest& req) {
    HttpResponse resp;
    resp.body = "payload-for-" + req.target;
    return resp;
  });
  HttpClient client(scenario.loop(), conn.client());
  int completed = 0;
  for (int i = 0; i < 100; ++i) {
    const std::string target = "/t" + std::to_string(i);
    client.get(target, [&completed, target](const HttpTransfer& t) {
      EXPECT_EQ(t.body, "payload-for-" + target);
      ++completed;
    });
  }
  scenario.loop().run();
  EXPECT_EQ(completed, 100);
}

TEST(Robustness, MpDashSocketReenableWhileActive) {
  // Re-enabling mid-transfer (a new chunk before the old one's window
  // closed) must not corrupt accounting.
  Scenario scenario(
      constant_scenario(DataRate::mbps(5.0), DataRate::mbps(5.0)));
  MptcpConnection conn(scenario.loop(), scenario.paths());
  MpDashSocket socket(scenario.loop(), conn);
  socket.enable(megabytes(1), seconds(5.0));
  EXPECT_TRUE(socket.active());
  socket.enable(megabytes(2), seconds(8.0));  // restart
  EXPECT_TRUE(socket.active());
  EXPECT_EQ(socket.scheduler().target_bytes(), megabytes(2));
  socket.disable();
  EXPECT_FALSE(socket.active());
  // Idempotent disable.
  socket.disable();
  EXPECT_FALSE(socket.active());
}

TEST(Robustness, ExtremeBandwidthAsymmetry) {
  // 50 Mbps WiFi vs 0.2 Mbps LTE and vice versa: both stream cleanly.
  for (auto [wifi, lte] : {std::pair{50.0, 0.2}, std::pair{0.7, 20.0}}) {
    Scenario scenario(
        constant_scenario(DataRate::mbps(wifi), DataRate::mbps(lte)));
    SessionConfig cfg;
    cfg.adaptation = "festive";
    cfg.scheme = Scheme::kMpDashRate;
    cfg.time_limit = seconds(900.0);
    const SessionResult res =
        run_streaming_session(scenario, tiny_video(), cfg);
    EXPECT_TRUE(res.completed) << wifi << "/" << lte;
  }
}

TEST(Robustness, VeryShortChunks) {
  const Video v("Short chunks", seconds(1.0), 30,
                {DataRate::mbps(0.58), DataRate::mbps(3.94)}, 0.12, 5);
  Scenario scenario(
      constant_scenario(DataRate::mbps(4.0), DataRate::mbps(3.0)));
  SessionConfig cfg;
  cfg.adaptation = "festive";
  cfg.scheme = Scheme::kMpDashRate;
  cfg.player.startup_buffer = seconds(2.0);
  const SessionResult res = run_streaming_session(scenario, v, cfg);
  ASSERT_TRUE(res.completed);
  EXPECT_EQ(res.stalls, 0);
}

}  // namespace
}  // namespace mpdash
