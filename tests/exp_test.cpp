#include <gtest/gtest.h>

#include "dash/video.h"
#include "exp/scenario.h"
#include "exp/session.h"
#include "trace/locations.h"

namespace mpdash {
namespace {

TEST(Scenario, ConstantScenarioWiring) {
  Scenario sc(constant_scenario(DataRate::mbps(5.0), DataRate::mbps(2.0)));
  const std::vector<NetPath*> paths = sc.paths();
  ASSERT_EQ(paths.size(), 2u);
  const NetPath& wifi = *paths[0];
  const NetPath& lte = *paths[1];
  EXPECT_EQ(wifi.id(), kWifiPathId);
  EXPECT_EQ(lte.id(), kCellularPathId);
  EXPECT_EQ(wifi.description().kind, InterfaceKind::kWifi);
  EXPECT_EQ(lte.description().kind, InterfaceKind::kCellular);
  // Prefer-WiFi policy applied by default.
  EXPECT_LT(wifi.description().unit_cost, lte.description().unit_cost);
  EXPECT_EQ(sc.wifi_bytes(), 0);
  EXPECT_EQ(sc.cellular_bytes(), 0);
}

TEST(Scenario, WifiOnlyOmitsCellular) {
  ScenarioConfig cfg = constant_scenario(DataRate::mbps(5.0),
                                         DataRate::mbps(2.0));
  cfg.wifi_only = true;
  Scenario sc(cfg);
  ASSERT_EQ(sc.paths().size(), 1u);
  EXPECT_EQ(sc.paths()[0]->id(), kWifiPathId);
  EXPECT_EQ(sc.cellular_bytes(), 0);
}

TEST(Scenario, RttConfigurationReachesPaths) {
  ScenarioConfig cfg = constant_scenario(DataRate::mbps(5.0),
                                         DataRate::mbps(2.0));
  cfg.wifi_rtt = milliseconds(14);
  cfg.lte_rtt = milliseconds(52);
  Scenario sc(cfg);
  EXPECT_EQ(sc.paths()[kWifiPathId]->base_rtt(), milliseconds(14));
  EXPECT_EQ(sc.paths()[kCellularPathId]->base_rtt(), milliseconds(52));
}

TEST(Session, SchemeNamesRoundTrip) {
  EXPECT_STREQ(to_string(Scheme::kWifiOnly), "wifi-only");
  EXPECT_STREQ(to_string(Scheme::kBaseline), "baseline");
  EXPECT_STREQ(to_string(Scheme::kMpDashDuration), "mpdash-duration");
  EXPECT_STREQ(to_string(Scheme::kMpDashRate), "mpdash-rate");
  EXPECT_FALSE(scheme_uses_mpdash(Scheme::kBaseline));
  EXPECT_TRUE(scheme_uses_mpdash(Scheme::kMpDashRate));
  EXPECT_TRUE(scheme_uses_mpdash(Scheme::kMpDashDuration));
}

Video tiny_video() {
  return Video("Tiny", seconds(4.0), 10,
               {DataRate::mbps(0.58), DataRate::mbps(1.01),
                DataRate::mbps(1.47), DataRate::mbps(2.41),
                DataRate::mbps(3.94)},
               0.12, 3);
}

TEST(Session, ResultAccountingConsistency) {
  Scenario sc(constant_scenario(DataRate::mbps(8.0), DataRate::mbps(6.0)));
  SessionConfig cfg;
  cfg.adaptation = "gpac";
  const SessionResult res = run_streaming_session(sc, tiny_video(), cfg);
  ASSERT_TRUE(res.completed);
  EXPECT_EQ(res.chunks, 10);
  EXPECT_EQ(static_cast<int>(res.chunk_log.size()), res.chunks);
  EXPECT_GT(res.session_s, 40.0);  // at least the content duration
  EXPECT_NEAR(res.cell_fraction,
              static_cast<double>(res.cell_bytes) /
                  static_cast<double>(res.cell_bytes + res.wifi_bytes),
              1e-9);
  EXPECT_GT(res.energy_j(), 0.0);
  // Delivered bytes at least the sum of chunk sizes.
  Bytes media = 0;
  for (const auto& c : res.chunk_log) media += c.bytes;
  EXPECT_GE(res.wifi_bytes + res.cell_bytes, media);
  // A lone session is flow 0: its per-flow slices are the whole links.
  EXPECT_EQ(res.wifi_bytes, sc.wifi_bytes());
  EXPECT_EQ(res.cell_bytes, sc.cellular_bytes());
}

TEST(Session, TimeLimitProducesIncompleteResult) {
  Scenario sc(constant_scenario(DataRate::kbps(100.0), DataRate::kbps(80.0)));
  SessionConfig cfg;
  cfg.adaptation = "gpac";
  cfg.time_limit = seconds(20.0);  // nowhere near enough at 180 kbps
  const SessionResult res = run_streaming_session(sc, tiny_video(), cfg);
  EXPECT_FALSE(res.completed);
  EXPECT_LE(res.session_s, 20.5);
}

TEST(Session, DownloadWarmupDoesNotCountWarmupBytes) {
  Scenario sc(constant_scenario(DataRate::mbps(8.0), DataRate::mbps(8.0)));
  DownloadConfig cfg;
  cfg.size = megabytes(2);
  cfg.warmup = true;
  cfg.use_mpdash = false;
  const DownloadResult res = run_download_session(sc, cfg);
  ASSERT_TRUE(res.completed);
  const Bytes total = res.wifi_bytes + res.cell_bytes;
  // Measured bytes cover the 2 MB transfer plus protocol overhead, not
  // the 500 KB warmup.
  EXPECT_GT(total, megabytes(2));
  EXPECT_LT(total, megabytes(2) + kilobytes(300));
}

TEST(Session, DownloadDeadlineMissReported) {
  Scenario sc(constant_scenario(DataRate::mbps(1.0), DataRate::mbps(0.5)));
  DownloadConfig cfg;
  cfg.size = megabytes(5);
  cfg.deadline = seconds(5.0);  // impossible at 1.5 Mbps aggregate
  const DownloadResult res = run_download_session(sc, cfg);
  ASSERT_TRUE(res.completed);
  EXPECT_TRUE(res.deadline_missed);
}

TEST(Session, LocationScenarioStreamsEndToEnd) {
  // Smoke the field-study path: a strong-WiFi location plays cleanly.
  const LocationProfile* lib = nullptr;
  for (const auto& l : field_study_locations()) {
    if (l.name == "Library") lib = &l;
  }
  ASSERT_NE(lib, nullptr);
  ScenarioConfig net;
  net.wifi_down = lib->wifi_trace(seconds(200.0));
  net.lte_down = lib->lte_trace(seconds(200.0));
  net.wifi_rtt = lib->wifi_rtt;
  net.lte_rtt = lib->lte_rtt;
  Scenario sc(net);
  SessionConfig cfg;
  cfg.adaptation = "festive";
  cfg.scheme = Scheme::kMpDashRate;
  const SessionResult res = run_streaming_session(sc, tiny_video(), cfg);
  ASSERT_TRUE(res.completed);
  EXPECT_EQ(res.stalls, 0);
  // 17.8 Mbps WiFi: beyond the vanilla startup phase, cellular stays
  // untouched; a 10-chunk clip is mostly startup, so allow that much.
  EXPECT_LT(res.cell_bytes, megabytes(2));
}

class SchedulerNames : public ::testing::TestWithParam<const char*> {};

TEST_P(SchedulerNames, BothMptcpSchedulersStreamCleanly) {
  Scenario sc(constant_scenario(DataRate::mbps(4.0), DataRate::mbps(4.0)));
  SessionConfig cfg;
  cfg.adaptation = "gpac";
  cfg.mptcp_scheduler = GetParam();
  const SessionResult res = run_streaming_session(sc, tiny_video(), cfg);
  ASSERT_TRUE(res.completed);
  EXPECT_EQ(res.stalls, 0);
}

INSTANTIATE_TEST_SUITE_P(Names, SchedulerNames,
                         ::testing::Values("minrtt", "roundrobin"));

}  // namespace
}  // namespace mpdash
