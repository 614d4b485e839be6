// Fleet workloads: N tenants on one event loop contending on shared
// WiFi/LTE links. The contracts under test: campaign output is bitwise
// --jobs-invariant, fair queueing equalizes tenants that FIFO starves,
// the cross-session aggregates are consistent with the per-session rows,
// the session mix cycles deterministically, a fault at a join instant runs
// before that join for a session and a fleet alike, and fleet repro
// bundles round-trip, replay to the same outcome, and shrink to their
// culprit.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "exp/fleet.h"
#include "exp/repro.h"
#include "exp/shrink.h"
#include "exp/spec.h"
#include "fault/fault.h"
#include "runner/campaign.h"
#include "telemetry/telemetry.h"

namespace mpdash {
namespace {

// Small contended fleet: aggregate capacity well below N × top bitrate so
// the queue discipline decides who gets what.
FleetConfig small_fleet(int sessions, int chunks = 8) {
  FleetConfig cfg;
  cfg.sessions = sessions;
  cfg.seed = 5;
  cfg.chunk_count = chunks;
  return cfg;
}

// --- determinism ---------------------------------------------------------

TEST(Fleet, RepeatedRunsFingerprintIdentically) {
  const FleetConfig cfg = small_fleet(3);
  const FleetResult a = run_fleet(cfg);
  const FleetResult b = run_fleet(cfg);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(fleet_sessions_csv(a), fleet_sessions_csv(b));
}

TEST(Fleet, CampaignOutputIsJobsInvariant) {
  FleetCampaignConfig cfg;
  cfg.fleet = small_fleet(4, 6);
  cfg.seed_count = 3;
  cfg.base_seed = 9;
  cfg.progress = nullptr;

  cfg.jobs = 1;
  const FleetCampaignResult serial = run_fleet_campaign(cfg);
  cfg.jobs = 8;
  const FleetCampaignResult parallel = run_fleet_campaign(cfg);

  ASSERT_EQ(serial.runs.size(), 3u);
  EXPECT_EQ(serial.digest(), parallel.digest());
  // The CSV the CI lane compares must be byte-identical, header included.
  EXPECT_EQ(fleet_campaign_csv(serial), fleet_campaign_csv(parallel));
  EXPECT_EQ(fleet_campaign_csv(serial).rfind(kFleetCsvHeader, 0), 0u);
}

TEST(Fleet, DifferentSeedsDiverge) {
  FleetConfig cfg = small_fleet(2);
  const std::string a = run_fleet(cfg).fingerprint();
  cfg.seed = 6;
  EXPECT_NE(run_fleet(cfg).fingerprint(), a);
}

// --- fair queueing vs FIFO on the shared bottleneck ----------------------

TEST(Fleet, FairQueueingEqualizesTenantsThatFifoSkews) {
  // Two tenants on one tight AP (aggregate far below 2× top bitrate).
  // Under FIFO the first joiner's standing queue crowds out the second;
  // DRR gives each flow its own queue and alternating service, so steady
  // bitrates come out (near-)equal.
  FleetConfig cfg = small_fleet(2, 12);
  cfg.wifi_mbps = 3.0;
  cfg.lte_mbps = 2.0;
  cfg.wifi_up_mbps = 2.0;
  cfg.lte_up_mbps = 2.0;
  cfg.queue_capacity = 96 * 1000;

  cfg.discipline = QueueDiscipline::kFairQueue;
  const FleetResult fq = run_fleet(cfg);
  cfg.discipline = QueueDiscipline::kFifo;
  const FleetResult fifo = run_fleet(cfg);

  ASSERT_EQ(fq.sessions.size(), 2u);
  ASSERT_EQ(fifo.sessions.size(), 2u);
  const auto steady = [](const FleetResult& r, int i) {
    return r.sessions[i].result.steady_avg_bitrate_mbps;
  };
  // FQ: both tenants land on the same steady rung.
  EXPECT_GT(steady(fq, 0), 0.0);
  EXPECT_GT(steady(fq, 1), 0.0);
  EXPECT_NEAR(steady(fq, 0), steady(fq, 1), 0.25);
  // And the fleet-level Jain index reflects it.
  EXPECT_GE(fq.jain_fairness, 0.99);
  EXPECT_GE(fq.jain_fairness, fifo.jain_fairness);
}

// --- aggregates ----------------------------------------------------------

TEST(Fleet, AggregatesAreConsistentWithPerSessionRows) {
  const FleetResult r = run_fleet(small_fleet(4));
  ASSERT_EQ(r.sessions.size(), 4u);

  int completed = 0;
  double qoe_sum = 0.0;
  Bytes wifi = 0, cell = 0;
  for (const FleetSessionResult& s : r.sessions) {
    completed += s.result.completed ? 1 : 0;
    qoe_sum += s.qoe;
    wifi += s.result.wifi_bytes;
    cell += s.result.cell_bytes;
    EXPECT_EQ(s.qoe, s.result.steady_avg_bitrate_mbps -
                         kFleetStallPenalty * s.result.stall_s);
    EXPECT_EQ(s.seed, derive_stream_seed(
                          5, "session/" + std::to_string(s.session)));
  }
  EXPECT_EQ(r.completed, completed);
  EXPECT_NEAR(r.qoe_mean, qoe_sum / 4.0, 1e-12);
  EXPECT_GE(r.jain_fairness, 0.0);
  EXPECT_LE(r.jain_fairness, 1.0 + 1e-12);
  EXPECT_GE(r.cell_fraction, 0.0);
  EXPECT_LE(r.cell_fraction, 1.0);
  EXPECT_GT(r.wifi_bytes + r.cell_bytes, 0);
  // Every byte on the shared links belongs to exactly one tenant's flow.
  EXPECT_EQ(wifi, r.wifi_bytes);
  EXPECT_EQ(cell, r.cell_bytes);
  // Joins are staggered in session order.
  for (std::size_t i = 0; i < r.sessions.size(); ++i) {
    EXPECT_DOUBLE_EQ(r.sessions[i].join_s, static_cast<double>(i));
  }
}

TEST(Fleet, MixCyclesAcrossTenants) {
  FleetConfig cfg = small_fleet(4, 6);
  SessionSpec a;  // mpdash-duration / festive defaults
  SessionSpec b;
  b.scheme = Scheme::kBaseline;
  b.adaptation = "bba";
  cfg.mix = {a, b};
  const FleetResult r = run_fleet(cfg);
  ASSERT_EQ(r.sessions.size(), 4u);
  EXPECT_EQ(r.sessions[0].scheme, a.scheme);
  EXPECT_EQ(r.sessions[1].scheme, Scheme::kBaseline);
  EXPECT_EQ(r.sessions[1].adaptation, "bba");
  EXPECT_EQ(r.sessions[2].scheme, a.scheme);
  EXPECT_EQ(r.sessions[3].scheme, Scheme::kBaseline);
}

// --- chaos on the shared links -------------------------------------------

TEST(Fleet, SharedFaultPlanPerturbsTheWholeFleet) {
  // A WiFi blackout squarely inside the streaming window: every tenant
  // shares that AP, so the run must stay deterministic and the fault
  // windows must open and close (quiescence is a fleet invariant).
  FaultEvent e;
  e.kind = FaultKind::kBlackout;
  e.at = kTimeZero + seconds(6.0);
  e.duration = seconds(2.0);
  e.path_id = 0;
  FaultPlan plan;
  plan.events.push_back(e);

  FleetConfig cfg = small_fleet(3, 10);
  cfg.faults = &plan;
  const FleetResult a = run_fleet(cfg);
  const FleetResult b = run_fleet(cfg);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.faults_started, 1);
  EXPECT_EQ(a.faults_skipped, 0);
}

// --- one run body: the order at a join instant --------------------------

// A blackout on both paths starting exactly at t = 0: the join instant of
// a single session and of fleet tenant 0.
FaultPlan blackout_at_join() {
  FaultPlan plan;
  for (const int path : {kWifiPathId, kCellularPathId}) {
    FaultEvent e;
    e.kind = FaultKind::kBlackout;
    e.at = kTimeZero;
    e.duration = seconds(1.0);
    e.path_id = path;
    plan.events.push_back(e);
  }
  return plan;
}

// Position of the first record of `type` (fault records: start phase).
std::size_t first_record(const std::vector<TraceRecord>& trace,
                         TraceType type) {
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].type == type &&
        (type != TraceType::kFault || trace[i].enabled)) {
      return i;
    }
  }
  return trace.size();
}

// Faults are armed before any tenant's start is scheduled, so a fault
// starting at the join instant runs before the tenant sends anything —
// the same order for a session as for a fleet.
TEST(RunBody, JoinInstantFaultPrecedesTheSessionsFirstSend) {
  const FaultPlan plan = blackout_at_join();
  Scenario scenario(resolve_scenario_config(default_chaos_spec(), 3));
  Telemetry telemetry;
  TraceCollector trace;
  telemetry.add_sink(&trace);
  SessionEnv env;
  env.telemetry = &telemetry;
  env.faults = &plan;
  run_streaming_session(scenario, synthetic_video("order", 4),
                        resolve_session_config(default_chaos_spec(), 3), env);
  telemetry.remove_sink(&trace);

  const std::size_t fault = first_record(trace.records(), TraceType::kFault);
  const std::size_t send =
      first_record(trace.records(), TraceType::kPacketSend);
  ASSERT_LT(send, trace.records().size());
  EXPECT_LT(fault, send);
}

TEST(RunBody, JoinInstantFaultPrecedesFleetTenantZerosFirstSend) {
  const FaultPlan plan = blackout_at_join();
  FleetConfig cfg = small_fleet(2, 4);
  cfg.faults = &plan;
  Telemetry telemetry;
  TraceCollector trace;
  telemetry.add_sink(&trace);
  run_fleet(cfg, &telemetry);
  telemetry.remove_sink(&trace);

  const std::size_t fault = first_record(trace.records(), TraceType::kFault);
  const std::size_t send =
      first_record(trace.records(), TraceType::kPacketSend);
  ASSERT_LT(send, trace.records().size());
  // Tenant 1 joins a stagger later, so the first send is tenant 0's.
  EXPECT_LT(trace.records()[send].at, TimePoint(cfg.join_stagger));
  EXPECT_LT(fault, send);
}

TEST(Fleet, ChaosCampaignIsJobsInvariant) {
  FleetCampaignConfig cfg;
  cfg.fleet = small_fleet(3, 6);
  cfg.seed_count = 2;
  cfg.base_seed = 21;
  cfg.chaos = true;
  cfg.plan.num_events = 3;
  cfg.progress = nullptr;

  cfg.jobs = 1;
  const std::string serial = fleet_campaign_csv(run_fleet_campaign(cfg));
  cfg.jobs = 4;
  EXPECT_EQ(fleet_campaign_csv(run_fleet_campaign(cfg)), serial);
}

// --- fleet repro bundles -------------------------------------------------

ReproBundle sample_fleet_bundle() {
  ReproBundle b;
  b.seed = 33;
  b.fleet = FleetConfig{};
  b.fleet->sessions = 2;
  b.fleet->chunk_count = 6;
  FaultEvent e;
  e.kind = FaultKind::kRateCollapse;
  e.at = kTimeZero + seconds(5.0);
  e.duration = seconds(3.0);
  e.path_id = 0;
  e.value = 0.25;
  b.plan.events.push_back(e);
  b.outcome = RunOutcome::kViolation;
  b.expected_violations = {"session 0: fake violation"};
  return b;
}

TEST(FleetRepro, JsonRoundTripsBitwise) {
  const ReproBundle b = sample_fleet_bundle();
  const std::string text = repro_bundle_to_json(b);
  ReproBundle parsed;
  std::string err;
  ASSERT_TRUE(repro_bundle_from_json(text, &parsed, &err)) << err;
  EXPECT_EQ(parsed.seed, b.seed);
  EXPECT_EQ(parsed.fleet, b.fleet);
  EXPECT_EQ(parsed.outcome, b.outcome);
  EXPECT_EQ(parsed.expected_violations, b.expected_violations);
  EXPECT_EQ(repro_bundle_to_json(parsed), text);

  EXPECT_FALSE(repro_bundle_from_json("{}", &parsed, &err));
  EXPECT_FALSE(repro_bundle_from_json("not json", &parsed, &err));

  // The DRR quantum is fixed at one MTU: bundles record 1500 and the
  // reader rejects any other value.
  std::string other_quantum = text;
  const std::size_t at = other_quantum.find("\"fq_quantum\": 1500");
  ASSERT_NE(at, std::string::npos);
  other_quantum.replace(at, 18, "\"fq_quantum\": 3000");
  EXPECT_FALSE(repro_bundle_from_json(other_quantum, &parsed, &err));
  EXPECT_EQ(err, "fleet config: missing or bad \"fq_quantum\"");

  // Integer fields take whole numbers that fit the field, never a
  // truncated, fallback or clamped stand-in that replays another run.
  const struct {
    const char* needle;
    const char* replacement;
    const char* want;
  } cases[] = {
      {"\"sessions\": 2", "\"sessions\": 4294967298",
       "fleet config: missing or bad \"sessions\""},
      {"\"sessions\": 2", "\"sessions\": 2.5",
       "fleet config: missing or bad \"sessions\""},
      {"\"sessions\": 2", "\"sessions\": 0",
       "fleet config: missing or bad \"sessions\""},
      {"\"chunk_count\": 6", "\"chunk_count\": 0",
       "fleet config: missing or bad \"chunk_count\""},
      {"\"seed\": 33", "\"seed\": 33.5",
       "fleet bundle: missing or bad \"seed\""},
  };
  for (const auto& c : cases) {
    std::string bad = text;
    const std::size_t pos = bad.find(c.needle);
    ASSERT_NE(pos, std::string::npos) << c.needle;
    bad.replace(pos, std::string(c.needle).size(), c.replacement);
    EXPECT_FALSE(repro_bundle_from_json(bad, &parsed, &err)) << c.replacement;
    EXPECT_EQ(err, c.want);
  }
}

TEST(FleetRepro, FileRoundTripAndPath) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "mpdash_fleet_bundle_test")
          .string();
  std::filesystem::remove_all(dir);
  const ReproBundle b = sample_fleet_bundle();
  const std::string path = repro_bundle_path(dir, b.seed, /*fleet=*/true);
  EXPECT_NE(path.find("fleet_repro_33.json"), std::string::npos);
  std::string err;
  ASSERT_TRUE(write_repro_bundle(b, path, &err)) << err;
  ReproBundle loaded;
  ASSERT_TRUE(load_repro_bundle(path, &loaded, &err)) << err;
  EXPECT_EQ(repro_bundle_to_json(loaded), repro_bundle_to_json(b));
  std::filesystem::remove_all(dir);
}

TEST(FleetRepro, ReplayReproducesTheRecordedRun) {
  // Record a real run (whatever its outcome), snapshot it as a bundle,
  // and check the replay path reports a match against itself.
  FaultEvent e;
  e.kind = FaultKind::kBlackout;
  e.at = kTimeZero + seconds(4.0);
  e.duration = seconds(2.0);
  e.path_id = 0;
  FaultPlan plan;
  plan.events.push_back(e);

  ReproBundle b;
  b.seed = 13;
  b.fleet = small_fleet(2, 8);
  b.fleet->seed = 13;
  b.plan = plan;
  b.fleet->faults = nullptr;  // the bundle's plan is authoritative

  FleetConfig probe = *b.fleet;
  probe.faults = &plan;
  const FleetResult run = run_fleet(probe);
  b.outcome = run.outcome;
  b.hung_reason = run.hung_reason;
  b.expected_violations = run.violations;

  const ReplayResult replay = replay_repro_bundle(b);
  EXPECT_TRUE(replay.matches)
      << (replay.mismatches.empty() ? "" : replay.mismatches.front());
  EXPECT_EQ(replay.fingerprint, run.fingerprint());
}

// A two-tenant fleet, recovery off, whose only real fault is a WiFi
// blackout outlasting the 40 s fleet time limit; the other five events are
// short, benign noise the shrinker must discard. (The same plan as the
// committed CLI fixture tests/data/fleet_repro_noisy.json.)
ReproBundle noisy_fleet_bundle() {
  auto event = [](FaultKind kind, double at_s, double dur_s, int path,
                  double value) {
    FaultEvent e;
    e.kind = kind;
    e.at = kTimeZero + seconds(at_s);
    e.duration = seconds(dur_s);
    e.path_id = path;
    e.value = value;
    return e;
  };
  ReproBundle b;
  b.seed = 5;
  b.fleet = small_fleet(2, 6);
  b.fleet->time_limit = seconds(40.0);
  SessionSpec no_recovery;
  no_recovery.recovery = false;
  b.fleet->mix = {no_recovery};
  b.plan.events = {
      event(FaultKind::kRttSpike, 1.0, 0.5, 0, 10.0),
      event(FaultKind::kFlap, 2.0, 1.0, 1, 0.2),
      event(FaultKind::kBlackout, 3.0, 60.0, 0, 0.0),
      event(FaultKind::kLossBurst, 8.0, 0.5, 0, 0.0),
      event(FaultKind::kRateCollapse, 10.0, 1.0, 1, 0.8),
      event(FaultKind::kRttSpike, 12.0, 0.5, 1, 20.0),
  };
  b.plan.events[3].ge = {0.05, 0.5, 0.0, 0.1};
  return b;
}

TEST(FleetRepro, ShrinkMinimizesNoisyPlanToTheBlackout) {
  const ReproBundle bundle = noisy_fleet_bundle();
  auto shrink_at = [&bundle](int jobs) {
    ShrinkConfig cfg;
    cfg.jobs = jobs;
    return shrink_repro_bundle(bundle, cfg);
  };
  const ShrinkResult serial = shrink_at(1);
  const ShrinkResult parallel = shrink_at(4);

  ASSERT_TRUE(serial.reproduced);
  EXPECT_EQ(serial.initial_events, 6);
  EXPECT_EQ(serial.final_events, 1);
  ASSERT_EQ(serial.minimized.plan.events.size(), 1u);
  EXPECT_EQ(serial.minimized.plan.events[0].kind, FaultKind::kBlackout);
  // Still a fleet bundle, and the horizon ladder shortened the fleet's
  // own time limit.
  ASSERT_TRUE(serial.minimized.fleet.has_value());
  EXPECT_LT(serial.minimized.fleet->time_limit, seconds(40.0));

  // Bitwise identical minimized bundle and step log for any --jobs.
  EXPECT_EQ(repro_bundle_to_json(serial.minimized),
            repro_bundle_to_json(parallel.minimized));
  EXPECT_EQ(serial.log, parallel.log);

  // The rewritten expectations replay bitwise.
  const ReplayResult replay = replay_repro_bundle(serial.minimized);
  EXPECT_TRUE(replay.matches)
      << (replay.mismatches.empty() ? "" : replay.mismatches.front());
}

}  // namespace
}  // namespace mpdash
