// Fault-injection subsystem tests: the Gilbert–Elliott loss chain, fault
// plan generation, scripted FaultInjector execution, the recovery-on vs.
// recovery-off acceptance demo, and the seeded chaos campaign (invariants
// plus bitwise jobs-count independence).

#include <gtest/gtest.h>

#include "exp/chaos.h"
#include "exp/scenario.h"
#include "exp/session.h"
#include "fault/fault.h"
#include "fault/injector.h"
#include "link/loss.h"
#include "util/rng.h"

namespace mpdash {
namespace {

// --- Gilbert–Elliott chain ---------------------------------------------

TEST(GilbertElliott, StepTransitionsAreExact) {
  GilbertElliottConfig cfg;
  cfg.p_good_to_bad = 0.5;
  cfg.p_bad_to_good = 0.5;
  cfg.loss_good = 0.0;
  cfg.loss_bad = 1.0;
  GilbertElliottLoss ge(cfg);
  EXPECT_FALSE(ge.in_bad_state());
  // Good state: never drops; u_flip below p_good_to_bad flips to Bad.
  EXPECT_FALSE(ge.step(0.0, 0.4));
  EXPECT_TRUE(ge.in_bad_state());
  // Bad state with loss_bad = 1: every packet drops until the flip back.
  EXPECT_TRUE(ge.step(0.99, 0.9));
  EXPECT_TRUE(ge.in_bad_state());
  EXPECT_TRUE(ge.step(0.0, 0.1));  // drops, then flips back to Good
  EXPECT_FALSE(ge.in_bad_state());
}

TEST(GilbertElliott, LongRunLossMatchesStationaryDistribution) {
  // Stationary P(bad) = p_gb / (p_gb + p_bg) = 0.01 / 0.21 ≈ 0.0476, so
  // the long-run drop rate is ≈ 0.0476 * 0.9 ≈ 4.3 %.
  GilbertElliottLoss ge(GilbertElliottConfig{});
  Rng rng(99);
  int drops = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    if (ge.should_drop(rng)) ++drops;
  }
  const double rate = static_cast<double>(drops) / n;
  EXPECT_GT(rate, 0.03);
  EXPECT_LT(rate, 0.06);
}

TEST(GilbertElliott, LossesComeInBursts) {
  // Consecutive-drop runs should be much longer than i.i.d. loss at the
  // same rate would produce (mean run ≈ 1/(p_bg + (1-loss_bad)) ≈ 3+).
  GilbertElliottLoss ge(GilbertElliottConfig{});
  Rng rng(7);
  int runs = 0, drops = 0;
  bool in_run = false;
  for (int i = 0; i < 200000; ++i) {
    if (ge.should_drop(rng)) {
      ++drops;
      if (!in_run) {
        ++runs;
        in_run = true;
      }
    } else {
      in_run = false;
    }
  }
  ASSERT_GT(runs, 0);
  const double mean_run = static_cast<double>(drops) / runs;
  EXPECT_GT(mean_run, 2.0);  // i.i.d. at 4 % would give ≈ 1.04
}

// --- fault plans --------------------------------------------------------

TEST(FaultPlan, RandomPlanIsDeterministic) {
  RandomPlanConfig cfg;
  const FaultPlan a = random_fault_plan(42, cfg);
  const FaultPlan b = random_fault_plan(42, cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].at, b.events[i].at);
    EXPECT_EQ(a.events[i].duration, b.events[i].duration);
    EXPECT_EQ(a.events[i].path_id, b.events[i].path_id);
    EXPECT_EQ(a.events[i].value, b.events[i].value);
  }
  const FaultPlan c = random_fault_plan(43, cfg);
  EXPECT_NE(describe(a.events[0]), describe(c.events[0]));
}

TEST(FaultPlan, EveryWindowRespectsTheMargins) {
  RandomPlanConfig cfg;
  cfg.num_events = 12;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const FaultPlan plan = random_fault_plan(seed, cfg);
    ASSERT_EQ(plan.size(), 12u);
    TimePoint prev = kTimeZero;
    for (const FaultEvent& e : plan.events) {
      EXPECT_GE(e.at, kTimeZero + cfg.start_margin);
      EXPECT_LE(e.end(), kTimeZero + cfg.horizon - cfg.end_margin);
      EXPECT_GT(e.duration, kDurationZero);
      EXPECT_GE(e.at, prev);  // chronological
      prev = e.at;
    }
    EXPECT_LE(plan.last_end(), kTimeZero + cfg.horizon - cfg.end_margin);
  }
}

// --- scripted injector --------------------------------------------------

FaultEvent make_event(FaultKind kind, double at_s, double dur_s,
                      int path = 0, double value = 0.0) {
  FaultEvent e;
  e.kind = kind;
  e.at = kTimeZero + seconds(at_s);
  e.duration = seconds(dur_s);
  e.path_id = path;
  e.value = value;
  return e;
}

TEST(FaultInjector, BlackoutTogglesBothLinksAndRestores) {
  Scenario scenario(
      constant_scenario(DataRate::mbps(5.0), DataRate::mbps(5.0)));
  FaultPlan plan;
  plan.events.push_back(make_event(FaultKind::kBlackout, 2.0, 3.0,
                                   kWifiPathId));
  FaultInjector injector(scenario.loop(), plan);
  for (NetPath* p : scenario.paths()) injector.attach_path(p);
  injector.arm();

  NetPath& wifi = *scenario.paths()[kWifiPathId];
  bool down_mid = false, up_after = true;
  scenario.loop().schedule_at(kTimeZero + seconds(3.5), [&] {
    down_mid = wifi.downlink().is_down() && wifi.uplink().is_down();
  });
  scenario.loop().schedule_at(kTimeZero + seconds(5.5), [&] {
    up_after = !wifi.downlink().is_down() && !wifi.uplink().is_down();
  });
  scenario.loop().run();
  EXPECT_TRUE(down_mid);
  EXPECT_TRUE(up_after);
  EXPECT_TRUE(injector.quiescent());
  EXPECT_EQ(injector.faults_started(), 1);
  EXPECT_EQ(injector.faults_ended(), 1);
}

TEST(FaultInjector, OverlappingImpairmentsComposeAndRestore) {
  Scenario scenario(
      constant_scenario(DataRate::mbps(5.0), DataRate::mbps(5.0)));
  Link& down = scenario.paths()[kWifiPathId]->downlink();
  FaultPlan plan;
  plan.events.push_back(
      make_event(FaultKind::kRateCollapse, 1.0, 4.0, kWifiPathId, 0.5));
  plan.events.push_back(
      make_event(FaultKind::kRateCollapse, 2.0, 4.0, kWifiPathId, 0.2));
  plan.events.push_back(
      make_event(FaultKind::kRttSpike, 1.0, 2.0, kWifiPathId, 100.0));
  FaultInjector injector(scenario.loop(), plan);
  for (NetPath* p : scenario.paths()) injector.attach_path(p);
  injector.arm();

  double factor_mid = 0.0, factor_tail = 0.0, factor_after = 0.0;
  Duration extra_mid = kDurationZero, extra_after = kDurationZero;
  scenario.loop().schedule_at(kTimeZero + seconds(2.5), [&] {
    factor_mid = down.rate_factor();   // both collapses active
    extra_mid = down.extra_delay();    // spike active
  });
  scenario.loop().schedule_at(kTimeZero + seconds(5.5), [&] {
    factor_tail = down.rate_factor();  // only the second collapse left
    extra_after = down.extra_delay();  // spike lifted at t=3
  });
  scenario.loop().schedule_at(kTimeZero + seconds(6.5), [&] {
    factor_after = down.rate_factor();
  });
  scenario.loop().run();
  EXPECT_DOUBLE_EQ(factor_mid, 0.1);   // 0.5 * 0.2
  EXPECT_DOUBLE_EQ(factor_tail, 0.2);
  EXPECT_DOUBLE_EQ(factor_after, 1.0);
  EXPECT_EQ(extra_mid, seconds(0.1));
  EXPECT_EQ(extra_after, kDurationZero);
  EXPECT_TRUE(injector.quiescent());
}

TEST(FaultInjector, FlapBalancesDownAndUpPhases) {
  Scenario scenario(
      constant_scenario(DataRate::mbps(5.0), DataRate::mbps(5.0)));
  FaultPlan plan;
  // 1 s down phases alternating with 1 s up phases across [2, 7).
  plan.events.push_back(
      make_event(FaultKind::kFlap, 2.0, 5.0, kWifiPathId, 1.0));
  FaultInjector injector(scenario.loop(), plan);
  for (NetPath* p : scenario.paths()) injector.attach_path(p);
  injector.arm();

  const Link& down = scenario.paths()[kWifiPathId]->downlink();
  std::vector<bool> samples;  // at 2.5 (down), 3.5 (up), 4.5 (down), 7.5
  for (const double t : {2.5, 3.5, 4.5, 7.5}) {
    scenario.loop().schedule_at(kTimeZero + seconds(t), [&] {
      samples.push_back(down.is_down());
    });
  }
  scenario.loop().run();
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_TRUE(samples[0]);
  EXPECT_FALSE(samples[1]);
  EXPECT_TRUE(samples[2]);
  EXPECT_FALSE(samples[3]);  // restored after the window
  EXPECT_TRUE(injector.quiescent());
}

TEST(FaultInjector, UnattachedTargetsAreSkippedNotFatal) {
  Scenario scenario(
      constant_scenario(DataRate::mbps(5.0), DataRate::mbps(5.0)));
  FaultPlan plan;
  plan.events.push_back(make_event(FaultKind::kBlackout, 1.0, 1.0, 7));
  plan.events.push_back(make_event(FaultKind::kServerStall, 1.0, 1.0));
  FaultInjector injector(scenario.loop(), plan);  // nothing attached
  injector.arm();
  scenario.loop().run();
  EXPECT_EQ(injector.faults_skipped(), 2);
  EXPECT_EQ(injector.faults_started(), 0);
  EXPECT_TRUE(injector.quiescent());
}

TEST(FaultInjector, FaultRecordsStayUnspannedWhileChunkSpansOpen) {
  // Latent-assumption regression: fault windows are trace-global, so
  // kFault records must never inherit an ambient chunk span — even in a
  // pipelined session where several spans sit on the telemetry stack
  // whenever the injector's timer fires.
  ScenarioConfig net =
      constant_scenario(DataRate::mbps(2.0), DataRate::mbps(2.0));
  net.seed = 5;
  Scenario scenario(net);

  FaultPlan plan;
  plan.events.push_back(
      make_event(FaultKind::kLossBurst, 6.0, 2.0, kWifiPathId));
  plan.events.push_back(
      make_event(FaultKind::kLossBurst, 10.0, 2.0, kCellularPathId));

  Telemetry telemetry;
  TraceCollector collector;
  telemetry.add_sink(&collector);

  SessionConfig cfg;
  cfg.scheme = Scheme::kMpDashRate;
  cfg.adaptation = "festive";
  cfg.player.max_inflight_chunks = 3;
  cfg.http_recovery.request_timeout = seconds(4.0);
  cfg.http_recovery.max_retries = 4;
  cfg.http_recovery.jitter_seed = 11;
  SessionEnv env;
  env.telemetry = &telemetry;
  env.faults = &plan;
  const Video video("clip", seconds(2.0), 14,
                    {DataRate::mbps(0.6), DataRate::mbps(1.2)}, 0.1, 3);
  const SessionResult res = run_streaming_session(scenario, video, cfg, env);
  ASSERT_TRUE(res.completed);
  ASSERT_TRUE(res.faults_quiescent);

  int fault_records = 0;
  int open_spans = 0;
  int faults_with_spans_open = 0;
  for (const TraceRecord& r : collector.records()) {
    if (r.type == TraceType::kSpanStart) ++open_spans;
    if (r.type == TraceType::kSpanEnd) --open_spans;
    if (r.type != TraceType::kFault) continue;
    ++fault_records;
    if (open_spans > 0) ++faults_with_spans_open;
    EXPECT_EQ(r.span, 0u) << r.label << " fault record at "
                          << to_seconds(r.at) << " inherited span "
                          << r.span;
  }
  EXPECT_EQ(fault_records, 4);  // start + end per event
  // The regression only bites if a span was actually open when the
  // injector fired; make sure the scenario exercises that.
  EXPECT_GT(faults_with_spans_open, 0);
}

// --- recovery acceptance: subflow death -> reinjection -> completion ----

class RecoveryAcceptance : public ::testing::Test {
 protected:
  SessionResult run(bool recovery) {
    ScenarioConfig net =
        constant_scenario(DataRate::mbps(3.0), DataRate::mbps(3.0));
    net.seed = 5;
    Scenario scenario(net);

    FaultPlan plan;
    // Blackout from t=10 s to far past the time limit: the WiFi subflow is
    // dead for the rest of the session.
    plan.events.push_back(
        make_event(FaultKind::kBlackout, 10.0, 500.0, kWifiPathId));

    SessionConfig cfg;
    cfg.scheme = Scheme::kBaseline;  // vanilla MPTCP data plane
    cfg.adaptation = "festive";
    cfg.time_limit = seconds(180.0);
    SessionEnv env;
    env.faults = &plan;
    if (recovery) {
      cfg.mptcp_recovery.max_consecutive_rtos = 4;
      cfg.mptcp_recovery.reprobe_interval = seconds(5.0);
      cfg.http_recovery.request_timeout = seconds(4.0);
      cfg.http_recovery.max_retries = 4;
      cfg.http_recovery.jitter_seed = 11;
      cfg.player.max_chunk_attempts = 3;
    }
    const Video video("clip", seconds(4.0), 12,
                      {DataRate::mbps(0.58), DataRate::mbps(1.01),
                       DataRate::mbps(1.47)},
                      0.1, 3);
    return run_streaming_session(scenario, video, cfg, env);
  }
};

TEST_F(RecoveryAcceptance, SubflowDeathReinjectionCompletion) {
  const SessionResult res = run(/*recovery=*/true);
  EXPECT_TRUE(res.completed);
  EXPECT_FALSE(res.manifest_failed);
  EXPECT_EQ(res.chunks + res.chunks_abandoned, 12);
  EXPECT_GE(res.subflow_failures, 1);
  EXPECT_GE(res.reinjected_packets, 1);
  EXPECT_EQ(res.reinject_backlog, 0u);
  // Stranded bytes were re-delivered: accounting balances both ways.
  EXPECT_EQ(res.server_data_seq_high, res.client_bytes_in_order);
  EXPECT_EQ(res.client_data_seq_high, res.server_bytes_in_order);
}

TEST_F(RecoveryAcceptance, SameFaultHangsWithRecoveryDisabled) {
  const SessionResult res = run(/*recovery=*/false);
  // Without failure detection the data stranded on the dead WiFi subflow
  // blocks in-order delivery forever; the session times out incomplete.
  EXPECT_FALSE(res.completed);
  EXPECT_EQ(res.subflow_failures, 0);
  EXPECT_EQ(res.reinjected_packets, 0);
}

// --- chaos campaign -----------------------------------------------------

ChaosConfig small_chaos(int seeds) {
  ChaosConfig cfg;
  cfg.seed_count = seeds;
  cfg.chunk_count = 10;
  cfg.progress = nullptr;
  return cfg;
}

TEST(ChaosCampaign, InvariantsHoldAcrossSeeds) {
  const ChaosCampaignResult res = run_chaos_campaign(small_chaos(8));
  ASSERT_EQ(res.runs.size(), 8u);
  for (const ChaosRunResult& r : res.runs) {
    for (const std::string& v : r.violations) {
      ADD_FAILURE() << "seed " << r.seed << ": " << v;
    }
    EXPECT_TRUE(r.completed) << "seed " << r.seed;
  }
  EXPECT_EQ(res.violation_count(), 0);
}

TEST(ChaosCampaign, DigestIsIdenticalForAnyJobCount) {
  ChaosConfig cfg = small_chaos(6);
  cfg.jobs = 1;
  const std::string serial = run_chaos_campaign(cfg).digest();
  cfg.jobs = 4;
  const std::string parallel = run_chaos_campaign(cfg).digest();
  EXPECT_EQ(serial, parallel);
  EXPECT_FALSE(serial.empty());
}

// --- pipelined chaos ----------------------------------------------------

TraceRecord http_rec(double at_s, TraceType type, SpanId span,
                     const char* label, int level = -1) {
  TraceRecord r;
  r.at = TimePoint(seconds(at_s));
  r.type = type;
  r.span = span;
  r.label = label;
  r.level = level;
  return r;
}

TEST(PipelineInvariants, OverlappingCleanLifecyclePasses) {
  // Two requests pipelined: span 2 opens before span 1 closes, each gets
  // its response while open, one retry inside the budget.
  const std::vector<TraceRecord> trace = {
      http_rec(0.0, TraceType::kSpanStart, 1, "chunk"),
      http_rec(0.1, TraceType::kHttp, 1, "request", 0),
      http_rec(0.2, TraceType::kSpanStart, 2, "chunk"),
      http_rec(0.3, TraceType::kHttp, 2, "request", 0),
      http_rec(0.5, TraceType::kHttp, 1, "retry", 1),
      http_rec(0.9, TraceType::kHttp, 1, "response", 1),
      http_rec(1.0, TraceType::kSpanEnd, 1, "delivered"),
      http_rec(1.2, TraceType::kHttp, 2, "response", 0),
      http_rec(1.3, TraceType::kSpanEnd, 2, "delivered"),
  };
  EXPECT_TRUE(check_pipeline_invariants(trace, 4).empty());
}

TEST(PipelineInvariants, ResponseToClosedSpanFlagged) {
  const std::vector<TraceRecord> trace = {
      http_rec(0.0, TraceType::kSpanStart, 1, "chunk"),
      http_rec(0.5, TraceType::kSpanEnd, 1, "abandoned"),
      http_rec(0.9, TraceType::kHttp, 1, "response", 0),
  };
  const auto v = check_pipeline_invariants(trace, 4);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("dead span 1"), std::string::npos) << v[0];
}

TEST(PipelineInvariants, SpanReopenFlagged) {
  const std::vector<TraceRecord> trace = {
      http_rec(0.0, TraceType::kSpanStart, 1, "chunk"),
      http_rec(0.5, TraceType::kSpanEnd, 1, "delivered"),
      http_rec(0.6, TraceType::kSpanStart, 1, "chunk"),
  };
  const auto v = check_pipeline_invariants(trace, 4);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("reopened"), std::string::npos) << v[0];
}

TEST(PipelineInvariants, RetryBudgetOverrunFlagged) {
  const std::vector<TraceRecord> trace = {
      http_rec(0.0, TraceType::kSpanStart, 1, "chunk"),
      http_rec(0.5, TraceType::kHttp, 1, "retry", 5),
  };
  const auto v = check_pipeline_invariants(trace, 4);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("retry budget exceeded"), std::string::npos) << v[0];
}

TEST(ChaosCampaign, PipelinedInvariantsHoldAcrossSeeds) {
  // The same fault gauntlet with a 3-deep prefetch window: every chunk
  // still delivered or cleanly abandoned, no stale response surfaces to a
  // dead span, retry budgets honored, counters consistent.
  ChaosConfig cfg = small_chaos(8);
  cfg.session.inflight = 3;
  const ChaosCampaignResult res = run_chaos_campaign(cfg);
  ASSERT_EQ(res.runs.size(), 8u);
  for (const ChaosRunResult& r : res.runs) {
    for (const std::string& v : r.violations) {
      ADD_FAILURE() << "seed " << r.seed << ": " << v;
    }
    EXPECT_TRUE(r.completed) << "seed " << r.seed;
  }
  EXPECT_EQ(res.violation_count(), 0);
}

TEST(ChaosCampaign, PipelinedDigestIsIdenticalForAnyJobCount) {
  ChaosConfig cfg = small_chaos(6);
  cfg.session.inflight = 3;
  cfg.jobs = 1;
  const std::string serial = run_chaos_campaign(cfg).digest();
  cfg.jobs = 4;
  const std::string parallel = run_chaos_campaign(cfg).digest();
  EXPECT_EQ(serial, parallel);
  EXPECT_FALSE(serial.empty());
}

TEST(ChaosCampaign, RecoveryOffProducesViolations) {
  // The same fault plans without the recovery stack must trip invariants
  // (hung sessions / undelivered chunks) on at least one seed — otherwise
  // the campaign isn't actually exercising anything.
  // Longer sessions (30 chunks) overlap more fault windows; with 10-chunk
  // sessions most faults land after playback already ended and plain RTO
  // retransmission papers over the rest.
  ChaosConfig cfg = small_chaos(8);
  cfg.chunk_count = 30;
  cfg.session.scheme = Scheme::kMpDashRate;
  cfg.session.recovery = false;
  const ChaosCampaignResult res = run_chaos_campaign(cfg);
  EXPECT_GT(res.violation_count(), 0);
}

}  // namespace
}  // namespace mpdash
