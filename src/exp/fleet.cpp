#include "exp/fleet.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <iterator>
#include <utility>

#include "exp/repro.h"
#include "fault/injector.h"

namespace mpdash {

namespace {

// The shared bottleneck pair as a Scenario: one WiFi AP and one cellular
// carrier, each a down/up link pair every tenant contends on. Loss streams
// derive from the fleet seed exactly as a chaos run's do.
ScenarioConfig fleet_scenario_config(const FleetConfig& cfg) {
  ScenarioConfig net = constant_scenario(DataRate::mbps(cfg.wifi_mbps),
                                         DataRate::mbps(cfg.lte_mbps));
  net.wifi_up = DataRate::mbps(cfg.wifi_up_mbps);
  net.lte_up = DataRate::mbps(cfg.lte_up_mbps);
  net.wifi_rtt = cfg.wifi_rtt;
  net.lte_rtt = cfg.lte_rtt;
  net.queue_capacity = cfg.queue_capacity;
  net.discipline = cfg.discipline;
  net.seed = derive_stream_seed(cfg.seed, "links");
  return net;
}

}  // namespace

const char kFleetCsvHeader[] =
    "seed,session,scheme,adaptation,join_s,completed,chunks,abandoned,"
    "retries,stalls,stall_s,switches,steady_mbps,qoe,wifi_bytes,cell_bytes,"
    "violations\n";

std::string fleet_sessions_csv(const FleetResult& r) {
  std::string out;
  char buf[320];
  for (const FleetSessionResult& s : r.sessions) {
    const SessionResult& res = s.result;
    std::snprintf(buf, sizeof buf,
                  "%llu,%d,%s,%s,%.3f,%d,%d,%d,%d,%d,%.6f,%d,%.6f,%.6f,"
                  "%lld,%lld,%zu\n",
                  static_cast<unsigned long long>(r.seed), s.session,
                  to_string(s.scheme), s.adaptation.c_str(), s.join_s,
                  res.completed ? 1 : 0, res.chunks, res.chunks_abandoned,
                  res.chunk_retries, res.stalls, res.stall_s, res.switches,
                  res.steady_avg_bitrate_mbps, s.qoe,
                  static_cast<long long>(res.wifi_bytes),
                  static_cast<long long>(res.cell_bytes),
                  s.violations.size());
    out += buf;
  }
  return out;
}

std::string FleetResult::fingerprint() const {
  char buf[320];
  std::snprintf(
      buf, sizeof buf,
      "seed=%llu out=%s n=%zu done=%d qoe=%.6f p10=%.6f jain=%.6f "
      "wifi=%lld cell=%lld faults=%d skip=%d viol=%zu",
      static_cast<unsigned long long>(seed), to_string(outcome),
      sessions.size(), completed, qoe_mean, qoe_p10, jain_fairness,
      static_cast<long long>(wifi_bytes), static_cast<long long>(cell_bytes),
      faults_started, faults_skipped, violations.size());
  std::string out = buf;
  if (!hung_reason.empty()) out += " why=" + hung_reason;
  return out;
}

FleetResult run_fleet(const FleetConfig& cfg, Telemetry* telemetry) {
  FleetResult out;
  out.seed = cfg.seed;
  const int n = std::max(1, cfg.sessions);

  Scenario net(fleet_scenario_config(cfg));
  if (telemetry) net.set_telemetry(telemetry);
  const Video video = synthetic_video("fleet", cfg.chunk_count);

  // Tenant i: flow-i facades onto the shared links, its mix spec resolved
  // with its derived seed, a private telemetry context for the counter
  // audit, and a join at i × join_stagger.
  std::vector<FleetSessionResult> rows(static_cast<std::size_t>(n));
  std::deque<Telemetry> telemetries(rows.size());
  std::vector<Tenant> tenants(rows.size());
  const SessionSpec default_spec;
  for (int i = 0; i < n; ++i) {
    const auto k = static_cast<std::size_t>(i);
    const SessionSpec& spec =
        cfg.mix.empty() ? default_spec : cfg.mix[k % cfg.mix.size()];
    FleetSessionResult& sr = rows[k];
    sr.session = i;
    sr.seed = derive_stream_seed(cfg.seed, "session/" + std::to_string(i));
    sr.scheme = spec.scheme;
    sr.adaptation = spec.adaptation;
    Tenant& t = tenants[k];
    t.paths = net.paths(i);
    t.config = resolve_session_config(spec, sr.seed);
    t.telemetry = &telemetries[k];
    t.join = TimePoint(cfg.join_stagger * i);
    sr.join_s = to_seconds(t.join);
  }
  Tenancy tenancy(net.loop(), video, std::move(tenants), cfg.faults,
                  telemetry);

  try {
    tenancy.run(cfg.time_limit, cfg.watchdog);
  } catch (const WatchdogTripped& e) {
    // Quarantine, chaos-style: the fleet was killed mid-sim, so there are
    // no per-tenant results to audit.
    out.outcome = RunOutcome::kHung;
    out.hung_reason = e.what();
    return out;
  }

  // --- per-tenant collection and audit ---------------------------------
  double qoe_sum = 0.0;
  std::vector<double> qoes;
  double rate_sum = 0.0, rate_sumsq = 0.0;
  TimePoint last_finish{};
  for (std::size_t k = 0; k < rows.size(); ++k) {
    FleetSessionResult& sr = rows[k];
    SessionResult res = tenancy.collect(k);
    if (res.completed) {
      ++out.completed;
      last_finish = std::max(last_finish, tenancy.finish(k));
    }

    sr.qoe = res.steady_avg_bitrate_mbps - kFleetStallPenalty * res.stall_s;
    sr.violations = check_chaos_invariants(res, cfg.chunk_count);
    {
      std::vector<std::string> cv =
          check_counter_invariants(telemetries[k].metrics(), res);
      sr.violations.insert(sr.violations.end(),
                           std::make_move_iterator(cv.begin()),
                           std::make_move_iterator(cv.end()));
    }
    for (const std::string& v : sr.violations) {
      out.violations.push_back("session " + std::to_string(k) + ": " + v);
    }

    qoe_sum += sr.qoe;
    qoes.push_back(sr.qoe);
    rate_sum += res.steady_avg_bitrate_mbps;
    rate_sumsq +=
        res.steady_avg_bitrate_mbps * res.steady_avg_bitrate_mbps;
    sr.result = std::move(res);
  }
  out.sessions = std::move(rows);

  // --- fleet-level audit and aggregates --------------------------------
  if (const FaultInjector* injector = tenancy.faults()) {
    out.faults_started = injector->faults_started();
    out.faults_skipped = injector->faults_skipped();
    if (!injector->quiescent()) {
      out.violations.push_back("fault windows still open at fleet end");
    }
    if (injector->faults_skipped() != 0) {
      out.violations.push_back(std::to_string(injector->faults_skipped()) +
                               " fault events had no attachable target");
    }
  }

  out.fleet_s = out.completed == n ? to_seconds(last_finish)
                                   : to_seconds(cfg.time_limit);
  out.qoe_mean = qoe_sum / static_cast<double>(n);
  std::sort(qoes.begin(), qoes.end());
  out.qoe_p10 = qoes[static_cast<std::size_t>((n + 9) / 10 - 1)];
  out.jain_fairness =
      rate_sumsq > 0.0
          ? (rate_sum * rate_sum) / (static_cast<double>(n) * rate_sumsq)
          : 1.0;
  out.wifi_bytes = net.wifi_bytes();
  out.cell_bytes = net.cellular_bytes();
  const Bytes total = out.wifi_bytes + out.cell_bytes;
  out.cell_fraction = total > 0 ? static_cast<double>(out.cell_bytes) /
                                      static_cast<double>(total)
                                : 0.0;
  out.outcome = out.violations.empty() ? RunOutcome::kOk
                                       : RunOutcome::kViolation;
  return out;
}

// --- campaign ----------------------------------------------------------

std::string fleet_campaign_csv(const FleetCampaignResult& c) {
  std::string out = kFleetCsvHeader;
  for (const FleetResult& r : c.runs) out += fleet_sessions_csv(r);
  return out;
}

FleetCampaignResult run_fleet_campaign(const FleetCampaignConfig& cfg) {
  CampaignOptions opts;
  opts.jobs = cfg.jobs;
  opts.progress = cfg.progress;
  return run_campaign<FleetResult>(
      "fleet", cfg.base_seed, cfg.seed_count, opts, cfg.bundle_dir,
      [&cfg](const RunContext& ctx) {
        ReproBundle in;
        in.seed = ctx.seed;
        in.fleet = cfg.fleet;
        in.fleet->faults = nullptr;
        if (cfg.chaos) {
          in.plan = random_fault_plan(ctx.seed, cfg.plan);
        } else if (cfg.fleet.faults != nullptr) {
          in.plan = *cfg.fleet.faults;
        }
        return in;
      },
      [](const ReproBundle& in, RunContext& ctx) {
        return run_fleet(bundle_fleet_config(in), &ctx.telemetry);
      });
}

}  // namespace mpdash
