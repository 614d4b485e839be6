#include "workloads.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <optional>

#include "analysis/rollup.h"
#include "analysis/spans.h"
#include "exp/chaos.h"
#include "exp/fleet.h"
#include "exp/scenario.h"
#include "exp/session.h"
#include "fault/fault.h"
#include "trace/locations.h"
#include "util/rng.h"

namespace perfbench {

using namespace mpdash;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

void shuffle(std::vector<std::size_t>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(v[i - 1], v[j]);
  }
}

void Workload::shuffle_order(std::uint64_t seed) {
  order_.resize(pool_size());
  for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  Rng rng(derive_stream_seed(seed, name()));
  shuffle(order_, rng);
}

std::size_t Workload::min_units() const {
  std::size_t n = 10;
  while (n - static_cast<std::size_t>(std::ceil(
                 tail_percentile() / 100.0 * static_cast<double>(n))) <
         10) {
    ++n;
  }
  return n;
}

namespace {

std::string session_digest_text(const SessionResult& r) {
  char buf[640];
  std::snprintf(
      buf, sizeof buf,
      "done=%d t=%.17g wifi=%lld cell=%lld stalls=%d stall_s=%.17g sw=%d "
      "chunks=%d br=%.17g steady=%.17g lvl=%.17g miss=%d engaged=%d "
      "ewifi=%.17g elte=%.17g log=%zu ev=%zu",
      r.completed ? 1 : 0, r.session_s, static_cast<long long>(r.wifi_bytes),
      static_cast<long long>(r.cell_bytes), r.stalls, r.stall_s, r.switches,
      r.chunks, r.avg_bitrate_mbps, r.steady_avg_bitrate_mbps, r.avg_level,
      r.deadline_misses, r.chunks_engaged, r.wifi_energy_j, r.lte_energy_j,
      r.chunk_log.size(), r.events.size());
  return buf;
}

// `field`: the paper's §7.3 field study — full 10-minute Big Buck Bunny
// sessions over the 33 location profiles, FESTIVE and BBA each under
// vanilla MPTCP and both MP-DASH deadline modes. Sequential playback, no
// faults, telemetry detached. Pool = the whole 198-cell grid, pool member
// p = location p / 6, cell p % 6.
//
// Session cost varies by location and cell (±12% each), so a random
// sample of a few dozen sessions would make run-to-run spread track the
// sample, not the code. The order is instead built of rounds: each round
// visits every location once, in seeded order, and location l plays cell
// (c_l + round) % 6 for a seeded c_l. Timed runs stop on round
// boundaries, so every run covers every location equally often.
class FieldWorkload final : public Workload {
 public:
  static constexpr const char* kAlgos[] = {"festive", "bba"};
  static constexpr Scheme kSchemes[] = {
      Scheme::kBaseline, Scheme::kMpDashRate, Scheme::kMpDashDuration};
  static constexpr std::size_t kCells = 6;

  const char* name() const override { return "field"; }
  std::size_t pool_size() const override {
    return field_study_locations().size() * kCells;
  }
  std::size_t round_size() const override {
    return field_study_locations().size();
  }
  std::size_t traced_units() const override { return 6; }
  double tail_percentile() const override { return 80.0; }

  void setup(std::uint64_t seed, SpanLog& spans) override {
    build_rounds(seed);
    const auto& locations = field_study_locations();
    std::vector<BandwidthTrace> wifi, lte;
    {
      SpanLog::Scope s(spans, "trace_gen", -1);
      video_ = big_buck_bunny(seconds(4.0));
      const Duration horizon = video_->total_duration() + seconds(120.0);
      for (const LocationProfile& loc : locations) {
        wifi.push_back(loc.wifi_trace(horizon));
        lte.push_back(loc.lte_trace(horizon));
      }
    }
    SpanLog::Scope s(spans, "scenario", -1);
    nets_.clear();
    for (std::size_t li = 0; li < locations.size(); ++li) {
      ScenarioConfig cfg;
      cfg.wifi_down = std::move(wifi[li]);
      cfg.lte_down = std::move(lte[li]);
      cfg.wifi_rtt = locations[li].wifi_rtt;
      cfg.lte_rtt = locations[li].lte_rtt;
      nets_.push_back(std::move(cfg));
    }
  }

  UnitResult run_unit(std::size_t p, std::int64_t unit,
                      Tracer* tracer) override {
    const auto unit_start = EventProbe::Clock::now();
    SessionConfig cfg;
    cfg.adaptation = kAlgos[(p % kCells) / 3];
    cfg.scheme = kSchemes[p % 3];
    UnitResult out;
    try {
      Telemetry telemetry;  // outlives the scenario wired to it
      std::optional<RecordTally> tally;
      std::optional<SpanLog::Scope> scenario_span;
      if (tracer) scenario_span.emplace(tracer->spans, "scenario", unit);
      Scenario scenario(nets_[p / kCells]);
      scenario_span.reset();
      SessionEnv env;
      std::optional<EventProbe> probe;
      if (tracer) {
        tally.emplace(tracer->counts);
        probe.emplace(scenario.loop(), tracer->probe, unit_start);
        telemetry.add_sink(&*tally);
        telemetry.add_sink(&*probe);
        env.telemetry = &telemetry;
      }
      SessionResult res;
      {
        std::optional<SpanLog::Scope> s;
        if (tracer) s.emplace(tracer->spans, "session", unit);
        res = run_streaming_session(scenario, *video_, cfg, env);
      }
      if (tracer) {
        probe->finish();
        telemetry.remove_sink(&*probe);
        telemetry.remove_sink(&*tally);
        tracer->counts.add_registry(telemetry.metrics());
      }
      out.sim_s = res.session_s;
      out.digest = fnv1a(session_digest_text(res));
      if (!res.completed) out.error = "session did not complete";
    } catch (const std::exception& e) {
      out.error = std::string("threw: ") + e.what();
    }
    return out;
  }

 private:
  void build_rounds(std::uint64_t seed) {
    const std::size_t n = round_size();
    Rng rng(derive_stream_seed(seed, name()));
    std::vector<std::size_t> base_cell(n);
    for (std::size_t& c : base_cell) {
      c = static_cast<std::size_t>(rng.uniform_int(0, kCells - 1));
    }
    order_.clear();
    for (std::size_t round = 0; round < kCells; ++round) {
      std::vector<std::size_t> locs(n);
      for (std::size_t i = 0; i < n; ++i) locs[i] = i;
      shuffle(locs, rng);
      for (const std::size_t l : locs) {
        order_.push_back(l * kCells + (base_cell[l] + round) % kCells);
      }
    }
  }

  std::optional<Video> video_;
  std::vector<ScenarioConfig> nets_;
};

// `fleet`: 64 tenants on one shared WiFi + LTE pair with DRR fair
// queueing, one run_fleet per fleet seed. Pool = fleet seeds 1..48.
class FleetWorkload final : public Workload {
 public:
  static constexpr int kTenants = 64;

  const char* name() const override { return "fleet"; }
  std::size_t pool_size() const override { return 48; }
  std::size_t traced_units() const override { return 4; }
  double tail_percentile() const override { return 60.0; }

  void setup(std::uint64_t seed, SpanLog& spans) override {
    shuffle_order(seed);
    SpanLog::Scope s(spans, "scenario", -1);
    configs_.assign(pool_size(), FleetConfig{});
    for (std::size_t p = 0; p < configs_.size(); ++p) {
      FleetConfig& c = configs_[p];
      c.sessions = kTenants;
      c.seed = p + 1;
      c.chunk_count = 20;
      c.discipline = QueueDiscipline::kFairQueue;
      // Every tenant's spec spelled out (all SessionSpec defaults), as a
      // fleet experiment lists its tenants.
      c.mix.assign(kTenants, SessionSpec{});
    }
  }

  UnitResult run_unit(std::size_t p, std::int64_t unit,
                      Tracer* tracer) override {
    UnitResult out;
    try {
      Telemetry telemetry;
      std::optional<RecordTally> tally;
      if (tracer) {
        tally.emplace(tracer->counts);
        telemetry.add_sink(&*tally);
      }
      FleetResult r;
      {
        std::optional<SpanLog::Scope> s;
        if (tracer) s.emplace(tracer->spans, "session", unit);
        r = run_fleet(configs_[p], tracer ? &telemetry : nullptr);
      }
      for (const FleetSessionResult& t : r.sessions) {
        out.sim_s += t.result.session_s;
        if (tracer) tracer->counts.add_session_result(t.result);
      }
      if (tracer) tracer->counts.add_registry(telemetry.metrics());
      out.digest = fnv1a(r.fingerprint() + "\n" + fleet_sessions_csv(r));
      if (!r.ok()) {
        out.error = std::string("outcome ") + to_string(r.outcome);
      } else if (r.completed != configs_[p].sessions) {
        out.error = "not every tenant completed";
      }
    } catch (const std::exception& e) {
      out.error = std::string("threw: ") + e.what();
    }
    return out;
  }

 private:
  std::vector<FleetConfig> configs_;
};

// `chaos`: pipelined (3 chunks in flight) chaos runs with recovery on,
// each with a span-model trace capture that is then read back by
// build_span_model + attribute_misses. Pool = chaos seeds 1..600.
class ChaosWorkload final : public Workload {
 public:
  const char* name() const override { return "chaos"; }
  std::size_t pool_size() const override { return 600; }
  std::size_t traced_units() const override { return 120; }
  double tail_percentile() const override { return 95.0; }

  void setup(std::uint64_t seed, SpanLog& spans) override {
    shuffle_order(seed);
    {
      SpanLog::Scope s(spans, "scenario", -1);
      cfg_ = ChaosConfig{};
      cfg_.session.inflight = 3;
      cfg_.progress = nullptr;
    }
    SpanLog::Scope s(spans, "trace_gen", -1);
    video_ = chaos_video(cfg_);
    plans_.clear();
    for (std::size_t p = 0; p < pool_size(); ++p) {
      plans_.push_back(random_fault_plan(p + 1, cfg_.plan));
    }
  }

  UnitResult run_unit(std::size_t p, std::int64_t unit,
                      Tracer* tracer) override {
    UnitResult out;
    try {
      Telemetry telemetry;
      TraceCollector capture;
      TypeFilterSink filter(&capture, span_model_trace_mask());
      telemetry.add_sink(&filter);
      std::optional<RecordTally> tally;
      if (tracer) {
        tally.emplace(tracer->counts);
        telemetry.add_sink(&*tally);
      }
      ChaosRunResult r;
      {
        std::optional<SpanLog::Scope> s;
        if (tracer) s.emplace(tracer->spans, "session", unit);
        r = run_chaos_single(cfg_, *video_, p + 1, plans_[p], telemetry);
      }
      SpanModel model;
      {
        std::optional<SpanLog::Scope> s;
        if (tracer) s.emplace(tracer->spans, "span_model", unit);
        model = build_span_model(capture.records());
      }
      {
        std::optional<SpanLog::Scope> s;
        if (tracer) s.emplace(tracer->spans, "attribute", unit);
        attribute_misses(&model, kWifiPathId);
      }
      const RollupRow row = rollup_span_model(model, std::to_string(p + 1));
      if (tracer) {
        tracer->counts.add_registry(telemetry.metrics());
        tracer->counts.telemetry_records +=
            static_cast<double>(capture.records().size());
      }
      out.sim_s = r.session_s;
      out.digest = fnv1a(r.fingerprint() + "\n" + rollup_row_csv(row));
      if (!r.ok()) out.error = std::string("outcome ") + to_string(r.outcome);
    } catch (const std::exception& e) {
      out.error = std::string("threw: ") + e.what();
    }
    return out;
  }

 private:
  ChaosConfig cfg_;
  std::optional<Video> video_;
  std::vector<FaultPlan> plans_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "field") return std::make_unique<FieldWorkload>();
  if (name == "fleet") return std::make_unique<FleetWorkload>();
  if (name == "chaos") return std::make_unique<ChaosWorkload>();
  return nullptr;
}

}  // namespace perfbench
