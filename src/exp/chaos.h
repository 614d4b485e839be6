#pragma once
// Chaos campaign: seeded random fault plans swept over the parallel
// campaign runner, with per-run invariant checks.
//
// Each run derives everything mutable — the fault plan, every link's loss
// stream, the HTTP jitter stream — from one per-run seed, streams a short
// video through the full stack with recovery enabled, and then audits the
// wreckage:
//   * the session finished inside the time limit (no hung session);
//   * every chunk was delivered or cleanly abandoned;
//   * byte accounting conserved in both directions (all scheduled stream
//     bytes consumed in order, no stranded reinjection backlog);
//   * every fault window opened and closed (network restored);
//   * telemetry counters agree with the result struct.
//
// Results land in add-order slots (Campaign contract), so the campaign
// digest is bitwise identical for any --jobs value.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/rollup.h"
#include "exp/session.h"
#include "exp/spec.h"
#include "fault/fault.h"
#include "runner/campaign.h"

namespace mpdash {

// Per-run triage outcome. `ok` and `violation` come from the invariant
// audit over a finished session; `hung` means the run watchdog killed a
// live- or run-away simulation (quarantined, campaign kept going);
// `crashed` means the run body threw anything else. Aggregated counts are
// jobs-invariant (results land in add-order slots).
enum class RunOutcome : std::uint8_t {
  kOk = 0,
  kViolation,
  kHung,
  kCrashed,
};

const char* to_string(RunOutcome o);
bool outcome_from_string(std::string_view name, RunOutcome* out);

// What every run reports, whatever it simulated: the triage outcome, the
// watchdog's reason for kHung runs, and the invariant violations. Session
// and fleet results both carry one; the campaign driver, the repro bundle
// and the shrinker's oracle read nothing else.
struct RunVerdict {
  std::uint64_t seed = 0;
  RunOutcome outcome = RunOutcome::kOk;
  std::string hung_reason;              // kHung only
  std::vector<std::string> violations;  // empty = all invariants hold

  bool ok() const { return outcome == RunOutcome::kOk; }
};

// Jobs-invariant outcome tally for a whole campaign.
struct OutcomeCounts {
  int ok = 0;
  int violation = 0;
  int hung = 0;
  int crashed = 0;

  void add(RunOutcome o);
  int bad() const { return violation + hung + crashed; }
};

// A finished campaign (see run_campaign in exp/repro.h) of `Run`s: any
// RunVerdict with a deterministic fingerprint().
template <typename Run>
struct CampaignRuns {
  std::vector<Run> runs;  // seed order
  CampaignStats stats;

  OutcomeCounts outcome_counts() const {
    OutcomeCounts c;
    for (const Run& r : runs) c.add(r.outcome);
    return c;
  }
  // Every run finished with outcome kOk.
  bool clean() const { return outcome_counts().bad() == 0; }
  int violation_count() const {
    int n = 0;
    for (const Run& r : runs) n += static_cast<int>(r.violations.size());
    return n;
  }
  // Concatenated per-run fingerprints: equal digests ⇔ identical campaigns.
  std::string digest() const {
    std::string out;
    for (const Run& r : runs) {
      out += r.fingerprint();
      out += '\n';
    }
    return out;
  }
};

// The spec every chaos run resolves per seed: recovery on, generous
// watchdog budgets — a real chaos run is a few million events, so only a
// livelocked simulation can exhaust the sim-event budget, and the
// wall-clock backstop only fires when a run burns real time without
// burning events.
SessionSpec default_chaos_spec();

struct ChaosConfig {
  int seed_count = 50;
  std::uint64_t base_seed = 1;
  int jobs = 0;  // 0 → MPDASH_JOBS env or hardware cores
  // The per-run session description (scheme, adaptation, player/recovery/
  // watchdog knobs, scenario rates, time limit). Resolved per seed via
  // resolve_session_config / resolve_scenario_config.
  SessionSpec session = default_chaos_spec();
  // Short synthetic video (chunk_count × 2 s) keeps one run ~seconds.
  int chunk_count = 30;
  // Faults are generated inside [start_margin, fault_horizon - end_margin]
  // (see RandomPlanConfig); the session gets until the spec's time limit
  // to finish.
  RandomPlanConfig plan;
  // Per-run metrics time-series cadence; zero disables sampling. The
  // snapshotter only reads the registry, so series runs keep the same
  // digest as bare runs.
  Duration series_interval = kDurationZero;
  // Per-run JSONL trace capture; empty disables. With more than one seed
  // each run writes `<trace_path>.<seed>`. `trace_types` filters the
  // stream (parse_trace_types mask; default = everything).
  std::string trace_path;
  std::uint32_t trace_types = ~0u;
  // Per-run deadline-miss attribution: widens the in-process capture to
  // the span-model record set, runs attribute_misses over it, and fills
  // ChaosRunResult::attribution (one RollupRow keyed by seed). Sinks are
  // pure observers, so the campaign digest is unchanged.
  bool attribution = false;
  std::FILE* progress = stderr;  // nullptr silences the runner
  // When set, the campaign writes a self-contained repro bundle
  // `repro_<seed>.json` for every non-ok run into this directory (created
  // on demand). Per-seed filenames keep emission race-free under any
  // --jobs count.
  std::string bundle_dir;
  // Test-only: runs on the session's event loop before the session starts
  // (livelock injection for the watchdog/quarantine tests). Never set in
  // production paths.
  std::function<void(EventLoop&, std::uint64_t)> pre_session_hook;
};

// The run's verdict plus the session it observed. A kHung run carries no
// session counters (it was aborted mid-sim); a crashed one none either.
struct ChaosRunResult : RunVerdict, SessionResult {
  // Per-run QoE/byte-share time series (kChaosSeriesHeader rows, no
  // header); empty unless ChaosConfig::series_interval > 0.
  std::string series_csv;
  // Per-run miss attribution roll-up (key = seed); only meaningful when
  // ChaosConfig::attribution was set.
  bool has_attribution = false;
  RollupRow attribution;

  // Deterministic one-line digest of everything observable; the jobs-N
  // vs jobs-1 comparison hashes these.
  std::string fingerprint() const;
};

using ChaosCampaignResult = CampaignRuns<ChaosRunResult>;

// Audits one finished session against the chaos invariants. Exposed so
// tests can run single sessions through the same checks.
std::vector<std::string> check_chaos_invariants(const SessionResult& res,
                                                int chunk_count);

// Audits telemetry-counter consistency: the counters in `m` must agree
// with the result struct (an instrumentation site drifting from the source
// of truth is a bug the goldens can't see). `m` must be the registry the
// session instrumented into — run-private for chaos, per-tenant for fleet.
std::vector<std::string> check_counter_invariants(MetricsRegistry& m,
                                                  const SessionResult& res);

// Audits the pipelined request lifecycle from a (kHttp | kSpanStart |
// kSpanEnd)-filtered trace: no HTTP response may be delivered to a span
// that already closed (a stale late response must be discarded, never
// surfaced), no span reopens, and no request exceeds its retry budget.
// Holds for sequential runs too (the sequential player is inflight = 1).
std::vector<std::string> check_pipeline_invariants(
    const std::vector<TraceRecord>& trace, int max_retries);

// The fixed-content synthetic video chaos and fleet runs stream:
// chunk_count × 2 s at 0.6/1.2/2.4 Mbps. `name` is written into the MPD
// manifest, so it is part of the bytes on the wire.
Video synthetic_video(const std::string& name, int chunk_count);

// The synthetic chaos video ("chaos") for `cfg.chunk_count` chunks.
Video chaos_video(const ChaosConfig& cfg);

// The exact campaign run body for one seed with an explicit fault plan:
// scenario/session from (cfg, seed), watchdog armed, invariants audited,
// outcome assigned. Writes no files besides the cfg.trace_path capture,
// and throws when that file cannot be written (the campaign folds the
// throw into kCrashed).
// Exposed so `mpdash_sim repro` and the shrinker replay a bundle's stored
// plan through the identical code path the campaign ran — same seeds,
// same audits, same strings.
ChaosRunResult run_chaos_single(const ChaosConfig& cfg, const Video& video,
                                std::uint64_t seed, const FaultPlan& plan,
                                Telemetry& telemetry);

// Column header for qoe_series_csv rows (includes the trailing newline).
extern const char kChaosSeriesHeader[];

// Flattens a sampled MetricsTimeline into QoE/byte-share CSV rows, one
// per snapshot, each prefixed with `seed` so campaign-level aggregation
// stays unambiguous.
std::string qoe_series_csv(const MetricsTimeline& timeline,
                           std::uint64_t seed);

// Seeds `chaos/<i>` for i < cfg.seed_count, each with a random fault plan,
// on the campaign driver (bundles for non-ok runs when cfg.bundle_dir).
ChaosCampaignResult run_chaos_campaign(const ChaosConfig& cfg);

}  // namespace mpdash
