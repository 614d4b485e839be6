#pragma once
// Triage: repro bundles and the campaign driver that emits them.
//
// A repro bundle is a self-contained JSON description of one failing run
// — the run's input (a session spec + chunk count, or a whole fleet
// config), the exact fault plan, the seed, and the verdict the campaign
// observed. `mpdash_sim repro <bundle>` replays either kind through the
// identical campaign code path (run_chaos_single or run_fleet) and
// verifies the same outcome and violation strings reproduce bitwise; the
// shrinker uses the same replay as its delta-debugging oracle.
//
// Serialization is canonical (fixed field order, integer-ns times,
// shortest-round-trip doubles), so serialize → parse → re-serialize is
// bitwise stable and minimized bundles can be compared as strings. The two
// kinds keep their own markers and schemas: "mpdash-repro" (schema 2; the
// loader also reads schema 1) and "mpdash-fleet-repro" (schema 1).

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exp/chaos.h"
#include "exp/fleet.h"
#include "fault/fault.h"
#include "runner/campaign.h"

namespace mpdash {

struct ReproBundle {
  // Format version as loaded. Session bundles: schema 1 stored the session
  // knobs as flat top-level fields, schema 2 embeds the canonical
  // SessionSpec object. Fleet bundles are schema 1. The serializer always
  // writes the current schema of the bundle's kind.
  int schema = 2;
  std::uint64_t seed = 0;
  // A session run: the spec the campaign resolved per seed — together with
  // chunk_count, enough to rebuild the exact configuration it ran.
  SessionSpec spec;
  int chunk_count = 30;
  // A fleet run: set exactly for fleet bundles. Its `seed` and `faults`
  // are ignored; the bundle's `seed` and `plan` are authoritative.
  std::optional<FleetConfig> fleet;
  FaultPlan plan;
  // What the originating run observed; replay verifies against these.
  RunOutcome outcome = RunOutcome::kViolation;
  std::string hung_reason;
  std::vector<std::string> expected_violations;

  // The run's time limit, whichever kind of run the bundle describes.
  Duration& time_limit() { return fleet ? fleet->time_limit : spec.time_limit; }
};

// Canonical serialization (see header comment). The loader dispatches on
// the "kind" marker; a missing or unknown marker is rejected with
// `bundle: missing or wrong "kind" marker`.
std::string repro_bundle_to_json(const ReproBundle& b);
bool repro_bundle_from_json(const std::string& text, ReproBundle* out,
                            std::string* error);

// File I/O. write_ creates the parent directory on demand.
bool write_repro_bundle(const ReproBundle& b, const std::string& path,
                        std::string* error);
bool load_repro_bundle(const std::string& path, ReproBundle* out,
                       std::string* error);

// The per-seed bundle filename a campaign emits: <dir>/repro_<seed>.json,
// or <dir>/fleet_repro_<seed>.json for a fleet run.
std::string repro_bundle_path(const std::string& dir, std::uint64_t seed,
                              bool fleet = false);

// The configs a bundle replays under. Chaos: the stored knobs restored,
// bundle emission off. Fleet: the stored config with the bundle's seed and
// plan (borrowed from `b`, which must outlive the config).
ChaosConfig bundle_chaos_config(const ReproBundle& b);
FleetConfig bundle_fleet_config(const ReproBundle& b);

struct ReplayResult {
  RunVerdict run;           // what the replay observed
  std::string fingerprint;  // the replayed run's fingerprint()
  bool matches = false;     // outcome + violation strings bitwise identical
  std::vector<std::string> mismatches;  // human-readable diff when not
};

// Replays the bundle's plan through the campaign code path of its kind on
// a fresh Telemetry and compares against the bundle's expectations.
ReplayResult replay_repro_bundle(const ReproBundle& b);

// The one campaign driver behind `chaos`, `fleet` and the shrinker's
// candidate batches. Runs keys "<name>/<i>" for i < count on the campaign
// runner; `input(ctx)` describes run i as a bundle and `body(input, ctx)`
// runs it. Inside the run body, a non-ok run writes its input bundle, with
// the verdict as expectations, into `bundle_dir` (when set); a body that
// throws therefore writes none, and is folded into kCrashed with a
// "run threw: ..." violation.
template <typename Run, typename Input, typename Body>
CampaignRuns<Run> run_campaign(const std::string& name,
                               std::uint64_t base_seed, int count,
                               const CampaignOptions& opts,
                               const std::string& bundle_dir, Input input,
                               Body body) {
  Campaign<Run> campaign(name, base_seed);
  for (int i = 0; i < count; ++i) {
    campaign.add(name + "/" + std::to_string(i),
                 [&name, &bundle_dir, &input, &body](RunContext& ctx) {
      ReproBundle in = input(ctx);
      Run r = body(in, ctx);
      if (!bundle_dir.empty() && !r.ok()) {
        in.outcome = r.outcome;
        in.hung_reason = r.hung_reason;
        in.expected_violations = r.violations;
        std::string err;
        if (!write_repro_bundle(in,
                                repro_bundle_path(bundle_dir, in.seed,
                                                  in.fleet.has_value()),
                                &err)) {
          std::fprintf(stderr, "%s: bundle for seed %llu not written: %s\n",
                       name.c_str(), static_cast<unsigned long long>(in.seed),
                       err.c_str());
        }
      }
      return r;
    });
  }
  CampaignResult<Run> res = campaign.run(opts);
  CampaignRuns<Run> out;
  out.stats = res.stats;
  out.runs = std::move(res.results);
  for (std::size_t i = 0; i < out.runs.size(); ++i) {
    if (!res.reports[i].ok) {
      out.runs[i].seed = res.reports[i].seed;
      out.runs[i].outcome = RunOutcome::kCrashed;
      out.runs[i].violations.push_back("run threw: " + res.reports[i].error);
    }
  }
  return out;
}

}  // namespace mpdash
