#include "exp/repro.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <utility>

#include "fault/fault_json.h"
#include "util/json.h"

namespace mpdash {

namespace {

constexpr char kSessionKind[] = "mpdash-repro";
constexpr char kFleetKind[] = "mpdash-fleet-repro";

std::string fleet_config_to_json(const FleetConfig& c) {
  // Canonical one-line object, same conventions as session_spec_to_json.
  std::string out = "{";
  out += "\"sessions\": " + std::to_string(c.sessions);
  out += ", \"chunk_count\": " + std::to_string(c.chunk_count);
  out += ", \"mix\": [";
  for (std::size_t i = 0; i < c.mix.size(); ++i) {
    if (i > 0) out += ", ";
    out += session_spec_to_json(c.mix[i]);
  }
  out += "]";
  out += ", \"discipline\": " + json_quote(to_string(c.discipline));
  // The shared links' DRR quantum is the link default (one MTU); bundles
  // keep recording it so a reader can tell it never changed.
  out += ", \"fq_quantum\": " + std::to_string(LinkConfig{}.fq_quantum);
  out += ", \"wifi_mbps\": " + json_double(c.wifi_mbps);
  out += ", \"lte_mbps\": " + json_double(c.lte_mbps);
  out += ", \"wifi_up_mbps\": " + json_double(c.wifi_up_mbps);
  out += ", \"lte_up_mbps\": " + json_double(c.lte_up_mbps);
  out += ", \"wifi_rtt_ns\": " + std::to_string(c.wifi_rtt.count());
  out += ", \"lte_rtt_ns\": " + std::to_string(c.lte_rtt.count());
  out += ", \"queue_capacity\": " + std::to_string(c.queue_capacity);
  out += ", \"join_stagger_ns\": " + std::to_string(c.join_stagger.count());
  out += ", \"time_limit_ns\": " + std::to_string(c.time_limit.count());
  out += ", \"watchdog\": " + watchdog_to_json(c.watchdog);
  out += "}";
  return out;
}

bool fleet_config_from_json_value(const JsonValue& root, FleetConfig* out,
                                  std::string* error) {
  if (!root.is_object()) {
    if (error) *error = "fleet config: not an object";
    return false;
  }
  FleetConfig c;
  auto bad = [error](const char* what) {
    if (error) {
      *error = std::string("fleet config: missing or bad \"") + what + "\"";
    }
    return false;
  };
  if (!json_integer(root.find("sessions"), &c.sessions, 1)) {
    return bad("sessions");
  }
  if (!json_integer(root.find("chunk_count"), &c.chunk_count, 1)) {
    return bad("chunk_count");
  }
  const JsonValue* v = root.find("mix");
  if (v == nullptr || !v->is_array()) return bad("mix");
  c.mix.clear();
  for (const JsonValue& item : v->items) {
    SessionSpec spec;
    std::string spec_error;
    if (!session_spec_from_json_value(item, &spec, &spec_error)) {
      if (error) *error = "fleet config: mix entry: " + spec_error;
      return false;
    }
    c.mix.push_back(std::move(spec));
  }
  v = root.find("discipline");
  if (v == nullptr || !v->is_string()) return bad("discipline");
  if (v->str == to_string(QueueDiscipline::kFifo)) {
    c.discipline = QueueDiscipline::kFifo;
  } else if (v->str == to_string(QueueDiscipline::kFairQueue)) {
    c.discipline = QueueDiscipline::kFairQueue;
  } else {
    return bad("discipline");
  }
  Bytes fq_quantum = 0;
  if (!json_integer(root.find("fq_quantum"), &fq_quantum) ||
      fq_quantum != LinkConfig{}.fq_quantum) {
    return bad("fq_quantum");
  }
  auto read_double = [&root, &bad](const char* name, double* field) {
    const JsonValue* w = root.find(name);
    if (w == nullptr || !w->is_number()) return bad(name);
    *field = w->as_double(0.0);
    return true;
  };
  if (!read_double("wifi_mbps", &c.wifi_mbps)) return false;
  if (!read_double("lte_mbps", &c.lte_mbps)) return false;
  if (!read_double("wifi_up_mbps", &c.wifi_up_mbps)) return false;
  if (!read_double("lte_up_mbps", &c.lte_up_mbps)) return false;
  auto read_ns = [&root, &bad](const char* name, Duration* field) {
    std::int64_t ns = 0;
    if (!json_integer(root.find(name), &ns)) return bad(name);
    *field = Duration(ns);
    return true;
  };
  if (!read_ns("wifi_rtt_ns", &c.wifi_rtt)) return false;
  if (!read_ns("lte_rtt_ns", &c.lte_rtt)) return false;
  if (!json_integer(root.find("queue_capacity"), &c.queue_capacity)) {
    return bad("queue_capacity");
  }
  if (!read_ns("join_stagger_ns", &c.join_stagger)) return false;
  if (!read_ns("time_limit_ns", &c.time_limit)) return false;
  if (const char* field =
          watchdog_from_json_value(root.find("watchdog"), &c.watchdog)) {
    return bad(field);
  }
  *out = std::move(c);
  return true;
}

}  // namespace

std::string repro_bundle_to_json(const ReproBundle& b) {
  // Canonical: fixed field order, every field always emitted, one
  // top-level field per line (the embedded spec/config and plan keep their
  // own layouts). Always writes the current schema of the bundle's kind.
  std::string out = "{\n";
  if (b.fleet) {
    out += "\"schema\": 1,\n";
    out += std::string("\"kind\": \"") + kFleetKind + "\",\n";
    out += "\"seed\": " + json_u64(b.seed) + ",\n";
    out += "\"config\": " + fleet_config_to_json(*b.fleet) + ",\n";
  } else {
    out += "\"schema\": 2,\n";
    out += std::string("\"kind\": \"") + kSessionKind + "\",\n";
    out += "\"seed\": " + json_u64(b.seed) + ",\n";
    out += "\"spec\": " + session_spec_to_json(b.spec) + ",\n";
    out += "\"chunk_count\": " + std::to_string(b.chunk_count) + ",\n";
  }
  out += "\"plan\": " + fault_plan_to_json(b.plan) + ",\n";
  out += "\"outcome\": " + json_quote(to_string(b.outcome)) + ",\n";
  out += "\"hung_reason\": " + json_quote(b.hung_reason) + ",\n";
  out += "\"expected_violations\": [";
  for (std::size_t i = 0; i < b.expected_violations.size(); ++i) {
    out += i == 0 ? "\n  " : ",\n  ";
    out += json_quote(b.expected_violations[i]);
  }
  if (!b.expected_violations.empty()) out += "\n";
  out += "]\n}\n";
  return out;
}

bool repro_bundle_from_json(const std::string& text, ReproBundle* out,
                            std::string* error) {
  JsonValue root;
  if (!json_parse(text, &root, error)) return false;
  if (!root.is_object()) {
    if (error) *error = "bundle: top level is not an object";
    return false;
  }
  const JsonValue* kind = root.find("kind");
  const bool fleet = kind != nullptr && kind->is_string() &&
                     kind->str == kFleetKind;
  if (!fleet && (kind == nullptr || !kind->is_string() ||
                 kind->str != kSessionKind)) {
    if (error) *error = "bundle: missing or wrong \"kind\" marker";
    return false;
  }
  // Error strings name the kind: "bundle: ..." or "fleet bundle: ...".
  const std::string prefix = fleet ? "fleet bundle: " : "bundle: ";
  auto fail = [error, &prefix](const std::string& what) {
    if (error) *error = prefix + what;
    return false;
  };
  auto missing = [&fail](const char* field) {
    return fail(std::string("missing field \"") + field + "\"");
  };
  auto bad = [&fail](const char* field) {
    return fail(std::string("missing or bad \"") + field + "\"");
  };

  ReproBundle b;
  if (!json_integer(root.find("schema"), &b.schema, 1)) return bad("schema");
  if (b.schema != 1 && (fleet || b.schema != 2)) {
    return fail("unsupported schema " + std::to_string(b.schema));
  }
  if (!json_integer(root.find("seed"), &b.seed)) return bad("seed");
  const JsonValue* v = nullptr;
  if (fleet) {
    v = root.find("config");
    if (v == nullptr) return missing("config");
    b.fleet.emplace();
    if (!fleet_config_from_json_value(*v, &*b.fleet, error)) return false;
  } else if (b.schema >= 2) {
    v = root.find("spec");
    if (v == nullptr) return missing("spec");
    std::string spec_error;
    if (!session_spec_from_json_value(*v, &b.spec, &spec_error)) {
      return fail(spec_error);
    }
  } else {
    // Schema-1 bundle: the session knobs were flat top-level fields; map
    // them into the spec (unlisted spec fields keep the chaos-era
    // defaults those bundles implied).
    v = root.find("scheme");
    if (v == nullptr || !v->is_string() ||
        !scheme_from_string(v->str, &b.spec.scheme)) {
      return fail("bad \"scheme\"");
    }
    v = root.find("adaptation");
    if (v != nullptr && v->is_string()) b.spec.adaptation = v->str;
    v = root.find("mptcp_scheduler");
    if (v != nullptr && v->is_string()) b.spec.mptcp_scheduler = v->str;
    v = root.find("inflight");
    if (v != nullptr && !json_integer(v, &b.spec.inflight)) {
      return bad("inflight");
    }
    v = root.find("recovery");
    if (v != nullptr && v->is_bool()) b.spec.recovery = v->boolean;
    std::int64_t time_limit_ns = 0;
    if (!json_integer(root.find("time_limit_ns"), &time_limit_ns)) {
      return bad("time_limit_ns");
    }
    b.spec.time_limit = Duration(time_limit_ns);
    v = root.find("watchdog");
    if (v != nullptr && v->is_object()) {
      const JsonValue* w = v->find("max_sim_events");
      if (w != nullptr &&
          !json_integer(w, &b.spec.watchdog.max_sim_events)) {
        return bad("watchdog.max_sim_events");
      }
      w = v->find("max_wall_s");
      if (w != nullptr) b.spec.watchdog.max_wall_s = w->as_double(0.0);
      w = v->find("poll_interval");
      if (w != nullptr && !json_integer(w, &b.spec.watchdog.poll_interval)) {
        return bad("watchdog.poll_interval");
      }
    }
  }
  if (!fleet && !json_integer(root.find("chunk_count"), &b.chunk_count, 1)) {
    return bad("chunk_count");
  }
  v = root.find("plan");
  if (v == nullptr) return missing("plan");
  if (!fault_plan_from_json_value(*v, &b.plan, error)) return false;
  v = root.find("outcome");
  if (v == nullptr || !v->is_string() ||
      !outcome_from_string(v->str, &b.outcome)) {
    return fail("bad \"outcome\"");
  }
  v = root.find("hung_reason");
  if (v != nullptr && v->is_string()) b.hung_reason = v->str;
  v = root.find("expected_violations");
  if (v != nullptr && v->is_array()) {
    for (const JsonValue& item : v->items) {
      if (!item.is_string()) return fail("non-string violation entry");
      b.expected_violations.push_back(item.str);
    }
  }
  *out = std::move(b);
  return true;
}

bool write_repro_bundle(const ReproBundle& b, const std::string& path,
                        std::string* error) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
    // A pre-existing directory is fine; a real failure surfaces at fopen.
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (error) *error = "cannot open " + path + " for writing";
    return false;
  }
  const std::string text = repro_bundle_to_json(b);
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  if (!ok && error) *error = "short write to " + path;
  return ok;
}

bool load_repro_bundle(const std::string& path, ReproBundle* out,
                       std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error) *error = "cannot open " + path;
    return false;
  }
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return repro_bundle_from_json(text, out, error);
}

std::string repro_bundle_path(const std::string& dir, std::uint64_t seed,
                              bool fleet) {
  std::string path = dir;
  if (!path.empty() && path.back() != '/') path += '/';
  return path + (fleet ? "fleet_repro_" : "repro_") + json_u64(seed) +
         ".json";
}

ChaosConfig bundle_chaos_config(const ReproBundle& b) {
  ChaosConfig cfg;
  cfg.seed_count = 1;
  cfg.base_seed = b.seed;
  cfg.session = b.spec;
  cfg.chunk_count = b.chunk_count;
  cfg.progress = nullptr;
  return cfg;
}

FleetConfig bundle_fleet_config(const ReproBundle& b) {
  FleetConfig cfg = *b.fleet;
  cfg.seed = b.seed;
  cfg.faults = b.plan.empty() ? nullptr : &b.plan;
  return cfg;
}

ReplayResult replay_repro_bundle(const ReproBundle& b) {
  Telemetry telemetry;
  ReplayResult out;
  if (b.fleet) {
    const FleetResult r = run_fleet(bundle_fleet_config(b), &telemetry);
    out.run = r;
    out.fingerprint = r.fingerprint();
  } else {
    const ChaosConfig cfg = bundle_chaos_config(b);
    const ChaosRunResult r =
        run_chaos_single(cfg, chaos_video(cfg), b.seed, b.plan, telemetry);
    out.run = r;
    out.fingerprint = r.fingerprint();
  }

  if (out.run.outcome != b.outcome) {
    out.mismatches.push_back(std::string("outcome: expected ") +
                             to_string(b.outcome) + ", got " +
                             to_string(out.run.outcome));
  }
  if (out.run.hung_reason != b.hung_reason) {
    out.mismatches.push_back("hung reason: expected \"" + b.hung_reason +
                             "\", got \"" + out.run.hung_reason + "\"");
  }
  const std::size_t n =
      std::max(b.expected_violations.size(), out.run.violations.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::string* want =
        i < b.expected_violations.size() ? &b.expected_violations[i] : nullptr;
    const std::string* got =
        i < out.run.violations.size() ? &out.run.violations[i] : nullptr;
    if (want != nullptr && got != nullptr && *want == *got) continue;
    std::string line = "violation " + std::to_string(i) + ": expected ";
    line += want != nullptr ? "\"" + *want + "\"" : "<none>";
    line += ", got ";
    line += got != nullptr ? "\"" + *got + "\"" : "<none>";
    out.mismatches.push_back(std::move(line));
  }
  out.matches = out.mismatches.empty();
  return out;
}

}  // namespace mpdash
