// Repository benchmark: one workload per process, all units run
// back to back on one thread as a closed batch.
//
//   perfbench --workload field|fleet|chaos --seed N --seconds S --trace 0|1
//             --digests FILE [--spans-out FILE]
//   perfbench --pin field|fleet|chaos     (prints the digest of every pool
//                                          member, for FILE)
//
// --trace 0 times the workload and prints the end-to-end metrics.
// --trace 1 runs a fixed number of units twice, first without any
// instrumentation and then traced, and prints the per-layer metrics plus
// the tracing overhead. The last stdout line is the JSON result either way.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "alloc_stats.h"
#include "layers.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

constexpr int kSetupReps = 21;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of a sorted sample.
template <typename T>
double percentile(const std::vector<T>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(sorted.size())));
  return static_cast<double>(sorted[std::clamp<std::size_t>(
      rank, 1, sorted.size()) - 1]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  void note(const std::string& line) { notes_.push_back(line); }

  void print(bool correct, std::uint64_t attempted,
             std::uint64_t failed) const {
    for (const std::string& n : notes_) std::printf("# %s\n", n.c_str());
    for (const Metric& m : metrics_) {
      std::printf("metric %-36s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

// Pinned digests: "<workload> <pool index> <16 hex digits>" per line.
class Pins {
 public:
  bool load(const std::string& path, const std::string& workload) {
    std::ifstream in(path);
    if (!in) return false;
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream ls(line);
      std::string wl, hex;
      std::size_t index = 0;
      if (!(ls >> wl >> index >> hex) || wl != workload) continue;
      digests_[index] = std::strtoull(hex.c_str(), nullptr, 16);
    }
    return true;
  }
  // Empty string = matches.
  std::string check(std::size_t pool_index, std::uint64_t digest) const {
    const auto it = digests_.find(pool_index);
    if (it == digests_.end()) return "no pinned digest";
    if (it->second != digest) return "digest differs from the pinned one";
    return {};
  }

 private:
  std::map<std::size_t, std::uint64_t> digests_;
};

// Runs the first `count` units or, when count is 0, whole rounds until
// `seconds` have passed and at least min_units() units ran. Failed units
// are counted and reported, never fatal.
struct Phase {
  double wall_s = 0.0;
  double sim_s = 0.0;
  std::vector<double> unit_wall_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

Phase run_phase(Workload& wl, const Pins& pins, std::size_t count,
                double seconds, Tracer* tracer) {
  Phase ph;
  const std::size_t min_units = wl.min_units();
  // Hard stop, so a much slower build still ends within a few minutes.
  const double hard_stop_s = std::max(3.0 * seconds, seconds + 30.0);
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    if (count > 0) {
      if (i >= count) break;
    } else {
      const double elapsed = seconds_since(start);
      const bool round_done = i % wl.round_size() == 0;
      if ((elapsed >= seconds && i >= min_units && round_done) ||
          elapsed >= hard_stop_s) {
        break;
      }
    }
    const std::size_t p = wl.pool_index(i);
    const Clock::time_point t0 = Clock::now();
    UnitResult r;
    {
      std::optional<SpanLog::Scope> s;
      const auto unit = static_cast<std::int64_t>(i);
      if (tracer) s.emplace(tracer->spans, "unit", unit);
      r = wl.run_unit(p, unit, tracer);
    }
    ph.unit_wall_s.push_back(seconds_since(t0));
    ph.sim_s += r.sim_s;
    ++ph.attempted;
    std::string why = r.error;
    if (why.empty()) why = pins.check(p, r.digest);
    if (!why.empty()) {
      ++ph.failed;
      std::fprintf(stderr, "unit %zu (%s pool member %zu) failed: %s\n", i,
                   wl.name(), p, why.c_str());
    }
  }
  ph.wall_s = seconds_since(start);
  return ph;
}

int pin(const std::string& workload) {
  auto wl = make_workload(workload);
  if (!wl) return 2;
  SpanLog off(false);
  wl->setup(1, off);
  for (std::size_t p = 0; p < wl->pool_size(); ++p) {
    const Clock::time_point t0 = Clock::now();
    const UnitResult r = wl->run_unit(p, static_cast<std::int64_t>(p),
                                      nullptr);
    if (!r.error.empty()) {
      std::fprintf(stderr, "%s pool member %zu: %s\n", workload.c_str(), p,
                   r.error.c_str());
      return 1;
    }
    std::printf("%s %zu %016" PRIx64 "\n", workload.c_str(), p, r.digest);
    std::fprintf(stderr, "%s %zu wall_s=%.4f sim_s=%.2f\n", workload.c_str(),
                 p, seconds_since(t0), r.sim_s);
    std::fflush(stdout);
  }
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload field|fleet|chaos --seed N "
               "--seconds S --trace 0|1 --digests FILE [--spans-out FILE]\n"
               "       perfbench --pin field|fleet|chaos\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, digests, spans_out, pin_workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const char* v = argv[++i];
    if (a == "--workload") workload = v;
    else if (a == "--seed") seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") seconds = std::atof(v);
    else if (a == "--trace") trace = std::atoi(v);
    else if (a == "--digests") digests = v;
    else if (a == "--spans-out") spans_out = v;
    else if (a == "--pin") pin_workload = v;
    else {
      usage();
      return 2;
    }
  }
  if (!pin_workload.empty()) return pin(pin_workload);

  auto wl = make_workload(workload);
  if (!wl || (trace != 0 && trace != 1) || !(seconds > 0.0) ||
      digests.empty()) {
    usage();
    return 2;
  }
  Pins pins;
  if (!pins.load(digests, workload)) {
    std::fprintf(stderr, "cannot read %s\n", digests.c_str());
    return 2;
  }

  Tracer tracer;
  SpanLog& spans = tracer.spans;
  SpanLog no_spans(false);
  std::vector<double> setup_s, trace_gen_s, scenario_s;
  for (int r = 0; r < kSetupReps; ++r) {
    const int first = spans.next_id();
    const Clock::time_point t0 = Clock::now();
    {
      std::optional<SpanLog::Scope> s;
      if (trace == 1) s.emplace(spans, "setup", -1);
      wl->setup(seed, trace == 1 ? spans : no_spans);
    }
    setup_s.push_back(seconds_since(t0));
    trace_gen_s.push_back(spans.total_seconds("trace_gen", first));
    scenario_s.push_back(spans.total_seconds("scenario", first));
  }

  Report report;
  std::uint64_t attempted = 0, failed = 0;
  report.note(std::string("workload ") + workload + " seed " +
              std::to_string(seed) + (trace == 1 ? " traced" : " timed"));

  if (trace == 0) {
    const Phase ph = run_phase(*wl, pins, 0, seconds, nullptr);
    attempted = ph.attempted;
    failed = ph.failed;
    std::vector<double> walls = ph.unit_wall_s;
    std::sort(walls.begin(), walls.end());
    const double pct = wl->tail_percentile();
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "units %zu, unit_wall_tail_ms is p%g (%zu units beyond it), "
                  "failed_share %.4f",
                  walls.size(), pct,
                  walls.size() - static_cast<std::size_t>(std::ceil(
                                     pct / 100.0 * walls.size())),
                  ratio(static_cast<double>(failed),
                        static_cast<double>(attempted)));
    report.note(buf);
    report.add("sim_s_per_wall_s", ratio(ph.sim_s, ph.wall_s), "s/s");
    report.add("unit_wall_p50_ms", 1e3 * percentile(walls, 50.0), "ms");
    report.add("unit_wall_tail_ms", 1e3 * percentile(walls, pct), "ms");
    report.add("setup_s", median(setup_s), "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    const std::size_t n = wl->traced_units();
    tracer.probe.event_ns.reserve(std::size_t{1} << 23);
    // Same units, first with no instrumentation, then traced.
    const Phase plain = run_phase(*wl, pins, n, seconds, nullptr);
    const int first_unit_span = spans.next_id();
    const AllocStats a0 = alloc_stats();
    alloc_counting_enable(true);
    const Phase traced = run_phase(*wl, pins, n, seconds, &tracer);
    alloc_counting_enable(false);
    const AllocStats a1 = alloc_stats();
    attempted = plain.attempted + traced.attempted;
    failed = plain.failed + traced.failed;

    const LayerCounts& c = tracer.counts;
    const ProbeStats& pr = tracer.probe;
    std::vector<std::uint32_t> ev = pr.event_ns;
    std::sort(ev.begin(), ev.end());
    double layer_total = 0.0;
    for (double s : pr.layer_s) layer_total += s;
    const double allocs = static_cast<double>(a1.calls - a0.calls);
    const double alloc_bytes = static_cast<double>(a1.bytes - a0.bytes);
    const double untraced_rate = ratio(plain.sim_s, plain.wall_s);
    const double traced_rate = ratio(traced.sim_s, traced.wall_s);

    report.note("traced units " + std::to_string(n) +
                (alloc_counting_available() ? "" : ", alloc counting off"));
    report.add("sim.events", c.sim_events, "count");
    report.add("sim.events_per_s", ratio(c.sim_events, plain.wall_s), "1/s");
    report.add("sim.event_ns_p50", percentile(ev, 50.0), "ns");
    report.add("sim.event_ns_p99", percentile(ev, 99.0), "ns");
    report.add("sim.heap_entries_max",
               static_cast<double>(pr.heap_entries_max), "count");
    report.add("sim.stale_entry_share", ratio(pr.stale_sum, pr.queued_sum),
               "ratio");
    for (int l = 0; l < kLayerCount; ++l) {
      report.add(std::string("sim.share.") + layer_name(static_cast<Layer>(l)),
                 ratio(pr.layer_s[static_cast<std::size_t>(l)], layer_total),
                 "ratio");
    }
    report.add("alloc.per_event", ratio(allocs, c.sim_events), "count");
    report.add("alloc.bytes_per_event", ratio(alloc_bytes, c.sim_events),
               "B");
    report.add("alloc.per_delivered_packet", ratio(allocs, c.link_delivered),
               "count");
    report.add("link.delivered_packets", c.link_delivered, "count");
    report.add("link.drop_share",
               ratio(c.link_dropped, c.link_delivered + c.link_dropped),
               "ratio");
    report.add("tcp.retransmit_share",
               ratio(c.tcp_retransmissions, c.tcp_data_sends), "ratio");
    report.add("tcp.timeouts", c.tcp_timeouts, "count");
    report.add("mptcp.reinjected_packets", c.mptcp_reinjected, "count");
    report.add("mptcp.mask_changes", c.mptcp_mask_changes, "count");
    report.add("http.requests", c.http_requests, "count");
    report.add("http.retries", c.http_retries, "count");
    report.add("http.timeouts", c.http_timeouts, "count");
    report.add("fault.injected", c.fault_injected, "count");
    report.add("dash.chunks", c.dash_chunks, "count");
    report.add("dash.stalls", c.dash_stalls, "count");
    report.add("sched.activations", c.sched_activations, "count");
    report.add("sched.deadline_misses", c.sched_deadline_misses, "count");
    report.add("telemetry.records", c.telemetry_records, "count");
    report.add("telemetry.records_per_event",
               ratio(c.telemetry_records, c.sim_events), "ratio");
    report.add("analysis.span_model_ms",
               1e3 * spans.total_seconds("span_model", first_unit_span) /
                   static_cast<double>(n),
               "ms");
    report.add("analysis.attribute_ms",
               1e3 * spans.total_seconds("attribute", first_unit_span) /
                   static_cast<double>(n),
               "ms");
    report.add("setup.trace_gen_ms", 1e3 * median(trace_gen_s), "ms");
    report.add("setup.scenario_ms", 1e3 * median(scenario_s), "ms");
    report.add("setup.session_ms", 1e3 * median(pr.first_event_s), "ms");
    report.add("trace.untraced_sim_s_per_wall_s", untraced_rate, "s/s");
    report.add("trace.traced_sim_s_per_wall_s", traced_rate, "s/s");
    report.add("trace.overhead_share",
               untraced_rate > 0.0 ? 1.0 - traced_rate / untraced_rate : 0.0,
               "ratio");
    if (!spans_out.empty() && !spans.write_jsonl(spans_out)) {
      std::fprintf(stderr, "cannot write %s\n", spans_out.c_str());
    }
  }

  report.print(failed == 0, attempted, failed);
  return 0;
}
