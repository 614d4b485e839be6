#include "exp/session.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "adapt/bba.h"
#include "adapt/festive.h"
#include "adapt/gpac.h"
#include "adapt/mpc.h"
#include "adapter/mpdash_adapter.h"
#include "core/mpdash_socket.h"
#include "dash/server.h"
#include "fault/injector.h"
#include "http/client.h"
#include "mptcp/connection.h"
#include "sim/snapshotter.h"

namespace mpdash {

const char* to_string(Scheme s) {
  switch (s) {
    case Scheme::kWifiOnly: return "wifi-only";
    case Scheme::kBaseline: return "baseline";
    case Scheme::kMpDashDuration: return "mpdash-duration";
    case Scheme::kMpDashRate: return "mpdash-rate";
  }
  return "unknown";
}

bool scheme_uses_mpdash(Scheme s) {
  return s == Scheme::kMpDashDuration || s == Scheme::kMpDashRate;
}

std::unique_ptr<RateAdaptation> make_adaptation(const std::string& name) {
  if (name == "gpac") return std::make_unique<GpacAdaptation>();
  if (name == "festive") return std::make_unique<FestiveAdaptation>();
  if (name == "bba") return std::make_unique<BbaAdaptation>();
  if (name == "bba-c") {
    BbaConfig cfg;
    cfg.cellular_friendly = true;
    return std::make_unique<BbaAdaptation>(cfg);
  }
  if (name == "mpc") return std::make_unique<MpcAdaptation>();
  throw std::invalid_argument("unknown adaptation: " + name);
}

namespace {

// Samples per-interface delivered bytes every 100 ms for the energy model;
// stops itself once `done` flips.
class EnergyProbe {
 public:
  // Events are timestamped relative to `base` (construction time) so the
  // energy model's horizon starts at the measured transfer, not at
  // simulation time zero.
  EnergyProbe(Scenario& scenario, const bool& done)
      : scenario_(scenario),
        paths_(scenario.paths()),
        done_(done),
        base_(scenario.loop().now()) {
    prev_ = read();
    arm();
  }

  std::vector<ByteEvent> wifi_events;
  std::vector<ByteEvent> lte_events;

 private:
  struct Counters {
    Bytes wifi_down = 0, wifi_up = 0, lte_down = 0, lte_up = 0;
  };

  // Whole-link counters: the radios carry every flow's bytes.
  Counters read() const {
    Counters c;
    for (const NetPath* p : paths_) {
      const bool wifi = p->id() == kWifiPathId;
      (wifi ? c.wifi_down : c.lte_down) = p->downlink().delivered_bytes();
      (wifi ? c.wifi_up : c.lte_up) = p->uplink().delivered_bytes();
    }
    return c;
  }

  void arm() {
    scenario_.loop().schedule_in(milliseconds(100), [this] {
      const TimePoint now = scenario_.loop().now() - base_;
      const Counters cur = read();
      if (cur.wifi_down > prev_.wifi_down) {
        wifi_events.push_back({now, cur.wifi_down - prev_.wifi_down, true});
      }
      if (cur.wifi_up > prev_.wifi_up) {
        wifi_events.push_back({now, cur.wifi_up - prev_.wifi_up, false});
      }
      if (cur.lte_down > prev_.lte_down) {
        lte_events.push_back({now, cur.lte_down - prev_.lte_down, true});
      }
      if (cur.lte_up > prev_.lte_up) {
        lte_events.push_back({now, cur.lte_up - prev_.lte_up, false});
      }
      prev_ = cur;
      if (!done_) arm();
    });
  }

  Scenario& scenario_;
  std::vector<NetPath*> paths_;
  const bool& done_;
  TimePoint base_;
  Counters prev_;
};

}  // namespace

// One tenant's full stack over borrowed paths on the shared loop.
struct Tenancy::Stack {
  Tenant tenant;
  std::unique_ptr<MptcpConnection> conn;
  std::unique_ptr<DashServer> server;
  std::unique_ptr<HttpClient> client;
  std::unique_ptr<RateAdaptation> adaptation;
  std::unique_ptr<MpDashSocket> socket;
  std::unique_ptr<MpDashAdapter> adapter;
  std::unique_ptr<DashPlayer> player;
  bool done = false;
  TimePoint finish{};

  Stack(EventLoop& loop, Tenant t, const Video& video) : tenant(std::move(t)) {
    const SessionConfig& config = tenant.config;
    std::vector<NetPath*> paths = tenant.paths;
    if (config.scheme == Scheme::kWifiOnly && paths.size() > 1) {
      paths.resize(1);  // single-path TCP over WiFi
    }
    conn = std::make_unique<MptcpConnection>(loop, paths);
    conn->server().set_scheduler(make_scheduler(config.mptcp_scheduler));
    Telemetry* telemetry = tenant.telemetry;
    if (telemetry) conn->set_telemetry(telemetry);

    if (config.mptcp_recovery.max_consecutive_rtos > 0) {
      conn->server().set_failure_policy(config.mptcp_recovery);
      conn->client().set_failure_policy(config.mptcp_recovery);
    }

    server = std::make_unique<DashServer>(conn->server(), video);
    HttpClientConfig hcfg = config.http_recovery;
    // A prefetching player needs the transport to pipeline as deep as the
    // player's in-flight window; never shrink an explicit wider setting.
    hcfg.max_pipeline = std::max(hcfg.max_pipeline,
                                 config.player.max_inflight_chunks);
    client = std::make_unique<HttpClient>(loop, conn->client(), hcfg);
    if (telemetry) client->set_telemetry(telemetry);

    adaptation = make_adaptation(config.adaptation);

    if (scheme_uses_mpdash(config.scheme)) {
      MpDashSocketConfig scfg;
      scfg.scheduler.alpha = config.alpha;
      scfg.scheduler.enable_debounce_ticks = config.debounce_ticks;
      socket = std::make_unique<MpDashSocket>(loop, *conn, scfg);
      if (telemetry) socket->set_telemetry(telemetry);
      AdapterConfig acfg;
      acfg.policy = config.scheme == Scheme::kMpDashDuration
                        ? DeadlinePolicy::kDurationBased
                        : DeadlinePolicy::kRateBased;
      adapter = std::make_unique<MpDashAdapter>(*socket, *adaptation, acfg);
    }

    player = std::make_unique<DashPlayer>(loop, *client, *adaptation,
                                          config.player, adapter.get());
    if (telemetry) player->set_telemetry(telemetry);
    player->set_done_callback([this, &loop] {
      done = true;
      finish = loop.now();
    });
  }

  // The done callback holds `this`: never copied or moved.
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
};

Tenancy::Tenancy(EventLoop& loop, const Video& video,
                 std::vector<Tenant> tenants, const FaultPlan* faults,
                 Telemetry* fault_telemetry)
    : loop_(loop) {
  for (Tenant& t : tenants) {
    stacks_.push_back(std::make_unique<Stack>(loop, std::move(t), video));
  }

  if (faults != nullptr && !faults->empty()) {
    injector_ = std::make_unique<FaultInjector>(loop, *faults);
    // Faults address path ids; every tenant's paths front the same links,
    // so tenant 0's set (all of them, even under wifi-only) is the target.
    for (NetPath* p : stacks_.front()->tenant.paths) injector_->attach_path(p);
    FaultInjector::ServerHooks hooks;
    hooks.set_stalled = [this](bool on) {
      for (auto& s : stacks_) s->server->http().set_stalled(on);
    };
    hooks.set_dropping = [this](bool on) {
      for (auto& s : stacks_) s->server->http().set_dropping(on);
    };
    injector_->set_server_hooks(std::move(hooks));
    if (fault_telemetry) injector_->set_telemetry(fault_telemetry);
    injector_->arm();
  }

  for (auto& s : stacks_) {
    DashPlayer* player = s->player.get();
    loop.schedule_at(s->tenant.join, [player] { player->start(); });
  }
}

Tenancy::~Tenancy() = default;

void Tenancy::run(Duration time_limit, const WatchdogConfig& watchdog) {
  // Armed last so budget accounting starts at the run boundary; the RAII
  // guard clears the loop's hook on every exit path, including the
  // WatchdogTripped unwind itself.
  RunWatchdog guard(loop_, watchdog);
  loop_.run_until(TimePoint(time_limit));
}

const bool& Tenancy::done(std::size_t i) const { return stacks_[i]->done; }

TimePoint Tenancy::finish(std::size_t i) const { return stacks_[i]->finish; }

SessionResult Tenancy::collect(std::size_t i) const {
  const Stack& s = *stacks_[i];
  const DashPlayer& player = *s.player;
  SessionResult res;
  res.completed = s.done;
  res.session_s =
      to_seconds((s.done ? s.finish : loop_.now()) - s.tenant.join);
  // The tenant's per-flow slices over every path it was given (even one
  // wifi-only leaves idle).
  for (const NetPath* p : s.tenant.paths) {
    (p->id() == kWifiPathId ? res.wifi_bytes : res.cell_bytes) +=
        p->delivered_wire_bytes();
  }
  const Bytes total = res.wifi_bytes + res.cell_bytes;
  res.cell_fraction = total > 0 ? static_cast<double>(res.cell_bytes) /
                                      static_cast<double>(total)
                                : 0.0;

  res.stalls = player.stall_count();
  res.stall_s = to_seconds(player.total_stall_time());
  res.switches = player.quality_switches();
  res.chunk_log = player.chunks();
  res.events = player.events();
  res.chunks = static_cast<int>(res.chunk_log.size());
  if (s.socket) res.deadline_misses = s.socket->deadline_misses();
  if (s.adapter) res.chunks_engaged = s.adapter->chunks_engaged();

  MptcpConnection& conn = *s.conn;
  res.subflow_failures = static_cast<int>(conn.server().subflow_failures() +
                                          conn.client().subflow_failures());
  res.subflow_revivals = static_cast<int>(conn.server().subflow_revivals() +
                                          conn.client().subflow_revivals());
  res.reinjected_packets =
      static_cast<int>(conn.server().reinjected_packets() +
                       conn.client().reinjected_packets());
  res.reinject_backlog =
      conn.server().reinject_backlog() + conn.client().reinject_backlog();
  res.http_timeouts = static_cast<int>(s.client->timeouts());
  res.http_retries = static_cast<int>(s.client->retries_sent());
  res.chunk_retries = player.chunk_retries();
  res.chunks_abandoned = player.chunks_abandoned();
  res.manifest_failed = player.manifest_failed();
  res.server_data_seq_high = conn.server().data_seq_high();
  res.client_bytes_in_order = conn.client().bytes_received_in_order();
  res.client_data_seq_high = conn.client().data_seq_high();
  res.server_bytes_in_order = conn.server().bytes_received_in_order();

  if (!res.chunk_log.empty() && player.video()) {
    const Video& v = *player.video();
    double sum_all = 0.0, sum_steady = 0.0, sum_level = 0.0;
    const std::size_t skip = static_cast<std::size_t>(
        s.tenant.config.steady_skip_fraction *
        static_cast<double>(res.chunk_log.size()));
    std::size_t steady_n = 0;
    for (std::size_t k = 0; k < res.chunk_log.size(); ++k) {
      const double mbps =
          v.level(res.chunk_log[k].level).avg_bitrate.as_mbps();
      sum_all += mbps;
      sum_level += res.chunk_log[k].level;
      if (k >= skip) {
        sum_steady += mbps;
        ++steady_n;
      }
    }
    res.avg_bitrate_mbps = sum_all / static_cast<double>(res.chunk_log.size());
    res.avg_level = sum_level / static_cast<double>(res.chunk_log.size());
    res.steady_avg_bitrate_mbps =
        steady_n > 0 ? sum_steady / static_cast<double>(steady_n) : 0.0;
  }
  return res;
}

SessionResult run_streaming_session(Scenario& scenario, const Video& video,
                                    const SessionConfig& config,
                                    const SessionEnv& env) {
  EventLoop& loop = scenario.loop();
  Telemetry local_telemetry;
  Telemetry* telemetry = env.telemetry;
  if (!telemetry && (config.record_trace || env.metrics)) {
    telemetry = &local_telemetry;
  }
  TraceCollector collector;
  if (telemetry) {
    if (config.record_trace) {
      // The analyzer reconstructs HTTP framing from delivered payload.
      telemetry->set_capture_payload(true);
      telemetry->add_sink(&collector);
    }
    scenario.set_telemetry(telemetry);
  }

  Tenancy tenancy(loop, video,
                  {Tenant{scenario.paths(), config, telemetry, loop.now()}},
                  env.faults, telemetry);
  EnergyProbe probe(scenario, tenancy.done(0));
  std::unique_ptr<MetricsSnapshotter> snapshotter;
  if (telemetry && env.metrics) {
    snapshotter = std::make_unique<MetricsSnapshotter>(
        loop, *telemetry, *env.metrics, config.metrics_interval,
        tenancy.done(0));
  }
  tenancy.run(config.time_limit, config.watchdog);

  SessionResult res = tenancy.collect(0);
  if (const FaultInjector* injector = tenancy.faults()) {
    res.faults_started = injector->faults_started();
    res.faults_skipped = injector->faults_skipped();
    res.faults_quiescent = injector->quiescent();
  }
  if (config.record_trace && telemetry) {
    telemetry->remove_sink(&collector);
    res.trace = collector.take();
  }
  // The scenario (and its event loop) outlives this run; never leave it
  // pointing at the internal context.
  if (telemetry == &local_telemetry) scenario.set_telemetry(nullptr);

  const Duration horizon = seconds(res.session_s);
  const SessionEnergy energy = price_session(
      config.device, probe.wifi_events, probe.lte_events, horizon);
  res.wifi_energy_j = energy.wifi.total_j();
  res.lte_energy_j = energy.lte.total_j();
  return res;
}

DownloadResult run_download_session(Scenario& scenario,
                                    const DownloadConfig& config) {
  EventLoop& loop = scenario.loop();
  MptcpConnection conn(loop, scenario.paths());
  conn.server().set_scheduler(make_scheduler(config.mptcp_scheduler));
  if (config.telemetry) {
    scenario.set_telemetry(config.telemetry);
    conn.set_telemetry(config.telemetry);
  }

  // A bare file server: the target selects the virtual body size.
  HttpServer server(conn.server(), [&config](const HttpRequest& req) {
    HttpResponse resp;
    resp.headers.push_back({"Content-Type", "application/octet-stream"});
    resp.body_len = req.target == "/warmup" ? config.warmup_size : config.size;
    return resp;
  });
  HttpClient client(loop, conn.client());
  if (config.telemetry) client.set_telemetry(config.telemetry);

  std::unique_ptr<MpDashSocket> socket;
  if (config.use_mpdash) {
    MpDashSocketConfig scfg;
    scfg.scheduler.alpha = config.alpha;
    socket = std::make_unique<MpDashSocket>(loop, conn, scfg);
    if (config.telemetry) socket->set_telemetry(config.telemetry);
  }

  if (config.warmup) {
    bool warmed = false;
    client.get("/warmup", [&warmed](const HttpTransfer&) { warmed = true; });
    loop.run_until(TimePoint(seconds(30.0)));
    if (!warmed) return DownloadResult{};  // network unusable
  }
  const TimePoint start = loop.now();
  const Bytes wifi_before = scenario.wifi_bytes();
  const Bytes cell_before = scenario.cellular_bytes();

  bool done = false;
  DownloadResult res;
  EnergyProbe probe(scenario, done);

  if (socket) socket->enable(config.size, config.deadline);
  client.get("/file", [&](const HttpTransfer& transfer) {
    done = true;
    res.completed = true;
    res.finish_time = Duration(transfer.completed - start);
  });
  loop.run_until(start + config.time_limit);

  res.deadline_missed = res.completed && res.finish_time > config.deadline;
  res.wifi_bytes = scenario.wifi_bytes() - wifi_before;
  res.cell_bytes = scenario.cellular_bytes() - cell_before;

  const Duration horizon =
      res.completed ? res.finish_time + seconds(1.0) : config.time_limit;
  const SessionEnergy energy = price_session(
      config.device, probe.wifi_events, probe.lte_events, horizon);
  res.wifi_energy_j = energy.wifi.total_j();
  res.lte_energy_j = energy.lte.total_j();
  const SessionEnergy transfer_only =
      price_session(config.device, probe.wifi_events, probe.lte_events,
                    res.completed ? res.finish_time : config.time_limit);
  res.transfer_energy_j = transfer_only.total_j();
  return res;
}

}  // namespace mpdash
