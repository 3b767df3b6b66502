#include "scenario/study.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "obs/span_export.hpp"

namespace ipfsmon::scenario {

MonitoringStudy::MonitoringStudy(StudyConfig config)
    : config_(std::move(config)), rng_(config_.seed, "study") {
  network_ = std::make_unique<net::Network>(
      scheduler_, net::GeoDatabase::standard(), config_.seed);
  // Only when enabled: with the default (inert) config no tracer state is
  // allocated and runs stay byte-identical to untraced builds.
  if (config_.tracing.enabled) network_->enable_tracing(config_.tracing);
  catalog_ = std::make_unique<ContentCatalog>(config_.catalog,
                                              rng_.fork("catalog"));
  population_ = std::make_unique<Population>(*network_, *catalog_,
                                             config_.population,
                                             rng_.fork("population"));
  if (config_.enable_gateways) {
    fleet_ = std::make_unique<GatewayFleet>(*network_, *catalog_,
                                            config_.gateways,
                                            rng_.fork("gateways"));
    fleet_->set_oneoff_host([this](const CatalogItem& item) {
      population_->host_item(item);
    });
  }

  util::RngStream key_rng = rng_.fork("monitor-keys");
  for (std::size_t i = 0; i < config_.monitor_count; ++i) {
    const std::string country =
        i < config_.monitor_countries.size() ? config_.monitor_countries[i]
                                             : network_->geo().sample_country(rng_);
    const net::Address address = network_->geo().allocate_address(country);
    crypto::KeyPair keys = crypto::KeyPair::generate(key_rng);

    monitor::MonitorConfig mon_config;
    mon_config.monitor_id = static_cast<trace::MonitorId>(i);
    mon_config.snapshot_interval = config_.snapshot_interval;
    if (!config_.monitor_spill_dir.empty()) {
      mon_config.spill_dir =
          config_.monitor_spill_dir + "/monitor-" + std::to_string(i);
      mon_config.spill_segment_entries = config_.spill_segment_entries;
      mon_config.spill_segment_span = config_.spill_segment_span;
    }
    mon_config.node = config_.population.node;
    mon_config.node.discovery_weight = config_.monitor_discovery_weight;
    if (config_.use_active_monitors) {
      monitor::ActiveMonitorConfig active_config;
      active_config.base = mon_config;
      active_config.sweep_interval = config_.active_sweep_interval;
      monitors_.push_back(std::make_unique<monitor::ActiveMonitor>(
          *network_, std::move(keys), address, country, active_config,
          rng_.fork(i + 1000)));
    } else {
      monitors_.push_back(std::make_unique<monitor::PassiveMonitor>(
          *network_, std::move(keys), address, country, mon_config,
          rng_.fork(i + 1000)));
    }
  }

  // Fault injection last, and only when enabled: the "churn" RNG fork must
  // not happen otherwise, or it would shift rng_'s state and perturb every
  // existing fault-free run.
  if (config_.churn.enabled()) {
    churn::ChurnConfig churn_config = config_.churn;
    churn_config.nodes.node = config_.population.node;
    injector_ = std::make_unique<churn::FaultInjector>(
        *network_, std::move(churn_config), rng_.fork("churn"));
    injector_->set_request_source([this](util::RngStream& rng) {
      return catalog_->sample(rng).root;
    });
    for (auto& m : monitors_) injector_->add_monitor(m.get());
  }

  if (config_.collect_metrics) setup_collector();
}

void MonitoringStudy::setup_collector() {
  obs::CollectorConfig collector_config;
  collector_config.interval = config_.collect_interval;
  collector_config.ring_capacity = config_.collect_ring_capacity;
  collector_ = std::make_unique<obs::Collector>(
      scheduler_, network_->obs().metrics, collector_config);
  obs::register_scheduler_metrics(*collector_, network_->obs().metrics,
                                  scheduler_);

  // Ground-truth gauges refreshed right before each sample: population and
  // gateway state the instrumented layers cannot see from inside.
  auto& reg = network_->obs().metrics;
  obs::Gauge& online = reg.gauge("ipfsmon_population_online_nodes",
                                 "Population members currently online");
  obs::Gauge& online_servers =
      reg.gauge("ipfsmon_population_online_servers",
                "Online members running in DHT server mode");
  obs::Gauge& requests = reg.gauge("ipfsmon_population_requests_issued",
                                   "Data requests issued by the population");
  obs::Gauge& succeeded = reg.gauge("ipfsmon_population_fetches_succeeded",
                                    "Population fetches that delivered");
  obs::Gauge& failed = reg.gauge("ipfsmon_population_fetches_failed",
                                 "Population fetches that timed out");
  obs::Gauge* gateway_requests =
      fleet_ != nullptr
          ? &reg.gauge("ipfsmon_gateway_http_requests",
                       "HTTP requests issued through the gateway fleet")
          : nullptr;
  collector_->add_sampler([this, &online, &online_servers, &requests,
                           &succeeded, &failed, gateway_requests]() {
    online.set(static_cast<double>(population_->online_count()));
    online_servers.set(static_cast<double>(population_->online_server_count()));
    requests.set(static_cast<double>(population_->requests_issued()));
    succeeded.set(static_cast<double>(population_->fetches_succeeded()));
    failed.set(static_cast<double>(population_->fetches_failed()));
    if (gateway_requests != nullptr) {
      gateway_requests->set(
          static_cast<double>(fleet_->http_requests_issued()));
    }
  });
}

MonitoringStudy::~MonitoringStudy() = default;

void MonitoringStudy::start_components() {
  population_->start();
  const auto& bootstrap = population_->bootstrap_ids();
  if (fleet_) fleet_->start(bootstrap);
  for (auto& m : monitors_) {
    m->go_online(bootstrap);
    if (config_.use_active_monitors) {
      static_cast<monitor::ActiveMonitor*>(m.get())->start_sweeps();
    }
  }
  if (injector_) injector_->start(bootstrap);
  if (collector_ && !collector_->running()) collector_->start();
}

void MonitoringStudy::after_warmup() {
  for (auto& m : monitors_) {
    m->reset_observations();
    m->start_snapshots();
  }
}

void MonitoringStudy::run_warmup() {
  start_components();
  run_span(scheduler_.now() + config_.warmup, "warmup");
  after_warmup();
}

void MonitoringStudy::run_measurement(util::SimDuration duration) {
  run_span(scheduler_.now() + duration, "measurement");
  export_spans();
}

void MonitoringStudy::export_spans() {
  if (!config_.tracing.enabled || config_.trace_export_base.empty()) return;
  const auto spans = network_->obs().tracer.snapshot();
  std::string error;
  const std::string json_path = config_.trace_export_base + ".spans.json";
  const std::string jsonl_path = config_.trace_export_base + ".spans.jsonl";
  if (!obs::write_perfetto_json(json_path, spans, obs::has_sim_times(spans),
                                &error) ||
      !obs::write_spans_jsonl(jsonl_path, spans, &error)) {
    std::fprintf(stderr, "[ipfsmon] span export failed: %s\n", error.c_str());
  }
}

void MonitoringStudy::run_span(util::SimTime target, const char* label) {
  if (!config_.progress_heartbeat) {
    scheduler_.run_until(target);
    return;
  }
  const util::SimTime start = scheduler_.now();
  const auto wall_start = std::chrono::steady_clock::now();
  while (scheduler_.now() < target) {
    scheduler_.run_until(
        std::min(target, scheduler_.now() + config_.heartbeat_interval));
    const double progress = static_cast<double>(scheduler_.now() - start) /
                            static_cast<double>(target - start);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
    const double eta =
        progress > 0.0 ? wall * (1.0 - progress) / progress : 0.0;
    std::fprintf(stderr,
                 "[ipfsmon] %s %3.0f%% (sim %s) wall %.1fs eta %.1fs\n",
                 label, 100.0 * progress,
                 util::format_sim_time(scheduler_.now()).c_str(), wall, eta);
  }
}

std::vector<monitor::PassiveMonitor*> MonitoringStudy::monitors() {
  std::vector<monitor::PassiveMonitor*> out;
  out.reserve(monitors_.size());
  for (auto& m : monitors_) out.push_back(m.get());
  return out;
}

trace::Trace MonitoringStudy::unified_trace(
    const trace::PreprocessOptions& options) const {
  std::vector<const trace::Trace*> traces;
  traces.reserve(monitors_.size());
  for (const auto& m : monitors_) traces.push_back(&m->recorded());
  return trace::unify(traces, options);
}

bool MonitoringStudy::finalize_monitor_spill() {
  bool ok = !monitors_.empty();
  for (auto& m : monitors_) {
    if (!m->finalize_spill()) ok = false;
  }
  return ok;
}

std::vector<std::string> MonitoringStudy::monitor_store_dirs() const {
  std::vector<std::string> out;
  for (const auto& m : monitors_) {
    if (m->spilling()) out.push_back(m->spill_dir());
  }
  return out;
}

std::vector<std::vector<std::vector<crypto::PeerId>>>
MonitoringStudy::matched_snapshots() const {
  std::size_t count = std::numeric_limits<std::size_t>::max();
  for (const auto& m : monitors_) {
    count = std::min(count, m->snapshots().size());
  }
  if (count == std::numeric_limits<std::size_t>::max()) count = 0;

  std::vector<std::vector<std::vector<crypto::PeerId>>> out;
  out.reserve(count);
  for (std::size_t t = 0; t < count; ++t) {
    std::vector<std::vector<crypto::PeerId>> row;
    row.reserve(monitors_.size());
    for (const auto& m : monitors_) row.push_back(m->snapshots()[t].peers);
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace ipfsmon::scenario
