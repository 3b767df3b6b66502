// The full monitoring study: network + geo, content catalog, churned node
// population, gateway fleet, and r passive monitors — the simulated
// counterpart of the paper's fifteen-month deployment (Sec. V-A/V-B).
// Experiments construct a study, run warm-up + measurement, and analyze
// the monitors' traces.
#pragma once

#include <memory>

#include "churn/injector.hpp"
#include "monitor/active_monitor.hpp"
#include "monitor/passive_monitor.hpp"
#include "obs/collector.hpp"
#include "obs/span.hpp"
#include "scenario/gateway_fleet.hpp"
#include "scenario/population.hpp"
#include "sim/scheduler.hpp"
#include "trace/preprocess.hpp"

namespace ipfsmon::scenario {

struct StudyConfig {
  std::uint64_t seed = 42;

  std::size_t monitor_count = 2;  // the paper ran "us" and "de"
  std::vector<std::string> monitor_countries = {"US", "DE"};
  /// Discovery weight for monitors: stable always-on DHT servers
  /// accumulate presence in routing tables, so ambient discovery surfaces
  /// them disproportionately. Calibrated so per-monitor coverage lands in
  /// the paper's ~50% range.
  double monitor_discovery_weight = 8.0;
  util::SimDuration snapshot_interval = 1 * util::kHour;

  /// When non-empty, each monitor spills its recording into an on-disk
  /// trace store at <monitor_spill_dir>/monitor-<id> instead of RAM (the
  /// out-of-core path; see src/tracestore). unified_trace() is then empty —
  /// use finalize_monitor_spill() + tracestore::unify_stores instead.
  std::string monitor_spill_dir;
  /// Segment roll caps for spilling monitors. Shorter spans bound how much
  /// recording a monitor crash can lose (only the open segment dies).
  std::uint64_t spill_segment_entries = 1u << 16;
  util::SimDuration spill_segment_span = 6 * util::kHour;

  /// Use crawling ActiveMonitors instead of purely passive ones — the
  /// "more active peer discovery mechanism" the paper suggests for
  /// increasing coverage (at the cost of stealth).
  bool use_active_monitors = false;
  util::SimDuration active_sweep_interval = 2 * util::kHour;

  /// Network warm-up before observations start (connections build up,
  /// caches fill).
  util::SimDuration warmup = 12 * util::kHour;
  /// Measurement window (the paper's showcased excerpt is 7 days).
  util::SimDuration duration = 7 * util::kDay;

  bool enable_gateways = true;

  /// Always one: the study runs on a single scheduler. Not settable; kept
  /// only because perfbench echoes config.shards in its config text.
  static constexpr std::size_t shards = 1;

  // --- Observability (src/obs) -------------------------------------------
  /// Collect periodic metrics snapshots from the network's registry into a
  /// ring (exported at exit as a JSONL sidecar by the experiment runners).
  bool collect_metrics = true;
  util::SimDuration collect_interval = 5 * util::kMinute;
  std::size_t collect_ring_capacity = 4096;
  /// Opt-in stderr progress heartbeat with a wall-clock ETA. Off by
  /// default so library users stay silent.
  bool progress_heartbeat = false;
  util::SimDuration heartbeat_interval = 6 * util::kHour;

  /// Causal span tracing (src/obs/span.hpp). When tracing.enabled, sampled
  /// gateway requests produce end-to-end traces — gateway.request →
  /// dht.find_providers → dht.rpc / bitswap.fetch → monitor.capture — via
  /// net::Network::enable_tracing. Inert by default: no RNG draws, no
  /// allocations, byte-identical to untraced runs.
  obs::TracerConfig tracing;
  /// When non-empty (and tracing is enabled), each run_measurement() call
  /// exports the buffered spans to <base>.spans.json (Perfetto JSON) and
  /// <base>.spans.jsonl when it completes.
  std::string trace_export_base;

  CatalogConfig catalog;
  PopulationConfig population;
  GatewayFleetConfig gateways;

  /// Fault injection (src/churn): transient-peer churn, link faults,
  /// partition windows, monitor crash/restart. Inert by default — with an
  /// all-default config no injector is created, no churn RNG stream is
  /// forked, and runs are byte-identical to pre-churn builds. Transient
  /// peers run the population's member node config.
  churn::ChurnConfig churn;
};

class MonitoringStudy {
 public:
  explicit MonitoringStudy(StudyConfig config);
  ~MonitoringStudy();

  MonitoringStudy(const MonitoringStudy&) = delete;
  MonitoringStudy& operator=(const MonitoringStudy&) = delete;

  /// Starts everything and runs the warm-up window, then clears monitor
  /// observations so the measurement starts clean.
  void run_warmup();

  // Phase pieces of run_warmup, exposed for callers that advance the
  // scheduler themselves (e.g. by event count rather than sim time).
  /// Starts population, gateways, monitors, injector and collector without
  /// advancing time.
  void start_components();
  /// Clears monitor observations and starts snapshot timers (call once
  /// warm-up time has elapsed).
  void after_warmup();

  /// Runs the measurement window (callable repeatedly for longer studies).
  void run_measurement(util::SimDuration duration);
  void run_measurement() { run_measurement(config_.duration); }

  /// Convenience: warm-up + full measurement.
  void run() {
    run_warmup();
    run_measurement();
  }

  // --- Access -------------------------------------------------------------
  const StudyConfig& config() const { return config_; }
  sim::Scheduler& scheduler() { return scheduler_; }
  net::Network& network() { return *network_; }
  obs::Obs& obs() { return network_->obs(); }
  /// Null when config.collect_metrics is false.
  obs::Collector* collector() { return collector_.get(); }
  const obs::Collector* collector() const { return collector_.get(); }
  ContentCatalog& catalog() { return *catalog_; }
  Population& population() { return *population_; }
  GatewayFleet* gateways() { return fleet_.get(); }
  /// Null unless config.churn.enabled().
  churn::FaultInjector* injector() { return injector_.get(); }
  const churn::FaultInjector* injector() const { return injector_.get(); }
  std::vector<monitor::PassiveMonitor*> monitors();
  monitor::PassiveMonitor& monitor(std::size_t i) { return *monitors_[i]; }

  /// Unified, flag-marked trace across all monitors (Sec. IV-B).
  trace::Trace unified_trace(const trace::PreprocessOptions& options = {}) const;

  /// Spill-mode helpers: publishes every monitor's store manifest and
  /// returns the store directories (empty when spilling is off).
  bool finalize_monitor_spill();
  std::vector<std::string> monitor_store_dirs() const;

  /// Matched per-monitor peer-set snapshots (input to the estimators):
  /// snapshots[t][m] = monitor m's peer set at snapshot index t.
  std::vector<std::vector<std::vector<crypto::PeerId>>> matched_snapshots()
      const;

 private:
  void setup_collector();
  /// Exports buffered spans to config.trace_export_base (no-op when
  /// tracing or the base path is unset).
  void export_spans();
  /// Advances the scheduler to `target`, printing heartbeat lines to
  /// stderr along the way when config.progress_heartbeat is set.
  void run_span(util::SimTime target, const char* label);

  StudyConfig config_;
  sim::Scheduler scheduler_;
  util::RngStream rng_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<ContentCatalog> catalog_;
  std::unique_ptr<Population> population_;
  std::unique_ptr<GatewayFleet> fleet_;
  std::vector<std::unique_ptr<monitor::PassiveMonitor>> monitors_;
  std::unique_ptr<obs::Collector> collector_;
  // Declared after monitors_/network_: destroyed first, while everything
  // it references is still alive.
  std::unique_ptr<churn::FaultInjector> injector_;
};

}  // namespace ipfsmon::scenario
