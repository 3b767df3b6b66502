// Periodic snapshotting of a MetricsRegistry on a *sim-time* cadence. Each
// tick runs the registered samplers (pull-style: they refresh gauges from
// live objects — scheduler depth, population counts, coverage) and then
// appends one timestamped sample holding every instrument's scalar value to
// a bounded ring. The ring is what the JSONL exporter serializes, giving
// every experiment a machine-readable time series next to its stdout report.
#pragma once

#include <chrono>
#include <deque>
#include <functional>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/scheduler.hpp"

namespace ipfsmon::obs {

struct CollectorConfig {
  /// Sim-time distance between samples (the "default cadence").
  util::SimDuration interval = 5 * util::kMinute;
  /// Ring capacity; the oldest samples are dropped (and counted) beyond it.
  std::size_t ring_capacity = 4096;
};

class Collector {
 public:
  struct Sample {
    util::SimTime time = 0;
    /// values[i] = registry.scalar_value(i) at sample time. Shorter than
    /// the registry's current size if instruments were registered later —
    /// indices are stable (the registry is append-only).
    std::vector<double> values;
  };

  Collector(sim::Scheduler& scheduler, MetricsRegistry& registry,
            CollectorConfig config = {});
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  /// Runs before every sample; refresh sampled gauges here.
  void add_sampler(std::function<void()> sampler);

  /// Starts (or restarts) periodic collection at `config.interval`.
  void start();
  void stop();
  bool running() const { return running_; }

  /// Takes one sample immediately (also used for the exit snapshot).
  void collect_now();

  /// Builds a sample of current values without storing it in the ring.
  Sample make_sample() const;

  const std::deque<Sample>& samples() const { return ring_; }
  std::uint64_t samples_taken() const { return samples_taken_; }
  std::uint64_t samples_dropped() const { return samples_dropped_; }

  /// Wall-clock seconds since start() — basis for the sim/wall speed ratio.
  double wall_seconds() const;

  const MetricsRegistry& registry() const { return registry_; }
  const CollectorConfig& config() const { return config_; }

 private:
  void schedule_tick();

  sim::Scheduler& scheduler_;
  MetricsRegistry& registry_;
  CollectorConfig config_;
  std::vector<std::function<void()>> samplers_;
  std::deque<Sample> ring_;
  std::uint64_t samples_taken_ = 0;
  std::uint64_t samples_dropped_ = 0;
  bool running_ = false;
  sim::EventHandle tick_timer_;
  std::chrono::steady_clock::time_point wall_start_{};
};

/// Registers the standard scheduler instruments on `collector`'s registry
/// and a sampler keeping them fresh: events fired/cancelled, queue depth,
/// sim time, and the sim-time/wall-time speedup ratio.
void register_scheduler_metrics(Collector& collector, MetricsRegistry& registry,
                                const sim::Scheduler& scheduler);

}  // namespace ipfsmon::obs
