#include "obs/collector.hpp"

namespace ipfsmon::obs {

Collector::Collector(sim::Scheduler& scheduler, MetricsRegistry& registry,
                     CollectorConfig config)
    : scheduler_(scheduler), registry_(registry), config_(config) {}

void Collector::add_sampler(std::function<void()> sampler) {
  if (sampler) samplers_.push_back(std::move(sampler));
}

void Collector::start() {
  if (running_) return;
  running_ = true;
  wall_start_ = std::chrono::steady_clock::now();
  schedule_tick();
}

void Collector::stop() {
  running_ = false;
  tick_timer_.cancel();
}

void Collector::schedule_tick() {
  tick_timer_ = scheduler_.schedule_after(config_.interval, [this]() {
    if (!running_) return;
    collect_now();
    schedule_tick();
  });
}

Collector::Sample Collector::make_sample() const {
  Sample sample;
  sample.time = scheduler_.now();
  sample.values.reserve(registry_.size());
  for (std::size_t i = 0; i < registry_.size(); ++i) {
    sample.values.push_back(registry_.scalar_value(i));
  }
  return sample;
}

void Collector::collect_now() {
  for (const auto& sampler : samplers_) sampler();
  ring_.push_back(make_sample());
  ++samples_taken_;
  while (ring_.size() > config_.ring_capacity) {
    ring_.pop_front();
    ++samples_dropped_;
  }
}

double Collector::wall_seconds() const {
  if (wall_start_ == std::chrono::steady_clock::time_point{}) return 0.0;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       wall_start_)
      .count();
}

void register_scheduler_metrics(Collector& collector, MetricsRegistry& registry,
                                const sim::Scheduler& scheduler) {
  Gauge& fired = registry.gauge("ipfsmon_sim_events_fired",
                                "Scheduler events dispatched since start");
  Gauge& cancelled = registry.gauge(
      "ipfsmon_sim_events_cancelled",
      "Scheduled events observed cancelled at dispatch time");
  Gauge& depth =
      registry.gauge("ipfsmon_sim_queue_depth", "Pending scheduler events");
  Gauge& sim_seconds = registry.gauge("ipfsmon_sim_time_seconds",
                                      "Current simulated time in seconds");
  Gauge& speedup = registry.gauge(
      "ipfsmon_sim_speedup",
      "Simulated seconds advanced per wall-clock second since collection "
      "started");
  Gauge& clamped = registry.gauge(
      "ipfsmon_sim_schedule_clamped",
      "Events whose requested time was in the past and got clamped to now");
  collector.add_sampler(
      [&collector, &scheduler, &fired, &cancelled, &depth, &sim_seconds,
       &speedup, &clamped]() {
        fired.set(static_cast<double>(scheduler.dispatched()));
        cancelled.set(static_cast<double>(scheduler.cancelled()));
        depth.set(static_cast<double>(scheduler.pending_events()));
        sim_seconds.set(util::to_seconds(scheduler.now()));
        clamped.set(static_cast<double>(scheduler.schedule_clamped()));
        const double wall = collector.wall_seconds();
        if (wall > 0.0) {
          speedup.set(util::to_seconds(scheduler.now()) / wall);
        }
      });
}

}  // namespace ipfsmon::obs
