// The "more active peer discovery" variant the paper sketches in
// Sec. IV-A/V-C: coverage "can be further increased by adding more
// monitoring nodes or, complementary, by implementing a more active peer
// discovery mechanism". An ActiveMonitor keeps the passive recorder but
// additionally crawls the DHT on a timer and dials every discovered peer —
// trading the passive setup's stealth (it is now clearly distinguishable
// from a regular node by its dialing pattern) for coverage.
#pragma once

#include "dht/crawler.hpp"
#include "monitor/passive_monitor.hpp"

namespace ipfsmon::monitor {

struct ActiveMonitorConfig {
  MonitorConfig base;
  /// How often to crawl-and-dial.
  util::SimDuration sweep_interval = 2 * util::kHour;
  /// Crawl fan-out (FIND_NODE probes per crawled peer).
  std::size_t queries_per_peer = 8;
  /// Dials per sweep are capped to avoid thundering herds.
  std::size_t max_dials_per_sweep = 2000;
};

class ActiveMonitor : public PassiveMonitor {
 public:
  ActiveMonitor(net::Network& network, crypto::KeyPair keys,
                const net::Address& address, const std::string& country,
                ActiveMonitorConfig config, util::RngStream rng);
  /// Stops the sweeps and goes offline while this object is still whole:
  /// stopping the DHT fails the sweep's pending lookups, and their
  /// callbacks use this monitor's members.
  ~ActiveMonitor() override;

  /// Starts the periodic crawl-and-dial sweeps (call after go_online).
  void start_sweeps();
  void stop_sweeps();

  std::uint64_t sweeps_completed() const { return sweeps_completed_; }
  std::uint64_t peers_dialed() const { return peers_dialed_; }

 private:
  void schedule_sweep();
  void run_sweep();

  ActiveMonitorConfig config_;
  util::RngStream sweep_rng_;
  sim::EventHandle sweep_timer_;
  std::uint64_t sweeps_completed_ = 0;
  std::uint64_t peers_dialed_ = 0;
  bool sweep_running_ = false;
};

}  // namespace ipfsmon::monitor
