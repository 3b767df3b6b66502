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

class ActiveMonitor : public PassiveMonitor {
 public:
  ActiveMonitor(net::Network& network, crypto::KeyPair keys,
                const net::Address& address, const std::string& country,
                MonitorConfig config, util::RngStream rng);
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

  util::RngStream sweep_rng_;
  sim::EventHandle sweep_timer_;
  std::uint64_t sweeps_completed_ = 0;
  std::uint64_t peers_dialed_ = 0;
  bool sweep_running_ = false;
};

}  // namespace ipfsmon::monitor
