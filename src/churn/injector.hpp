// The fault injector: one object that drives every fault process in a
// ChurnConfig off the sim scheduler — transient-peer churn (heavy-tailed
// sessions), link faults and partition windows (delegated to net::Network),
// and monitor crash/restart (delegated to PassiveMonitor, with spill
// recovery through tracestore). Deterministic: all randomness comes from
// the RngStream handed to the constructor, so a (seed, config) pair always
// replays the same fault schedule.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "churn/churn.hpp"
#include "monitor/passive_monitor.hpp"
#include "node/ipfs_node.hpp"

namespace ipfsmon::churn {

class FaultInjector {
 public:
  FaultInjector(net::Network& network, ChurnConfig config,
                util::RngStream rng);
  ~FaultInjector();
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// CID source for transient-peer requests (e.g. the scenario catalog).
  /// Without one, transients join and leave but never request data.
  void set_request_source(std::function<cid::Cid(util::RngStream&)> source) {
    request_source_ = std::move(source);
  }

  /// Registers a monitor as a crash target. Index order defines
  /// CrashEvent::monitor_index.
  void add_monitor(monitor::PassiveMonitor* monitor) {
    monitors_.push_back(monitor);
  }

  /// Installs link faults and starts every configured fault process.
  /// `bootstrap` seeds transient joins and post-heal/post-restart redials.
  void start(std::vector<crypto::PeerId> bootstrap);

  /// Cancels all fault timers (nodes and monitors stay in their current
  /// state; link faults stay installed).
  void stop();

  const ChurnConfig& config() const { return config_; }

  // --- Ground truth / stats ----------------------------------------------
  std::uint64_t transients_spawned() const { return transients_spawned_; }
  std::size_t transients_online() const;
  std::uint64_t sessions_completed() const { return sessions_completed_; }
  std::uint64_t partitions_opened() const { return partitions_opened_; }
  std::uint64_t monitor_crashes() const { return monitor_crashes_; }
  std::uint64_t monitor_restarts() const { return monitor_restarts_; }
  std::uint64_t requests_issued() const { return requests_issued_; }

  /// Ids of every transient peer ever spawned (ground truth for
  /// estimator-error analyses: these peers inflate the ever-seen count
  /// relative to the concurrent network size).
  const std::vector<crypto::PeerId>& transient_ids() const {
    return transient_ids_;
  }

 private:
  struct Transient {
    std::size_t slot = 0;
    std::unique_ptr<node::IpfsNode> node;
    util::RngStream rng;
    sim::EventHandle session_timer;
    sim::EventHandle request_timer;

    Transient(std::size_t s, std::unique_ptr<node::IpfsNode> n,
              util::RngStream r)
        : slot(s), node(std::move(n)), rng(std::move(r)) {}
  };

  void schedule_arrival();
  void spawn_transient();
  void bring_online(Transient& t);
  void end_session(Transient& t);
  void retire(Transient& t);
  void schedule_request(Transient& t);

  void schedule_partition();
  void open_partition();

  void crash_monitor(std::size_t index, util::SimDuration down_for);

  net::Network& network_;
  ChurnConfig config_;
  util::RngStream rng_;
  util::RngStream key_rng_;
  std::vector<crypto::PeerId> bootstrap_;
  std::function<cid::Cid(util::RngStream&)> request_source_;
  std::vector<monitor::PassiveMonitor*> monitors_;

  // Stable slots: a retired transient's slot is nulled and reused, so
  // pending lambdas can safely hold Transient* into live slots only.
  std::vector<std::unique_ptr<Transient>> transients_;
  std::vector<crypto::PeerId> transient_ids_;

  sim::EventHandle arrival_timer_;
  sim::EventHandle partition_timer_;
  std::vector<sim::EventHandle> oneshot_timers_;  // heals, restarts, crashes

  std::uint64_t spawn_counter_ = 0;
  std::uint64_t transients_spawned_ = 0;
  std::uint64_t sessions_completed_ = 0;
  std::uint64_t partitions_opened_ = 0;
  std::uint64_t monitor_crashes_ = 0;
  std::uint64_t monitor_restarts_ = 0;
  std::uint64_t requests_issued_ = 0;
  bool started_ = false;
  bool stopped_ = false;

  struct Instruments {
    obs::Counter* spawns = nullptr;
    obs::Counter* sessions = nullptr;
    obs::Counter* retirements = nullptr;
    obs::Counter* partitions = nullptr;
    obs::Counter* requests = nullptr;
    obs::Gauge* online = nullptr;
  } metrics_;
};

}  // namespace ipfsmon::churn
