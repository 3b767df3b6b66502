// Configuration for the fault-injection layer (see injector.hpp). An
// all-default ChurnConfig is inert — enabled() is false, no injector is
// created, and runs stay byte-identical to builds without src/churn.
#pragma once

#include <cstdint>
#include <vector>

#include "churn/session_model.hpp"
#include "net/network.hpp"
#include "node/ipfs_node.hpp"

namespace ipfsmon::churn {

/// The transient-peer churn process: Poisson arrivals of short-lived nodes
/// with heavy-tailed sessions (Henningsen et al.), layered on top of the
/// scenario's base population. Transients exercise the connect/disconnect
/// paths at scale: they dial in, issue a few requests, vanish, and maybe
/// come back — the traffic shape a 15-month monitor actually sees.
struct NodeChurnConfig {
  /// Poisson arrival rate of new transient peers. 0 disables the process.
  double arrival_rate_per_hour = 0.0;
  /// Online session length (heavy-tailed per Henningsen et al.).
  SessionModel session{SessionDist::kWeibull, /*mean_hours=*/1.0,
                       /*shape=*/0.6};
  /// Offline gap before a transient rejoins.
  SessionModel intersession{SessionDist::kLogNormal, /*mean_hours=*/4.0,
                            /*shape=*/1.5};
  /// Poisson data requests per online transient (needs a request source on
  /// the injector; 0 or no source = transients never request).
  double mean_request_interval_hours = 1.0;
  /// Base node behaviour for transients (the study wires in the population
  /// member defaults).
  node::NodeConfig node;
};

/// Partition windows: every so often a few public nodes are hard-isolated
/// (net::Network::isolate) for a while, then healed; healed nodes redial
/// the overlay with exponential backoff.
struct PartitionConfig {
  /// Poisson rate of partition windows. 0 disables the process.
  double rate_per_hour = 0.0;
  double mean_duration_minutes = 5.0;
};

/// One deterministic, pre-planned monitor crash.
struct CrashEvent {
  std::size_t monitor_index = 0;
  util::SimTime at = 0;
  util::SimDuration down_for = 10 * util::kMinute;
};

struct ChurnConfig {
  NodeChurnConfig nodes;
  net::LinkFaultProfile link;
  PartitionConfig partitions;
  std::vector<CrashEvent> scheduled_crashes;

  bool enabled() const {
    return nodes.arrival_rate_per_hour > 0.0 || link.active() ||
           partitions.rate_per_hour > 0.0 || !scheduled_crashes.empty();
  }
};

}  // namespace ipfsmon::churn
