// Shared fixtures for protocol-level tests: a simulated network plus
// helpers to mint nodes and run the clock, and helpers that collect a
// monitor's or a study's stream into a trace::Trace for assertions.
#pragma once

#include <memory>
#include <vector>

#include "monitor/passive_monitor.hpp"
#include "net/network.hpp"
#include "node/gateway.hpp"
#include "node/ipfs_node.hpp"
#include "scenario/study.hpp"
#include "tracestore/merge.hpp"

namespace ipfsmon::testing_helpers {

/// The raw trace `monitor` recorded so far, in recording order: its store
/// checkpointed and drained through a StoreCursor. Empty when the store
/// cannot be opened.
inline trace::Trace read_store(monitor::PassiveMonitor& monitor) {
  trace::Trace out;
  if (const auto store = monitor.open_store()) {
    tracestore::StoreCursor cursor(*store);
    trace::TraceEntry entry;
    while (cursor.next(entry)) out.append(entry);
  }
  return out;
}

/// The study's unified, flagged trace, collected from one unify() pass.
inline trace::Trace unified_trace(scenario::MonitoringStudy& study) {
  trace::Trace out;
  study.unify([&out](const trace::TraceEntry& e) { out.append(e); });
  return out;
}

/// Feeds every entry of `trace` to the accumulator `acc` and returns it.
template <typename Accumulator>
Accumulator feed(Accumulator acc, const trace::Trace& trace) {
  for (const auto& e : trace.entries()) acc.add(e);
  return acc;
}

class SimFixture {
 public:
  explicit SimFixture(std::uint64_t seed = 7)
      : network(scheduler, net::GeoDatabase::standard(), seed),
        rng(seed, "fixture") {}

  /// Advances simulated time by `duration`.
  void run_for(util::SimDuration duration) {
    scheduler.run_until(scheduler.now() + duration);
  }

  /// A network-wide counter's total, summed over every node.
  std::uint64_t total(std::string_view counter) {
    return network.obs().metrics.counter(counter).value();
  }

  node::IpfsNode& make_node(node::NodeConfig config = {},
                            const std::string& country = "US") {
    crypto::KeyPair keys = crypto::KeyPair::generate(rng);
    nodes.push_back(std::make_unique<node::IpfsNode>(
        network, std::move(keys), network.geo().allocate_address(country),
        country, config, rng.fork(nodes.size() + 1)));
    return *nodes.back();
  }

  monitor::PassiveMonitor& make_monitor(monitor::MonitorConfig config = {},
                                        const std::string& country = "US") {
    crypto::KeyPair keys = crypto::KeyPair::generate(rng);
    monitors.push_back(std::make_unique<monitor::PassiveMonitor>(
        network, std::move(keys), network.geo().allocate_address(country),
        country, config, rng.fork(1000 + monitors.size())));
    return *monitors.back();
  }

  node::GatewayNode& make_gateway(node::NodeConfig node_config = {},
                                  const std::string& country = "US") {
    crypto::KeyPair keys = crypto::KeyPair::generate(rng);
    gateways.push_back(std::make_unique<node::GatewayNode>(
        network, std::move(keys), network.geo().allocate_address(country),
        country, node_config, rng.fork(2000 + gateways.size())));
    return *gateways.back();
  }

  /// Dials a→b and settles the handshake.
  bool connect(node::IpfsNode& a, node::IpfsNode& b) {
    bool ok = false;
    network.dial(a.id(), b.id(), [&](std::optional<net::ConnectionId> conn) {
      ok = conn.has_value();
    });
    run_for(5 * util::kSecond);
    return ok;
  }

  sim::Scheduler scheduler;
  net::Network network;
  util::RngStream rng;
  std::vector<std::unique_ptr<node::IpfsNode>> nodes;
  std::vector<std::unique_ptr<monitor::PassiveMonitor>> monitors;
  std::vector<std::unique_ptr<node::GatewayNode>> gateways;
};

}  // namespace ipfsmon::testing_helpers
