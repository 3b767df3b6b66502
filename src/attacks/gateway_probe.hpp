// Gateway probing (paper Sec. VI-B1): link a public HTTP gateway to its
// hidden IPFS node ID by
//   1. generating a unique random block (unique CID c),
//   2. announcing the monitoring nodes as providers of c in the DHT,
//   3. requesting c through the gateway's HTTP side,
//   4. watching which IPFS node then asks for c over Bitswap — that node
//      IS the gateway's IPFS side.
// Repeated probes cross-referenced with peer lists expose multi-node
// gateway operators (the paper found one operator with 13 nodes, 93
// gateway node IDs in total).
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "monitor/passive_monitor.hpp"
#include "node/gateway.hpp"
#include "util/rng.hpp"

namespace ipfsmon::attacks {

struct GatewayProbeResult {
  std::string gateway_name;
  cid::Cid probe_cid;
  bool http_ok = false;
  /// IPFS node IDs observed requesting the probe CID (normally exactly the
  /// gateway's node; may be non-empty even when HTTP failed — the paper's
  /// "misconfigured HTTP end" cases).
  std::vector<crypto::PeerId> discovered_nodes;
  /// IPs those nodes were seen with.
  std::vector<net::Address> discovered_addresses;
};

/// Probes gateways through the given monitors. The monitors act as bait
/// providers: the probe block is placed in their blockstores and announced
/// in the DHT under their addresses.
class GatewayProber {
 public:
  GatewayProber(net::Network& network,
                std::vector<monitor::PassiveMonitor*> monitors,
                util::RngStream rng);

  /// Probes one gateway; `on_done` fires after the observation window.
  void probe(const std::string& gateway_name, node::GatewayNode& gateway,
             std::function<void(GatewayProbeResult)> on_done);

  /// Probes a gateway whose HTTP side is broken (request never reaches the
  /// HTTP handler) — used to reproduce the paper's observation that some
  /// broken gateways still reveal their node IDs via Bitswap. The node's
  /// Bitswap side is exercised by `trigger`, a stand-in for whatever
  /// internal process still requests the CID.
  void probe_with_trigger(const std::string& gateway_name,
                          const std::function<void(const cid::Cid&)>& trigger,
                          std::function<void(GatewayProbeResult)> on_done);

 private:
  cid::Cid plant_probe_block();
  /// Scans each monitor's store for requests of the probe CID recorded
  /// since `started`, discovering nodes in recording order.
  void collect(GatewayProbeResult result, util::SimTime started,
               std::function<void(GatewayProbeResult)> on_done);

  net::Network& network_;
  std::vector<monitor::PassiveMonitor*> monitors_;
  util::RngStream rng_;
};

/// Aggregates probe results into an operator census: node IDs and IPs per
/// gateway name, merging repeated runs.
class GatewayCensus {
 public:
  void record(const GatewayProbeResult& result);

  std::size_t total_gateway_nodes() const;
  std::vector<crypto::PeerId> nodes_of(const std::string& gateway_name) const;
  std::vector<std::string> gateway_names() const;

  /// Gateways backed by more than one IPFS node.
  std::vector<std::pair<std::string, std::size_t>> multi_node_gateways() const;

 private:
  std::map<std::string, std::set<crypto::PeerId>> nodes_;
  std::map<std::string, std::set<net::Address>> addresses_;
};

}  // namespace ipfsmon::attacks
