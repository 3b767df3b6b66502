#include "attacks/gateway_probe.hpp"

#include <set>
#include <unordered_set>

#include "tracestore/scan.hpp"

namespace ipfsmon::attacks {

namespace {

/// How long to wait for Bitswap messages after the HTTP request: one
/// Bitswap re-broadcast period (paper Sec. III-C).
constexpr util::SimDuration kObservationWindow = 30 * util::kSecond;
/// Random payload bytes of a probe block; enough for a unique CID.
/// Calibrated; no published figure.
constexpr std::size_t kProbeBlockSize = 64;

}  // namespace

GatewayProber::GatewayProber(net::Network& network,
                             std::vector<monitor::PassiveMonitor*> monitors,
                             util::RngStream rng)
    : network_(network), monitors_(std::move(monitors)), rng_(std::move(rng)) {}

cid::Cid GatewayProber::plant_probe_block() {
  // A block of fresh random bytes: its CID is unique with overwhelming
  // probability, so any request for it is attributable to our probe.
  util::Bytes data(kProbeBlockSize);
  rng_.fill_bytes(data.data(), data.size());
  auto block =
      std::make_shared<dag::Block>(dag::Block::raw(std::move(data)));
  const cid::Cid probe_cid = block->id();
  for (monitor::PassiveMonitor* m : monitors_) {
    m->blockstore().put(block);
    m->dht().provide(probe_cid, m->address());
  }
  return probe_cid;
}

void GatewayProber::collect(GatewayProbeResult result, util::SimTime started,
                            std::function<void(GatewayProbeResult)> on_done) {
  // Bloom-pruned: only segments that may hold the probe CID are decoded.
  tracestore::ScanQuery query;
  query.cids.insert(result.probe_cid);
  query.min_time = started;
  std::unordered_set<crypto::PeerId> nodes;
  std::set<net::Address> addresses;
  for (monitor::PassiveMonitor* m : monitors_) {
    const auto store = m->open_store();
    if (!store) continue;
    tracestore::scan(*store, query, [&](const trace::TraceEntry& e) {
      if (!e.is_request()) return;
      if (nodes.insert(e.peer).second) {
        result.discovered_nodes.push_back(e.peer);
      }
      addresses.insert(e.address);
    });
  }
  result.discovered_addresses.assign(addresses.begin(), addresses.end());
  if (on_done) on_done(std::move(result));
}

void GatewayProber::probe(const std::string& gateway_name,
                          node::GatewayNode& gateway,
                          std::function<void(GatewayProbeResult)> on_done) {
  GatewayProbeResult result;
  result.gateway_name = gateway_name;
  result.probe_cid = plant_probe_block();
  const util::SimTime started = network_.scheduler().now();

  auto shared = std::make_shared<GatewayProbeResult>(std::move(result));
  gateway.handle_http_request(
      shared->probe_cid,
      [shared](bool ok, bool /*cache_hit*/) { shared->http_ok = ok; });

  network_.scheduler().post_after(
      kObservationWindow,
      [this, shared, started, on_done = std::move(on_done)]() mutable {
        collect(std::move(*shared), started, std::move(on_done));
      });
}

void GatewayProber::probe_with_trigger(
    const std::string& gateway_name,
    const std::function<void(const cid::Cid&)>& trigger,
    std::function<void(GatewayProbeResult)> on_done) {
  GatewayProbeResult result;
  result.gateway_name = gateway_name;
  result.probe_cid = plant_probe_block();
  result.http_ok = false;  // the HTTP side never answers
  const util::SimTime started = network_.scheduler().now();
  if (trigger) trigger(result.probe_cid);

  auto shared = std::make_shared<GatewayProbeResult>(std::move(result));
  network_.scheduler().post_after(
      kObservationWindow,
      [this, shared, started, on_done = std::move(on_done)]() mutable {
        collect(std::move(*shared), started, std::move(on_done));
      });
}

void GatewayCensus::record(const GatewayProbeResult& result) {
  auto& nodes = nodes_[result.gateway_name];
  nodes.insert(result.discovered_nodes.begin(), result.discovered_nodes.end());
  auto& addrs = addresses_[result.gateway_name];
  addrs.insert(result.discovered_addresses.begin(),
               result.discovered_addresses.end());
}

std::size_t GatewayCensus::total_gateway_nodes() const {
  std::set<crypto::PeerId> all;
  for (const auto& [name, nodes] : nodes_) {
    all.insert(nodes.begin(), nodes.end());
  }
  return all.size();
}

std::vector<crypto::PeerId> GatewayCensus::nodes_of(
    const std::string& gateway_name) const {
  const auto it = nodes_.find(gateway_name);
  if (it == nodes_.end()) return {};
  return {it->second.begin(), it->second.end()};
}

std::vector<std::string> GatewayCensus::gateway_names() const {
  std::vector<std::string> out;
  out.reserve(nodes_.size());
  for (const auto& [name, nodes] : nodes_) out.push_back(name);
  return out;
}

std::vector<std::pair<std::string, std::size_t>>
GatewayCensus::multi_node_gateways() const {
  std::vector<std::pair<std::string, std::size_t>> out;
  for (const auto& [name, nodes] : nodes_) {
    if (nodes.size() > 1) out.emplace_back(name, nodes.size());
  }
  return out;
}

}  // namespace ipfsmon::attacks
