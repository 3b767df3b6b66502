#include "attacks/gateway_probe.hpp"

#include <set>
#include <unordered_set>

namespace ipfsmon::attacks {

GatewayProber::GatewayProber(net::Network& network,
                             std::vector<monitor::PassiveMonitor*> monitors,
                             GatewayProbeConfig config, util::RngStream rng)
    : network_(network),
      monitors_(std::move(monitors)),
      config_(config),
      rng_(std::move(rng)) {}

cid::Cid GatewayProber::plant_probe_block() {
  // A block of fresh random bytes: its CID is unique with overwhelming
  // probability, so any request for it is attributable to our probe.
  util::Bytes data(config_.probe_block_size);
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

void GatewayProber::collect(GatewayProbeResult result,
                            std::vector<std::size_t> trace_offsets,
                            std::function<void(GatewayProbeResult)> on_done) {
  std::unordered_set<crypto::PeerId> nodes;
  std::set<net::Address> addresses;
  for (std::size_t i = 0; i < monitors_.size(); ++i) {
    const auto& entries = monitors_[i]->recorded().entries();
    for (std::size_t j = trace_offsets[i]; j < entries.size(); ++j) {
      const auto& e = entries[j];
      if (e.cid != result.probe_cid || !e.is_request()) continue;
      if (nodes.insert(e.peer).second) {
        result.discovered_nodes.push_back(e.peer);
      }
      addresses.insert(e.address);
    }
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

  std::vector<std::size_t> offsets;
  offsets.reserve(monitors_.size());
  for (const monitor::PassiveMonitor* m : monitors_) {
    offsets.push_back(m->recorded().size());
  }

  auto shared = std::make_shared<GatewayProbeResult>(std::move(result));
  gateway.handle_http_request(
      shared->probe_cid,
      [shared](bool ok, bool /*cache_hit*/) { shared->http_ok = ok; });

  network_.scheduler().post_after(
      config_.observation_window,
      [this, shared, offsets = std::move(offsets),
       on_done = std::move(on_done)]() mutable {
        collect(std::move(*shared), std::move(offsets), std::move(on_done));
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

  std::vector<std::size_t> offsets;
  offsets.reserve(monitors_.size());
  for (const monitor::PassiveMonitor* m : monitors_) {
    offsets.push_back(m->recorded().size());
  }
  if (trigger) trigger(result.probe_cid);

  auto shared = std::make_shared<GatewayProbeResult>(std::move(result));
  network_.scheduler().post_after(
      config_.observation_window,
      [this, shared, offsets = std::move(offsets),
       on_done = std::move(on_done)]() mutable {
        collect(std::move(*shared), std::move(offsets), std::move(on_done));
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
