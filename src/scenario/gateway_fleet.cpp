#include "scenario/gateway_fleet.hpp"

namespace ipfsmon::scenario {

namespace {

/// Gateway users' catalog interest is head-skewed (tournament bias over
/// this many draws): popular web content dominates HTTP traffic, keeping
/// hit ratios high. Calibrated; no published figure.
constexpr std::size_t kPopularityBias = 6;
/// Share of HTTP requests for fresh one-off CIDs (always cache misses).
/// Calibrated; no published figure.
constexpr double kOneoffRequestShare = 0.12;

}  // namespace

GatewayFleet::GatewayFleet(net::Network& network, const ContentCatalog& catalog,
                           util::RngStream rng)
    : network_(network), catalog_(catalog), rng_(std::move(rng)) {
  // The fleet, shaped after the paper's findings (Sec. VI-B): one dominant
  // operator (Cloudflare: 13 confirmed nodes, traffic an order of magnitude
  // above everyone else, 97% cache hits absorbed before Bitswap) plus a
  // tail of small community gateways; gateway traffic is comparable to all
  // homegrown traffic combined. Request rates are calibrated; no published
  // figure.
  const std::vector<GatewayOperatorSpec> operators = {
      {"cloudflare-ipfs.com", 13, 560.0, "US", false},
      {"ipfs.io", 3, 125.0, "NL", false},
      {"dweb.link", 2, 58.0, "NL", false},
      {"gateway.pinata.cloud", 2, 39.0, "US", false},
      {"cf-ipfs.com", 1, 20.0, "US", false},
      {"ipfs.fleek.co", 1, 58.0, "CA", false},
      {"hardbin.com", 1, 33.0, "DE", false},
      {"ipfs.eth.aragon.network", 1, 26.0, "DE", false},
      {"gateway.ipfs.fr", 1, 45.0, "FR", false},
      {"broken.gateway.example", 1, 0.0, "FR", true},
  };
  const node::NodeConfig member_config = default_member_node_config();
  util::RngStream key_rng = rng_.fork("gateway-keys");
  for (const auto& spec : operators) {
    auto op = std::make_unique<Operator>(spec, rng_.fork(spec.name));
    for (std::size_t i = 0; i < spec.node_count; ++i) {
      const std::string country =
          spec.country.empty() ? network_.geo().sample_country(rng_)
                               : spec.country;
      const net::Address address = network_.geo().allocate_address(country);
      crypto::KeyPair keys = crypto::KeyPair::generate(key_rng);

      node::NodeConfig node_config = member_config;
      // Gateways are busy, stable hubs: discovery surfaces them often
      // (the paper notes monitors' peers skew towards "popular gateway
      // nodes").
      node_config.discovery_weight = 4.0;
      auto gw = std::make_unique<node::GatewayNode>(
          network_, std::move(keys), address, country, node_config,
          rng_.fork(spec.name + std::to_string(i)));
      truth_[spec.name].push_back(gw->id());
      node_to_operator_[gw->id()] = spec.name;
      op->nodes.push_back(std::move(gw));
    }
    operators_.push_back(std::move(op));
  }
}

GatewayFleet::~GatewayFleet() { stop(); }

void GatewayFleet::start(const std::vector<crypto::PeerId>& bootstrap) {
  for (auto& op : operators_) {
    for (auto& gw : op->nodes) {
      gw->node().go_online(bootstrap);
    }
    if (op->spec.http_requests_per_hour > 0.0 && !op->spec.http_broken) {
      schedule_http_request(*op);
    }
  }
}

void GatewayFleet::stop() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& op : operators_) op->request_timer.cancel();
}

void GatewayFleet::schedule_http_request(Operator& op) {
  if (stopped_) return;
  const double hours = op.rng.exponential(1.0 / op.spec.http_requests_per_hour);
  op.request_timer = network_.scheduler().schedule_after(
      static_cast<util::SimDuration>(hours * static_cast<double>(util::kHour)),
      [this, &op]() {
        // Anycast-style load balancing over the operator's nodes.
        node::GatewayNode& gw =
            *op.nodes[op.rng.uniform_index(op.nodes.size())];
        ++http_requests_issued_;
        if (op.rng.bernoulli(kOneoffRequestShare)) {
          const CatalogItem oneoff = catalog_.create_oneoff(op.rng);
          if (oneoff.resolvable && oneoff_host_) oneoff_host_(oneoff);
          gw.handle_http_request(oneoff.root, nullptr);
        } else {
          const CatalogItem& item =
              catalog_.sample_popular(op.rng, kPopularityBias);
          gw.handle_http_request(item.root, nullptr);
        }
        schedule_http_request(op);
      });
}

bool GatewayFleet::is_gateway_node(const crypto::PeerId& id) const {
  return node_to_operator_.count(id) != 0;
}

std::string GatewayFleet::operator_of(const crypto::PeerId& id) const {
  const auto it = node_to_operator_.find(id);
  return it == node_to_operator_.end() ? std::string() : it->second;
}

std::vector<std::string> GatewayFleet::operator_names() const {
  std::vector<std::string> out;
  out.reserve(operators_.size());
  for (const auto& op : operators_) out.push_back(op->spec.name);
  return out;
}

std::vector<node::GatewayNode*> GatewayFleet::nodes_of(
    const std::string& name) {
  std::vector<node::GatewayNode*> out;
  for (auto& op : operators_) {
    if (op->spec.name != name) continue;
    for (auto& gw : op->nodes) out.push_back(gw.get());
  }
  return out;
}

const GatewayOperatorSpec* GatewayFleet::spec_of(
    const std::string& name) const {
  for (const auto& op : operators_) {
    if (op->spec.name == name) return &op->spec;
  }
  return nullptr;
}

double GatewayFleet::cache_hit_ratio() const {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  for (const auto& op : operators_) {
    for (const auto& gw : op->nodes) {
      requests += gw->http_requests();
      hits += gw->cache_hits();
    }
  }
  return requests == 0 ? 0.0
                       : static_cast<double>(hits) /
                             static_cast<double>(requests);
}

}  // namespace ipfsmon::scenario
