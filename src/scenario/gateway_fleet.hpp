// The public gateway fleet (paper Sec. VI-B): named operators, each backed
// by one or more IPFS nodes behind an HTTP front. One dominant operator
// (Cloudflare-like, 13 nodes in the paper) handles most HTTP traffic with
// a high cache-hit ratio. HTTP users are modeled as Poisson arrivals over
// the same content catalog as node-local requests.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "node/gateway.hpp"
#include "scenario/catalog.hpp"
#include "scenario/population.hpp"

namespace ipfsmon::scenario {

struct GatewayOperatorSpec {
  std::string name;
  std::size_t node_count = 1;
  /// HTTP requests per hour across the operator.
  double http_requests_per_hour = 50.0;
  /// Empty ⇒ country sampled from the geo distribution.
  std::string country;
  /// Operator whose HTTP front is broken: requests never reach the HTTP
  /// handler, but the node is still discoverable via gateway probing
  /// (paper: "we suspect a misconfiguration on the HTTP end").
  bool http_broken = false;
};

class GatewayFleet {
 public:
  GatewayFleet(net::Network& network, const ContentCatalog& catalog,
               util::RngStream rng);
  ~GatewayFleet();

  GatewayFleet(const GatewayFleet&) = delete;
  GatewayFleet& operator=(const GatewayFleet&) = delete;

  /// Brings all gateway nodes online and starts the HTTP workloads.
  void start(const std::vector<crypto::PeerId>& bootstrap);
  void stop();

  /// Installs the host for one-off content authored by gateway users
  /// (typically Population::host_item). Without one, one-off HTTP requests
  /// are unresolvable.
  void set_oneoff_host(std::function<void(const CatalogItem&)> host) {
    oneoff_host_ = std::move(host);
  }

  /// Ground truth: which node ids belong to which operator.
  const std::map<std::string, std::vector<crypto::PeerId>>& ground_truth()
      const {
    return truth_;
  }

  bool is_gateway_node(const crypto::PeerId& id) const;
  /// Operator name, or "" if not a gateway node.
  std::string operator_of(const crypto::PeerId& id) const;

  std::vector<std::string> operator_names() const;
  /// All gateway nodes of an operator.
  std::vector<node::GatewayNode*> nodes_of(const std::string& name);
  const GatewayOperatorSpec* spec_of(const std::string& name) const;

  std::uint64_t http_requests_issued() const { return http_requests_issued_; }

  /// Aggregate cache-hit ratio across the fleet.
  double cache_hit_ratio() const;

 private:
  struct Operator {
    GatewayOperatorSpec spec;
    std::vector<std::unique_ptr<node::GatewayNode>> nodes;
    util::RngStream rng;
    sim::EventHandle request_timer;

    Operator(GatewayOperatorSpec s, util::RngStream r)
        : spec(std::move(s)), rng(std::move(r)) {}
  };

  void schedule_http_request(Operator& op);

  net::Network& network_;
  const ContentCatalog& catalog_;
  util::RngStream rng_;

  std::function<void(const CatalogItem&)> oneoff_host_;
  std::vector<std::unique_ptr<Operator>> operators_;
  std::map<std::string, std::vector<crypto::PeerId>> truth_;
  std::map<crypto::PeerId, std::string> node_to_operator_;
  std::uint64_t http_requests_issued_ = 0;
  bool stopped_ = false;
};

}  // namespace ipfsmon::scenario
