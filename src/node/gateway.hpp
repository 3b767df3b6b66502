// An HTTP/IPFS gateway (paper Sec. VI-B): a publicly reachable IPFS node
// fronted by an HTTP cache. HTTP requests for cached, fresh content produce
// no Bitswap traffic (Cloudflare reports a 97% hit ratio); misses and TTL
// revalidations do — which is the signal the paper's gateway-tracking
// experiment (Fig. 6) measures.
#pragma once

#include <unordered_map>

#include "node/ipfs_node.hpp"

namespace ipfsmon::node {

class GatewayNode {
 public:
  /// ok: content delivered; cache_hit: served without Bitswap traffic.
  using HttpCallback = std::function<void(bool ok, bool cache_hit)>;

  GatewayNode(net::Network& network, crypto::KeyPair keys,
              const net::Address& address, const std::string& country,
              NodeConfig node_config, util::RngStream rng);

  /// Serves an HTTP request for a CID through the gateway.
  void handle_http_request(const cid::Cid& cid, HttpCallback on_done);

  IpfsNode& node() { return node_; }
  const crypto::PeerId& id() const { return node_.id(); }

  std::uint64_t http_requests() const { return http_requests_; }
  std::uint64_t cache_hits() const { return cache_hits_; }
  std::uint64_t bitswap_fetches() const { return bitswap_fetches_; }
  double cache_hit_ratio() const {
    return http_requests_ == 0
               ? 0.0
               : static_cast<double>(cache_hits_) /
                     static_cast<double>(http_requests_);
  }

 private:
  IpfsNode node_;
  std::unordered_map<cid::Cid, util::SimTime> fresh_until_;
  std::uint64_t http_requests_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t bitswap_fetches_ = 0;
};

}  // namespace ipfsmon::node
