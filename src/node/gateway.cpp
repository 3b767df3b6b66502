#include "node/gateway.hpp"

namespace ipfsmon::node {

namespace {

/// Time-to-live after which cached content is revalidated via Bitswap.
/// Gateways cache aggressively (Cloudflare reports 97% hits, paper Sec.
/// VI-B); the TTL itself is calibrated, no published figure.
constexpr util::SimDuration kCacheTtl = 6 * util::kHour;

NodeConfig gateway_node_config(NodeConfig config) {
  // Gateways are publicly reachable, well-connected DHT servers.
  config.nat = false;
  config.dht_server = true;
  return config;
}
}  // namespace

GatewayNode::GatewayNode(net::Network& network, crypto::KeyPair keys,
                         const net::Address& address,
                         const std::string& country, NodeConfig node_config,
                         util::RngStream rng)
    : node_(network, std::move(keys), address, country,
            gateway_node_config(node_config), std::move(rng)) {}

void GatewayNode::handle_http_request(const cid::Cid& cid,
                                      HttpCallback on_done) {
  ++http_requests_;
  const util::SimTime now = node_.network().scheduler().now();

  // Root of the request's trace tree: everything the gateway triggers —
  // Bitswap fetch, DHT lookup hops, monitor captures — parents here.
  auto& tracer = node_.network().obs().tracer;
  obs::Span span = tracer.start_trace("gateway.request");
  span.set_attr("cid", cid.short_hex());

  if (node_.blockstore().has(cid)) {
    const auto it = fresh_until_.find(cid);
    if (it != fresh_until_.end() && it->second > now) {
      ++cache_hits_;
      span.set_attr("cache", "hit");
      if (on_done) on_done(true, true);
      return;
    }
    // Stale: serve from cache but revalidate over Bitswap. The
    // revalidation bypasses the blockstore shortcut on purpose — it is the
    // network request the paper's monitors still observe for cached CIDs.
    ++cache_hits_;
    ++bitswap_fetches_;
    fresh_until_[cid] = now + kCacheTtl;
    span.set_attr("cache", "revalidate");
    {
      obs::ScopedContext scope(tracer, span.context());
      node_.client().fetch(cid, bitswap::kNoSession, nullptr);
    }
    if (on_done) on_done(true, true);
    return;
  }

  ++bitswap_fetches_;
  span.set_attr("cache", "miss");
  // The span must outlive this frame (the fetch completes asynchronously);
  // park it in the completion callback.
  auto shared_span = std::make_shared<obs::Span>(std::move(span));
  obs::ScopedContext scope(tracer, shared_span->context());
  node_.fetch(cid, [this, cid, shared_span, on_done = std::move(on_done)](
                       dag::BlockPtr block) {
    if (block != nullptr) {
      fresh_until_[cid] =
          node_.network().scheduler().now() + kCacheTtl;
    }
    shared_span->set_attr("ok", block != nullptr ? "1" : "0");
    shared_span->end();
    if (on_done) on_done(block != nullptr, false);
  });
}

}  // namespace ipfsmon::node
