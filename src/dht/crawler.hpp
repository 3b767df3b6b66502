// A DHT crawler in the style of the authors' earlier works ("Crawling the
// IPFS network"): starting from seeds, repeatedly FIND_NODE every discovered
// server to enumerate routing tables. By construction it can only see DHT
// *servers* — client nodes never appear in k-buckets — and it also counts
// proposed-but-unreachable peers, both biases the paper discusses when
// comparing crawl-based and monitor-based size estimates (Sec. V-C).
#pragma once

#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "dht/key.hpp"
#include "dht/message.hpp"
#include "net/network.hpp"
#include "util/rng.hpp"

namespace ipfsmon::dht {

struct CrawlResult {
  /// Every peer id learned from any routing table (incl. unreachable ones —
  /// real crawls overcount this way).
  std::unordered_set<crypto::PeerId> discovered;
  /// Peers that answered at least one crawl RPC.
  std::unordered_set<crypto::PeerId> responsive;
  std::uint64_t rpcs_sent = 0;
};

/// One-shot crawler. Registers itself as a (non-NAT'd) node, crawls, then
/// reports. Construct a fresh instance per crawl.
class DhtCrawler : public net::Host {
 public:
  DhtCrawler(net::Network& network, const crypto::PeerId& self,
             const net::Address& address, const std::string& country,
             util::RngStream rng);

  /// Crawls outward from `seeds`; `on_done` fires when the frontier drains.
  void crawl(const std::vector<crypto::PeerId>& seeds,
             std::function<void(CrawlResult)> on_done);

  // net::Host — the crawler accepts inbound connections (it looks like a
  // normal node) but only processes replies.
  bool accept_inbound(const crypto::PeerId& from) override;
  void on_connection(net::ConnectionId conn, const crypto::PeerId& peer,
                     bool outbound) override;
  void on_disconnect(net::ConnectionId conn, const crypto::PeerId& peer) override;
  void on_message(net::ConnectionId conn, const crypto::PeerId& from,
                  const net::PayloadPtr& payload) override;

 private:
  void enqueue(const crypto::PeerId& peer);
  void pump();
  void query(const crypto::PeerId& peer, const Key& target);
  void on_reply(const crypto::PeerId& peer, const DhtMessage* reply);
  void maybe_finish();

  net::Network& network_;
  crypto::PeerId self_;
  util::RngStream rng_;

  std::vector<crypto::PeerId> frontier_;
  std::unordered_set<crypto::PeerId> queried_;
  CrawlResult result_;
  std::function<void(CrawlResult)> on_done_;

  struct Pending {
    sim::EventHandle timeout;
    crypto::PeerId peer;
  };
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::uint64_t next_request_id_ = 1;
  bool started_ = false;
};

}  // namespace ipfsmon::dht
