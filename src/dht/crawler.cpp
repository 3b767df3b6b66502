#include "dht/crawler.hpp"

namespace ipfsmon::dht {

namespace {

/// FIND_NODE targets issued per crawled peer: its own key plus random ones.
/// More targets see more of each routing table. Calibrated; no published
/// figure.
constexpr std::size_t kQueriesPerPeer = 8;
/// Crawl requests in flight at once. Calibrated; no published figure.
constexpr std::size_t kMaxInFlight = 64;

}  // namespace

DhtCrawler::DhtCrawler(net::Network& network, const crypto::PeerId& self,
                       const net::Address& address, const std::string& country,
                       util::RngStream rng)
    : network_(network), self_(self), rng_(std::move(rng)) {
  network_.register_node(self_, address, country, /*nat=*/false, this);
  network_.set_online(self_, true);
}

bool DhtCrawler::accept_inbound(const crypto::PeerId& /*from*/) { return true; }

void DhtCrawler::on_connection(net::ConnectionId, const crypto::PeerId&, bool) {}

void DhtCrawler::on_disconnect(net::ConnectionId, const crypto::PeerId&) {}

void DhtCrawler::on_message(net::ConnectionId /*conn*/,
                            const crypto::PeerId& from,
                            const net::PayloadPtr& payload) {
  const auto* msg = dynamic_cast<const DhtMessage*>(payload.get());
  if (msg == nullptr) return;
  if (msg->type != DhtMessage::Type::FindNodeReply) return;
  const auto it = pending_.find(msg->request_id);
  if (it == pending_.end()) return;
  Pending pending = std::move(it->second);
  pending_.erase(it);
  pending.timeout.cancel();
  on_reply(from, msg);
}

void DhtCrawler::crawl(const std::vector<crypto::PeerId>& seeds,
                       std::function<void(CrawlResult)> on_done) {
  on_done_ = std::move(on_done);
  started_ = true;
  for (const auto& seed : seeds) enqueue(seed);
  pump();
  maybe_finish();
}

void DhtCrawler::enqueue(const crypto::PeerId& peer) {
  if (peer == self_) return;
  if (!result_.discovered.insert(peer).second) return;
  frontier_.push_back(peer);
}

void DhtCrawler::pump() {
  while (!frontier_.empty() && pending_.size() < kMaxInFlight) {
    const crypto::PeerId peer = frontier_.back();
    frontier_.pop_back();
    if (!queried_.insert(peer).second) continue;
    // Enumerate the peer's table: its own neighborhood plus random probes.
    query(peer, key_of(peer));
    for (std::size_t i = 1; i < kQueriesPerPeer; ++i) {
      Key target;
      rng_.fill_bytes(target.data(), target.size());
      query(peer, target);
    }
  }
}

void DhtCrawler::query(const crypto::PeerId& peer, const Key& target) {
  auto msg = std::make_shared<DhtMessage>();
  msg->type = DhtMessage::Type::FindNode;
  msg->target = target;
  msg->request_id = next_request_id_++;
  msg->sender_is_server = false;  // the crawler stays out of routing tables
  const std::uint64_t id = msg->request_id;
  ++result_.rpcs_sent;

  sim::EventHandle timeout = network_.scheduler().schedule_after(
      kRpcTimeout, [this, id]() {
        const auto it = pending_.find(id);
        if (it == pending_.end()) return;
        pending_.erase(it);
        pump();
        maybe_finish();
      });
  pending_[id] = Pending{timeout, peer};

  const auto existing = network_.connection_between(self_, peer);
  if (existing) {
    network_.send(*existing, self_, std::move(msg));
    return;
  }
  network_.dial(self_, peer,
                [this, id, msg = std::move(msg)](
                    std::optional<net::ConnectionId> conn) {
                  const auto it = pending_.find(id);
                  if (it == pending_.end()) return;
                  if (!conn) {
                    it->second.timeout.cancel();
                    pending_.erase(it);
                    pump();
                    maybe_finish();
                    return;
                  }
                  network_.send(*conn, self_, msg);
                });
}

void DhtCrawler::on_reply(const crypto::PeerId& peer, const DhtMessage* reply) {
  result_.responsive.insert(peer);
  for (const auto& learned : reply->closer) enqueue(learned.id);
  pump();
  maybe_finish();
}

void DhtCrawler::maybe_finish() {
  if (!started_ || !on_done_) return;
  if (!frontier_.empty() || !pending_.empty()) return;
  auto done = std::move(on_done_);
  on_done_ = nullptr;
  done(std::move(result_));
}

}  // namespace ipfsmon::dht
