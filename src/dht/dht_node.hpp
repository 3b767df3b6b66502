// The Kademlia DHT participant: routing-table maintenance, iterative
// FIND_NODE lookups (alpha-parallel), provider records, and the DHT
// server/client distinction from paper Sec. III-A. A DhtNode is owned by an
// IpfsNode (or monitor), which forwards inbound DhtMessages to it.
//
// An IPFS-faithful side effect matters here: connections opened to serve
// DHT lookups are ordinary overlay connections and *persist*. This is how
// nodes end up with far more connections than their k-buckets hold — the
// property the paper's monitoring approach exploits.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>

#include "dht/message.hpp"
#include "dht/provider_store.hpp"
#include "dht/routing_table.hpp"
#include "net/network.hpp"
#include "util/rng.hpp"

namespace ipfsmon::dht {

struct DhtConfig {
  bool server_mode = true;
  std::size_t bucket_size = kBucketSize;
  std::size_t alpha = 3;  // lookup parallelism
  std::size_t k = 20;     // closest-set size
  util::SimDuration rpc_timeout = 10 * util::kSecond;
  util::SimDuration refresh_interval = 10 * util::kMinute;
  util::SimDuration provider_ttl = 24 * util::kHour;
};

class DhtNode {
 public:
  using LookupCallback = std::function<void(std::vector<PeerRecord>)>;

  DhtNode(net::Network& network, const crypto::PeerId& self, DhtConfig config,
          util::RngStream rng);

  /// Starts the periodic refresh cycle. Call when the owner comes online.
  void start();

  /// Cancels timers and fails all pending queries. Call on churn-down.
  void stop();

  bool running() const { return running_; }
  bool is_server() const { return config_.server_mode; }
  const crypto::PeerId& self() const { return self_; }

  /// Dials the seeds and performs a self-lookup to populate the table.
  void bootstrap(const std::vector<crypto::PeerId>& seeds);

  /// Inbound DHT message from the owning host's demultiplexer.
  void handle_message(net::ConnectionId conn, const crypto::PeerId& from,
                      const DhtMessage& msg);

  /// A connection closed; drop the peer from the routing table if present
  /// only transiently. (Kademlia keeps entries across disconnects; we only
  /// remove on RPC failure.)
  void on_peer_disconnected(const crypto::PeerId& peer);

  /// Iterative lookup of the k closest reachable servers to `target`.
  void find_closest(const Key& target, LookupCallback on_done);

  /// Looks up providers for a CID. Yields every provider record learned by
  /// the time the lookup converges (possibly empty).
  void find_providers(const cid::Cid& content, LookupCallback on_done);

  /// Announces the owner as provider of `content` to the k closest servers.
  /// `address` is the owner's dialable address, stored in the records.
  void provide(const cid::Cid& content, const net::Address& address);

  RoutingTable& routing_table() { return table_; }
  const RoutingTable& routing_table() const { return table_; }
  ProviderStore& providers() { return provider_store_; }

  /// Lookup statistics for benches.
  std::uint64_t lookups_started() const { return lookups_started_; }
  std::uint64_t rpcs_sent() const { return rpcs_sent_; }

 private:
  struct LookupState;
  using ReplyCallback = std::function<void(const DhtMessage*)>;

  PeerRecord self_record() const;
  PeerRecord record_for(const crypto::PeerId& peer) const;

  /// Sends a request, dialing if necessary; `on_reply` receives nullptr on
  /// dial failure or timeout.
  void send_request(const crypto::PeerId& to, std::shared_ptr<DhtMessage> msg,
                    ReplyCallback on_reply);
  void send_reply(net::ConnectionId conn, std::shared_ptr<DhtMessage> msg);
  void fail_pending(std::uint64_t request_id);

  void start_lookup(const Key& target, bool collect_providers,
                    LookupCallback on_done);
  void seed_local_providers(const std::shared_ptr<LookupState>& state);
  void lookup_step(const std::shared_ptr<LookupState>& state);
  void finish_lookup(const std::shared_ptr<LookupState>& state);

  void schedule_refresh();
  void do_refresh();

  net::Network& network_;
  crypto::PeerId self_;
  DhtConfig config_;
  util::RngStream rng_;
  RoutingTable table_;
  ProviderStore provider_store_;

  struct Pending {
    ReplyCallback callback;
    sim::EventHandle timeout;
    crypto::PeerId peer;
  };
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::uint64_t next_request_id_ = 1;

  sim::EventHandle refresh_timer_;
  bool running_ = false;
  std::uint64_t lookups_started_ = 0;
  std::uint64_t rpcs_sent_ = 0;

  // Network-wide obs instruments (shared across all DHT nodes on the same
  // network; grabbed once at construction, bumped inline on hot paths).
  struct Instruments {
    obs::Counter* lookups = nullptr;
    obs::Counter* rpcs = nullptr;
    obs::Counter* rpc_timeouts = nullptr;
    obs::Gauge* table_entries = nullptr;
  } metrics_;

  /// Applies a routing-table mutation and mirrors the size delta into the
  /// network-wide table-entries gauge.
  template <typename Fn>
  void mutate_table(Fn&& fn) {
    const auto before = table_.size();
    fn();
    metrics_.table_entries->add(static_cast<double>(table_.size()) -
                                static_cast<double>(before));
  }
};

}  // namespace ipfsmon::dht
