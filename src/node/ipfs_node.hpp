// The full IPFS node: composes the overlay host, Kademlia DHT (server or
// client mode), Bitswap engine + client, and the blockstore, implementing
// the content-retrieval strategy and caching/reproviding behaviour from
// paper Sec. III. Monitors, gateways, and the synthetic population are all
// built from this class (monitors via monitor::PassiveMonitor).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "bitswap/client.hpp"
#include "bitswap/engine.hpp"
#include "dag/builder.hpp"
#include "dht/dht_node.hpp"
#include "net/network.hpp"
#include "node/blockstore.hpp"

namespace ipfsmon::node {

struct NodeConfig {
  /// DHT server vs client (paper Sec. III-A). In real IPFS this is decided
  /// by reachability; the scenario sets it explicitly (NAT'd ⇒ client).
  bool dht_server = true;
  /// NAT'd nodes cannot accept inbound connections and run as DHT clients.
  bool nat = false;
  /// Pre-v0.5 protocol: WANT_BLOCK broadcasts, no inventory round.
  bool legacy_protocol = false;

  /// Outbound dialing keeps at least this many connections.
  std::size_t target_degree = 20;
  /// Inbound connections accepted until this many total.
  std::size_t max_degree = 2000;
  /// go-ipfs connection-manager watermarks: when the connection count
  /// exceeds `high_water`, random connections are closed down to
  /// `low_water`. 0 disables trimming (monitors never evict peers —
  /// that asymmetry is what lets them accumulate network-wide coverage).
  std::size_t high_water = 0;
  std::size_t low_water = 0;
  /// Connections older than this are protected from trimming (go-ipfs
  /// values established, long-useful connections) — the mechanism that
  /// lets stable nodes like monitors retain session-long connectivity.
  /// 0 protects nothing.
  util::SimDuration trim_protect_age = 90 * util::kMinute;
  /// Ambient discovery cadence (random public peers dialed per round).
  util::SimDuration discovery_interval = 1 * util::kMinute;
  std::size_t discovery_dials = 2;

  /// Re-announce provider records (go-ipfs reproviding, default 12h).
  util::SimDuration reprovide_interval = 12 * util::kHour;

  /// Ambient-discovery weight (see net::Network::register_node): > 1 for
  /// stable hubs that peer discovery surfaces disproportionately often.
  double discovery_weight = 1.0;

  /// Cache + reprovide downloaded content (countermeasure 5 disables).
  bool provide_downloaded = true;
  /// Serve cached blocks to peers (TPI countermeasure disables).
  bool serve_blocks = true;

  dht::DhtConfig dht;
  bitswap::ClientConfig bitswap;
};

class IpfsNode : public net::Host {
 public:
  using FetchCallback = bitswap::BitswapClient::FetchCallback;
  /// DAG fetch result: number of blocks obtained, true if complete.
  using DagFetchCallback = std::function<void(std::size_t blocks, bool complete)>;

  IpfsNode(net::Network& network, crypto::KeyPair keys,
           const net::Address& address, const std::string& country,
           NodeConfig config, util::RngStream rng);
  ~IpfsNode() override;

  IpfsNode(const IpfsNode&) = delete;
  IpfsNode& operator=(const IpfsNode&) = delete;

  const crypto::PeerId& id() const { return id_; }
  const net::Address& address() const { return address_; }
  const NodeConfig& config() const { return config_; }
  bool online() const { return online_; }

  /// Joins the network: dials bootstrap peers, starts the DHT refresh
  /// cycle, ambient discovery, and reproviding.
  void go_online(const std::vector<crypto::PeerId>& bootstrap);

  /// Leaves the network: closes all connections, fails in-flight fetches.
  /// The blockstore survives (IPFS persists its cache across restarts).
  void go_offline();

  // --- Content API -------------------------------------------------------

  /// Adds a single block of data, pins it, and announces it in the DHT.
  cid::Cid add_bytes(util::Bytes data,
                     cid::Multicodec codec = cid::Multicodec::Raw);

  /// Imports a file as a Merkle DAG (chunked), pins all blocks, announces
  /// the root.
  dag::DagBuildResult add_file(util::BytesView data,
                               const dag::BuilderOptions& options = {});

  /// Stores and pins an existing block; announces it when `provide` is set.
  void add_block(dag::BlockPtr block, bool provide = true);

  /// Stores and pins a pre-built block set (e.g. a catalog DAG) and
  /// announces only `provide_root`.
  void add_blocks(const std::vector<dag::BlockPtr>& blocks,
                  const cid::Cid& provide_root);

  /// Fetches one block: local cache, then Bitswap broadcast, then DHT
  /// (paper Fig. 1). The retrieved block is cached and — by default —
  /// reprovided.
  void fetch(const cid::Cid& cid, FetchCallback on_done);

  /// Fetches a whole DAG: root via broadcast, children scoped to the
  /// root's session (which is why monitors only see root requests).
  void fetch_dag(const cid::Cid& root, DagFetchCallback on_done);

  /// Pins a CID so GC never evicts it.
  void pin(const cid::Cid& cid);

  // --- Subsystem access ---------------------------------------------------
  Blockstore& blockstore() { return blockstore_; }
  bitswap::BitswapEngine& engine() { return *engine_; }
  bitswap::BitswapClient& client() { return *client_; }
  dht::DhtNode& dht() { return *dht_; }
  net::Network& network() { return network_; }

  // --- net::Host ----------------------------------------------------------
  bool accept_inbound(const crypto::PeerId& from) override;
  void on_connection(net::ConnectionId conn, const crypto::PeerId& peer,
                     bool outbound) override;
  void on_disconnect(net::ConnectionId conn, const crypto::PeerId& peer) override;
  void on_message(net::ConnectionId conn, const crypto::PeerId& from,
                  const net::PayloadPtr& payload) override;

 protected:
  /// Hook for subclasses (monitors) observing connection churn.
  virtual void on_peer_connected_hook(const crypto::PeerId&) {}
  virtual void on_peer_disconnected_hook(const crypto::PeerId&) {}

 private:
  struct DagFetchState;

  void store_block(const dag::BlockPtr& block, bool provide);
  void schedule_discovery();
  void discovery_round();
  void schedule_reprovide();
  void reprovide_round();
  void fetch_dag_children(const std::shared_ptr<DagFetchState>& state,
                          const dag::BlockPtr& block);

  net::Network& network_;
  crypto::KeyPair keys_;
  crypto::PeerId id_;
  net::Address address_;
  NodeConfig config_;
  util::RngStream rng_;

  Blockstore blockstore_;
  std::unique_ptr<dht::DhtNode> dht_;
  std::unique_ptr<bitswap::BitswapEngine> engine_;
  std::unique_ptr<bitswap::BitswapClient> client_;

  /// CIDs this node announces as provider (authored + pinned + cached).
  std::vector<cid::Cid> provided_;

  sim::EventHandle discovery_timer_;
  sim::EventHandle reprovide_timer_;
  bool online_ = false;
};

}  // namespace ipfsmon::node
