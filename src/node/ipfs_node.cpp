#include "node/ipfs_node.hpp"

#include <unordered_set>

namespace ipfsmon::node {

IpfsNode::IpfsNode(net::Network& network, crypto::KeyPair keys,
                   const net::Address& address, const std::string& country,
                   NodeConfig config, util::RngStream rng)
    : network_(network),
      keys_(std::move(keys)),
      id_(keys_.peer_id()),
      address_(address),
      config_(config),
      rng_(std::move(rng)) {
  // NAT'd nodes run as DHT clients (they are unreachable, so server mode
  // would be useless to the network) — mirrors go-ipfs's AutoNAT decision.
  config_.dht.server_mode = config_.dht_server && !config_.nat;
  config_.bitswap.use_want_have = !config_.legacy_protocol;

  dht_ = std::make_unique<dht::DhtNode>(network_, id_, config_.dht,
                                        rng_.fork("dht"));
  engine_ = std::make_unique<bitswap::BitswapEngine>(
      network_, id_,
      [this](const cid::Cid& cid) { return blockstore_.get(cid); },
      [this]() { return blockstore_.all_cids(); });
  engine_->set_serve_blocks(config_.serve_blocks);
  client_ = std::make_unique<bitswap::BitswapClient>(
      network_, id_, config_.bitswap,
      [this](const cid::Cid& cid,
             std::function<void(std::vector<dht::PeerRecord>)> cb) {
        dht_->find_providers(cid, std::move(cb));
      },
      rng_.fork("bitswap"));

  network_.register_node(id_, address_, country, config_.nat, this,
                         config_.discovery_weight);
}

IpfsNode::~IpfsNode() {
  if (online_) go_offline();
}

void IpfsNode::go_online(const std::vector<crypto::PeerId>& bootstrap) {
  if (online_) return;
  online_ = true;
  network_.set_online(id_, true);
  client_->restart();
  dht_->start();
  dht_->bootstrap(bootstrap);
  schedule_discovery();
  schedule_reprovide();
}

void IpfsNode::go_offline() {
  if (!online_) return;
  online_ = false;
  discovery_timer_.cancel();
  reprovide_timer_.cancel();
  client_->shutdown();
  dht_->stop();
  network_.set_online(id_, false);
}

cid::Cid IpfsNode::add_bytes(util::Bytes data, cid::Multicodec codec) {
  auto block = std::make_shared<dag::Block>(
      dag::Block::create(codec, std::move(data)));
  const cid::Cid id = block->id();
  blockstore_.pin(id);
  store_block(block, /*provide=*/true);
  return id;
}

dag::DagBuildResult IpfsNode::add_file(util::BytesView data,
                                       const dag::BuilderOptions& options) {
  dag::DagBuildResult result = dag::build_file(data, options);
  for (const auto& b : result.blocks) {
    auto block = std::make_shared<dag::Block>(b);
    blockstore_.pin(block->id());
    store_block(block, /*provide=*/false);
  }
  // Only the root is announced: consumers resolve children via sessions.
  if (online_) dht_->provide(result.root, address_);
  provided_.push_back(result.root);
  return result;
}

void IpfsNode::add_block(dag::BlockPtr block, bool provide) {
  if (block == nullptr) return;
  blockstore_.pin(block->id());
  store_block(block, provide);
}

void IpfsNode::add_blocks(const std::vector<dag::BlockPtr>& blocks,
                          const cid::Cid& provide_root) {
  for (const auto& block : blocks) {
    if (block == nullptr) continue;
    blockstore_.pin(block->id());
    store_block(block, /*provide=*/false);
  }
  provided_.push_back(provide_root);
  if (online_) dht_->provide(provide_root, address_);
}

void IpfsNode::pin(const cid::Cid& cid) { blockstore_.pin(cid); }

void IpfsNode::store_block(const dag::BlockPtr& block, bool provide) {
  blockstore_.put(block);
  engine_->notify_new_block(block);
  if (provide) {
    provided_.push_back(block->id());
    if (online_) dht_->provide(block->id(), address_);
  }
}

void IpfsNode::fetch(const cid::Cid& cid, FetchCallback on_done) {
  // Cache first: repeat requests never reach the network, which is why
  // monitors only observe a node's *first* request for a data item.
  if (const dag::BlockPtr cached = blockstore_.get(cid)) {
    auto& tracer = network_.obs().tracer;
    if (tracer.current().valid()) {
      const util::SimTime now = network_.scheduler().now();
      tracer.add_span("node.blockstore_hit", tracer.current(), now, now);
    }
    if (on_done) on_done(cached);
    return;
  }
  if (!online_) {
    if (on_done) on_done(nullptr);
    return;
  }
  client_->fetch(cid, bitswap::kNoSession,
                 [this, on_done = std::move(on_done)](dag::BlockPtr block) {
                   if (block != nullptr) {
                     store_block(block, config_.provide_downloaded);
                   }
                   if (on_done) on_done(block);
                 });
}

struct IpfsNode::DagFetchState {
  bitswap::SessionId session = bitswap::kNoSession;
  std::size_t fetched = 0;
  std::size_t outstanding = 0;
  bool failed = false;
  DagFetchCallback on_done;
  std::unordered_set<cid::Cid> requested;
};

void IpfsNode::fetch_dag(const cid::Cid& root, DagFetchCallback on_done) {
  auto state = std::make_shared<DagFetchState>();
  state->session = client_->create_session();
  state->on_done = std::move(on_done);
  state->outstanding = 1;
  state->requested.insert(root);

  // Root request: the session is empty, so this is a full broadcast.
  if (const dag::BlockPtr cached = blockstore_.get(root)) {
    ++state->fetched;
    --state->outstanding;
    fetch_dag_children(state, cached);
    if (state->outstanding == 0 && state->on_done) {
      auto cb = std::move(state->on_done);
      cb(state->fetched, !state->failed);
    }
    return;
  }
  client_->fetch(root, state->session, [this, state](dag::BlockPtr block) {
    --state->outstanding;
    if (block == nullptr) {
      state->failed = true;
    } else {
      ++state->fetched;
      store_block(block, config_.provide_downloaded);
      fetch_dag_children(state, block);
    }
    if (state->outstanding == 0 && state->on_done) {
      auto cb = std::move(state->on_done);
      cb(state->fetched, !state->failed);
    }
  });
}

void IpfsNode::fetch_dag_children(const std::shared_ptr<DagFetchState>& state,
                                  const dag::BlockPtr& block) {
  if (block->id().codec() != cid::Multicodec::DagProtobuf) return;
  const auto node = dag::DagNode::from_bytes(block->data());
  if (!node) return;
  for (const auto& link : node->links) {
    if (!state->requested.insert(link.target).second) continue;
    ++state->outstanding;
    if (const dag::BlockPtr cached = blockstore_.get(link.target)) {
      ++state->fetched;
      --state->outstanding;
      fetch_dag_children(state, cached);
      continue;
    }
    // Child requests are scoped to the session's peers — the behaviour
    // that hides non-root CIDs from passive monitors.
    client_->fetch(link.target, state->session,
                   [this, state](dag::BlockPtr child) {
                     --state->outstanding;
                     if (child == nullptr) {
                       state->failed = true;
                     } else {
                       ++state->fetched;
                       store_block(child, config_.provide_downloaded);
                       fetch_dag_children(state, child);
                     }
                     if (state->outstanding == 0 && state->on_done) {
                       auto cb = std::move(state->on_done);
                       cb(state->fetched, !state->failed);
                     }
                   });
  }
}

void IpfsNode::schedule_discovery() {
  if (!online_) return;
  const auto jitter = static_cast<util::SimDuration>(
      rng_.uniform(0.5, 1.5) * static_cast<double>(config_.discovery_interval));
  discovery_timer_ = network_.scheduler().schedule_after(jitter, [this]() {
    discovery_round();
    schedule_discovery();
  });
}

void IpfsNode::discovery_round() {
  if (!online_) return;
  // Connection-manager trim (go-ipfs watermarks): above high_water, close
  // random connections down to low_water. Connections to peers currently
  // serving us are not specially protected — the real manager's grace
  // period mostly shields brand-new connections, which a 1-minute cadence
  // approximates well enough.
  if (config_.high_water > 0 &&
      network_.connection_count(id_) > config_.high_water) {
    // Eligible victims: young connections only (older ones are protected,
    // as go-ipfs protects valued long-lived connections).
    std::vector<net::ConnectionId> victims;
    const util::SimTime now = network_.scheduler().now();
    for (const auto& peer : network_.connected_peers(id_)) {
      const auto conn = network_.connection_between(id_, peer);
      if (!conn) continue;
      const auto established = network_.connection_established_at(*conn);
      if (config_.trim_protect_age > 0 && established &&
          now - *established > config_.trim_protect_age) {
        continue;
      }
      victims.push_back(*conn);
    }
    const std::size_t excess = network_.connection_count(id_) -
                               std::min(network_.connection_count(id_),
                                        config_.low_water);
    const std::size_t to_close = std::min(excess, victims.size());
    for (std::size_t i = 0; i < to_close; ++i) {
      const std::size_t pick = rng_.uniform_index(victims.size() - i) + i;
      std::swap(victims[i], victims[pick]);
      network_.close(victims[i]);
    }
  }
  // Maintain the target degree by dialing randomly discovered public
  // peers. (Abstraction of libp2p discovery; see DESIGN.md.)
  if (network_.connection_count(id_) >= config_.target_degree) return;
  for (std::size_t i = 0; i < config_.discovery_dials; ++i) {
    const auto peer = network_.sample_online_public(rng_);
    if (!peer || *peer == id_) continue;
    network_.dial(id_, *peer, nullptr);
  }
}

void IpfsNode::schedule_reprovide() {
  if (!online_) return;
  const auto jitter = static_cast<util::SimDuration>(
      rng_.uniform(0.9, 1.1) * static_cast<double>(config_.reprovide_interval));
  reprovide_timer_ = network_.scheduler().schedule_after(jitter, [this]() {
    reprovide_round();
    schedule_reprovide();
  });
}

void IpfsNode::reprovide_round() {
  if (!online_) return;
  for (const auto& cid : provided_) {
    if (blockstore_.has(cid)) dht_->provide(cid, address_);
  }
}

bool IpfsNode::accept_inbound(const crypto::PeerId& /*from*/) {
  if (!online_) return false;
  return network_.connection_count(id_) < config_.max_degree;
}

void IpfsNode::on_connection(net::ConnectionId conn, const crypto::PeerId& peer,
                             bool /*outbound*/) {
  client_->on_peer_connected(conn, peer);
  on_peer_connected_hook(peer);
}

void IpfsNode::on_disconnect(net::ConnectionId /*conn*/,
                             const crypto::PeerId& peer) {
  engine_->on_peer_disconnected(peer);
  dht_->on_peer_disconnected(peer);
  on_peer_disconnected_hook(peer);
}

void IpfsNode::on_message(net::ConnectionId conn, const crypto::PeerId& from,
                          const net::PayloadPtr& payload) {
  if (!online_) return;
  if (const auto* dht_msg = dynamic_cast<const dht::DhtMessage*>(payload.get())) {
    dht_->handle_message(conn, from, *dht_msg);
    return;
  }
  if (const auto* bs_msg =
          dynamic_cast<const bitswap::BitswapMessage*>(payload.get())) {
    engine_->handle_message(conn, from, *bs_msg);
    client_->handle_response(from, *bs_msg);
    return;
  }
}

}  // namespace ipfsmon::node
