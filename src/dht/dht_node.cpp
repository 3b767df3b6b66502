#include "dht/dht_node.hpp"

#include <algorithm>
#include <unordered_set>

namespace ipfsmon::dht {

namespace {

/// Lookup parallelism: requests in flight per iterative lookup (the go-ipfs
/// alpha = 3, arXiv 2208.05877).
constexpr std::size_t kAlpha = 3;

struct KeyHash {
  std::size_t operator()(const Key& k) const noexcept {
    std::size_t h = 0;
    for (int i = 0; i < 8; ++i) h = (h << 8) | k[static_cast<std::size_t>(i)];
    return h;
  }
};
}  // namespace

/// Tracks one iterative lookup: a shortlist of candidates ordered by XOR
/// distance, with per-peer query status.
struct DhtNode::LookupState {
  Key target{};
  bool collect_providers = false;
  LookupCallback on_done;

  enum class Status { Candidate, InFlight, Responded, Failed };
  struct Entry {
    PeerRecord record;
    Status status = Status::Candidate;
  };
  // Sorted by distance to target, closest first.
  std::vector<Entry> shortlist;
  std::unordered_set<crypto::PeerId> known;
  std::vector<PeerRecord> providers_found;
  std::unordered_set<crypto::PeerId> provider_ids;
  std::size_t in_flight = 0;
  bool finished = false;
  /// Lookup-lifetime span. Only requests with a caller context are traced
  /// (e.g. a Bitswap provider search); periodic refresh lookups have none
  /// and stay untraced.
  obs::Span span;
};

DhtNode::DhtNode(net::Network& network, const crypto::PeerId& self,
                 DhtConfig config, util::RngStream rng)
    : network_(network),
      self_(self),
      config_(config),
      rng_(std::move(rng)),
      table_(self, kBucketSize),
      provider_store_(config.provider_ttl) {
  auto& reg = network_.obs().metrics;
  metrics_.lookups = &reg.counter("ipfsmon_dht_lookups_total",
                                  "Iterative DHT lookups started");
  metrics_.rpcs =
      &reg.counter("ipfsmon_dht_rpcs_sent_total", "DHT request RPCs sent");
  metrics_.rpc_timeouts = &reg.counter("ipfsmon_dht_rpc_timeouts_total",
                                       "DHT RPCs that expired unanswered");
  metrics_.table_entries =
      &reg.gauge("ipfsmon_dht_routing_table_entries",
                 "Routing-table entries summed over all DHT nodes");
}

void DhtNode::start() {
  if (running_) return;
  running_ = true;
  schedule_refresh();
}

void DhtNode::stop() {
  running_ = false;
  refresh_timer_.cancel();
  // Fail all pending RPCs; their lookups unwind via the nullptr path.
  std::vector<std::uint64_t> ids;
  ids.reserve(pending_.size());
  for (const auto& [id, p] : pending_) ids.push_back(id);
  for (const std::uint64_t id : ids) fail_pending(id);
}

PeerRecord DhtNode::record_for(const Contact& contact) const {
  const net::NodeRecord* rec = network_.record_at(contact.node);
  return PeerRecord{contact.id, rec != nullptr ? rec->address : net::Address{}};
}

void DhtNode::bootstrap(const std::vector<crypto::PeerId>& seeds) {
  for (const auto& seed : seeds) {
    if (seed == self_) continue;
    network_.dial(self_, seed, [this, seed](std::optional<net::ConnectionId> c) {
      if (!c || !running_) return;
      // Probe the seed so it lands in our table and we in its (if server).
      auto msg = std::make_shared<DhtMessage>();
      msg->type = DhtMessage::Type::FindNode;
      msg->target = key_of(self_);
      send_request(seed, std::move(msg), [this](const DhtMessage* reply) {
        if (reply == nullptr || !running_) return;
        // Kick a proper self-lookup once we know anyone.
        find_closest(key_of(self_), nullptr);
      });
    });
  }
}

void DhtNode::handle_message(net::ConnectionId conn, const crypto::PeerId& from,
                             const DhtMessage& msg) {
  if (!running_) return;
  if (msg.sender_is_server) {
    mutate_table([&] { table_.add(from, network_.node_index(from)); });
  }

  switch (msg.type) {
    case DhtMessage::Type::Ping: {
      auto reply = std::make_shared<DhtMessage>();
      reply->type = DhtMessage::Type::Pong;
      reply->request_id = msg.request_id;
      send_reply(conn, std::move(reply));
      return;
    }
    case DhtMessage::Type::FindNode: {
      if (!config_.server_mode) return;  // clients do not serve the DHT
      auto reply = std::make_shared<DhtMessage>();
      reply->type = DhtMessage::Type::FindNodeReply;
      reply->request_id = msg.request_id;
      for (const auto& contact : table_.closest(msg.target, kBucketSize)) {
        reply->closer.push_back(record_for(contact));
      }
      send_reply(conn, std::move(reply));
      return;
    }
    case DhtMessage::Type::GetProviders: {
      if (!config_.server_mode) return;
      auto reply = std::make_shared<DhtMessage>();
      reply->type = DhtMessage::Type::GetProvidersReply;
      reply->request_id = msg.request_id;
      reply->providers =
          provider_store_.get(msg.target, network_.scheduler().now());
      for (const auto& contact : table_.closest(msg.target, kBucketSize)) {
        reply->closer.push_back(record_for(contact));
      }
      send_reply(conn, std::move(reply));
      return;
    }
    case DhtMessage::Type::AddProvider: {
      if (!config_.server_mode) return;
      for (const auto& provider : msg.providers) {
        provider_store_.add(msg.target, provider, network_.scheduler().now());
      }
      return;
    }
    case DhtMessage::Type::Pong:
    case DhtMessage::Type::FindNodeReply:
    case DhtMessage::Type::GetProvidersReply: {
      const auto it = pending_.find(msg.request_id);
      if (it == pending_.end()) return;  // late reply after timeout
      Pending pending = std::move(it->second);
      pending_.erase(it);
      pending.timeout.cancel();
      if (pending.callback) pending.callback(&msg);
      return;
    }
  }
}

void DhtNode::on_peer_disconnected(const crypto::PeerId& /*peer*/) {
  // Kademlia tables deliberately retain entries across disconnects;
  // removal happens on RPC failure (see send_request timeout path).
}

void DhtNode::send_request(const crypto::PeerId& to,
                           std::shared_ptr<DhtMessage> msg,
                           ReplyCallback on_reply) {
  msg->request_id = next_request_id_++;
  msg->sender_is_server = config_.server_mode;
  const std::uint64_t id = msg->request_id;
  ++rpcs_sent_;
  metrics_.rpcs->inc();

  sim::EventHandle timeout = network_.scheduler().schedule_after(
      kRpcTimeout, [this, id]() {
        metrics_.rpc_timeouts->inc();
        fail_pending(id);
      });
  pending_[id] = Pending{std::move(on_reply), timeout, to};

  const auto existing = network_.connection_between(self_, to);
  if (existing) {
    network_.send(*existing, self_, std::move(msg));
    return;
  }
  network_.dial(self_, to,
                [this, id, msg = std::move(msg)](
                    std::optional<net::ConnectionId> conn) {
                  if (!conn) {
                    // Unreachable peer: fail fast and drop it from the table.
                    const auto it = pending_.find(id);
                    if (it != pending_.end()) {
                      mutate_table([&] { table_.remove(it->second.peer); });
                    }
                    fail_pending(id);
                    return;
                  }
                  if (pending_.count(id) == 0) return;  // already timed out
                  network_.send(*conn, self_, msg);
                });
}

void DhtNode::send_reply(net::ConnectionId conn,
                         std::shared_ptr<DhtMessage> msg) {
  msg->sender_is_server = config_.server_mode;
  network_.send(conn, self_, std::move(msg));
}

void DhtNode::fail_pending(std::uint64_t request_id) {
  const auto it = pending_.find(request_id);
  if (it == pending_.end()) return;
  Pending pending = std::move(it->second);
  pending_.erase(it);
  pending.timeout.cancel();
  mutate_table([&] { table_.remove(pending.peer); });  // unresponsive: evict
  if (pending.callback) pending.callback(nullptr);
}

void DhtNode::find_closest(const Key& target, LookupCallback on_done) {
  start_lookup(target, /*collect_providers=*/false, std::move(on_done));
}

void DhtNode::find_providers(const cid::Cid& content, LookupCallback on_done) {
  start_lookup(key_of(content), /*collect_providers=*/true, std::move(on_done));
}

void DhtNode::seed_local_providers(const std::shared_ptr<LookupState>& state) {
  // A server near the key may already hold records locally (including ones
  // it stored about itself when providing).
  if (!config_.server_mode) return;
  for (const auto& provider :
       provider_store_.get(state->target, network_.scheduler().now())) {
    if (state->provider_ids.insert(provider.id).second) {
      state->providers_found.push_back(provider);
    }
  }
}

void DhtNode::provide(const cid::Cid& content, const net::Address& address) {
  const Key key = key_of(content);
  const PeerRecord self_rec{self_, address};
  // Servers also store the record locally — they may themselves be among
  // the k closest nodes to the key.
  if (config_.server_mode) {
    provider_store_.add(key, self_rec, network_.scheduler().now());
  }
  find_closest(key, [this, key, self_rec](std::vector<PeerRecord> closest) {
    for (const auto& peer : closest) {
      auto msg = std::make_shared<DhtMessage>();
      msg->type = DhtMessage::Type::AddProvider;
      msg->target = key;
      msg->providers.push_back(self_rec);
      // AddProvider is fire-and-forget; register no reply expectation.
      msg->request_id = next_request_id_++;
      msg->sender_is_server = config_.server_mode;
      ++rpcs_sent_;
      metrics_.rpcs->inc();
      const auto existing = network_.connection_between(self_, peer.id);
      if (existing) {
        network_.send(*existing, self_, std::move(msg));
      } else {
        network_.dial(self_, peer.id,
                      [this, msg = std::move(msg)](
                          std::optional<net::ConnectionId> conn) {
                        if (conn) network_.send(*conn, self_, msg);
                      });
      }
    }
  });
}

void DhtNode::start_lookup(const Key& target, bool collect_providers,
                           LookupCallback on_done) {
  ++lookups_started_;
  metrics_.lookups->inc();
  auto state = std::make_shared<LookupState>();
  state->target = target;
  state->collect_providers = collect_providers;
  state->on_done = std::move(on_done);
  auto& tracer = network_.obs().tracer;
  state->span = tracer.start_span(
      collect_providers ? "dht.find_providers" : "dht.find_closest",
      tracer.current());
  if (collect_providers) seed_local_providers(state);

  for (const auto& contact : table_.closest(target, kBucketSize)) {
    state->shortlist.push_back(
        {record_for(contact), LookupState::Status::Candidate});
    state->known.insert(contact.id);
  }
  if (state->shortlist.empty()) {
    finish_lookup(state);
    return;
  }
  lookup_step(state);
}

void DhtNode::lookup_step(const std::shared_ptr<LookupState>& state) {
  if (state->finished) return;
  if (!running_) {
    finish_lookup(state);
    return;
  }

  // Convergence: the k closest known peers have all been queried (or
  // failed) and nothing is in flight.
  std::size_t examined = 0;
  bool all_settled = true;
  for (const auto& entry : state->shortlist) {
    if (examined >= kBucketSize) break;
    if (entry.status == LookupState::Status::Candidate ||
        entry.status == LookupState::Status::InFlight) {
      all_settled = false;
      break;
    }
    ++examined;
  }
  if (all_settled && state->in_flight == 0) {
    finish_lookup(state);
    return;
  }

  // Launch queries up to alpha, closest candidates first, but only within
  // the k-best window (classic Kademlia pruning).
  std::size_t position = 0;
  for (auto& entry : state->shortlist) {
    if (state->in_flight >= kAlpha) break;
    if (position >= kBucketSize) break;
    ++position;
    if (entry.status != LookupState::Status::Candidate) continue;
    entry.status = LookupState::Status::InFlight;
    ++state->in_flight;

    auto msg = std::make_shared<DhtMessage>();
    msg->type = state->collect_providers ? DhtMessage::Type::GetProviders
                                         : DhtMessage::Type::FindNode;
    msg->target = state->target;
    const crypto::PeerId peer = entry.record.id;
    std::shared_ptr<obs::Span> rpc_span;
    if (state->span.active()) {
      rpc_span = std::make_shared<obs::Span>(network_.obs().tracer.start_span(
          "dht.rpc", state->span.context()));
      rpc_span->set_attr("peer", peer.short_hex());
      msg->trace = rpc_span->context();
    }
    send_request(peer, std::move(msg),
                 [this, state, peer, rpc_span](const DhtMessage* reply) {
                   if (rpc_span) {
                     rpc_span->set_attr("ok", reply != nullptr ? "1" : "0");
                     rpc_span->end();
                   }
                   --state->in_flight;
                   for (auto& e : state->shortlist) {
                     if (e.record.id == peer) {
                       e.status = reply != nullptr
                                      ? LookupState::Status::Responded
                                      : LookupState::Status::Failed;
                       break;
                     }
                   }
                   if (reply != nullptr) {
                     if (state->collect_providers) {
                       for (const auto& provider : reply->providers) {
                         if (state->provider_ids.insert(provider.id).second) {
                           state->providers_found.push_back(provider);
                         }
                       }
                     }
                     for (const auto& learned : reply->closer) {
                       if (learned.id == self_) continue;
                       if (!state->known.insert(learned.id).second) continue;
                       // Insert keeping the shortlist distance-sorted
                       // (ids are distinct, so the order is strict).
                       const auto it = std::partition_point(
                           state->shortlist.begin(), state->shortlist.end(),
                           [&](const LookupState::Entry& e) {
                             return closer(e.record.id.digest(),
                                           learned.id.digest(), state->target);
                           });
                       state->shortlist.insert(
                           it, {learned, LookupState::Status::Candidate});
                     }
                   }
                   lookup_step(state);
                 });
  }

  if (state->in_flight == 0) {
    // Nothing launchable (all candidates outside the window): done.
    finish_lookup(state);
  }
}

void DhtNode::finish_lookup(const std::shared_ptr<LookupState>& state) {
  if (state->finished) return;
  state->finished = true;
  if (state->span.active()) {
    if (state->collect_providers) {
      state->span.set_attr(
          "providers",
          static_cast<std::uint64_t>(state->providers_found.size()));
    }
    state->span.set_attr("shortlist",
                         static_cast<std::uint64_t>(state->shortlist.size()));
    state->span.end();
  }
  LookupCallback cb = std::move(state->on_done);
  if (!cb) return;
  std::vector<PeerRecord> result;
  if (state->collect_providers) {
    result = std::move(state->providers_found);
  } else {
    for (const auto& entry : state->shortlist) {
      if (entry.status == LookupState::Status::Responded) {
        result.push_back(entry.record);
        if (result.size() >= kBucketSize) break;
      }
    }
  }
  cb(std::move(result));
}

void DhtNode::schedule_refresh() {
  if (!running_) return;
  // Jittered interval so the population's refreshes don't phase-lock.
  const auto jitter = static_cast<util::SimDuration>(
      rng_.uniform(0.5, 1.5) * static_cast<double>(config_.refresh_interval));
  refresh_timer_ = network_.scheduler().schedule_after(jitter, [this]() {
    do_refresh();
    schedule_refresh();
  });
}

void DhtNode::do_refresh() {
  if (!running_) return;
  // Self-lookup keeps our neighborhood fresh...
  find_closest(key_of(self_), nullptr);
  // ...and a random-target lookup explores the wider keyspace.
  Key random_target;
  rng_.fill_bytes(random_target.data(), random_target.size());
  find_closest(random_target, nullptr);
  provider_store_.sweep(network_.scheduler().now());
}

}  // namespace ipfsmon::dht
