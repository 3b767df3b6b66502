#include "bitswap/client.hpp"

#include <algorithm>

namespace ipfsmon::bitswap {

namespace {

/// The idle-loop re-broadcast of every outstanding want (paper Sec. III-C).
constexpr util::SimDuration kRebroadcastInterval = 30 * util::kSecond;
/// How long to wait for broadcast answers before querying the DHT: the
/// go-ipfs 1 s, arXiv 2208.05877.
constexpr util::SimDuration kProviderSearchDelay = 1 * util::kSecond;
/// Patience for a directed WANT_BLOCK before trying the next candidate.
/// Calibrated; no published figure.
constexpr util::SimDuration kBlockRequestTimeout = 10 * util::kSecond;
/// Providers from one DHT search asked directly. Calibrated; no published
/// figure.
constexpr std::size_t kMaxProvidersContacted = 5;
/// Salt length for the salted-want countermeasure (paper Sec. VI-C item 4).
/// Calibrated; no published figure.
constexpr std::size_t kSaltBytes = 16;

}  // namespace

BitswapClient::BitswapClient(net::Network& network, const crypto::PeerId& self,
                             ClientConfig config, ProviderSearchFn search,
                             util::RngStream rng)
    : network_(network),
      self_(self),
      config_(config),
      search_(std::move(search)),
      rng_(std::move(rng)) {
  auto& m = network_.obs().metrics;
  metrics_.want_messages = &m.counter("ipfsmon_bitswap_want_messages_total",
                                      "Bitswap messages carrying want entries");
  metrics_.want_have = &m.counter("ipfsmon_bitswap_want_have_sent_total",
                                  "WANT_HAVE entries sent");
  metrics_.want_block = &m.counter("ipfsmon_bitswap_want_block_sent_total",
                                   "WANT_BLOCK entries sent");
  metrics_.cancels =
      &m.counter("ipfsmon_bitswap_cancels_sent_total", "CANCEL messages sent");
  metrics_.rebroadcast_rounds =
      &m.counter("ipfsmon_bitswap_rebroadcast_rounds_total",
                 "30 s re-broadcast timer fires");
  metrics_.fetches_started =
      &m.counter("ipfsmon_bitswap_fetches_started_total", "Fetches started");
  metrics_.fetches_completed = &m.counter(
      "ipfsmon_bitswap_fetches_completed_total", "Fetches completed");
  metrics_.fetches_failed = &m.counter("ipfsmon_bitswap_fetches_failed_total",
                                       "Fetches failed or timed out");
  metrics_.provider_searches = &m.counter(
      "ipfsmon_bitswap_provider_searches_total", "DHT provider searches");
  metrics_.fetch_duration = &m.histogram(
      "ipfsmon_bitswap_fetch_duration_seconds",
      {0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0},
      "Sim-time duration of completed fetches");
}

SessionId BitswapClient::create_session() {
  const SessionId id = next_session_++;
  sessions_[id];  // materialize empty peer set
  return id;
}

std::vector<crypto::PeerId> BitswapClient::session_peers(
    SessionId session) const {
  const auto it = sessions_.find(session);
  if (it == sessions_.end()) return {};
  return {it->second.begin(), it->second.end()};
}

void BitswapClient::fetch(const cid::Cid& cid, SessionId session,
                          FetchCallback on_done) {
  if (shut_down_) {
    if (on_done) on_done(nullptr);
    return;
  }
  if (const auto it = active_.find(cid); it != active_.end()) {
    // Coalesce concurrent fetches of the same CID.
    if (on_done) it->second->callbacks.push_back(std::move(on_done));
    return;
  }
  metrics_.fetches_started->inc();

  auto state = std::make_shared<WantState>();
  state->cid = cid;
  state->session = session;
  state->started = network_.scheduler().now();
  auto& tracer = network_.obs().tracer;
  if (tracer.enabled()) {
    // Child of the caller's span (e.g. a gateway request) when one is in
    // scope; otherwise its own sampled root (workload-driven fetches).
    state->span = tracer.current().valid()
                      ? tracer.start_span("bitswap.fetch", tracer.current())
                      : tracer.start_trace("bitswap.fetch");
    state->span.set_attr("cid", cid.short_hex());
  }
  if (on_done) state->callbacks.push_back(std::move(on_done));
  // A populated session scopes the request; an empty/no session broadcasts
  // (the root request of a DAG download is always a broadcast).
  const auto sit = sessions_.find(session);
  const bool session_has_peers = sit != sessions_.end() && !sit->second.empty();
  state->broadcast = !session_has_peers;
  active_[cid] = state;

  broadcast_want(state);
  arm_deadline(state);
  arm_rebroadcast(state);

  // Step 2 of the retrieval strategy: DHT search if broadcasting stalls.
  state->provider_delay_timer = network_.scheduler().schedule_after(
      kProviderSearchDelay, [this, state]() {
        if (state->done) return;
        if (!state->block_in_flight && state->candidates.empty()) {
          start_provider_search(state);
        }
      });
}

std::vector<crypto::PeerId> BitswapClient::want_targets(
    const WantStatePtr& state) const {
  if (state->broadcast) {
    if (!config_.broadcast_wants) return {};  // DHT-only countermeasure
    return network_.connected_peers(self_);
  }
  const auto it = sessions_.find(state->session);
  if (it == sessions_.end()) return {};
  std::vector<crypto::PeerId> peers;
  peers.reserve(it->second.size());
  for (const auto& p : it->second) {
    if (network_.connection_between(self_, p)) peers.push_back(p);
  }
  return peers;
}

WantEntry BitswapClient::build_entry(const cid::Cid& cid, WantType type,
                                     bool send_dont_have, bool allow_salted) {
  if (config_.salted_wants && allow_salted) {
    util::Bytes salt(kSaltBytes);
    rng_.fill_bytes(salt.data(), salt.size());
    return make_salted_entry(cid, std::move(salt), type, send_dont_have);
  }
  WantEntry entry;
  entry.cid = cid;
  entry.type = type;
  entry.send_dont_have = send_dont_have;
  return entry;
}

void BitswapClient::send_want(const WantStatePtr& state,
                              const crypto::PeerId& peer,
                              net::ConnectionId conn, WantType type,
                              bool send_dont_have, bool allow_salted) {
  auto msg = std::make_shared<BitswapMessage>();
  msg->entries.push_back(
      build_entry(state->cid, type, send_dont_have, allow_salted));
  msg->trace = state->span.context();
  network_.send(conn, self_, std::move(msg));
  state->told.insert(peer);
  metrics_.want_messages->inc();
  (type == WantType::WantBlock ? metrics_.want_block : metrics_.want_have)
      ->inc();
}

void BitswapClient::broadcast_want(const WantStatePtr& state) {
  const WantType type =
      config_.use_want_have ? WantType::WantHave : WantType::WantBlock;
  std::uint64_t sent = 0;
  for (const auto& peer : want_targets(state)) {
    const auto conn = network_.connection_between(self_, peer);
    if (!conn) continue;
    // Broadcast probes do not request explicit DONT_HAVEs (timeouts
    // determine absence); session-scoped wants do.
    send_want(state, peer, *conn, type, /*send_dont_have=*/!state->broadcast);
    ++sent;
  }
  if (state->span.active()) {
    const util::SimTime now = network_.scheduler().now();
    network_.obs().tracer.add_span("bitswap.broadcast", state->span.context(),
                                   now, now, {{"targets", std::to_string(sent)}});
  }
}

void BitswapClient::handle_response(const crypto::PeerId& from,
                                    const BitswapMessage& message) {
  for (const auto& block : message.blocks) {
    if (block == nullptr) continue;
    const auto it = active_.find(block->id());
    if (it == active_.end()) continue;
    if (!block->verify()) continue;  // self-certification check
    WantStatePtr state = it->second;
    if (state->session != kNoSession) sessions_[state->session].insert(from);
    complete(state, block);
  }
  for (const auto& presence : message.presences) {
    const auto it = active_.find(presence.cid);
    if (it == active_.end()) continue;
    WantStatePtr state = it->second;
    if (presence.have) {
      if (state->session != kNoSession) sessions_[state->session].insert(from);
      if (state->candidate_set.insert(from).second &&
          state->tried.count(from) == 0) {
        state->candidates.push_back(from);
      }
      try_next_candidate(state);
    } else if (state->block_in_flight == from) {
      // Our directed WANT_BLOCK was answered DONT_HAVE: move on.
      state->block_in_flight.reset();
      state->block_timeout_timer.cancel();
      try_next_candidate(state);
    }
  }
}

void BitswapClient::try_next_candidate(const WantStatePtr& state) {
  if (state->done || state->block_in_flight) return;
  while (!state->candidates.empty()) {
    const crypto::PeerId peer = state->candidates.front();
    state->candidates.erase(state->candidates.begin());
    state->candidate_set.erase(peer);
    if (!state->tried.insert(peer).second) continue;
    const auto conn = network_.connection_between(self_, peer);
    if (!conn) continue;  // candidate disconnected meanwhile
    state->block_in_flight = peer;
    // The candidate proved knowledge (HAVE) or is a DHT-listed provider —
    // a plaintext directed request leaks nothing new to it.
    send_want(state, peer, *conn, WantType::WantBlock, /*send_dont_have=*/true,
              /*allow_salted=*/false);
    if (state->span.active()) {
      const util::SimTime now = network_.scheduler().now();
      network_.obs().tracer.add_span("bitswap.want_block",
                                     state->span.context(), now, now,
                                     {{"peer", peer.short_hex()}});
    }
    state->block_timeout_timer = network_.scheduler().schedule_after(
        kBlockRequestTimeout, [this, state]() {
          if (state->done) return;
          state->block_in_flight.reset();
          try_next_candidate(state);
        });
    return;
  }
}

void BitswapClient::start_provider_search(const WantStatePtr& state) {
  if (!search_ || state->provider_search_running || state->done) return;
  state->provider_search_running = true;
  metrics_.provider_searches->inc();
  state->provider_span = network_.obs().tracer.start_span(
      "bitswap.provider_search", state->span.context());
  // The DHT lookup starts synchronously inside search_; scope the
  // implicit context so its spans parent here.
  obs::ScopedContext scope(network_.obs().tracer,
                           state->provider_span.context());
  search_(state->cid, [this, state](std::vector<dht::PeerRecord> providers) {
    state->provider_search_running = false;
    if (state->provider_span.active()) {
      state->provider_span.set_attr(
          "providers", static_cast<std::uint64_t>(providers.size()));
      state->provider_span.end();
    }
    if (state->done || shut_down_) return;
    std::size_t contacted = 0;
    for (const auto& provider : providers) {
      if (contacted >= kMaxProvidersContacted) break;
      if (provider.id == self_) continue;
      if (state->tried.count(provider.id) != 0 ||
          state->candidate_set.count(provider.id) != 0) {
        continue;
      }
      ++contacted;
      if (state->session != kNoSession) {
        sessions_[state->session].insert(provider.id);
      }
      // Connect (if needed) and queue the provider as a candidate; a
      // directed WANT_BLOCK follows via try_next_candidate.
      network_.dial(self_, provider.id,
                    [this, state, id = provider.id](
                        std::optional<net::ConnectionId> conn) {
                      if (!conn || state->done) return;
                      if (state->tried.count(id) != 0) return;
                      if (state->candidate_set.insert(id).second) {
                        state->candidates.push_back(id);
                      }
                      try_next_candidate(state);
                    });
    }
  });
}

void BitswapClient::on_rebroadcast(const WantStatePtr& state) {
  if (state->done) return;
  metrics_.rebroadcast_rounds->inc();
  broadcast_want(state);
  // Fig. 1's idle loop also re-searches the DHT while stalled.
  if (!state->block_in_flight && state->candidates.empty()) {
    start_provider_search(state);
  }
  arm_rebroadcast(state);
}

void BitswapClient::arm_rebroadcast(const WantStatePtr& state) {
  if (!config_.rebroadcast) return;
  state->rebroadcast_timer = network_.scheduler().schedule_after(
      kRebroadcastInterval, [this, state]() { on_rebroadcast(state); });
}

void BitswapClient::arm_deadline(const WantStatePtr& state) {
  state->deadline_timer = network_.scheduler().schedule_after(
      config_.fetch_timeout, [this, state]() {
        if (!state->done) fail(state);
      });
}

void BitswapClient::send_cancels(const WantStatePtr& state) {
  for (const auto& peer : state->told) {
    const auto conn = network_.connection_between(self_, peer);
    if (!conn) continue;
    auto msg = std::make_shared<BitswapMessage>();
    msg->entries.push_back(
        build_entry(state->cid, WantType::Cancel, false, /*allow_salted=*/true));
    msg->trace = state->span.context();
    network_.send(*conn, self_, std::move(msg));
    metrics_.cancels->inc();
  }
  state->told.clear();
}

void BitswapClient::complete(WantStatePtr state, const dag::BlockPtr& block) {
  if (state->done) return;
  state->done = true;
  state->rebroadcast_timer.cancel();
  state->provider_delay_timer.cancel();
  state->block_timeout_timer.cancel();
  state->deadline_timer.cancel();
  send_cancels(state);
  active_.erase(state->cid);
  metrics_.fetches_completed->inc();
  metrics_.fetch_duration->observe(
      util::to_seconds(network_.scheduler().now() - state->started));
  state->span.set_attr("outcome", "ok");
  state->span.end();
  for (auto& cb : state->callbacks) {
    if (cb) cb(block);
  }
}

void BitswapClient::fail(WantStatePtr state) {
  if (state->done) return;
  state->done = true;
  state->rebroadcast_timer.cancel();
  state->provider_delay_timer.cancel();
  state->block_timeout_timer.cancel();
  state->deadline_timer.cancel();
  send_cancels(state);
  active_.erase(state->cid);
  metrics_.fetches_failed->inc();
  state->span.set_attr("outcome", "fail");
  state->span.end();
  for (auto& cb : state->callbacks) {
    if (cb) cb(nullptr);
  }
}

void BitswapClient::cancel(const cid::Cid& cid) {
  const auto it = active_.find(cid);
  if (it == active_.end()) return;
  fail(it->second);
}

void BitswapClient::on_peer_connected(net::ConnectionId conn,
                                      const crypto::PeerId& peer) {
  if (shut_down_ || active_.empty()) return;
  // Bitswap pushes the full current wantlist to newly connected peers.
  auto msg = std::make_shared<BitswapMessage>();
  msg->full_wantlist = true;
  const WantType type =
      config_.use_want_have ? WantType::WantHave : WantType::WantBlock;
  std::vector<WantStatePtr> told;
  for (const auto& [cid, state] : active_) {
    if (!state->broadcast) continue;  // session-scoped wants stay scoped
    if (!config_.broadcast_wants) continue;
    msg->entries.push_back(build_entry(cid, type, false, /*allow_salted=*/true));
    told.push_back(state);
  }
  if (msg->entries.empty()) return;
  const std::size_t entry_count = msg->entries.size();
  network_.send(conn, self_, std::move(msg));
  for (const auto& state : told) state->told.insert(peer);
  metrics_.want_messages->inc();
  (type == WantType::WantBlock ? metrics_.want_block : metrics_.want_have)
      ->inc(entry_count);
}

void BitswapClient::shutdown() {
  shut_down_ = true;
  // fail() mutates active_; iterate over a snapshot.
  std::vector<WantStatePtr> states;
  states.reserve(active_.size());
  for (const auto& [cid, state] : active_) states.push_back(state);
  for (const auto& state : states) fail(state);
  sessions_.clear();
}

}  // namespace ipfsmon::bitswap
