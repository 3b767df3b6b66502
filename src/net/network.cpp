#include "net/network.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/time.hpp"

namespace ipfsmon::net {

namespace {

// dial_with_backoff's reconnection discipline: exponential backoff with
// multiplicative jitter. Calibrated; no published figure.
/// Wait after the first failed attempt.
constexpr util::SimDuration kBackoffInitialDelay = 1 * util::kSecond;
/// Growth of the wait per failed attempt.
constexpr double kBackoffMultiplier = 2.0;
/// Cap on the wait between attempts.
constexpr util::SimDuration kBackoffMaxDelay = 2 * util::kMinute;
/// Total dial attempts, the first try included.
constexpr std::size_t kBackoffMaxAttempts = 6;
/// Each wait is scaled by a uniform factor in [1-jitter, 1+jitter].
constexpr double kBackoffJitter = 0.2;

}  // namespace

Network::Network(sim::Scheduler& scheduler, GeoDatabase geo, std::uint64_t seed)
    : scheduler_(scheduler),
      geo_(std::move(geo)),
      rng_(seed, "network"),
      seed_(seed) {
  auto& m = obs_.metrics;
  metrics_.dials = &m.counter("ipfsmon_net_dials_total", "Dial attempts");
  metrics_.dial_failures = &m.counter(
      "ipfsmon_net_dial_failures_total",
      "Dials failed (offline/NAT/self/churn), excluding host rejections");
  metrics_.accepts = &m.counter("ipfsmon_net_accepts_total",
                                "Inbound dials accepted by the target host");
  metrics_.rejects = &m.counter("ipfsmon_net_rejects_total",
                                "Inbound dials refused by the target host");
  metrics_.connections_opened = &m.counter("ipfsmon_net_connections_opened_total",
                                           "Connections established");
  metrics_.connections_closed = &m.counter("ipfsmon_net_connections_closed_total",
                                           "Connections torn down");
  metrics_.messages_sent = &m.counter("ipfsmon_net_messages_sent_total",
                                      "Payloads submitted for delivery");
  metrics_.messages_delivered = &m.counter("ipfsmon_net_messages_delivered_total",
                                           "Payloads delivered to a host");
  metrics_.messages_dropped = &m.counter(
      "ipfsmon_net_messages_dropped_total",
      "Payloads dropped in flight (connection closed or receiver churned)");
  metrics_.bytes_delivered = &m.counter("ipfsmon_net_bytes_delivered_total",
                                        "Approximate payload bytes delivered");
  metrics_.open_connections =
      &m.gauge("ipfsmon_net_open_connections", "Currently open connections");
  metrics_.online_nodes =
      &m.gauge("ipfsmon_net_online_nodes", "Currently online nodes");
  metrics_.latency = &m.histogram(
      "ipfsmon_net_latency_seconds",
      {0.01, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 1.0},
      "Sampled one-way message latencies");
}

obs::Gauge& Network::country_gauge(const std::string& country) {
  const auto it = country_gauges_.find(country);
  if (it != country_gauges_.end()) return *it->second;
  obs::Gauge& gauge = obs_.metrics.gauge(
      "ipfsmon_net_connection_endpoints",
      "Open connection endpoints by endpoint country",
      "country=\"" + country + "\"");
  country_gauges_.emplace(country, &gauge);
  return gauge;
}

obs::Gauge& Network::endpoint_gauge(NodeIndex index) {
  Node& node = nodes_by_index_[index];
  if (node.endpoint_gauge == nullptr) {
    node.endpoint_gauge = &country_gauge(node.record.country);
  }
  return *node.endpoint_gauge;
}

void Network::track_endpoints(const Connection& conn, double delta) {
  endpoint_gauge(conn.ia).add(delta);
  endpoint_gauge(conn.ib).add(delta);
}

void Network::register_node(const crypto::PeerId& id, const Address& addr,
                            const std::string& country, bool nat, Host* host,
                            double discovery_weight) {
  if (host == nullptr) throw std::invalid_argument("register_node: null host");
  const auto [it, inserted] =
      nodes_.try_emplace(id, static_cast<NodeIndex>(nodes_by_index_.size()));
  if (inserted) nodes_by_index_.emplace_back();
  Node& node = nodes_by_index_[it->second];
  node.record = NodeRecord{id,   addr, country, nat, /*online=*/false,
                           host, discovery_weight, geo_.country_index(country)};
  node.endpoint_gauge = nullptr;
}

void Network::set_online(const crypto::PeerId& id, bool online) {
  const NodeIndex index = node_index(id);
  if (index == kNoNode) throw std::invalid_argument("set_online: unknown node");
  NodeRecord& rec = nodes_by_index_[index].record;
  if (rec.online == online) return;
  if (!online) close_all_of(index);
  rec.online = online;
  metrics_.online_nodes->add(online ? 1.0 : -1.0);

  if (!rec.nat) {
    const bool hub = rec.discovery_weight > 1.0;
    if (online) {
      if (hub) {
        online_hubs_.emplace_back(id, rec.discovery_weight);
        online_hub_weight_ += rec.discovery_weight;
      } else {
        online_public_index_[id] = online_public_.size();
        online_public_.push_back(id);
      }
    } else {
      if (hub) {
        for (auto hit = online_hubs_.begin(); hit != online_hubs_.end();
             ++hit) {
          if (hit->first == id) {
            online_hub_weight_ -= hit->second;
            online_hubs_.erase(hit);
            break;
          }
        }
      } else {
        const auto idx_it = online_public_index_.find(id);
        if (idx_it != online_public_index_.end()) {
          const std::size_t idx = idx_it->second;
          online_public_index_.erase(idx_it);
          if (idx + 1 != online_public_.size()) {
            online_public_[idx] = online_public_.back();
            online_public_index_[online_public_[idx]] = idx;
          }
          online_public_.pop_back();
        }
      }
    }
  }
}

std::optional<crypto::PeerId> Network::sample_online_public(
    util::RngStream& rng) const {
  const double regular_weight = static_cast<double>(online_public_.size());
  const double total = regular_weight + online_hub_weight_;
  if (total <= 0.0) return std::nullopt;
  if (rng.uniform() * total < regular_weight) {
    return online_public_[rng.uniform_index(online_public_.size())];
  }
  double target = rng.uniform() * online_hub_weight_;
  for (const auto& [id, weight] : online_hubs_) {
    target -= weight;
    if (target < 0.0) return id;
  }
  return online_hubs_.back().first;
}

bool Network::is_online(const crypto::PeerId& id) const {
  const NodeRecord* rec = record(id);
  return rec != nullptr && rec->online;
}

const NodeRecord* Network::record(const crypto::PeerId& id) const {
  return record_at(node_index(id));
}

NodeIndex Network::node_index(const crypto::PeerId& id) const {
  const auto it = nodes_.find(id);
  return it != nodes_.end() ? it->second : kNoNode;
}

util::SimDuration Network::sample_latency(NodeIndex a, NodeIndex b) {
  // Unregistered endpoints sit in the geo database's unknown country.
  const auto country = [this](NodeIndex index) {
    const NodeRecord* rec = record_at(index);
    return rec != nullptr ? rec->geo_country : geo_.countries().size();
  };
  return geo_.latency(country(a), country(b), rng_);
}

ConnectionId Network::establish(NodeIndex from, NodeIndex to) {
  const ConnectionId id = next_connection_id_++;
  Node& a = nodes_by_index_[from];
  Node& b = nodes_by_index_[to];
  const util::SimTime now = scheduler_.now();
  const auto it =
      connections_
          .emplace(id, Connection{a.record.id, b.record.id, from, to, now,
                                  now, now})
          .first;
  a.adjacency[b.record.id] = id;
  b.adjacency[a.record.id] = id;
  metrics_.connections_opened->inc();
  metrics_.open_connections->set(static_cast<double>(connections_.size()));
  track_endpoints(it->second, +1.0);
  return id;
}

void Network::dial(const crypto::PeerId& from, const crypto::PeerId& to,
                   std::function<void(std::optional<ConnectionId>)> on_result) {
  metrics_.dials->inc();
  // Endpoints are resolved once, here; an id not registered by now counts
  // as offline at completion.
  const NodeIndex from_index = node_index(from);
  const NodeIndex to_index = node_index(to);
  // One round trip to establish (SYN + accept), sampled now for determinism.
  const util::SimDuration rtt = 2 * sample_latency(from_index, to_index);
  scheduler_.post_after(rtt, [this, from_index, to_index,
                              cb = std::move(on_result)]() {
    // Conditions are re-checked at completion time: either endpoint may
    // have churned while the dial was in flight.
    const NodeRecord* dialer = record_at(from_index);
    const NodeRecord* target = record_at(to_index);
    if (dialer == nullptr || target == nullptr || !dialer->online ||
        !target->online) {
      metrics_.dial_failures->inc();
      if (cb) cb(std::nullopt);
      return;
    }
    if (!isolated_.empty() && (isolated(dialer->id) || isolated(target->id))) {
      metrics_.dial_failures->inc();
      if (cb) cb(std::nullopt);  // partitioned endpoints cannot connect
      return;
    }
    if (from_index == to_index) {
      metrics_.dial_failures->inc();
      if (cb) cb(std::nullopt);
      return;
    }
    if (const auto existing = find_connection(from_index, target->id)) {
      if (cb) cb(existing);  // libp2p reuses the existing connection
      return;
    }
    if (target->nat) {
      metrics_.dial_failures->inc();
      if (cb) cb(std::nullopt);  // no inbound through NAT (no hole punching)
      return;
    }
    if (!target->host->accept_inbound(dialer->id)) {
      metrics_.rejects->inc();
      if (cb) cb(std::nullopt);
      return;
    }
    metrics_.accepts->inc();
    const ConnectionId conn = establish(from_index, to_index);
    dialer->host->on_connection(conn, target->id, /*outbound=*/true);
    // The dialer's callback may have closed the connection synchronously;
    // only notify the acceptor if it still exists.
    if (connections_.count(conn) != 0) {
      target->host->on_connection(conn, dialer->id, /*outbound=*/false);
    }
    if (cb) cb(connections_.count(conn) != 0 ? std::optional(conn)
                                             : std::nullopt);
  });
}

// --- Fault injection --------------------------------------------------------

void Network::ensure_fault_plumbing() {
  if (fault_rng_ != nullptr) return;
  fault_rng_ = std::make_unique<util::RngStream>(seed_, "network-faults");
  auto& m = obs_.metrics;
  fault_metrics_.fault_drops = &m.counter(
      "ipfsmon_net_fault_drops_total",
      "Payloads dropped by the link fault layer (loss or partition)");
  fault_metrics_.backoff_retries = &m.counter(
      "ipfsmon_net_backoff_retries_total",
      "Dial retries scheduled by dial_with_backoff after a failed attempt");
  fault_metrics_.backoff_exhausted = &m.counter(
      "ipfsmon_net_backoff_exhausted_total",
      "dial_with_backoff sequences that gave up after max_attempts");
  fault_metrics_.isolated_nodes =
      &m.gauge("ipfsmon_net_isolated_nodes",
               "Nodes currently cut off by a partition window");
}

void Network::set_link_faults(const LinkFaultProfile& profile) {
  link_faults_ = profile;
  if (link_faults_.active()) ensure_fault_plumbing();
}

void Network::enable_tracing(const obs::TracerConfig& config) {
  obs_.tracer.configure(config);
  if (!config.enabled) {
    obs_.tracer.set_sim_clock(nullptr);
    scheduler_.set_event_wrapper(nullptr);
    return;
  }
  obs_.tracer.set_sim_clock([this] { return scheduler_.now(); });
  // Timers break the synchronous call chain; re-attach the scheduling
  // context around each dispatched event so child spans keep their
  // parent. No wrapper is installed when tracing is off, so the
  // scheduler's hot path stays untouched.
  scheduler_.set_event_wrapper([this](sim::EventFn fn) {
    const obs::SpanContext ctx = obs_.tracer.current();
    if (!ctx.valid()) return fn;
    return sim::EventFn([this, ctx, fn = std::move(fn)] {
      obs::ScopedContext scope(obs_.tracer, ctx);
      fn();
    });
  });
}

void Network::isolate(const crypto::PeerId& id) {
  const NodeIndex index = node_index(id);
  if (index == kNoNode || !isolated_.insert(id).second) return;
  ensure_fault_plumbing();
  fault_metrics_.isolated_nodes->set(static_cast<double>(isolated_.size()));
  close_all_of(index);
}

void Network::heal(const crypto::PeerId& id) {
  if (isolated_.erase(id) == 0) return;
  fault_metrics_.isolated_nodes->set(static_cast<double>(isolated_.size()));
}

bool Network::isolated(const crypto::PeerId& id) const {
  return isolated_.count(id) != 0;
}

void Network::dial_with_backoff(
    const crypto::PeerId& from, const crypto::PeerId& to,
    std::function<void(std::optional<ConnectionId>)> on_result) {
  ensure_fault_plumbing();
  dial_backoff_attempt(from, to, /*attempt=*/1, kBackoffInitialDelay,
                       std::move(on_result));
}

void Network::dial_backoff_attempt(
    const crypto::PeerId& from, const crypto::PeerId& to, std::size_t attempt,
    util::SimDuration delay,
    std::function<void(std::optional<ConnectionId>)> on_result) {
  dial(from, to, [this, from, to, attempt, delay, cb = std::move(on_result)](
                     std::optional<ConnectionId> conn) mutable {
    if (conn.has_value()) {
      if (cb) cb(conn);
      return;
    }
    if (attempt >= kBackoffMaxAttempts) {
      fault_metrics_.backoff_exhausted->inc();
      if (cb) cb(std::nullopt);
      return;
    }
    fault_metrics_.backoff_retries->inc();
    const double jitter =
        fault_rng_->uniform(1.0 - kBackoffJitter, 1.0 + kBackoffJitter);
    const auto wait = static_cast<util::SimDuration>(
        static_cast<double>(delay) * jitter);
    auto next_delay = static_cast<util::SimDuration>(
        static_cast<double>(delay) * kBackoffMultiplier);
    next_delay = std::min(next_delay, kBackoffMaxDelay);
    scheduler_.post_after(wait, [this, from, to, attempt, next_delay,
                                 cb = std::move(cb)]() mutable {
      dial_backoff_attempt(from, to, attempt + 1, next_delay, std::move(cb));
    });
  });
}

void Network::close(ConnectionId conn) {
  const auto it = connections_.find(conn);
  if (it == connections_.end()) return;
  const Connection c = it->second;
  track_endpoints(c, -1.0);
  connections_.erase(it);
  metrics_.connections_closed->inc();
  metrics_.open_connections->set(static_cast<double>(connections_.size()));
  Node& a = nodes_by_index_[c.ia];
  Node& b = nodes_by_index_[c.ib];
  a.adjacency.erase(c.b);
  b.adjacency.erase(c.a);
  a.record.host->on_disconnect(conn, c.b);
  b.record.host->on_disconnect(conn, c.a);
}

void Network::close_all_of(NodeIndex index) {
  const auto& adjacency = nodes_by_index_[index].adjacency;
  std::vector<ConnectionId> to_close;
  to_close.reserve(adjacency.size());
  for (const auto& [peer, conn] : adjacency) to_close.push_back(conn);
  for (const ConnectionId conn : to_close) close(conn);
}

void Network::send(ConnectionId conn, const crypto::PeerId& sender,
                   PayloadPtr payload) {
  const auto it = connections_.find(conn);
  if (it == connections_.end()) return;  // raced with close: drop
  Connection& c = it->second;
  const bool a_to_b = (sender == c.a);
  if (!a_to_b && sender != c.b) return;  // not a party to this connection
  const crypto::PeerId& receiver = a_to_b ? c.b : c.a;

  // Fault layer: inert (no RNG draws, no branches beyond this check) unless
  // link faults or a partition window are active.
  if (link_faults_.active() || !isolated_.empty()) {
    if (isolated(sender) || isolated(receiver) ||
        (link_faults_.drop_probability > 0.0 &&
         fault_rng_->bernoulli(link_faults_.drop_probability))) {
      ++fault_drops_count_;
      fault_metrics_.fault_drops->inc();
      metrics_.messages_dropped->inc();
      return;
    }
  }

  const util::SimDuration latency =
      a_to_b ? sample_latency(c.ia, c.ib) : sample_latency(c.ib, c.ia);
  metrics_.messages_sent->inc();
  metrics_.latency->observe(util::to_seconds(latency));
  util::SimTime deliver_at = scheduler_.now() + latency;
  // Enforce in-order delivery per direction (reliable stream semantics).
  util::SimTime& fifo = a_to_b ? c.next_delivery_a_to_b : c.next_delivery_b_to_a;
  if (deliver_at < fifo) deliver_at = fifo;
  fifo = deliver_at;

  scheduler_.post_at(
      deliver_at, [this, conn, a_to_b, payload = std::move(payload)]() {
        // Drop if the connection died or the receiver churned in flight.
        // Connection ids are never reused, so a live one has the same
        // endpoints as at send time.
        const auto it = connections_.find(conn);
        if (it == connections_.end()) {
          metrics_.messages_dropped->inc();
          return;
        }
        const Connection& c = it->second;
        const NodeRecord& r = nodes_by_index_[a_to_b ? c.ib : c.ia].record;
        if (!r.online) {
          metrics_.messages_dropped->inc();
          return;
        }
        // Copied: the host may close the connection while handling it.
        const crypto::PeerId sender = a_to_b ? c.a : c.b;
        ++messages_delivered_;
        metrics_.messages_delivered->inc();
        metrics_.bytes_delivered->inc(payload->wire_size());
        r.host->on_message(conn, sender, payload);
      });
}

std::optional<ConnectionId> Network::find_connection(
    NodeIndex a, const crypto::PeerId& b) const {
  const auto& adjacency = nodes_by_index_[a].adjacency;
  const auto it = adjacency.find(b);
  if (it == adjacency.end()) return std::nullopt;
  return it->second;
}

std::optional<ConnectionId> Network::connection_between(
    const crypto::PeerId& a, const crypto::PeerId& b) const {
  const NodeIndex index = node_index(a);
  if (index == kNoNode) return std::nullopt;
  return find_connection(index, b);
}

std::vector<crypto::PeerId> Network::connected_peers(
    const crypto::PeerId& id) const {
  std::vector<crypto::PeerId> peers;
  const NodeIndex index = node_index(id);
  if (index == kNoNode) return peers;
  const auto& adjacency = nodes_by_index_[index].adjacency;
  peers.reserve(adjacency.size());
  for (const auto& [peer, conn] : adjacency) peers.push_back(peer);
  return peers;
}

std::size_t Network::connection_count(const crypto::PeerId& id) const {
  const NodeIndex index = node_index(id);
  return index == kNoNode ? 0 : nodes_by_index_[index].adjacency.size();
}

std::optional<util::SimTime> Network::connection_established_at(
    ConnectionId conn) const {
  const auto it = connections_.find(conn);
  if (it == connections_.end()) return std::nullopt;
  return it->second.established;
}

}  // namespace ipfsmon::net
