#include "net/network.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/time.hpp"

namespace ipfsmon::net {

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

void Network::track_endpoints(const Connection& conn, double delta) {
  const NodeRecord* ra = record(conn.a);
  const NodeRecord* rb = record(conn.b);
  country_gauge(ra != nullptr ? ra->country : "??").add(delta);
  country_gauge(rb != nullptr ? rb->country : "??").add(delta);
}

void Network::register_node(const crypto::PeerId& id, const Address& addr,
                            const std::string& country, bool nat, Host* host,
                            double discovery_weight) {
  if (host == nullptr) throw std::invalid_argument("register_node: null host");
  NodeRecord record{id,   addr, country, nat, /*online=*/false,
                    host, discovery_weight};
  nodes_[id] = record;
}

void Network::set_online(const crypto::PeerId& id, bool online) {
  const auto it = nodes_.find(id);
  if (it == nodes_.end()) throw std::invalid_argument("set_online: unknown node");
  if (it->second.online == online) return;
  if (!online) close_all_of(id);
  it->second.online = online;
  metrics_.online_nodes->add(online ? 1.0 : -1.0);

  if (!it->second.nat) {
    const bool hub = it->second.discovery_weight > 1.0;
    if (online) {
      if (hub) {
        online_hubs_.emplace_back(id, it->second.discovery_weight);
        online_hub_weight_ += it->second.discovery_weight;
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
  const auto it = nodes_.find(id);
  return it != nodes_.end() && it->second.online;
}

const NodeRecord* Network::record(const crypto::PeerId& id) const {
  const auto it = nodes_.find(id);
  return it != nodes_.end() ? &it->second : nullptr;
}

util::SimDuration Network::sample_latency(const crypto::PeerId& a,
                                          const crypto::PeerId& b) {
  const NodeRecord* ra = record(a);
  const NodeRecord* rb = record(b);
  const std::string ca = ra != nullptr ? ra->country : "??";
  const std::string cb = rb != nullptr ? rb->country : "??";
  return geo_.latency(ca, cb, rng_);
}

ConnectionId Network::establish(const crypto::PeerId& from,
                                const crypto::PeerId& to) {
  const ConnectionId id = next_connection_id_++;
  connections_[id] =
      Connection{from, to, scheduler_.now(), scheduler_.now(), scheduler_.now()};
  adjacency_[from][to] = id;
  adjacency_[to][from] = id;
  metrics_.connections_opened->inc();
  metrics_.open_connections->set(static_cast<double>(connections_.size()));
  track_endpoints(connections_[id], +1.0);
  return id;
}

void Network::dial(const crypto::PeerId& from, const crypto::PeerId& to,
                   std::function<void(std::optional<ConnectionId>)> on_result) {
  metrics_.dials->inc();
  // One round trip to establish (SYN + accept), sampled now for determinism.
  const util::SimDuration rtt = 2 * sample_latency(from, to);
  scheduler_.schedule_after(rtt, [this, from, to,
                                  cb = std::move(on_result)]() {
    // Conditions are re-checked at completion time: either endpoint may
    // have churned while the dial was in flight.
    if (!is_online(from) || !is_online(to)) {
      metrics_.dial_failures->inc();
      if (cb) cb(std::nullopt);
      return;
    }
    if (!isolated_.empty() && (isolated(from) || isolated(to))) {
      metrics_.dial_failures->inc();
      if (cb) cb(std::nullopt);  // partitioned endpoints cannot connect
      return;
    }
    if (from == to) {
      metrics_.dial_failures->inc();
      if (cb) cb(std::nullopt);
      return;
    }
    if (const auto existing = connection_between(from, to)) {
      if (cb) cb(existing);  // libp2p reuses the existing connection
      return;
    }
    NodeRecord& target = nodes_.at(to);
    if (target.nat) {
      metrics_.dial_failures->inc();
      if (cb) cb(std::nullopt);  // no inbound through NAT (no hole punching)
      return;
    }
    if (!target.host->accept_inbound(from)) {
      metrics_.rejects->inc();
      if (obs_.events.active()) {
        obs_.events.emit(scheduler_.now(), obs::Severity::kDebug, "net",
                         "inbound dial rejected by " + to.short_hex());
      }
      if (cb) cb(std::nullopt);
      return;
    }
    metrics_.accepts->inc();
    const ConnectionId conn = establish(from, to);
    NodeRecord& dialer = nodes_.at(from);
    dialer.host->on_connection(conn, to, /*outbound=*/true);
    // The dialer's callback may have closed the connection synchronously;
    // only notify the acceptor if it still exists.
    if (connections_.count(conn) != 0) {
      target.host->on_connection(conn, from, /*outbound=*/false);
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
  if (nodes_.count(id) == 0 || !isolated_.insert(id).second) return;
  ensure_fault_plumbing();
  fault_metrics_.isolated_nodes->set(static_cast<double>(isolated_.size()));
  close_all_of(id);
  if (obs_.events.active()) {
    obs_.events.emit(scheduler_.now(), obs::Severity::kWarn, "net",
                     "partition isolates " + id.short_hex());
  }
}

void Network::heal(const crypto::PeerId& id) {
  if (isolated_.erase(id) == 0) return;
  fault_metrics_.isolated_nodes->set(static_cast<double>(isolated_.size()));
  if (obs_.events.active()) {
    obs_.events.emit(scheduler_.now(), obs::Severity::kInfo, "net",
                     "partition heals " + id.short_hex());
  }
}

bool Network::isolated(const crypto::PeerId& id) const {
  return isolated_.count(id) != 0;
}

void Network::dial_with_backoff(
    const crypto::PeerId& from, const crypto::PeerId& to,
    const BackoffPolicy& policy,
    std::function<void(std::optional<ConnectionId>)> on_result) {
  ensure_fault_plumbing();
  dial_backoff_attempt(from, to, policy, /*attempt=*/1, policy.initial_delay,
                       std::move(on_result));
}

void Network::dial_backoff_attempt(
    const crypto::PeerId& from, const crypto::PeerId& to, BackoffPolicy policy,
    std::size_t attempt, util::SimDuration delay,
    std::function<void(std::optional<ConnectionId>)> on_result) {
  dial(from, to, [this, from, to, policy, attempt, delay,
                  cb = std::move(on_result)](
                     std::optional<ConnectionId> conn) mutable {
    if (conn.has_value()) {
      if (cb) cb(conn);
      return;
    }
    if (attempt >= std::max<std::size_t>(policy.max_attempts, 1)) {
      fault_metrics_.backoff_exhausted->inc();
      if (cb) cb(std::nullopt);
      return;
    }
    fault_metrics_.backoff_retries->inc();
    const double jitter =
        policy.jitter > 0.0
            ? fault_rng_->uniform(1.0 - policy.jitter, 1.0 + policy.jitter)
            : 1.0;
    const auto wait = static_cast<util::SimDuration>(
        static_cast<double>(delay) * jitter);
    auto next_delay = static_cast<util::SimDuration>(
        static_cast<double>(delay) * policy.multiplier);
    next_delay = std::min(next_delay, policy.max_delay);
    scheduler_.schedule_after(
        wait, [this, from, to, policy, attempt, next_delay,
               cb = std::move(cb)]() mutable {
          dial_backoff_attempt(from, to, policy, attempt + 1, next_delay,
                               std::move(cb));
        });
  });
}

void Network::close(ConnectionId conn) {
  const auto it = connections_.find(conn);
  if (it == connections_.end()) return;
  const crypto::PeerId a = it->second.a;
  const crypto::PeerId b = it->second.b;
  track_endpoints(it->second, -1.0);
  connections_.erase(it);
  metrics_.connections_closed->inc();
  metrics_.open_connections->set(static_cast<double>(connections_.size()));
  adjacency_[a].erase(b);
  adjacency_[b].erase(a);
  if (const NodeRecord* ra = record(a); ra != nullptr) {
    ra->host->on_disconnect(conn, b);
  }
  if (const NodeRecord* rb = record(b); rb != nullptr) {
    rb->host->on_disconnect(conn, a);
  }
}

void Network::close_all_of(const crypto::PeerId& id) {
  const auto it = adjacency_.find(id);
  if (it == adjacency_.end()) return;
  std::vector<ConnectionId> to_close;
  to_close.reserve(it->second.size());
  for (const auto& [peer, conn] : it->second) to_close.push_back(conn);
  for (const ConnectionId conn : to_close) close(conn);
}

void Network::send(ConnectionId conn, const crypto::PeerId& sender,
                   PayloadPtr payload) {
  const auto it = connections_.find(conn);
  if (it == connections_.end()) return;  // raced with close: drop
  Connection& c = it->second;
  const bool a_to_b = (sender == c.a);
  if (!a_to_b && sender != c.b) return;  // not a party to this connection
  const crypto::PeerId receiver = a_to_b ? c.b : c.a;

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

  util::SimDuration latency = sample_latency(sender, receiver);
  if (link_faults_.extra_delay_mean_seconds > 0.0) {
    latency += util::seconds(
        fault_rng_->exponential(link_faults_.extra_delay_mean_seconds));
  }
  metrics_.messages_sent->inc();
  metrics_.latency->observe(util::to_seconds(latency));
  util::SimTime deliver_at = scheduler_.now() + latency;
  // Enforce in-order delivery per direction (reliable stream semantics).
  util::SimTime& fifo = a_to_b ? c.next_delivery_a_to_b : c.next_delivery_b_to_a;
  if (deliver_at < fifo) deliver_at = fifo;
  fifo = deliver_at;

  scheduler_.schedule_at(
      deliver_at, [this, conn, sender, receiver, payload = std::move(payload)]() {
        // Drop if the connection died or the receiver churned in flight.
        if (connections_.count(conn) == 0) {
          metrics_.messages_dropped->inc();
          return;
        }
        const NodeRecord* r = record(receiver);
        if (r == nullptr || !r->online) {
          metrics_.messages_dropped->inc();
          return;
        }
        ++messages_delivered_;
        metrics_.messages_delivered->inc();
        metrics_.bytes_delivered->inc(payload->wire_size());
        r->host->on_message(conn, sender, payload);
      });
}

std::optional<ConnectionId> Network::connection_between(
    const crypto::PeerId& a, const crypto::PeerId& b) const {
  const auto it = adjacency_.find(a);
  if (it == adjacency_.end()) return std::nullopt;
  const auto jt = it->second.find(b);
  if (jt == it->second.end()) return std::nullopt;
  return jt->second;
}

std::vector<crypto::PeerId> Network::connected_peers(
    const crypto::PeerId& id) const {
  std::vector<crypto::PeerId> peers;
  const auto it = adjacency_.find(id);
  if (it == adjacency_.end()) return peers;
  peers.reserve(it->second.size());
  for (const auto& [peer, conn] : it->second) peers.push_back(peer);
  return peers;
}

std::size_t Network::connection_count(const crypto::PeerId& id) const {
  const auto it = adjacency_.find(id);
  return it == adjacency_.end() ? 0 : it->second.size();
}

std::optional<crypto::PeerId> Network::remote_peer(
    ConnectionId conn, const crypto::PeerId& self) const {
  const auto it = connections_.find(conn);
  if (it == connections_.end()) return std::nullopt;
  if (it->second.a == self) return it->second.b;
  if (it->second.b == self) return it->second.a;
  return std::nullopt;
}

std::optional<util::SimTime> Network::connection_established_at(
    ConnectionId conn) const {
  const auto it = connections_.find(conn);
  if (it == connections_.end()) return std::nullopt;
  return it->second.established;
}

std::vector<crypto::PeerId> Network::online_nodes() const {
  std::vector<crypto::PeerId> out;
  for (const auto& [id, rec] : nodes_) {
    if (rec.online) out.push_back(id);
  }
  return out;
}

}  // namespace ipfsmon::net
