// The simulated libp2p-style overlay transport. Nodes register a Host
// callback interface; the Network mediates dialing (with NAT semantics),
// per-pair single connections, latency-delayed FIFO message delivery, and
// connection teardown on churn. This is the substrate on which the DHT,
// Bitswap, and the passive monitors run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "crypto/keys.hpp"
#include "net/address.hpp"
#include "net/geo.hpp"
#include "obs/obs.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace ipfsmon::net {

/// Base class for protocol messages carried over connections. Protocol
/// libraries (dht, bitswap) subclass this; receivers downcast via
/// dynamic_cast, mirroring libp2p's per-protocol stream demultiplexing.
struct Payload {
  virtual ~Payload() = default;

  /// Approximate serialized size in bytes, for traffic accounting only
  /// (nothing is actually serialized in the sim). Subclasses refine it.
  virtual std::size_t wire_size() const { return 32; }

  /// Causal trace context, stamped by the sender when the message belongs
  /// to a sampled trace (invalid otherwise). Receivers — including
  /// passive monitors — use it to parent their spans to the request that
  /// caused the message.
  obs::SpanContext trace;
};

using PayloadPtr = std::shared_ptr<const Payload>;

using ConnectionId = std::uint64_t;
constexpr ConnectionId kInvalidConnection = 0;

/// Link-level fault model applied to every payload in flight (src/churn
/// drives this; the Network owns it because drops and delays must happen
/// inside the delivery path). All-zero (the default) means the fault layer
/// is completely inert: no extra RNG draws, no extra metrics — runs with
/// faults disabled are byte-identical to builds without the feature.
struct LinkFaultProfile {
  /// Independent per-payload loss probability (models gray failure /
  /// overloaded relays dropping Bitswap broadcasts).
  double drop_probability = 0.0;
  /// Mean of an exponential extra one-way delay added to every delivery.
  double extra_delay_mean_seconds = 0.0;

  bool active() const {
    return drop_probability > 0.0 || extra_delay_mean_seconds > 0.0;
  }
};

/// Retry policy for dial_with_backoff: exponential backoff with
/// multiplicative jitter, the reconnection discipline churn-aware layers
/// use after partitions heal or monitors restart.
struct BackoffPolicy {
  util::SimDuration initial_delay = 1 * util::kSecond;
  double multiplier = 2.0;
  util::SimDuration max_delay = 2 * util::kMinute;
  /// Total dial attempts (first try included). 0 behaves like 1.
  std::size_t max_attempts = 6;
  /// Delay is scaled by a uniform factor in [1-jitter, 1+jitter].
  double jitter = 0.2;
};

/// Callback interface a node installs to participate in the overlay.
class Host {
 public:
  virtual ~Host() = default;

  /// Inbound dial arrived: return true to accept. Monitors always accept
  /// ("infinite connection capacity"); regular nodes enforce limits here.
  virtual bool accept_inbound(const crypto::PeerId& from) = 0;

  /// A connection (either direction) is now established.
  virtual void on_connection(ConnectionId conn, const crypto::PeerId& peer,
                             bool outbound) = 0;

  /// The connection was closed (peer action, local close, or churn).
  virtual void on_disconnect(ConnectionId conn, const crypto::PeerId& peer) = 0;

  /// A protocol message arrived on an established connection.
  virtual void on_message(ConnectionId conn, const crypto::PeerId& from,
                          const PayloadPtr& payload) = 0;
};

struct NodeRecord {
  crypto::PeerId id;
  Address address;
  std::string country;
  bool nat = false;     // NAT'd nodes cannot accept inbound dials
  bool online = false;
  Host* host = nullptr;
  double discovery_weight = 1.0;
};

class Network {
 public:
  Network(sim::Scheduler& scheduler, GeoDatabase geo, std::uint64_t seed);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  sim::Scheduler& scheduler() { return scheduler_; }
  GeoDatabase& geo() { return geo_; }
  const GeoDatabase& geo() const { return geo_; }

  /// Shared observability context (metrics registry + event hub). Every
  /// layer constructed over this network registers its instruments here.
  obs::Obs& obs() { return obs_; }
  const obs::Obs& obs() const { return obs_; }

  /// Registers a node (initially offline). `discovery_weight` biases
  /// ambient-discovery sampling: long-lived, well-connected nodes occupy
  /// many k-buckets and are surfaced by peer discovery far more often than
  /// ephemeral ones; weights > 1 model such hubs (monitors, gateways,
  /// bootstrap nodes).
  void register_node(const crypto::PeerId& id, const Address& addr,
                     const std::string& country, bool nat, Host* host,
                     double discovery_weight = 1.0);

  /// Brings a node online / takes it offline. Going offline closes all of
  /// its connections (both sides are notified).
  void set_online(const crypto::PeerId& id, bool online);

  bool is_online(const crypto::PeerId& id) const;
  const NodeRecord* record(const crypto::PeerId& id) const;

  /// Asynchronously dials `to`. The callback receives the connection id on
  /// success (which may be a pre-existing connection — libp2p keeps at most
  /// one connection per peer pair) or nullopt on failure (offline target,
  /// NAT, or rejection).
  void dial(const crypto::PeerId& from, const crypto::PeerId& to,
            std::function<void(std::optional<ConnectionId>)> on_result);

  /// Closes a connection; both hosts get on_disconnect. No-op if already
  /// closed.
  void close(ConnectionId conn);

  /// Sends a payload from `sender` over `conn`. Delivery is scheduled after
  /// a sampled one-way latency, FIFO per direction. Dropped silently if the
  /// connection closes before delivery (TCP reset semantics).
  void send(ConnectionId conn, const crypto::PeerId& sender,
            PayloadPtr payload);

  std::optional<ConnectionId> connection_between(
      const crypto::PeerId& a, const crypto::PeerId& b) const;

  std::vector<crypto::PeerId> connected_peers(const crypto::PeerId& id) const;
  std::size_t connection_count(const crypto::PeerId& id) const;

  /// The remote peer of `conn` as seen from `self`.
  std::optional<crypto::PeerId> remote_peer(ConnectionId conn,
                                            const crypto::PeerId& self) const;

  /// When the connection was established (nullopt if closed/unknown).
  std::optional<util::SimTime> connection_established_at(
      ConnectionId conn) const;

  std::uint64_t messages_delivered() const { return messages_delivered_; }
  std::size_t open_connections() const { return connections_.size(); }

  /// All currently-online node ids (handy for tests and bootstrap lists).
  std::vector<crypto::PeerId> online_nodes() const;

  /// Samples a uniformly random online, publicly reachable (non-NAT) node.
  /// This backs the simulator's "ambient discovery" abstraction — the
  /// union of libp2p's peer-discovery mechanisms (DHT random walks,
  /// rendezvous, peer exchange) collapsed into one sampling primitive.
  std::optional<crypto::PeerId> sample_online_public(util::RngStream& rng) const;

  // --- Fault injection (src/churn drives these) ---------------------------

  /// Installs (or clears, with a default-constructed profile) the link
  /// fault model. Fault randomness comes from a dedicated stream, so
  /// enabling faults never perturbs latency/geo sampling sequences.
  void set_link_faults(const LinkFaultProfile& profile);
  const LinkFaultProfile& link_faults() const { return link_faults_; }

  /// Hard-partitions a node: all of its connections are closed and every
  /// dial or payload involving it fails until heal() — the simulated
  /// equivalent of a network-level outage around one peer. The node itself
  /// keeps believing it is online (its timers keep firing and failing),
  /// which is exactly the gray-failure shape reconnection logic must
  /// survive. No-op on unknown ids.
  void isolate(const crypto::PeerId& id);
  void heal(const crypto::PeerId& id);
  bool isolated(const crypto::PeerId& id) const;
  std::size_t isolated_count() const { return isolated_.size(); }

  /// Dials with exponential backoff: retries failed dials per `policy`
  /// until one succeeds or attempts are exhausted (callback then receives
  /// nullopt). Succeeding immediately costs exactly one plain dial.
  void dial_with_backoff(const crypto::PeerId& from, const crypto::PeerId& to,
                         const BackoffPolicy& policy,
                         std::function<void(std::optional<ConnectionId>)>
                             on_result);

  std::uint64_t fault_drops() const { return fault_drops_count_; }

  // --- Span tracing (src/obs) ---------------------------------------------

  /// Arms obs().tracer for this simulation: installs the config, points
  /// the tracer's sim clock at the scheduler, and installs a scheduler
  /// event wrapper that captures the tracer's current context at schedule
  /// time and restores it around dispatch — so traces survive timer hops
  /// (dial handshakes, message delivery, Bitswap re-broadcast). Calling
  /// with enabled = false restores the fully inert state.
  void enable_tracing(const obs::TracerConfig& config);

 private:
  struct Connection {
    crypto::PeerId a, b;
    util::SimTime established = 0;
    // FIFO clamps: earliest allowed delivery time per direction.
    util::SimTime next_delivery_a_to_b = 0;
    util::SimTime next_delivery_b_to_a = 0;
  };

  util::SimDuration sample_latency(const crypto::PeerId& a,
                                   const crypto::PeerId& b);
  ConnectionId establish(const crypto::PeerId& from, const crypto::PeerId& to);
  void close_all_of(const crypto::PeerId& id);
  /// Lazily creates the fault RNG stream and registers fault metrics.
  /// Deferred so fault-free runs register nothing (registry dumps stay
  /// byte-identical to builds that never heard of faults).
  void ensure_fault_plumbing();
  void dial_backoff_attempt(
      const crypto::PeerId& from, const crypto::PeerId& to,
      BackoffPolicy policy, std::size_t attempt, util::SimDuration delay,
      std::function<void(std::optional<ConnectionId>)> on_result);
  /// Per-country connection-endpoint gauge (each open connection counts
  /// once per endpoint country). Cached: country sets are small.
  obs::Gauge& country_gauge(const std::string& country);
  void track_endpoints(const Connection& conn, double delta);

  sim::Scheduler& scheduler_;
  GeoDatabase geo_;
  util::RngStream rng_;
  std::uint64_t seed_;
  obs::Obs obs_;

  // Fault layer (inert until set_link_faults/isolate/dial_with_backoff is
  // first used). The RNG is a separate named stream derived from the
  // network seed, never from rng_, so fault draws cannot shift the
  // latency/geo sampling sequence of the fault-free run.
  LinkFaultProfile link_faults_;
  std::unordered_set<crypto::PeerId> isolated_;
  std::unique_ptr<util::RngStream> fault_rng_;
  std::uint64_t fault_drops_count_ = 0;
  struct FaultInstruments {
    obs::Counter* fault_drops = nullptr;
    obs::Counter* backoff_retries = nullptr;
    obs::Counter* backoff_exhausted = nullptr;
    obs::Gauge* isolated_nodes = nullptr;
  } fault_metrics_;

  struct Instruments {
    obs::Counter* dials = nullptr;
    obs::Counter* dial_failures = nullptr;
    obs::Counter* accepts = nullptr;
    obs::Counter* rejects = nullptr;
    obs::Counter* connections_opened = nullptr;
    obs::Counter* connections_closed = nullptr;
    obs::Counter* messages_sent = nullptr;
    obs::Counter* messages_delivered = nullptr;
    obs::Counter* messages_dropped = nullptr;
    obs::Counter* bytes_delivered = nullptr;
    obs::Gauge* open_connections = nullptr;
    obs::Gauge* online_nodes = nullptr;
    obs::Histogram* latency = nullptr;
  } metrics_;
  std::unordered_map<std::string, obs::Gauge*> country_gauges_;

  std::unordered_map<crypto::PeerId, NodeRecord> nodes_;
  std::unordered_map<ConnectionId, Connection> connections_;
  // Per-node adjacency: peer -> connection id.
  std::unordered_map<crypto::PeerId,
                     std::unordered_map<crypto::PeerId, ConnectionId>>
      adjacency_;
  ConnectionId next_connection_id_ = 1;
  std::uint64_t messages_delivered_ = 0;

  // Online non-NAT nodes, kept as dense vectors for O(1) sampling. Nodes
  // with discovery_weight ≤ 1 live in the regular tier (sampled uniformly);
  // heavier nodes live in the hub tier (sampled by weight — the tier is
  // small, a linear scan is fine).
  std::vector<crypto::PeerId> online_public_;
  std::unordered_map<crypto::PeerId, std::size_t> online_public_index_;
  std::vector<std::pair<crypto::PeerId, double>> online_hubs_;
  double online_hub_weight_ = 0.0;
};

}  // namespace ipfsmon::net
