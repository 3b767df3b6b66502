// The synthetic node population: DHT servers and NAT'd clients across the
// geo distribution, with exponential on/off churn, Poisson per-node request
// workloads over the content catalog, stable provider/bootstrap nodes, and
// optional version-adoption dynamics.
#pragma once

#include <functional>
#include <memory>

#include "net/network.hpp"
#include "node/ipfs_node.hpp"
#include "scenario/catalog.hpp"
#include "scenario/version_model.hpp"

namespace ipfsmon::scenario {

/// Per-node configuration tuned for population members: go-ipfs-style
/// connection-manager watermarks (scaled to simulated population sizes), a
/// calmer DHT refresh, and a bounded fetch deadline so unresolvable
/// requests re-broadcast for a while and then give up.
node::NodeConfig default_member_node_config();

struct PopulationConfig {
  std::size_t node_count = 800;
  /// Always-on stable servers (hosting the catalog; the first four are the
  /// bootstrap nodes).
  std::size_t stable_server_count = 24;

  /// Exponential churn: mean online session / offline gap.
  double mean_session_hours = 8.0;
  double mean_downtime_hours = 16.0;

  /// Poisson data requests per node while online.
  double mean_request_interval_hours = 1.0;

  /// Misconfigured clients (paper Sec. V-E: "some peers issue an
  /// unexpectedly high number of requests for the same data item — hinting
  /// at configuration errors"): each retries one unresolvable CID forever.
  /// These CIDs top the RRP ranking while staying at URP = 1 — the paper's
  /// "popular data items according to RRP are often not resolvable".
  std::size_t misconfigured_nodes = 5;

  /// Countermeasure (paper Sec. VI-C item 1): nodes regenerate their
  /// identity (fresh keypair => fresh PeerId) every time they churn back
  /// online. Defeats cross-session TNW/TPI tracking; the cost is increased
  /// effective churn (connections and reputation reset with the identity).
  bool rotate_identity_on_rebirth = false;

  /// Countermeasure (paper Sec. VI-C item 6): share of extra *cover*
  /// requests — fake fetches of plausible (popular) catalog items issued
  /// alongside genuine traffic for plausible deniability. 0.5 means one
  /// cover request per two genuine ones.
  double cover_traffic_share = 0.0;

  node::NodeConfig node = default_member_node_config();
};

class Population {
 public:
  Population(net::Network& network, const ContentCatalog& catalog,
             PopulationConfig config, util::RngStream rng);
  ~Population();

  Population(const Population&) = delete;
  Population& operator=(const Population&) = delete;

  /// Brings stable nodes online, installs catalog content on providers,
  /// and starts churn + request processes for the rest.
  void start();

  /// Stops churn/request timers (nodes stay in their current state).
  void stop();

  const std::vector<crypto::PeerId>& bootstrap_ids() const {
    return bootstrap_ids_;
  }

  std::size_t size() const { return members_.size(); }
  node::IpfsNode& node_at(std::size_t i) { return *members_[i].node; }

  /// Installs a version-adoption model: nodes (re)joining at time t run
  /// v0.5+ with probability model.upgraded_share(t).
  void set_version_model(const VersionAdoptionModel& model) {
    version_model_ = model;
  }

  /// Scales the request rate by `factor` in [from, to) — used to inject
  /// the Fig. 4 traffic spike.
  void add_rate_surge(util::SimTime from, util::SimTime to, double factor);

  // --- Ground truth for evaluating the estimators ------------------------
  std::size_t online_count() const;
  std::size_t online_server_count() const;
  std::uint64_t requests_issued() const { return requests_issued_; }
  std::uint64_t fetches_succeeded() const { return fetches_succeeded_; }
  std::uint64_t fetches_failed() const { return fetches_failed_; }

  /// Unique node ids that were online at any point since start().
  std::size_t ever_online_count() const { return ever_online_.size(); }

  /// Hosts an item's blocks on a random stable provider (used for one-off
  /// content whose "author" must exist somewhere).
  void host_item(const CatalogItem& item);

  /// Ground truth for deniability analyses: was this (peer, CID) request
  /// cover traffic rather than genuine interest?
  bool is_cover_request(const crypto::PeerId& peer, const cid::Cid& cid) const;
  std::uint64_t cover_requests_issued() const { return cover_requests_; }

  /// Number of identities retired through rotation so far.
  std::uint64_t identities_rotated() const { return identities_rotated_; }

 private:
  struct Member {
    std::unique_ptr<node::IpfsNode> node;
    bool stable = false;
    bool online_target = false;  // desired state per churn process
    util::RngStream rng;
    sim::EventHandle churn_timer;
    sim::EventHandle request_timer;
    /// Set for misconfigured clients: the dead CID they retry forever.
    std::optional<cid::Cid> broken_reference;
    sim::EventHandle retry_timer;

    Member(std::unique_ptr<node::IpfsNode> n, bool s, util::RngStream r)
        : node(std::move(n)), stable(s), rng(std::move(r)) {}
  };

  void install_catalog_content();
  void bring_online(Member& member);
  void schedule_session_end(Member& member);
  void schedule_rebirth(Member& member);
  void schedule_next_request(Member& member);
  void issue_request(Member& member);
  void issue_cover_request(Member& member);
  void schedule_retry(Member& member);
  void rotate_identity(Member& member);
  double current_rate_factor() const;
  void apply_version(Member& member);

  net::Network& network_;
  const ContentCatalog& catalog_;
  PopulationConfig config_;
  util::RngStream rng_;

  std::vector<Member> members_;
  std::vector<crypto::PeerId> bootstrap_ids_;
  std::optional<VersionAdoptionModel> version_model_;

  struct Surge {
    util::SimTime from, to;
    double factor;
  };
  std::vector<Surge> surges_;

  std::unordered_set<crypto::PeerId> ever_online_;
  std::uint64_t requests_issued_ = 0;
  std::uint64_t fetches_succeeded_ = 0;
  std::uint64_t fetches_failed_ = 0;
  std::uint64_t cover_requests_ = 0;
  std::uint64_t identities_rotated_ = 0;

  struct CoverKey {
    crypto::PeerId peer;
    cid::Cid cid;
    bool operator==(const CoverKey&) const = default;
  };
  struct CoverKeyHash {
    std::size_t operator()(const CoverKey& k) const noexcept {
      return std::hash<crypto::PeerId>{}(k.peer) ^
             (std::hash<cid::Cid>{}(k.cid) * 0x9e3779b97f4a7c15ull);
    }
  };
  std::unordered_set<CoverKey, CoverKeyHash> cover_pairs_;

  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace ipfsmon::scenario
