#include "scenario/population.hpp"

namespace ipfsmon::scenario {

namespace {

/// Share of nodes behind NAT ⇒ DHT clients, invisible to crawls.
/// Calibrated; no published figure.
constexpr double kNatClientShare = 0.45;
/// The first stable servers double as bootstrap nodes. Calibrated; no
/// published figure.
constexpr std::size_t kBootstrapCount = 4;
/// Stable servers hosting each resolvable catalog item. Calibrated; no
/// published figure.
constexpr std::size_t kProvidersPerItem = 2;
/// Share of requests targeting fresh one-off CIDs (unique content nobody
/// else will ask for) rather than catalog items. Drives the paper's ">80%
/// of CIDs requested by exactly one peer" (Sec. V-E). Calibrated; no
/// published figure.
constexpr double kOneoffRequestShare = 0.55;
/// Mean minutes between a misconfigured client's retries of its dead CID
/// (paper Sec. V-E). Calibrated; no published figure.
constexpr double kMisconfiguredRetryMinutes = 1.5;
/// Share of the population running v0.5+ clients (WANT_HAVE) when no
/// adoption model is installed. Calibrated; no published figure.
constexpr double kWantHaveShare = 1.0;

}  // namespace

node::NodeConfig default_member_node_config() {
  node::NodeConfig config;
  config.target_degree = 20;
  config.max_degree = 400;
  // go-ipfs defaults are 600/900 in a ~10k network; scaled down to the
  // simulated population sizes while keeping degree/network ratios similar.
  config.low_water = 40;
  config.high_water = 64;
  config.discovery_interval = 1 * util::kMinute;
  config.discovery_dials = 2;
  config.dht.refresh_interval = 30 * util::kMinute;
  // Re-announce daily with records that outlive the gap: reproviding a
  // whole catalog is by far the costliest periodic DHT activity.
  config.dht.provider_ttl = 48 * util::kHour;
  config.reprovide_interval = 24 * util::kHour;
  // Unresolvable fetches re-broadcast every 30 s until this deadline —
  // the source of the paper's ">50% of entries are re-broadcasts".
  config.bitswap.fetch_timeout = 8 * util::kMinute;
  return config;
}

Population::Population(net::Network& network, const ContentCatalog& catalog,
                       PopulationConfig config, util::RngStream rng)
    : network_(network),
      catalog_(catalog),
      config_(config),
      rng_(std::move(rng)) {
  members_.reserve(config_.node_count);
  util::RngStream key_rng = rng_.fork("keys");

  for (std::size_t i = 0; i < config_.node_count; ++i) {
    const bool stable = i < config_.stable_server_count;
    const bool nat =
        !stable && rng_.bernoulli(kNatClientShare);

    node::NodeConfig node_config = config_.node;
    node_config.nat = nat;
    node_config.dht_server = !nat;
    node_config.legacy_protocol = !rng_.bernoulli(kWantHaveShare);
    // Misconfigured clients: their app-level retry loop cancels and
    // re-requests so aggressively that the 30 s protocol re-broadcast
    // never fires — every retry is a fresh (clean-looking) request. This
    // is what makes their dead CIDs top the RRP ranking (paper Sec. V-E).
    const bool misconfigured =
        !stable &&
        i < config_.stable_server_count + config_.misconfigured_nodes;
    if (misconfigured) node_config.bitswap.rebroadcast = false;
    if (stable) {
      // Stable long-lived servers are discovery hubs (they accumulate
      // routing-table presence), though far weaker ones than monitors.
      node_config.discovery_weight = 2.0;
    }

    const std::string country = network_.geo().sample_country(rng_);
    const net::Address address = network_.geo().allocate_address(country);
    crypto::KeyPair keys = crypto::KeyPair::generate(key_rng);

    auto node = std::make_unique<node::IpfsNode>(
        network_, std::move(keys), address, country, node_config,
        rng_.fork(i));
    if (i < kBootstrapCount) bootstrap_ids_.push_back(node->id());
    members_.emplace_back(std::move(node), stable, rng_.fork(i * 2 + 1));
  }
}

Population::~Population() { stop(); }

void Population::start() {
  if (started_) return;
  started_ = true;

  // Stable nodes first (they bootstrap and host content)...
  for (auto& member : members_) {
    if (!member.stable) continue;
    member.online_target = true;
    apply_version(member);
    member.node->go_online(bootstrap_ids_);
    ever_online_.insert(member.node->id());
  }
  install_catalog_content();

  // Designate the misconfigured clients: each retries a dead reference
  // (a CID that is never hosted anywhere) for as long as it is online.
  std::size_t broken_assigned = 0;
  for (auto& member : members_) {
    if (broken_assigned >= config_.misconfigured_nodes) break;
    if (member.stable) continue;
    member.broken_reference = catalog_.create_oneoff(member.rng).root;
    ++broken_assigned;
  }

  // ...then the churned population, each starting in a random phase of its
  // on/off cycle.
  const double duty =
      config_.mean_session_hours /
      (config_.mean_session_hours + config_.mean_downtime_hours);
  for (auto& member : members_) {
    if (member.stable) {
      schedule_next_request(member);
      continue;
    }
    if (member.rng.bernoulli(duty)) {
      bring_online(member);
    } else {
      schedule_rebirth(member);
    }
  }
}

void Population::stop() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& member : members_) {
    member.churn_timer.cancel();
    member.request_timer.cancel();
    member.retry_timer.cancel();
  }
}

void Population::install_catalog_content() {
  // Round-robin resolvable items over the stable providers.
  std::vector<Member*> providers;
  for (auto& member : members_) {
    if (member.stable) providers.push_back(&member);
  }
  if (providers.empty()) return;
  std::size_t cursor = 0;
  for (const auto& item : catalog_.items()) {
    if (!item.resolvable) continue;
    for (std::size_t r = 0; r < kProvidersPerItem; ++r) {
      Member* provider = providers[cursor++ % providers.size()];
      provider->node->add_blocks(item.blocks, item.root);
    }
  }
}

void Population::apply_version(Member& member) {
  if (!version_model_) return;
  const double share =
      version_model_->upgraded_share(network_.scheduler().now());
  member.node->client().set_use_want_have(member.rng.bernoulli(share));
}

void Population::rotate_identity(Member& member) {
  // Fresh keypair, same machine (address and country stay): cross-session
  // observations can no longer be linked to one PeerId. The old identity's
  // (offline) record remains in the network, as a vanished node's would.
  const net::NodeRecord* rec = network_.record(member.node->id());
  const std::string country = rec != nullptr ? rec->country : "US";
  const net::Address address = member.node->address();
  node::NodeConfig config = member.node->config();
  crypto::KeyPair keys = crypto::KeyPair::generate(member.rng);
  member.node = std::make_unique<node::IpfsNode>(
      network_, std::move(keys), address, country, config,
      member.rng.fork("rotated"));
  ++identities_rotated_;
}

void Population::bring_online(Member& member) {
  if (stopped_) return;
  member.online_target = true;
  apply_version(member);
  member.node->go_online(bootstrap_ids_);
  ever_online_.insert(member.node->id());
  schedule_session_end(member);
  schedule_next_request(member);
  if (member.broken_reference) schedule_retry(member);
}

void Population::schedule_retry(Member& member) {
  if (stopped_) return;
  const double minutes =
      member.rng.exponential(kMisconfiguredRetryMinutes);
  member.retry_timer = network_.scheduler().schedule_after(
      static_cast<util::SimDuration>(minutes *
                                     static_cast<double>(util::kMinute)),
      [this, &member]() {
        if (member.node->online() && member.broken_reference) {
          // App-level retry loop: cancel the stuck fetch and re-request.
          // Each retry is a fresh broadcast spaced > 31 s apart, so it
          // survives the re-broadcast filter and inflates the CID's RRP —
          // the paper's "unexpectedly high number of requests ... hinting
          // at configuration errors".
          member.node->client().cancel(*member.broken_reference);
          member.node->fetch(*member.broken_reference, nullptr);
          ++requests_issued_;
        }
        schedule_retry(member);
      });
}

void Population::schedule_session_end(Member& member) {
  if (member.stable || stopped_) return;
  const double hours = member.rng.exponential(config_.mean_session_hours);
  member.churn_timer = network_.scheduler().schedule_after(
      static_cast<util::SimDuration>(hours * static_cast<double>(util::kHour)),
      [this, &member]() {
        member.online_target = false;
        member.request_timer.cancel();
        member.retry_timer.cancel();
        member.node->go_offline();
        schedule_rebirth(member);
      });
}

void Population::schedule_rebirth(Member& member) {
  if (stopped_) return;
  const double hours = member.rng.exponential(config_.mean_downtime_hours);
  member.churn_timer = network_.scheduler().schedule_after(
      static_cast<util::SimDuration>(hours * static_cast<double>(util::kHour)),
      [this, &member]() {
        if (config_.rotate_identity_on_rebirth) rotate_identity(member);
        bring_online(member);
      });
}

double Population::current_rate_factor() const {
  const util::SimTime now = network_.scheduler().now();
  double factor = 1.0;
  for (const auto& surge : surges_) {
    if (now >= surge.from && now < surge.to) factor *= surge.factor;
  }
  return factor;
}

void Population::add_rate_surge(util::SimTime from, util::SimTime to,
                                double factor) {
  surges_.push_back(Surge{from, to, factor});
}

void Population::schedule_next_request(Member& member) {
  if (stopped_) return;
  const double hours = member.rng.exponential(
      config_.mean_request_interval_hours / current_rate_factor());
  member.request_timer = network_.scheduler().schedule_after(
      static_cast<util::SimDuration>(hours * static_cast<double>(util::kHour)),
      [this, &member]() {
        if (member.node->online()) {
          issue_request(member);
          if (config_.cover_traffic_share > 0.0 &&
              member.rng.bernoulli(config_.cover_traffic_share)) {
            issue_cover_request(member);
          }
        }
        schedule_next_request(member);
      });
}

void Population::host_item(const CatalogItem& item) {
  // Stable members occupy the front of members_ (see constructor).
  const std::size_t stable_count =
      std::min(config_.stable_server_count, members_.size());
  if (stable_count == 0) return;
  Member& provider = members_[rng_.uniform_index(stable_count)];
  provider.node->add_blocks(item.blocks, item.root);
}

void Population::issue_request(Member& member) {
  ++requests_issued_;
  if (member.rng.bernoulli(kOneoffRequestShare)) {
    // Unique content: fresh CID, hosted (if resolvable) by its "author".
    const CatalogItem oneoff = catalog_.create_oneoff(member.rng);
    if (oneoff.resolvable) host_item(oneoff);
    member.node->fetch(oneoff.root, [this](dag::BlockPtr block) {
      if (block != nullptr) {
        ++fetches_succeeded_;
      } else {
        ++fetches_failed_;
      }
    });
    return;
  }
  const CatalogItem& item = catalog_.sample(member.rng);
  if (item.is_dag) {
    member.node->fetch_dag(item.root,
                           [this](std::size_t /*blocks*/, bool complete) {
                             if (complete) {
                               ++fetches_succeeded_;
                             } else {
                               ++fetches_failed_;
                             }
                           });
  } else {
    member.node->fetch(item.root, [this](dag::BlockPtr block) {
      if (block != nullptr) {
        ++fetches_succeeded_;
      } else {
        ++fetches_failed_;
      }
    });
  }
}

void Population::issue_cover_request(Member& member) {
  // Effective cover traffic must target existing CIDs under a realistic
  // popularity distribution (paper Sec. VI-C item 6) — we draw from the
  // same catalog popularity genuine requests use.
  const CatalogItem& item = catalog_.sample(member.rng);
  ++cover_requests_;
  cover_pairs_.insert(CoverKey{member.node->id(), item.root});
  member.node->fetch(item.root, nullptr);
}

bool Population::is_cover_request(const crypto::PeerId& peer,
                                  const cid::Cid& cid) const {
  return cover_pairs_.count(CoverKey{peer, cid}) != 0;
}

std::size_t Population::online_count() const {
  std::size_t count = 0;
  for (const auto& member : members_) {
    if (member.node->online()) ++count;
  }
  return count;
}

std::size_t Population::online_server_count() const {
  std::size_t count = 0;
  for (const auto& member : members_) {
    if (member.node->online() && !member.node->config().nat) ++count;
  }
  return count;
}

}  // namespace ipfsmon::scenario
