#include "churn/injector.hpp"

#include <algorithm>
#include <unordered_set>

namespace ipfsmon::churn {

namespace {

/// Hard cap on transient peers alive at once (arrivals beyond it are
/// dropped, keeping sweeps bounded). Calibrated; no published figure.
constexpr std::size_t kMaxTransient = 256;
/// Share of transients behind NAT (DHT clients, invisible to crawls); the
/// base population's share. Calibrated; no published figure.
constexpr double kTransientNatShare = 0.45;
/// After a session ends, a transient rejoins later with this probability;
/// otherwise it is retired for good (its node is destroyed). Calibrated;
/// no published figure.
constexpr double kRejoinProbability = 0.6;
/// Each partition window isolates 1..kMaxPartitionedNodes distinct online
/// public nodes. Calibrated; no published figure.
constexpr std::size_t kMaxPartitionedNodes = 4;

}  // namespace

FaultInjector::FaultInjector(net::Network& network, ChurnConfig config,
                             util::RngStream rng)
    : network_(network),
      config_(std::move(config)),
      rng_(std::move(rng)),
      key_rng_(rng_.fork("keys")) {
  // The injector only exists when a fault process is wanted, so its
  // instruments can be registered eagerly without perturbing the registry
  // of fault-free runs.
  auto& reg = network_.obs().metrics;
  metrics_.spawns = &reg.counter("ipfsmon_churn_transients_spawned_total",
                                 "Transient peers spawned by the injector");
  metrics_.sessions = &reg.counter("ipfsmon_churn_sessions_total",
                                   "Transient online sessions completed");
  metrics_.retirements =
      &reg.counter("ipfsmon_churn_retirements_total",
                   "Transient peers retired for good (node destroyed)");
  metrics_.partitions = &reg.counter("ipfsmon_churn_partitions_total",
                                     "Partition windows opened");
  metrics_.requests = &reg.counter("ipfsmon_churn_requests_total",
                                   "Data requests issued by transient peers");
  metrics_.online = &reg.gauge("ipfsmon_churn_transients_online",
                               "Transient peers currently online");
}

FaultInjector::~FaultInjector() { stop(); }

void FaultInjector::start(std::vector<crypto::PeerId> bootstrap) {
  if (started_) return;
  started_ = true;
  bootstrap_ = std::move(bootstrap);
  network_.set_link_faults(config_.link);
  if (config_.nodes.arrival_rate_per_hour > 0.0) schedule_arrival();
  if (config_.partitions.rate_per_hour > 0.0) schedule_partition();
  for (const CrashEvent& ev : config_.scheduled_crashes) {
    oneshot_timers_.push_back(network_.scheduler().schedule_at(
        ev.at, [this, ev]() {
          if (stopped_) return;
          crash_monitor(ev.monitor_index, ev.down_for);
        }));
  }
}

void FaultInjector::stop() {
  if (stopped_) return;
  stopped_ = true;
  arrival_timer_.cancel();
  partition_timer_.cancel();
  for (auto& timer : oneshot_timers_) timer.cancel();
  for (auto& t : transients_) {
    if (t == nullptr) continue;
    t->session_timer.cancel();
    t->request_timer.cancel();
  }
}

std::size_t FaultInjector::transients_online() const {
  std::size_t count = 0;
  for (const auto& t : transients_) {
    if (t != nullptr && t->node != nullptr && t->node->online()) ++count;
  }
  return count;
}

// --- Transient-peer churn ---------------------------------------------------

void FaultInjector::schedule_arrival() {
  const double hours =
      rng_.exponential(1.0 / config_.nodes.arrival_rate_per_hour);
  arrival_timer_ = network_.scheduler().schedule_after(
      util::seconds(hours * 3600.0), [this]() {
        if (stopped_) return;
        spawn_transient();
        schedule_arrival();
      });
}

void FaultInjector::spawn_transient() {
  std::size_t alive = 0;
  std::size_t free_slot = transients_.size();
  for (std::size_t i = 0; i < transients_.size(); ++i) {
    if (transients_[i] != nullptr) {
      ++alive;
    } else if (free_slot == transients_.size()) {
      free_slot = i;
    }
  }
  if (alive >= kMaxTransient) return;  // at capacity: drop

  node::NodeConfig node_config = config_.nodes.node;
  node_config.nat = rng_.bernoulli(kTransientNatShare);
  node_config.dht_server = !node_config.nat;
  const std::string country = network_.geo().sample_country(rng_);
  const net::Address address = network_.geo().allocate_address(country);
  crypto::KeyPair keys = crypto::KeyPair::generate(key_rng_);

  const std::uint64_t serial = spawn_counter_++;
  auto node = std::make_unique<node::IpfsNode>(
      network_, std::move(keys), address, country, node_config,
      rng_.fork(serial * 2));
  transient_ids_.push_back(node->id());

  auto transient = std::make_unique<Transient>(free_slot, std::move(node),
                                               rng_.fork(serial * 2 + 1));
  Transient& t = *transient;
  if (free_slot == transients_.size()) {
    transients_.push_back(std::move(transient));
  } else {
    transients_[free_slot] = std::move(transient);
  }
  ++transients_spawned_;
  metrics_.spawns->inc();
  bring_online(t);
}

void FaultInjector::bring_online(Transient& t) {
  if (stopped_) return;
  t.node->go_online(bootstrap_);
  metrics_.online->set(static_cast<double>(transients_online()));
  t.session_timer = network_.scheduler().schedule_after(
      config_.nodes.session.sample(t.rng),
      [this, &t]() { end_session(t); });
  schedule_request(t);
}

void FaultInjector::end_session(Transient& t) {
  if (stopped_) return;
  t.request_timer.cancel();
  t.node->go_offline();
  ++sessions_completed_;
  metrics_.sessions->inc();
  metrics_.online->set(static_cast<double>(transients_online()));
  if (t.rng.bernoulli(kRejoinProbability)) {
    t.session_timer = network_.scheduler().schedule_after(
        config_.nodes.intersession.sample(t.rng),
        [this, &t]() { bring_online(t); });
  } else {
    retire(t);
  }
}

void FaultInjector::retire(Transient& t) {
  // Destroys the node (its record stays registered offline, as a vanished
  // peer's would — same idiom as Population::rotate_identity). The caller
  // must not touch `t` afterwards.
  metrics_.retirements->inc();
  const std::size_t slot = t.slot;
  t.session_timer.cancel();
  t.request_timer.cancel();
  transients_[slot].reset();
}

void FaultInjector::schedule_request(Transient& t) {
  if (stopped_ || !request_source_ ||
      config_.nodes.mean_request_interval_hours <= 0.0) {
    return;
  }
  const double hours =
      t.rng.exponential(config_.nodes.mean_request_interval_hours);
  t.request_timer = network_.scheduler().schedule_after(
      util::seconds(hours * 3600.0), [this, &t]() {
        if (stopped_) return;
        if (t.node->online()) {
          const cid::Cid target = request_source_(t.rng);
          t.node->fetch(target, nullptr);
          ++requests_issued_;
          metrics_.requests->inc();
        }
        schedule_request(t);
      });
}

// --- Partition windows ------------------------------------------------------

void FaultInjector::schedule_partition() {
  const double hours = rng_.exponential(1.0 / config_.partitions.rate_per_hour);
  partition_timer_ = network_.scheduler().schedule_after(
      util::seconds(hours * 3600.0), [this]() {
        if (stopped_) return;
        open_partition();
        schedule_partition();
      });
}

void FaultInjector::open_partition() {
  // Pick 1..kMaxPartitionedNodes distinct online public victims. Bootstrap
  // nodes are spared: they anchor every post-heal redial.
  const std::size_t want = 1 + rng_.uniform_index(kMaxPartitionedNodes);
  std::unordered_set<crypto::PeerId> victims;
  for (std::size_t attempt = 0; attempt < want * 8 && victims.size() < want;
       ++attempt) {
    const auto id = network_.sample_online_public(rng_);
    if (!id) break;
    if (network_.isolated(*id)) continue;
    if (std::find(bootstrap_.begin(), bootstrap_.end(), *id) !=
        bootstrap_.end()) {
      continue;
    }
    victims.insert(*id);
  }
  if (victims.empty()) return;
  ++partitions_opened_;
  metrics_.partitions->inc();
  for (const auto& id : victims) network_.isolate(id);

  const double minutes =
      rng_.exponential(config_.partitions.mean_duration_minutes);
  const std::vector<crypto::PeerId> healed(victims.begin(), victims.end());
  oneshot_timers_.push_back(network_.scheduler().schedule_after(
      util::seconds(minutes * 60.0), [this, healed]() {
        if (stopped_) return;
        for (const auto& id : healed) network_.heal(id);
        // Healed nodes redial the overlay with exponential backoff — their
        // existing connections are gone and their next discovery tick may
        // be far away.
        for (const auto& id : healed) {
          if (bootstrap_.empty() || !network_.is_online(id)) continue;
          const auto& target =
              bootstrap_[rng_.uniform_index(bootstrap_.size())];
          network_.dial_with_backoff(id, target, nullptr);
        }
      }));
}

// --- Monitor crash/restart --------------------------------------------------

void FaultInjector::crash_monitor(std::size_t index,
                                  util::SimDuration down_for) {
  if (index >= monitors_.size()) return;
  monitor::PassiveMonitor* monitor = monitors_[index];
  if (monitor->crashed()) return;
  monitor->crash();
  ++monitor_crashes_;
  oneshot_timers_.push_back(network_.scheduler().schedule_after(
      down_for, [this, monitor]() {
        if (stopped_) return;
        monitor->restart(bootstrap_);
        ++monitor_restarts_;
      }));
}

}  // namespace ipfsmon::churn
