#include "monitor/active_monitor.hpp"

namespace ipfsmon::monitor {

ActiveMonitor::ActiveMonitor(net::Network& network, crypto::KeyPair keys,
                             const net::Address& address,
                             const std::string& country,
                             ActiveMonitorConfig config, util::RngStream rng)
    : PassiveMonitor(network, std::move(keys), address, country, config.base,
                     rng.fork("passive-base")),
      config_(config),
      sweep_rng_(std::move(rng)) {}

ActiveMonitor::~ActiveMonitor() {
  stop_sweeps();
  go_offline();
}

void ActiveMonitor::start_sweeps() { schedule_sweep(); }

void ActiveMonitor::stop_sweeps() { sweep_timer_.cancel(); }

void ActiveMonitor::schedule_sweep() {
  sweep_timer_ = network().scheduler().schedule_after(
      config_.sweep_interval, [this]() {
        run_sweep();
        schedule_sweep();
      });
}

void ActiveMonitor::run_sweep() {
  if (!online() || sweep_running_) return;
  sweep_running_ = true;

  // Seed the crawl from our own routing table; the monitor crawls *as
  // itself* — the whole point is to then hold the connections open.
  const auto seeds = dht().routing_table().closest(
      dht::key_of(id()), 8);
  if (seeds.empty()) {
    sweep_running_ = false;
    return;
  }

  // The crawl runs over our own DHT by issuing FIND_NODE lookups toward
  // random targets, then we dial everything we learned. (We reuse the
  // node's own DHT rather than a separate crawler identity: an active
  // monitor is overt anyway.)
  auto discovered = std::make_shared<std::unordered_set<crypto::PeerId>>();
  auto remaining = std::make_shared<std::size_t>(config_.queries_per_peer);
  for (std::size_t i = 0; i < config_.queries_per_peer; ++i) {
    dht::Key target;
    sweep_rng_.fill_bytes(target.data(), target.size());
    dht().find_closest(target, [this, discovered, remaining](
                                   std::vector<dht::PeerRecord> found) {
      for (const auto& record : found) discovered->insert(record.id);
      if (--*remaining > 0) return;

      // All lookups done: dial everything discovered. (Peers contacted
      // during the lookups are already connected — dialing them again is a
      // no-op that returns the existing connection.)
      std::size_t dialed = 0;
      for (const auto& peer : *discovered) {
        if (dialed >= config_.max_dials_per_sweep) break;
        if (peer == id()) continue;
        ++dialed;
        ++peers_dialed_;
        network().dial(id(), peer, nullptr);
      }
      ++sweeps_completed_;
      sweep_running_ = false;
    });
  }
}

}  // namespace ipfsmon::monitor
