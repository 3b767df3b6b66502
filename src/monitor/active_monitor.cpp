#include "monitor/active_monitor.hpp"

namespace ipfsmon::monitor {

namespace {

/// How often to crawl-and-dial. Calibrated; no published figure.
constexpr util::SimDuration kSweepInterval = 2 * util::kHour;
/// Crawl fan-out: FIND_NODE lookups toward random targets per sweep.
/// Calibrated; no published figure.
constexpr std::size_t kQueriesPerSweep = 8;
/// Dials per sweep are capped to avoid thundering herds. Calibrated; no
/// published figure.
constexpr std::size_t kMaxDialsPerSweep = 2000;

}  // namespace

ActiveMonitor::ActiveMonitor(net::Network& network, crypto::KeyPair keys,
                             const net::Address& address,
                             const std::string& country,
                             MonitorConfig config, util::RngStream rng)
    : PassiveMonitor(network, std::move(keys), address, country,
                     std::move(config), rng.fork("passive-base")),
      sweep_rng_(std::move(rng)) {}

ActiveMonitor::~ActiveMonitor() {
  stop_sweeps();
  go_offline();
}

void ActiveMonitor::start_sweeps() { schedule_sweep(); }

void ActiveMonitor::stop_sweeps() { sweep_timer_.cancel(); }

void ActiveMonitor::schedule_sweep() {
  sweep_timer_ = network().scheduler().schedule_after(
      kSweepInterval, [this]() {
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
  auto remaining = std::make_shared<std::size_t>(kQueriesPerSweep);
  for (std::size_t i = 0; i < kQueriesPerSweep; ++i) {
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
        if (dialed >= kMaxDialsPerSweep) break;
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
