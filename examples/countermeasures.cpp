// Countermeasure study (paper Sec. VI-C): measures how each proposed
// privacy hardening changes what a passive monitor can observe — and what
// it costs. Each scenario runs the same workload with one knob flipped:
//
//   baseline         stock IPFS behaviour
//   no-rebroadcast   disable the 30 s re-broadcast loop
//   dht-only         never broadcast wants; DHT provider lookup only
//   no-reprovide     don't announce downloaded content (vs TPI)
//   no-serve         don't serve cached blocks at all (vs TPI)
#include <cstdio>

#include "attacks/tpi_prober.hpp"
#include "node/ipfs_node.hpp"
#include "monitor/passive_monitor.hpp"
#include "util/strings.hpp"

using namespace ipfsmon;

namespace {

struct Result {
  std::string name;
  std::size_t monitor_entries = 0;    // what the adversary sees
  std::size_t fetches_ok = 0;         // utility: successful retrievals
  std::size_t fetches_failed = 0;
  std::string tpi;                    // TPI probe outcome
};

Result run_scenario(const std::string& name, node::NodeConfig victim_config) {
  sim::Scheduler scheduler;
  net::Network network(scheduler, net::GeoDatabase::standard(), 99);
  util::RngStream rng(99, "cm-" + name);

  auto make = [&](node::NodeConfig cfg, const char* cc) {
    crypto::KeyPair keys = crypto::KeyPair::generate(rng);
    return std::make_unique<node::IpfsNode>(
        network, std::move(keys), network.geo().allocate_address(cc), cc, cfg,
        rng.fork(name));
  };

  auto provider = make({}, "US");
  auto victim = make(victim_config, "DE");
  monitor::MonitorConfig mon_config;
  crypto::KeyPair mon_keys = crypto::KeyPair::generate(rng);
  monitor::PassiveMonitor watch(network, std::move(mon_keys),
                                network.geo().allocate_address("US"), "US",
                                mon_config, rng.fork("mon"));

  provider->go_online({});
  victim->go_online({provider->id()});
  watch.go_online({provider->id()});
  scheduler.run_until(scheduler.now() + 30 * util::kSecond);
  network.dial(victim->id(), watch.id(), nullptr);  // monitor is connected
  scheduler.run_until(scheduler.now() + 10 * util::kSecond);

  // Workload: fetch 10 existing items and 2 dead references.
  Result result;
  result.name = name;
  std::vector<cid::Cid> published;
  for (int i = 0; i < 10; ++i) {
    published.push_back(provider->add_bytes(
        util::bytes_of("cm item " + std::to_string(i))));
  }
  scheduler.run_until(scheduler.now() + 30 * util::kSecond);
  for (const auto& c : published) {
    victim->fetch(c, [&](dag::BlockPtr b) {
      if (b != nullptr) {
        ++result.fetches_ok;
      } else {
        ++result.fetches_failed;
      }
    });
  }
  for (int i = 0; i < 2; ++i) {
    victim->fetch(cid::Cid::of_data(cid::Multicodec::Raw,
                                    util::bytes_of("dead " + std::to_string(i))),
                  [&](dag::BlockPtr b) {
                    if (b == nullptr) ++result.fetches_failed;
                  });
  }
  scheduler.run_until(scheduler.now() + 12 * util::kMinute);

  if (const auto store = watch.open_store()) {
    result.monitor_entries = store->total_entries();
  }

  // TPI probe on one fetched item.
  attacks::TpiProber prober(network, crypto::KeyPair::generate(rng).peer_id(),
                            network.geo().allocate_address("FR"), "FR");
  prober.probe(victim->id(), published[0], [&](attacks::TpiOutcome outcome) {
    result.tpi = std::string(attacks::tpi_outcome_name(outcome));
  });
  scheduler.run_until(scheduler.now() + 30 * util::kSecond);
  return result;
}

}  // namespace

int main() {
  std::vector<Result> results;

  results.push_back(run_scenario("baseline", {}));

  node::NodeConfig no_rebroadcast;
  no_rebroadcast.bitswap.rebroadcast = false;
  results.push_back(run_scenario("no-rebroadcast", no_rebroadcast));

  node::NodeConfig dht_only;
  dht_only.bitswap.broadcast_wants = false;
  results.push_back(run_scenario("dht-only", dht_only));

  node::NodeConfig no_reprovide;
  no_reprovide.provide_downloaded = false;
  results.push_back(run_scenario("no-reprovide", no_reprovide));

  node::NodeConfig no_serve;
  no_serve.serve_blocks = false;
  results.push_back(run_scenario("no-serve", no_serve));

  std::printf("countermeasure study (paper Sec. VI-C): one victim, one\n"
              "monitor, 10 real fetches + 2 dead references per scenario\n\n");
  std::printf("%-16s %18s %10s %10s %14s\n", "scenario", "monitor entries",
              "fetched", "failed", "TPI probe");
  for (const auto& r : results) {
    std::printf("%-16s %18zu %10zu %10zu %14s\n", r.name.c_str(),
                r.monitor_entries, r.fetches_ok, r.fetches_failed,
                r.tpi.c_str());
  }
  std::printf(
      "\nreadings:\n"
      "  no-rebroadcast: fewer monitor entries (dead references stop\n"
      "                  spamming), everything else unchanged.\n"
      "  dht-only:       the monitor sees ~nothing — but robustness is\n"
      "                  gone (the paper: hurts censorship resistance).\n"
      "  no-reprovide:   monitor view unchanged; TPI still positive —\n"
      "                  provider records were never the leak.\n"
      "  no-serve:       TPI defeated (DONT_HAVE), at the cost of\n"
      "                  contributing nothing to content availability.\n");
  return 0;
}
