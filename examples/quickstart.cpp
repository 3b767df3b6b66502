// Quickstart: stand up a small simulated IPFS network, publish a file,
// fetch it from another node, run a passive monitor, and look at the
// recorded Bitswap trace — the library's core loop in ~100 lines.
#include <cstdio>

#include "monitor/passive_monitor.hpp"
#include "node/ipfs_node.hpp"
#include "tracestore/merge.hpp"
#include "util/strings.hpp"

using namespace ipfsmon;

int main() {
  // --- 1. A network with a geography and a deterministic seed. ------------
  sim::Scheduler scheduler;
  net::Network network(scheduler, net::GeoDatabase::standard(), /*seed=*/7);
  util::RngStream rng(7, "quickstart");

  auto make_node = [&](const std::string& country,
                       node::NodeConfig config) {
    crypto::KeyPair keys = crypto::KeyPair::generate(rng);
    const net::Address addr = network.geo().allocate_address(country);
    return std::make_unique<node::IpfsNode>(network, std::move(keys), addr,
                                            country, config, rng.fork(1));
  };

  node::NodeConfig server_config;
  server_config.dht_server = true;

  auto alice = make_node("DE", server_config);
  auto bob = make_node("US", server_config);
  auto carol = make_node("FR", server_config);

  // --- 2. A passive monitor (accepts everything, records Bitswap). --------
  monitor::MonitorConfig mon_config;
  mon_config.monitor_id = 0;
  crypto::KeyPair mon_keys = crypto::KeyPair::generate(rng);
  monitor::PassiveMonitor watch(network, std::move(mon_keys),
                                network.geo().allocate_address("US"), "US",
                                mon_config, rng.fork(2));

  // --- 3. Everyone joins, bootstrapping off alice. -------------------------
  alice->go_online({});
  const std::vector<crypto::PeerId> bootstrap = {alice->id()};
  bob->go_online(bootstrap);
  carol->go_online(bootstrap);
  watch.go_online(bootstrap);

  // Give the DHT a moment to form, then make sure bob and carol also know
  // the monitor (in a real network ambient discovery does this).
  scheduler.run_until(scheduler.now() + 30 * util::kSecond);
  network.dial(bob->id(), watch.id(), nullptr);
  network.dial(carol->id(), watch.id(), nullptr);
  scheduler.run_until(scheduler.now() + 10 * util::kSecond);

  // --- 4. Alice publishes a file; bob fetches the whole DAG. --------------
  util::Bytes file_bytes(100 * 1024);
  util::RngStream file_rng(99);
  file_rng.fill_bytes(file_bytes.data(), file_bytes.size());
  dag::BuilderOptions opts;
  opts.chunk_size = 16 * 1024;  // several chunks, to get a real DAG
  const dag::DagBuildResult file = alice->add_file(file_bytes, opts);
  std::printf("alice published %zu blocks, root %s\n", file.blocks.size(),
              file.root.to_string().c_str());

  bool fetched = false;
  bob->fetch_dag(file.root, [&](std::size_t blocks, bool complete) {
    fetched = complete;
    std::printf("bob fetched DAG: %zu blocks, complete=%s\n", blocks,
                complete ? "yes" : "no");
  });
  scheduler.run_until(scheduler.now() + 2 * util::kMinute);

  // --- 5. Carol fetches too — served by alice OR bob (bob now caches). ----
  carol->fetch(file.root, [&](dag::BlockPtr block) {
    std::printf("carol got root block: %s (%zu bytes)\n",
                block ? "ok" : "FAILED", block ? block->size() : 0);
  });
  scheduler.run_until(scheduler.now() + 2 * util::kMinute);

  // --- 6. What did the monitor see? ----------------------------------------
  // The monitor's store, streamed back in recording (time) order and
  // flagged with the paper's windows.
  std::vector<trace::TraceEntry> entries;
  trace::StatsAccumulator accumulator;
  if (const auto store = watch.open_store()) {
    tracestore::unify_stores({&*store}, [&](const trace::TraceEntry& e) {
      accumulator.add(e);
      entries.push_back(e);
    });
  }
  const trace::TraceStats stats = accumulator.stats();
  std::printf("\nmonitor observed %zu Bitswap entries "
              "(%zu requests, %zu cancels) from %zu peers, %zu CIDs\n",
              stats.total, stats.requests, stats.cancels, stats.unique_peers,
              stats.unique_cids);
  for (const auto& e : entries) {
    std::printf("  t=%-12s %s %-10s cid=%s%s\n",
                util::format_sim_time(e.timestamp).c_str(),
                e.peer.short_hex().c_str(),
                std::string(bitswap::want_type_name(e.type)).c_str(),
                e.cid.short_hex().c_str(),
                e.is_rebroadcast() ? " [rebroadcast]" : "");
  }

  // The monitor should have seen root requests only: child-block requests
  // ride inside bob's session with alice.
  std::printf("\nroot CID prefix: %s  (child requests are session-scoped "
              "and invisible to the monitor)\n",
              file.root.short_hex().c_str());
  return fetched ? 0 : 1;
}
