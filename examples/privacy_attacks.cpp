// Privacy-attack walkthrough (paper Sec. VI): runs all three attacks
// against a small simulated network —
//   IDW  "who asked for this CID?"          (passive, from traces)
//   TNW  "what has this node asked for?"    (passive, from traces)
//   TPI  "did this node download X before?" (active cache probe)
// plus the gateway-probing pipeline that turns a public HTTP gateway into
// a trackable IPFS node ID.
#include <cstdio>
#include <optional>
#include <unordered_set>

#include "analysis/aggregate.hpp"
#include "analysis/popularity.hpp"
#include "attacks/content_indexer.hpp"
#include "attacks/gateway_probe.hpp"
#include "attacks/tpi_prober.hpp"
#include "attacks/trace_attacks.hpp"
#include "scenario/study.hpp"
#include "util/strings.hpp"

using namespace ipfsmon;

int main() {
  // A small-but-real monitoring study provides the adversary's vantage.
  scenario::StudyConfig config;
  config.seed = 1337;
  config.population.node_count = 200;
  config.population.stable_server_count = 12;
  config.catalog.item_count = 600;
  config.warmup = 4 * util::kHour;
  config.duration = 8 * util::kHour;

  std::printf("setting up a %zu-node network with 2 passive monitors...\n\n",
              config.population.node_count);
  scenario::MonitoringStudy study(config);
  study.run();

  // One pass over the unified trace picks the attack targets and harvests
  // the first distinct requested CIDs for content indexing.
  constexpr std::size_t kIndexItems = 25;
  trace::StatsAccumulator stats_acc;
  analysis::PopularityAccumulator popularity;
  analysis::PeerRequestAccumulator per_peer_acc;
  std::vector<cid::Cid> harvested;
  std::unordered_set<cid::Cid> seen;
  study.unify([&](const trace::TraceEntry& e) {
    stats_acc.add(e);
    popularity.add(e);
    per_peer_acc.add(e);
    if (e.is_request() && harvested.size() < kIndexItems &&
        seen.insert(e.cid).second) {
      harvested.push_back(e.cid);
    }
  });
  const trace::TraceStats stats = stats_acc.stats();
  std::printf("monitors collected %zu Bitswap entries from %zu peers\n\n",
              stats.total, stats.unique_peers);

  // A second pass runs IDW on the most-wanted CID and TNW on the most
  // active node.
  const auto top = popularity.scores().top_urp(1);
  const auto per_peer = per_peer_acc.rows();
  std::optional<attacks::IdwAccumulator> idw;
  std::optional<attacks::TnwAccumulator> tnw;
  if (!top.empty()) idw.emplace(top[0].first);
  if (!per_peer.empty()) tnw.emplace(per_peer.front().first);
  study.unify([&](const trace::TraceEntry& e) {
    if (idw) idw->add(e);
    if (tnw) tnw->add(e);
  });

  // --- IDW: identify the wanters of a popular catalog item. ----------------
  if (idw) {
    const cid::Cid& target = top[0].first;
    const auto wanters = idw->hits();
    std::printf("[IDW] %zu nodes requested CID %s:\n", wanters.size(),
                target.short_hex().c_str());
    for (std::size_t i = 0; i < wanters.size() && i < 5; ++i) {
      std::printf("      %s from %s at %s%s\n",
                  wanters[i].peer.short_hex().c_str(),
                  wanters[i].address.ip_string().c_str(),
                  util::format_sim_time(wanters[i].request_times.front()).c_str(),
                  wanters[i].cancelled ? "  [cancelled -> likely downloaded]"
                                       : "");
    }
    if (wanters.size() > 5) std::printf("      ... and %zu more\n",
                                        wanters.size() - 5);
  }

  // --- TNW: full interest profile of the most active node. ------------------
  if (tnw) {
    const crypto::PeerId& victim = per_peer.front().first;
    const auto wants = tnw->hits();
    std::printf("\n[TNW] node %s was observed wanting %zu distinct CIDs:\n",
                victim.short_hex().c_str(), wants.size());
    for (std::size_t i = 0; i < wants.size() && i < 5; ++i) {
      std::printf("      %s first seen %s (%zu observations)%s\n",
                  wants[i].cid.short_hex().c_str(),
                  util::format_sim_time(wants[i].first_seen).c_str(),
                  wants[i].observations,
                  wants[i].cancelled ? "  [completed]" : "");
    }
    if (wants.size() > 5) std::printf("      ... and %zu more\n",
                                      wants.size() - 5);
  }

  // --- TPI: confirm a past download with one active probe. ------------------
  util::RngStream rng(config.seed, "example-attacks");
  attacks::TpiProber prober(study.network(),
                            crypto::KeyPair::generate(rng).peer_id(),
                            study.network().geo().allocate_address("US"), "US");
  // The victim: an online node, made to download a "sensitive" document.
  node::IpfsNode* victim_ptr = nullptr;
  for (std::size_t i = config.population.stable_server_count;
       i < study.population().size(); ++i) {
    node::IpfsNode& candidate = study.population().node_at(i);
    if (candidate.online() && !candidate.config().nat) {
      victim_ptr = &candidate;
      break;
    }
  }
  node::IpfsNode& victim = *victim_ptr;
  node::IpfsNode& publisher = study.population().node_at(0);  // stable
  const cid::Cid secret =
      publisher.add_bytes(util::bytes_of("the sensitive document"));
  study.scheduler().run_until(study.scheduler().now() + 30 * util::kSecond);
  bool downloaded = false;
  victim.fetch(secret, [&](dag::BlockPtr b) { downloaded = b != nullptr; });
  study.scheduler().run_until(study.scheduler().now() + 5 * util::kMinute);

  std::printf("\n[TPI] node %s %s the document; probing it for CID %s\n",
              victim.id().short_hex().c_str(),
              downloaded ? "downloaded" : "failed to download",
              secret.short_hex().c_str());
  prober.probe(victim.id(), secret, [&](attacks::TpiOutcome outcome) {
    std::printf("      outcome: %s\n",
                std::string(attacks::tpi_outcome_name(outcome)).c_str());
    std::printf("      (HAVE would prove the node held the content)\n");
  });
  study.scheduler().run_until(study.scheduler().now() + 30 * util::kSecond);

  // --- Gateway probing: de-anonymize a public gateway. ----------------------
  std::printf("\n[gateway probing] linking 'ipfs.io' to its node IDs...\n");
  attacks::GatewayProber gw_prober(study.network(), study.monitors(),
                                   rng.fork("gw"));
  for (auto* gw : study.gateways()->nodes_of("ipfs.io")) {
    gw_prober.probe("ipfs.io", *gw, [&](attacks::GatewayProbeResult result) {
      for (const auto& id : result.discovered_nodes) {
        std::printf("      discovered node %s (probe CID %s, http_ok=%d)\n",
                    id.short_hex().c_str(), result.probe_cid.short_hex().c_str(),
                    result.http_ok);
      }
    });
  }
  study.scheduler().run_until(study.scheduler().now() + 2 * util::kMinute);

  // --- Content indexing: what do the harvested CIDs reference? -------------
  std::printf("\n[content indexing] classifying the first harvested CIDs...\n");
  attacks::ContentIndexer indexer(victim);  // any controlled node will do
  std::optional<attacks::IndexReport> report;
  indexer.index_all(harvested, [&](attacks::IndexReport r) {
    report = std::move(r);
  });
  study.scheduler().run_until(study.scheduler().now() + 10 * util::kMinute);
  if (report) {
    std::printf("      indexed %zu CIDs: %zu raw, %zu files, %zu dirs, "
                "%zu other, %zu unresolvable (%.0f%% resolvable)\n",
                report->items.size(),
                report->count_of(attacks::ContentKind::RawData),
                report->count_of(attacks::ContentKind::File),
                report->count_of(attacks::ContentKind::Directory),
                report->count_of(attacks::ContentKind::OtherIpld),
                report->count_of(attacks::ContentKind::Unresolvable),
                100.0 * report->resolvable_share());
  }

  std::printf("\nall three attacks ran with nothing but an ordinary node "
              "identity and the monitors' vantage.\n");
  return 0;
}
