// Cross-module integration tests: end-to-end content distribution over
// DHT + Bitswap under churn, the full monitoring pipeline (collect → store →
// stream back → unify → analyze), DAG distribution at fan-out, and failure
// injection (providers vanishing mid-transfer, partitioned requesters).
#include <gtest/gtest.h>

#include "analysis/estimators.hpp"
#include "analysis/popularity.hpp"
#include "attacks/trace_attacks.hpp"
#include "test_helpers.hpp"
#include "trace/preprocess.hpp"
#include "tracestore/merge.hpp"
#include "tracestore/store.hpp"

namespace ipfsmon {
namespace {

using testing_helpers::SimFixture;
using util::kHour;
using util::kMinute;
using util::kSecond;

/// A small always-on mesh: `count` server nodes bootstrapped off node 0.
std::vector<node::IpfsNode*> make_mesh(SimFixture& fix, std::size_t count,
                                       node::NodeConfig config = {}) {
  std::vector<node::IpfsNode*> nodes;
  for (std::size_t i = 0; i < count; ++i) nodes.push_back(&fix.make_node(config));
  nodes[0]->go_online({});
  for (std::size_t i = 1; i < count; ++i) nodes[i]->go_online({nodes[0]->id()});
  fix.run_for(20 * kMinute);
  return nodes;
}

TEST(Integration, ContentSpreadsAcrossTheMesh) {
  SimFixture fix(100);
  auto nodes = make_mesh(fix, 14);
  const cid::Cid c = nodes[3]->add_bytes(util::bytes_of("spread me"));
  fix.run_for(1 * kMinute);

  // Everyone can fetch it (directly or via DHT providers).
  std::size_t got = 0;
  for (auto* n : nodes) {
    n->fetch(c, [&](dag::BlockPtr b) {
      if (b != nullptr) ++got;
    });
  }
  fix.run_for(3 * kMinute);
  EXPECT_EQ(got, nodes.size());
}

TEST(Integration, RetrievalSurvivesOriginalProviderChurn) {
  SimFixture fix(101);
  auto nodes = make_mesh(fix, 12);
  const cid::Cid c = nodes[1]->add_bytes(util::bytes_of("resilient"));
  fix.run_for(1 * kMinute);

  // One node downloads (and thereby reprovides) the content.
  bool first = false;
  nodes[5]->fetch(c, [&](dag::BlockPtr b) { first = b != nullptr; });
  fix.run_for(2 * kMinute);
  ASSERT_TRUE(first);

  // The author leaves; a third node must still succeed via the cache copy.
  nodes[1]->go_offline();
  fix.run_for(1 * kMinute);
  bool second = false;
  nodes[9]->fetch(c, [&](dag::BlockPtr b) { second = b != nullptr; });
  fix.run_for(3 * kMinute);
  EXPECT_TRUE(second);
}

TEST(Integration, LargeDagReachesManyReaders) {
  SimFixture fix(102);
  auto nodes = make_mesh(fix, 10);
  util::Bytes data(20000);
  fix.rng.fill_bytes(data.data(), data.size());
  dag::BuilderOptions opts;
  opts.chunk_size = 2048;
  const auto built = nodes[0]->add_file(data, opts);
  ASSERT_GT(built.blocks.size(), 5u);
  fix.run_for(1 * kMinute);

  std::size_t complete = 0;
  for (std::size_t i = 1; i < 6; ++i) {
    nodes[i]->fetch_dag(built.root, [&](std::size_t, bool ok) {
      if (ok) ++complete;
    });
  }
  fix.run_for(5 * kMinute);
  EXPECT_EQ(complete, 5u);
  // All readers hold every block.
  for (std::size_t i = 1; i < 6; ++i) {
    for (const auto& b : built.blocks) {
      EXPECT_TRUE(nodes[i]->blockstore().has(b.id()));
    }
  }
}

TEST(Integration, NatClientsFetchThroughTheMesh) {
  SimFixture fix(103);
  auto servers = make_mesh(fix, 8);
  node::NodeConfig client_config;
  client_config.nat = true;
  auto& client = fix.make_node(client_config);
  client.go_online({servers[0]->id()});
  fix.run_for(5 * kMinute);

  const cid::Cid c = servers[4]->add_bytes(util::bytes_of("for the client"));
  fix.run_for(1 * kMinute);
  bool got = false;
  client.fetch(c, [&](dag::BlockPtr b) { got = b != nullptr; });
  fix.run_for(3 * kMinute);
  EXPECT_TRUE(got);
}

TEST(Integration, PartitionedRequesterFailsThenRecovers) {
  SimFixture fix(104);
  // The loner cannot discover anyone on its own (no ambient discovery) and
  // gives up quickly.
  node::NodeConfig isolated;
  isolated.discovery_dials = 0;
  isolated.bitswap.fetch_timeout = 1 * kMinute;
  // The provider must not discover the loner either (with ambient
  // discovery on, a two-node universe self-heals: the provider dials the
  // loner, who pushes its wantlist to the new peer — by design).
  auto& provider = fix.make_node(isolated);
  auto& loner = fix.make_node(isolated);
  provider.go_online({});
  const cid::Cid c = provider.add_bytes(util::bytes_of("unreachable"));

  // The loner joins with no bootstrap: no peers, no DHT — fetch must fail.
  loner.go_online({});
  bool failed = false;
  loner.fetch(c, [&](dag::BlockPtr b) { failed = b == nullptr; });
  fix.run_for(2 * kMinute);
  EXPECT_TRUE(failed);

  // After connecting to the provider, a retry succeeds.
  EXPECT_TRUE(fix.connect(loner, provider));
  bool got = false;
  loner.fetch(c, [&](dag::BlockPtr b) { got = b != nullptr; });
  fix.run_for(2 * kMinute);
  EXPECT_TRUE(got);
}

// --- Full monitoring pipeline round trip -----------------------------------

TEST(Integration, MonitoringPipelineSurvivesSerialization) {
  SimFixture fix(105);
  auto nodes = make_mesh(fix, 10);
  // A small segment cap makes the readers cross segment files.
  monitor::MonitorConfig cfg0;
  cfg0.spill_segment_entries = 16;
  auto& mon0 = fix.make_monitor(cfg0);
  monitor::MonitorConfig cfg1 = cfg0;
  cfg1.monitor_id = 1;
  auto& mon1 = fix.make_monitor(cfg1);
  mon0.go_online({nodes[0]->id()});
  mon1.go_online({nodes[0]->id()});
  fix.run_for(1 * kMinute);
  for (auto* n : nodes) {
    fix.network.dial(n->id(), mon0.id(), nullptr);
    fix.network.dial(n->id(), mon1.id(), nullptr);
  }
  fix.run_for(30 * kSecond);

  // Workload: shared item + per-node one-offs + a dead CID (re-broadcasts).
  const cid::Cid shared = nodes[0]->add_bytes(util::bytes_of("shared item"));
  fix.run_for(30 * kSecond);
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    nodes[i]->fetch(shared, nullptr);
    nodes[i]->fetch(cid::Cid::of_data(
                        cid::Multicodec::Raw,
                        util::bytes_of("own " + std::to_string(i))),
                    nullptr);
  }
  fix.run_for(5 * kMinute);

  // Both monitors recorded into segmented stores; merge them out of core
  // and analyze.
  std::vector<tracestore::TraceStore> stores;
  for (auto* mon : {&mon0, &mon1}) {
    auto store = mon->open_store();
    ASSERT_TRUE(store.has_value());
    ASSERT_GT(store->total_entries(), 16u);
    EXPECT_GT(store->segments().size(), 1u);
    stores.push_back(std::move(*store));
  }
  trace::StatsAccumulator stats_acc;
  analysis::PopularityAccumulator popularity;
  attacks::IdwAccumulator idw(shared);
  const auto unified = tracestore::unify_stores(
      {&stores[0], &stores[1]}, [&](const trace::TraceEntry& e) {
        stats_acc.add(e);
        popularity.add(e);
        idw.add(e);
      });
  ASSERT_EQ(unified.entries,
            stores[0].total_entries() + stores[1].total_entries());
  const auto stats = stats_acc.stats();
  EXPECT_GT(stats.requests, 10u);
  EXPECT_GT(stats.inter_monitor_duplicates, 0u);  // both monitors connected
  EXPECT_GT(stats.rebroadcasts, 0u);              // the dead CIDs re-broadcast

  // Popularity: the shared CID has the highest URP.
  const auto top = popularity.scores().top_urp(1);
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].first, shared);
  EXPECT_GE(top[0].second, 5u);

  // IDW identifies the requesters of the shared CID.
  const auto wanters = idw.hits();
  EXPECT_GE(wanters.size(), 5u);
}

TEST(Integration, TwoMonitorEstimateApproximatesMeshSize) {
  SimFixture fix(106);
  auto nodes = make_mesh(fix, 20);
  auto& mon0 = fix.make_monitor({});
  monitor::MonitorConfig cfg1;
  cfg1.monitor_id = 1;
  auto& mon1 = fix.make_monitor(cfg1);
  mon0.go_online({nodes[0]->id()});
  mon1.go_online({nodes[0]->id()});
  fix.run_for(30 * kSecond);
  // Everyone connects to both monitors (full coverage ⇒ exact estimate).
  for (auto* n : nodes) {
    fix.network.dial(n->id(), mon0.id(), nullptr);
    fix.network.dial(n->id(), mon1.id(), nullptr);
  }
  fix.run_for(1 * kMinute);

  const auto p0 = fix.network.connected_peers(mon0.id());
  const auto p1 = fix.network.connected_peers(mon1.id());
  const auto estimate = analysis::estimate_pairwise(p0, p1);
  ASSERT_TRUE(estimate.has_value());
  // Universe: 20 mesh nodes + the other monitor (monitors interconnect via
  // bootstrap); full overlap makes the estimator ≈ exact.
  EXPECT_NEAR(*estimate, static_cast<double>(p0.size()), 2.0);
}

TEST(Integration, CancelObservedAfterDownloadCompletes) {
  // The paper uses CANCELs as a download-success signal (Sec. IV-A).
  SimFixture fix(107);
  auto nodes = make_mesh(fix, 6);
  auto& mon = fix.make_monitor({});
  mon.go_online({nodes[0]->id()});
  fix.run_for(30 * kSecond);
  fix.network.dial(nodes[2]->id(), mon.id(), nullptr);
  fix.run_for(10 * kSecond);

  const cid::Cid c = nodes[0]->add_bytes(util::bytes_of("will complete"));
  fix.run_for(30 * kSecond);
  bool got = false;
  nodes[2]->fetch(c, [&](dag::BlockPtr b) { got = b != nullptr; });
  fix.run_for(2 * kMinute);
  ASSERT_TRUE(got);

  trace::Trace unified = testing_helpers::read_store(mon);
  trace::mark_flags(unified);
  const auto wanters =
      testing_helpers::feed(attacks::IdwAccumulator(c), unified).hits();
  ASSERT_EQ(wanters.size(), 1u);
  EXPECT_EQ(wanters[0].peer, nodes[2]->id());
  EXPECT_TRUE(wanters[0].cancelled) << "download completion not observable";
}

}  // namespace
}  // namespace ipfsmon
