// Privacy attacks: IDW and TNW accumulators fed from traces, the active
// TPI cache probe, and the gateway-probing pipeline (paper Sec. VI).
#include <gtest/gtest.h>

#include "attacks/content_indexer.hpp"
#include "attacks/gateway_probe.hpp"
#include "attacks/tpi_prober.hpp"
#include "attacks/trace_attacks.hpp"
#include "test_helpers.hpp"

namespace ipfsmon::attacks {
namespace {

using testing_helpers::feed;
using testing_helpers::SimFixture;
using util::kMinute;
using util::kSecond;

crypto::PeerId peer_n(int n) {
  util::RngStream rng(static_cast<std::uint64_t>(n) + 1, "atk-peer");
  return crypto::KeyPair::generate(rng).peer_id();
}

cid::Cid cid_n(int n) {
  return cid::Cid::of_data(cid::Multicodec::Raw,
                           util::bytes_of("atk-cid " + std::to_string(n)));
}

trace::TraceEntry entry(util::SimTime t, int peer, int cid,
                        bitswap::WantType type = bitswap::WantType::WantHave,
                        std::uint32_t flags = 0) {
  (void)flags;  // reserved for call sites that set flags directly
  trace::TraceEntry e;
  e.timestamp = t;
  e.peer = peer_n(peer);
  e.address =
      net::Address{0x0a000001u + static_cast<std::uint32_t>(peer), 4001};
  e.type = type;
  e.cid = cid_n(cid);
  return e;
  // flags intentionally set by caller when needed
}

// --- IDW -----------------------------------------------------------------------

TEST(Idw, FindsAllWantersOfCid) {
  trace::Trace t;
  t.append(entry(10 * kSecond, 1, 7));
  t.append(entry(20 * kSecond, 2, 7));
  t.append(entry(30 * kSecond, 3, 8));  // different CID
  const auto hits = feed(IdwAccumulator(cid_n(7)), t).hits();
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].peer, peer_n(1));  // ordered by first request time
  EXPECT_EQ(hits[1].peer, peer_n(2));
}

TEST(Idw, CancelMarksLikelyDownload) {
  trace::Trace t;
  t.append(entry(10 * kSecond, 1, 7));
  t.append(entry(12 * kSecond, 1, 7, bitswap::WantType::Cancel));
  t.append(entry(20 * kSecond, 2, 7));  // no cancel: still waiting
  const auto hits = feed(IdwAccumulator(cid_n(7)), t).hits();
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_TRUE(hits[0].cancelled);
  EXPECT_FALSE(hits[1].cancelled);
}

TEST(Idw, SkipsFlaggedDuplicatesForTimes) {
  trace::Trace t;
  t.append(entry(10 * kSecond, 1, 7));
  auto rebroadcast = entry(40 * kSecond, 1, 7);
  rebroadcast.flags = trace::kRebroadcast;
  t.append(rebroadcast);
  const auto hits = feed(IdwAccumulator(cid_n(7)), t).hits();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].request_times.size(), 1u);
}

TEST(Idw, EmptyForUnknownCid) {
  trace::Trace t;
  t.append(entry(10 * kSecond, 1, 7));
  EXPECT_TRUE(feed(IdwAccumulator(cid_n(99)), t).hits().empty());
}

// --- TNW ------------------------------------------------------------------------

TEST(Tnw, ListsFullInterestHistoryInOrder) {
  trace::Trace t;
  t.append(entry(30 * kSecond, 5, 2));
  t.append(entry(10 * kSecond, 5, 1));
  t.append(entry(20 * kSecond, 6, 3));  // another node
  t.sort_by_time();
  const auto hits = feed(TnwAccumulator(peer_n(5)), t).hits();
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].cid, cid_n(1));
  EXPECT_EQ(hits[1].cid, cid_n(2));
}

TEST(Tnw, AggregatesRepeatObservations) {
  trace::Trace t;
  t.append(entry(10 * kSecond, 5, 1));
  t.append(entry(40 * kSecond, 5, 1));
  t.append(entry(70 * kSecond, 5, 1, bitswap::WantType::Cancel));
  const auto hits = feed(TnwAccumulator(peer_n(5)), t).hits();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].observations, 2u);
  EXPECT_EQ(hits[0].first_seen, 10 * kSecond);
  EXPECT_EQ(hits[0].last_seen, 40 * kSecond);
  EXPECT_TRUE(hits[0].cancelled);
}

TEST(Tnw, RecordsProtocolVersionOfFirstObservation) {
  trace::Trace t;
  t.append(entry(10 * kSecond, 5, 1, bitswap::WantType::WantBlock));
  const auto hits = feed(TnwAccumulator(peer_n(5)), t).hits();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].first_type, bitswap::WantType::WantBlock);
}

// --- TPI -------------------------------------------------------------------------------

class TpiTest : public ::testing::Test {
 protected:
  TpiTest()
      : prober_(fix_.network, crypto::KeyPair::generate(fix_.rng).peer_id(),
                fix_.network.geo().allocate_address("US"), "US") {}

  TpiOutcome probe_sync(const crypto::PeerId& target, const cid::Cid& c) {
    TpiOutcome outcome = TpiOutcome::Timeout;
    prober_.probe(target, c, [&](TpiOutcome o) { outcome = o; });
    fix_.run_for(30 * kSecond);
    return outcome;
  }

  SimFixture fix_{80};
  TpiProber prober_;
};

TEST_F(TpiTest, ConfirmsCachedContent) {
  auto& victim = fix_.make_node();
  victim.go_online({});
  const cid::Cid c = victim.add_bytes(util::bytes_of("private document"));
  EXPECT_EQ(probe_sync(victim.id(), c), TpiOutcome::Have);
}

TEST_F(TpiTest, DeniesUncachedContent) {
  auto& victim = fix_.make_node();
  victim.go_online({});
  EXPECT_EQ(probe_sync(victim.id(), cid_n(1)), TpiOutcome::DontHave);
}

TEST_F(TpiTest, DetectsDownloadedContent) {
  // The full attack story: the victim downloads something, the adversary
  // later confirms the download with a single probe.
  auto& provider = fix_.make_node();
  auto& victim = fix_.make_node();
  provider.go_online({});
  victim.go_online({provider.id()});
  fix_.run_for(10 * kSecond);
  const cid::Cid c = provider.add_bytes(util::bytes_of("visited page"));
  bool got = false;
  victim.fetch(c, [&](dag::BlockPtr b) { got = b != nullptr; });
  fix_.run_for(1 * kMinute);
  ASSERT_TRUE(got);
  EXPECT_EQ(probe_sync(victim.id(), c), TpiOutcome::Have);
}

TEST_F(TpiTest, CachePurgeDefeatsProbe) {
  auto& victim = fix_.make_node();
  victim.go_online({});
  const cid::Cid c = victim.add_bytes(util::bytes_of("purge me"));
  victim.blockstore().remove(c);  // the manual countermeasure
  EXPECT_EQ(probe_sync(victim.id(), c), TpiOutcome::DontHave);
}

TEST_F(TpiTest, ServeBlocksOffMakesProbeInconclusive) {
  node::NodeConfig hardened;
  hardened.serve_blocks = false;
  auto& victim = fix_.make_node(hardened);
  victim.go_online({});
  const cid::Cid c = victim.add_bytes(util::bytes_of("hidden cache"));
  // Engine answers DONT_HAVE even though the block is cached.
  EXPECT_EQ(probe_sync(victim.id(), c), TpiOutcome::DontHave);
}

TEST_F(TpiTest, UnreachableTarget) {
  auto& offline = fix_.make_node();
  EXPECT_EQ(probe_sync(offline.id(), cid_n(2)), TpiOutcome::Unreachable);
}

TEST(TpiOutcomeNames, AllNamed) {
  EXPECT_EQ(tpi_outcome_name(TpiOutcome::Have), "HAVE");
  EXPECT_EQ(tpi_outcome_name(TpiOutcome::DontHave), "DONT_HAVE");
  EXPECT_EQ(tpi_outcome_name(TpiOutcome::Timeout), "TIMEOUT");
  EXPECT_EQ(tpi_outcome_name(TpiOutcome::Unreachable), "UNREACHABLE");
}

// --- Gateway probing ---------------------------------------------------------------------

class GatewayProbeTest : public ::testing::Test {
 protected:
  GatewayProbeTest() {
    // A small network: bootstrap server, one monitor, one gateway.
    bootstrap_ = &fix_.make_node();
    bootstrap_->go_online({});
    monitor::MonitorConfig mon_config;
    mon_ = &fix_.make_monitor(mon_config);
    mon_->go_online({bootstrap_->id()});
    gw_ = &fix_.make_gateway();
    gw_->node().go_online({bootstrap_->id()});
    fix_.run_for(1 * kMinute);
    // The gateway must be connected to the monitor for its broadcast to be
    // observed (in the full system ambient discovery does this).
    fix_.network.dial(gw_->node().id(), mon_->id(), nullptr);
    fix_.run_for(10 * kSecond);
  }

  /// A prober baiting with the one monitor, on its own RNG stream.
  GatewayProber make_prober(const char* stream) {
    return GatewayProber(fix_.network, {mon_}, fix_.rng.fork(stream));
  }

  SimFixture fix_{81};
  node::IpfsNode* bootstrap_ = nullptr;
  monitor::PassiveMonitor* mon_ = nullptr;
  node::GatewayNode* gw_ = nullptr;
};

TEST_F(GatewayProbeTest, DiscoversGatewayNodeId) {
  GatewayProber prober = make_prober("probe");
  std::optional<GatewayProbeResult> result;
  prober.probe("test.gateway.example", *gw_,
               [&](GatewayProbeResult r) { result = std::move(r); });
  fix_.run_for(2 * kMinute);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->http_ok);
  ASSERT_EQ(result->discovered_nodes.size(), 1u);
  EXPECT_EQ(result->discovered_nodes[0], gw_->node().id());
  ASSERT_FALSE(result->discovered_addresses.empty());
  EXPECT_EQ(result->discovered_addresses[0], gw_->node().address());
}

TEST_F(GatewayProbeTest, ProbeCidIsUniquePerProbe) {
  GatewayProber prober = make_prober("probe2");
  std::optional<GatewayProbeResult> r1, r2;
  prober.probe("gw", *gw_, [&](GatewayProbeResult r) { r1 = std::move(r); });
  fix_.run_for(2 * kMinute);
  prober.probe("gw", *gw_, [&](GatewayProbeResult r) { r2 = std::move(r); });
  fix_.run_for(2 * kMinute);
  ASSERT_TRUE(r1 && r2);
  EXPECT_NE(r1->probe_cid, r2->probe_cid);
}

TEST_F(GatewayProbeTest, BrokenHttpGatewayStillIdentified) {
  GatewayProber prober = make_prober("probe3");
  std::optional<GatewayProbeResult> result;
  // The HTTP front never responds; some internal process still fetches the
  // CID over Bitswap (the paper's misconfigured gateways).
  prober.probe_with_trigger(
      "broken.example",
      [&](const cid::Cid& c) { gw_->node().fetch(c, nullptr); },
      [&](GatewayProbeResult r) { result = std::move(r); });
  fix_.run_for(2 * kMinute);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->http_ok);
  ASSERT_EQ(result->discovered_nodes.size(), 1u);
  EXPECT_EQ(result->discovered_nodes[0], gw_->node().id());
}

TEST_F(GatewayProbeTest, OneProbeOutcomeIsPinned) {
  GatewayProber prober = make_prober("probe4");
  std::optional<GatewayProbeResult> result;
  const util::SimTime started = fix_.scheduler.now();
  util::SimTime reported = 0;
  prober.probe("pinned.example", *gw_, [&](GatewayProbeResult r) {
    result = std::move(r);
    reported = fix_.scheduler.now();
  });
  fix_.run_for(2 * kMinute);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->probe_cid.to_string(),
            "bafkreiaiz47xbhgdripjnktrftah4gptql3vemft3a3mekomid7i2dhbia");
  EXPECT_TRUE(result->http_ok);
  ASSERT_EQ(result->discovered_nodes.size(), 1u);
  EXPECT_EQ(result->discovered_nodes[0], gw_->node().id());
  EXPECT_EQ(result->discovered_addresses.size(), 1u);
  EXPECT_EQ(reported - started, 30 * kSecond);
}

TEST(GatewayCensusTest, AggregatesAcrossRuns) {
  GatewayCensus census;
  GatewayProbeResult r1;
  r1.gateway_name = "big.example";
  r1.discovered_nodes = {peer_n(1), peer_n(2)};
  GatewayProbeResult r2;
  r2.gateway_name = "big.example";
  r2.discovered_nodes = {peer_n(2), peer_n(3)};  // overlap + new node
  GatewayProbeResult r3;
  r3.gateway_name = "small.example";
  r3.discovered_nodes = {peer_n(4)};
  census.record(r1);
  census.record(r2);
  census.record(r3);

  EXPECT_EQ(census.total_gateway_nodes(), 4u);
  EXPECT_EQ(census.nodes_of("big.example").size(), 3u);
  EXPECT_EQ(census.nodes_of("missing").size(), 0u);
  const auto multi = census.multi_node_gateways();
  ASSERT_EQ(multi.size(), 1u);
  EXPECT_EQ(multi[0].first, "big.example");
  EXPECT_EQ(multi[0].second, 3u);
}

// --- Content indexing (paper Sec. IV-A: "downloading and indexing d") -------

class IndexerTest : public ::testing::Test {
 protected:
  IndexerTest() {
    provider_ = &fix_.make_node();
    node::NodeConfig fast;
    fast.bitswap.fetch_timeout = 1 * kMinute;
    fetcher_ = &fix_.make_node(fast);
    provider_->go_online({});
    fetcher_->go_online({provider_->id()});
    fix_.run_for(10 * kSecond);
  }

  IndexedContent index_sync(const cid::Cid& c) {
    ContentIndexer indexer(*fetcher_);
    IndexedContent result;
    bool done = false;
    indexer.index(c, [&](IndexedContent r) {
      result = std::move(r);
      done = true;
    });
    fix_.run_for(3 * kMinute);
    EXPECT_TRUE(done);
    return result;
  }

  SimFixture fix_{85};
  node::IpfsNode* provider_ = nullptr;
  node::IpfsNode* fetcher_ = nullptr;
};

TEST_F(IndexerTest, ClassifiesRawLeaf) {
  const cid::Cid c = provider_->add_bytes(util::bytes_of("just bytes"));
  const auto result = index_sync(c);
  EXPECT_EQ(result.kind, ContentKind::RawData);
  EXPECT_EQ(result.block_count, 1u);
  EXPECT_EQ(result.total_bytes, 10u);
}

TEST_F(IndexerTest, ClassifiesChunkedFileAndSizesIt) {
  util::Bytes data(5000);
  fix_.rng.fill_bytes(data.data(), data.size());
  dag::BuilderOptions opts;
  opts.chunk_size = 1024;
  const auto built = provider_->add_file(data, opts);
  const auto result = index_sync(built.root);
  EXPECT_EQ(result.kind, ContentKind::File);
  EXPECT_EQ(result.block_count, built.blocks.size());
  EXPECT_EQ(result.total_bytes, built.total_size());
}

TEST_F(IndexerTest, ClassifiesDirectoryWithEntryNames) {
  const auto file_a = provider_->add_file(util::bytes_of("report body"));
  const auto dir = dag::build_directory({
      dag::DirEntry{"report.txt", file_a.root, 11},
      dag::DirEntry{"notes.md", file_a.root, 11},
  });
  std::vector<dag::BlockPtr> blocks;
  for (const auto& b : dir.blocks) {
    blocks.push_back(std::make_shared<dag::Block>(b));
  }
  provider_->add_blocks(blocks, dir.root);
  fix_.run_for(10 * kSecond);

  const auto result = index_sync(dir.root);
  EXPECT_EQ(result.kind, ContentKind::Directory);
  ASSERT_EQ(result.entries.size(), 2u);
  EXPECT_EQ(result.entries[0], "report.txt");
  EXPECT_EQ(result.entries[1], "notes.md");
}

TEST_F(IndexerTest, ClassifiesOtherIpld) {
  const cid::Cid c = provider_->add_bytes(util::bytes_of("{\"cbor\":1}"),
                                          cid::Multicodec::DagCBOR);
  const auto result = index_sync(c);
  EXPECT_EQ(result.kind, ContentKind::OtherIpld);
}

TEST_F(IndexerTest, ReportsUnresolvable) {
  const auto result = index_sync(cid_n(404));
  EXPECT_EQ(result.kind, ContentKind::Unresolvable);
  EXPECT_EQ(result.block_count, 0u);
}

TEST_F(IndexerTest, IndexAllClassifiesEveryTarget) {
  // Harvested CIDs: one real raw block, one dead CID.
  const cid::Cid real = provider_->add_bytes(util::bytes_of("harvested"));
  ContentIndexer indexer(*fetcher_);
  std::optional<IndexReport> report;
  indexer.index_all({real, cid_n(404)},
                    [&](IndexReport r) { report = std::move(r); });
  fix_.run_for(3 * kMinute);

  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->items.size(), 2u);
  EXPECT_EQ(report->count_of(ContentKind::RawData), 1u);
  EXPECT_EQ(report->count_of(ContentKind::Unresolvable), 1u);
  EXPECT_NEAR(report->resolvable_share(), 0.5, 1e-9);
  EXPECT_EQ(indexer.fetches_issued(), 2u);
}

TEST(IndexerNames, AllKindsNamed) {
  EXPECT_EQ(content_kind_name(ContentKind::RawData), "raw-data");
  EXPECT_EQ(content_kind_name(ContentKind::File), "file");
  EXPECT_EQ(content_kind_name(ContentKind::Directory), "directory");
  EXPECT_EQ(content_kind_name(ContentKind::OtherIpld), "other-ipld");
  EXPECT_EQ(content_kind_name(ContentKind::Unresolvable), "unresolvable");
}

}  // namespace
}  // namespace ipfsmon::attacks
