// Node-level behaviour: blockstore (LRU, pinning, GC), content add/fetch,
// caching semantics, DAG fetches, connection management, and gateways.
#include <gtest/gtest.h>

#include "node/blockstore.hpp"
#include "test_helpers.hpp"

namespace ipfsmon::node {
namespace {

using testing_helpers::SimFixture;
using util::kHour;
using util::kMinute;
using util::kSecond;

dag::BlockPtr block_of(std::string_view s) {
  return std::make_shared<dag::Block>(dag::Block::raw(util::bytes_of(s)));
}

// --- Blockstore -----------------------------------------------------------------

TEST(Blockstore, PutGetHas) {
  Blockstore store;
  const auto b = block_of("content");
  EXPECT_TRUE(store.put(b));
  EXPECT_TRUE(store.has(b->id()));
  EXPECT_EQ(store.get(b->id()), b);
  EXPECT_EQ(store.block_count(), 1u);
  EXPECT_EQ(store.size_bytes(), b->size());
}

TEST(Blockstore, PutIsIdempotent) {
  Blockstore store;
  const auto b = block_of("once");
  store.put(b);
  store.put(b);
  EXPECT_EQ(store.block_count(), 1u);
  EXPECT_EQ(store.size_bytes(), b->size());
}

TEST(Blockstore, GetMissingReturnsNull) {
  Blockstore store;
  EXPECT_EQ(store.get(block_of("ghost")->id()), nullptr);
}

TEST(Blockstore, EvictsLruWhenOverCapacity) {
  Blockstore store(/*capacity=*/20);
  const auto a = block_of("aaaaaaaa");  // 8 bytes
  const auto b = block_of("bbbbbbbb");
  const auto c = block_of("cccccccc");
  store.put(a);
  store.put(b);
  store.put(c);  // 24 bytes > 20: evict LRU (a)
  EXPECT_FALSE(store.has(a->id()));
  EXPECT_TRUE(store.has(b->id()));
  EXPECT_TRUE(store.has(c->id()));
  EXPECT_EQ(store.evictions(), 1u);
}

TEST(Blockstore, GetRefreshesRecency) {
  Blockstore store(20);
  const auto a = block_of("aaaaaaaa");
  const auto b = block_of("bbbbbbbb");
  store.put(a);
  store.put(b);
  store.get(a->id());   // a becomes MRU
  store.put(block_of("cccccccc"));  // evicts b, not a
  EXPECT_TRUE(store.has(a->id()));
  EXPECT_FALSE(store.has(b->id()));
}

TEST(Blockstore, PinnedBlocksSurviveGc) {
  Blockstore store(20);
  const auto precious = block_of("pppppppp");
  store.pin(precious->id());
  store.put(precious);
  store.put(block_of("xxxxxxxx"));
  store.put(block_of("yyyyyyyy"));  // must evict the unpinned one
  EXPECT_TRUE(store.has(precious->id()));
  EXPECT_TRUE(store.is_pinned(precious->id()));
}

TEST(Blockstore, UnpinMakesEvictable) {
  Blockstore store(16);
  const auto a = block_of("aaaaaaaa");
  store.pin(a->id());
  store.put(a);
  store.unpin(a->id());
  store.put(block_of("bbbbbbbb"));
  store.put(block_of("cccccccc"));
  EXPECT_FALSE(store.has(a->id()));
}

TEST(Blockstore, OversizedBlockRejected) {
  Blockstore store(4);
  EXPECT_FALSE(store.put(block_of("way too large")));
  EXPECT_EQ(store.block_count(), 0u);
}

TEST(Blockstore, RemovePurgesEvenPinned) {
  Blockstore store;
  const auto b = block_of("sensitive");
  store.pin(b->id());
  store.put(b);
  store.remove(b->id());  // the manual TPI countermeasure
  EXPECT_FALSE(store.has(b->id()));
  EXPECT_EQ(store.size_bytes(), 0u);
}

TEST(Blockstore, ZeroCapacityMeansUnbounded) {
  Blockstore store(0);
  for (int i = 0; i < 100; ++i) {
    store.put(block_of("block " + std::to_string(i)));
  }
  EXPECT_EQ(store.block_count(), 100u);
  EXPECT_EQ(store.evictions(), 0u);
}

TEST(Blockstore, PinnedCidsListed) {
  Blockstore store;
  const auto a = block_of("a");
  const auto b = block_of("b");
  store.pin(a->id());
  store.pin(b->id());
  EXPECT_EQ(store.pinned_cids().size(), 2u);
}

// --- IpfsNode --------------------------------------------------------------------

TEST(IpfsNode, AddBytesStoresPinsAndReturnsCid) {
  SimFixture fix(60);
  auto& n = fix.make_node();
  n.go_online({});
  const cid::Cid c = n.add_bytes(util::bytes_of("mine"));
  EXPECT_TRUE(n.blockstore().has(c));
  EXPECT_TRUE(n.blockstore().is_pinned(c));
}

TEST(IpfsNode, FetchServedFromLocalCacheWithoutNetwork) {
  SimFixture fix(61);
  auto& n = fix.make_node();
  n.go_online({});
  const cid::Cid c = n.add_bytes(util::bytes_of("local"));
  dag::BlockPtr got;
  n.fetch(c, [&](dag::BlockPtr b) { got = std::move(b); });
  // Resolves synchronously — no simulated time needed, no Bitswap.
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(fix.total("ipfsmon_bitswap_fetches_started_total"), 0u);
}

TEST(IpfsNode, SecondFetchIsInvisibleToTheNetwork) {
  SimFixture fix(62);
  auto& provider = fix.make_node();
  auto& requester = fix.make_node();
  provider.go_online({});
  requester.go_online({provider.id()});
  fix.run_for(10 * kSecond);
  const cid::Cid c = provider.add_bytes(util::bytes_of("cache me"));

  int fetched = 0;
  requester.fetch(c, [&](dag::BlockPtr b) { fetched += b != nullptr; });
  fix.run_for(30 * kSecond);
  ASSERT_EQ(fetched, 1);
  EXPECT_EQ(fix.total("ipfsmon_bitswap_fetches_started_total"), 1u);

  // Second fetch: cache hit — the paper's "we only observe first requests".
  requester.fetch(c, [&](dag::BlockPtr b) { fetched += b != nullptr; });
  EXPECT_EQ(fetched, 2);
  EXPECT_EQ(fix.total("ipfsmon_bitswap_fetches_started_total"), 1u);
}

TEST(IpfsNode, DownloadedContentIsReprovidedByDefault) {
  SimFixture fix(63);
  auto& provider = fix.make_node();
  auto& middle = fix.make_node();
  auto& late = fix.make_node();
  provider.go_online({});
  middle.go_online({provider.id()});
  late.go_online({provider.id()});
  fix.run_for(30 * kSecond);

  const cid::Cid c = provider.add_bytes(util::bytes_of("viral"));
  bool middle_got = false;
  middle.fetch(c, [&](dag::BlockPtr b) { middle_got = b != nullptr; });
  fix.run_for(1 * kMinute);
  ASSERT_TRUE(middle_got);

  // Original provider leaves; the cached copy must still satisfy others.
  provider.go_offline();
  fix.run_for(10 * kSecond);
  EXPECT_TRUE(fix.connect(late, middle));
  bool late_got = false;
  late.fetch(c, [&](dag::BlockPtr b) { late_got = b != nullptr; });
  fix.run_for(2 * kMinute);
  EXPECT_TRUE(late_got);
}

TEST(IpfsNode, NoProvideCountermeasureStopsReproviding) {
  SimFixture fix(64);
  node::NodeConfig private_node;
  private_node.provide_downloaded = false;
  auto& provider = fix.make_node();
  auto& cautious = fix.make_node(private_node);
  provider.go_online({});
  cautious.go_online({provider.id()});
  fix.run_for(10 * kSecond);
  const cid::Cid c = provider.add_bytes(util::bytes_of("private read"));
  bool got = false;
  cautious.fetch(c, [&](dag::BlockPtr b) { got = b != nullptr; });
  fix.run_for(1 * kMinute);
  ASSERT_TRUE(got);
  // Cached but NOT announced: find_providers from a third node (connected
  // only to cautious via DHT) should see only the original provider.
  auto& third = fix.make_node();
  third.go_online({provider.id()});
  fix.run_for(1 * kMinute);
  std::vector<dht::PeerRecord> providers;
  third.dht().find_providers(c, [&](std::vector<dht::PeerRecord> r) {
    providers = std::move(r);
  });
  fix.run_for(1 * kMinute);
  for (const auto& p : providers) {
    EXPECT_NE(p.id, cautious.id()) << "countermeasure leaked a provider record";
  }
}

TEST(IpfsNode, AddFileAndFetchDagAcrossNodes) {
  SimFixture fix(65);
  auto& publisher = fix.make_node();
  auto& reader = fix.make_node();
  publisher.go_online({});
  reader.go_online({publisher.id()});
  fix.run_for(10 * kSecond);

  util::Bytes data(10000);
  fix.rng.fill_bytes(data.data(), data.size());
  dag::BuilderOptions opts;
  opts.chunk_size = 1024;
  const auto built = publisher.add_file(data, opts);
  ASSERT_GT(built.blocks.size(), 2u);

  std::size_t fetched = 0;
  bool complete = false;
  reader.fetch_dag(built.root, [&](std::size_t blocks, bool ok) {
    fetched = blocks;
    complete = ok;
  });
  fix.run_for(2 * kMinute);
  EXPECT_TRUE(complete);
  EXPECT_EQ(fetched, built.blocks.size());
  // Every block landed in the reader's cache.
  for (const auto& b : built.blocks) {
    EXPECT_TRUE(reader.blockstore().has(b.id()));
  }
}

TEST(IpfsNode, FetchDagOfCachedRootCompletesLocally) {
  SimFixture fix(66);
  auto& n = fix.make_node();
  n.go_online({});
  const auto built = n.add_file(util::bytes_of("small file"));
  bool complete = false;
  n.fetch_dag(built.root, [&](std::size_t, bool ok) { complete = ok; });
  EXPECT_TRUE(complete);
}

TEST(IpfsNode, OfflineFetchFailsImmediately) {
  SimFixture fix(67);
  auto& n = fix.make_node();
  bool failed = false;
  n.fetch(cid::Cid::of_data(cid::Multicodec::Raw, util::bytes_of("x")),
          [&](dag::BlockPtr b) { failed = b == nullptr; });
  EXPECT_TRUE(failed);
}

TEST(IpfsNode, MaxDegreeLimitsInboundConnections) {
  SimFixture fix(68);
  node::NodeConfig tiny;
  tiny.max_degree = 3;
  tiny.discovery_dials = 0;
  auto& hub = fix.make_node(tiny);
  hub.go_online({});
  std::vector<node::IpfsNode*> dialers;
  for (int i = 0; i < 6; ++i) {
    auto& d = fix.make_node();
    d.go_online({});
    dialers.push_back(&d);
  }
  int accepted = 0;
  for (auto* d : dialers) {
    if (fix.connect(*d, hub)) ++accepted;
  }
  EXPECT_EQ(accepted, 3);
  EXPECT_EQ(fix.network.connection_count(hub.id()), 3u);
}

TEST(IpfsNode, ConnectionManagerTrimsAboveHighWater) {
  SimFixture fix(69);
  node::NodeConfig managed;
  managed.high_water = 4;
  managed.low_water = 2;
  managed.discovery_interval = 30 * kSecond;
  managed.target_degree = 0;  // no dialing of its own
  auto& n = fix.make_node(managed);
  n.go_online({});
  for (int i = 0; i < 8; ++i) {
    auto& peer = fix.make_node();
    peer.go_online({});
    fix.connect(peer, n);
  }
  // (Trim rounds may already fire while the dialers connect.)
  fix.run_for(2 * kMinute);  // trim rounds fire
  EXPECT_LE(fix.network.connection_count(n.id()), 4u);
  EXPECT_GE(fix.network.connection_count(n.id()), 2u);
}

TEST(IpfsNode, GoOfflineDropsConnectionsKeepsCache) {
  SimFixture fix(70);
  auto& provider = fix.make_node();
  auto& n = fix.make_node();
  provider.go_online({});
  n.go_online({provider.id()});
  fix.run_for(10 * kSecond);
  const cid::Cid c = provider.add_bytes(util::bytes_of("sticky"));
  bool got = false;
  n.fetch(c, [&](dag::BlockPtr b) { got = b != nullptr; });
  fix.run_for(1 * kMinute);
  ASSERT_TRUE(got);
  n.go_offline();
  EXPECT_EQ(fix.network.connection_count(n.id()), 0u);
  EXPECT_TRUE(n.blockstore().has(c));  // cache persists across restarts
}

TEST(IpfsNode, TrimProtectsOldConnections) {
  SimFixture fix(74);
  node::NodeConfig managed;
  managed.high_water = 4;
  managed.low_water = 2;
  managed.trim_protect_age = 30 * kMinute;
  managed.discovery_interval = 10 * kMinute;
  managed.target_degree = 0;
  auto& n = fix.make_node(managed);
  n.go_online({});

  // Two old friends connect first...
  auto& old1 = fix.make_node();
  auto& old2 = fix.make_node();
  old1.go_online({});
  old2.go_online({});
  fix.connect(old1, n);
  fix.connect(old2, n);
  fix.run_for(1 * kHour);  // they age past the protection threshold

  // ...then a crowd of newcomers pushes the count over high water.
  for (int i = 0; i < 6; ++i) {
    auto& young = fix.make_node();
    young.go_online({});
    fix.connect(young, n);
  }
  fix.run_for(30 * kMinute);  // trim rounds fire

  // The aged connections survived every trim.
  EXPECT_TRUE(fix.network.connection_between(n.id(), old1.id()).has_value());
  EXPECT_TRUE(fix.network.connection_between(n.id(), old2.id()).has_value());
}

TEST(IpfsNode, TrimWithoutProtectionEventuallyDropsEveryone) {
  SimFixture fix(75);
  node::NodeConfig managed;
  managed.high_water = 3;
  managed.low_water = 1;
  managed.trim_protect_age = 0;  // protect nothing
  managed.discovery_interval = 5 * kMinute;
  managed.target_degree = 0;
  auto& n = fix.make_node(managed);
  n.go_online({});
  for (int i = 0; i < 6; ++i) {
    auto& peer = fix.make_node();
    peer.go_online({});
    fix.connect(peer, n);
  }
  fix.run_for(30 * kMinute);
  EXPECT_LE(fix.network.connection_count(n.id()), 3u);
}

// --- GatewayNode -------------------------------------------------------------------

TEST(Gateway, MissFetchesViaBitswapThenCaches) {
  SimFixture fix(71);
  auto& provider = fix.make_node();
  provider.go_online({});
  auto& gw = fix.make_gateway();
  gw.node().go_online({provider.id()});
  fix.run_for(10 * kSecond);
  const cid::Cid c = provider.add_bytes(util::bytes_of("web content"));

  bool ok = false, hit = true;
  gw.handle_http_request(c, [&](bool o, bool h) {
    ok = o;
    hit = h;
  });
  fix.run_for(1 * kMinute);
  EXPECT_TRUE(ok);
  EXPECT_FALSE(hit);
  EXPECT_EQ(gw.bitswap_fetches(), 1u);

  // Second request within the TTL: pure cache hit, no Bitswap.
  bool ok2 = false, hit2 = false;
  gw.handle_http_request(c, [&](bool o, bool h) {
    ok2 = o;
    hit2 = h;
  });
  EXPECT_TRUE(ok2);
  EXPECT_TRUE(hit2);
  EXPECT_EQ(gw.bitswap_fetches(), 1u);
  EXPECT_DOUBLE_EQ(gw.cache_hit_ratio(), 0.5);
}

TEST(Gateway, TtlExpiryTriggersRevalidationBitswap) {
  SimFixture fix(72);
  auto& provider = fix.make_node();
  provider.go_online({});
  auto& gw = fix.make_gateway();
  gw.node().go_online({provider.id()});
  fix.run_for(10 * kSecond);
  const cid::Cid c = provider.add_bytes(util::bytes_of("expiring"));

  gw.handle_http_request(c, nullptr);
  fix.run_for(30 * kSecond);
  EXPECT_EQ(gw.bitswap_fetches(), 1u);

  fix.run_for(7 * kHour);  // the 6 h TTL passes
  bool hit = false;
  gw.handle_http_request(c, [&](bool, bool h) { hit = h; });
  fix.run_for(30 * kSecond);
  // Served stale from cache, but a revalidation Bitswap request went out —
  // this is why monitors still observe even heavily cached CIDs.
  EXPECT_TRUE(hit);
  EXPECT_EQ(gw.bitswap_fetches(), 2u);
}

TEST(Gateway, FailedFetchReportsNotOk) {
  SimFixture fix(73);
  node::NodeConfig fast;
  fast.bitswap.fetch_timeout = 1 * kMinute;
  auto& gw = fix.make_gateway(fast);
  gw.node().go_online({});
  bool ok = true;
  gw.handle_http_request(
      cid::Cid::of_data(cid::Multicodec::Raw, util::bytes_of("nonexistent")),
      [&](bool o, bool) { ok = o; });
  fix.run_for(3 * kMinute);
  EXPECT_FALSE(ok);
}

}  // namespace
}  // namespace ipfsmon::node
