// Kademlia substrate: XOR keys, routing table, provider store, iterative
// lookups over real (simulated) networks, server/client distinction, and
// the DHT crawler's visibility limits.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>

#include "dht/crawler.hpp"
#include "dht/dht_node.hpp"
#include "dht/key.hpp"
#include "dht/provider_store.hpp"
#include "dht/routing_table.hpp"
#include "test_helpers.hpp"

namespace ipfsmon::dht {
namespace {

using testing_helpers::SimFixture;
using util::kHour;
using util::kMinute;
using util::kSecond;

crypto::PeerId random_peer(util::RngStream& rng) {
  return crypto::KeyPair::generate(rng).peer_id();
}

// --- keys --------------------------------------------------------------------

TEST(Key, XorDistanceProperties) {
  util::RngStream rng(1, "key");
  const Key a = key_of(random_peer(rng));
  const Key b = key_of(random_peer(rng));
  const Key zero{};
  EXPECT_EQ(xor_distance(a, a), zero);                // identity
  EXPECT_EQ(xor_distance(a, b), xor_distance(b, a));  // symmetry
}

TEST(Key, CloserIsConsistentWithXorMetric) {
  Key target{}, near_key{}, far_key{};
  near_key[31] = 1;   // differs in the last bit
  far_key[0] = 0x80;  // differs in the first bit
  EXPECT_TRUE(closer(near_key, far_key, target));
  EXPECT_FALSE(closer(far_key, near_key, target));
  EXPECT_FALSE(closer(near_key, near_key, target));  // strict
}

TEST(Key, CommonPrefixLength) {
  Key a{}, b{};
  EXPECT_EQ(common_prefix_length(a, b), 256);
  b[0] = 0x80;
  EXPECT_EQ(common_prefix_length(a, b), 0);
  b[0] = 0x01;
  EXPECT_EQ(common_prefix_length(a, b), 7);
  b[0] = 0;
  b[10] = 0x10;
  EXPECT_EQ(common_prefix_length(a, b), 80 + 3);
}

TEST(Key, CidKeyIsStable) {
  const cid::Cid c =
      cid::Cid::of_data(cid::Multicodec::Raw, util::bytes_of("data"));
  EXPECT_EQ(key_of(c), key_of(c));
}

// --- routing table ---------------------------------------------------------

TEST(RoutingTable, AddAndContains) {
  util::RngStream rng(2, "rt");
  const crypto::PeerId self = random_peer(rng);
  RoutingTable table(self);
  const crypto::PeerId peer = random_peer(rng);
  EXPECT_TRUE(table.add(peer));
  EXPECT_TRUE(table.contains(peer));
  EXPECT_EQ(table.size(), 1u);
  // Re-adding refreshes, doesn't duplicate.
  EXPECT_TRUE(table.add(peer));
  EXPECT_EQ(table.size(), 1u);
}

TEST(RoutingTable, NeverAddsSelf) {
  util::RngStream rng(3, "rt2");
  const crypto::PeerId self = random_peer(rng);
  RoutingTable table(self);
  EXPECT_FALSE(table.add(self));
  EXPECT_EQ(table.size(), 0u);
}

TEST(RoutingTable, RemoveDropsPeer) {
  util::RngStream rng(4, "rt3");
  RoutingTable table(random_peer(rng));
  const crypto::PeerId peer = random_peer(rng);
  table.add(peer);
  table.remove(peer);
  EXPECT_FALSE(table.contains(peer));
  EXPECT_EQ(table.size(), 0u);
}

TEST(RoutingTable, BucketCapacityIsEnforced) {
  util::RngStream rng(5, "rt4");
  const crypto::PeerId self = random_peer(rng);
  RoutingTable table(self, /*bucket_size=*/4);
  // Random peers overwhelmingly land in the first couple of buckets;
  // additions must start failing once those fill.
  int rejected = 0;
  for (int i = 0; i < 100; ++i) {
    if (!table.add(random_peer(rng))) ++rejected;
  }
  EXPECT_GT(rejected, 0);
  EXPECT_LE(table.size(), 100u - static_cast<unsigned>(rejected));
}

TEST(RoutingTable, ClosestReturnsSortedByDistance) {
  util::RngStream rng(6, "rt5");
  const crypto::PeerId self = random_peer(rng);
  RoutingTable table(self);
  for (int i = 0; i < 50; ++i) table.add(random_peer(rng));
  const Key target = key_of(random_peer(rng));
  const auto closest = table.closest(target, 10);
  ASSERT_EQ(closest.size(), 10u);
  for (std::size_t i = 1; i < closest.size(); ++i) {
    EXPECT_FALSE(
        closer(key_of(closest[i].id), key_of(closest[i - 1].id), target));
  }
}

TEST(RoutingTable, ClosestHandlesSmallTables) {
  util::RngStream rng(7, "rt6");
  RoutingTable table(random_peer(rng));
  table.add(random_peer(rng));
  EXPECT_EQ(table.closest(key_of(random_peer(rng)), 20).size(), 1u);
  EXPECT_EQ(table.all_peers().size(), 1u);
}

/// A key sharing exactly `cpl` leading bits with `base` (cpl < 256), the
/// rest random: lands in routing-table bucket `cpl`.
Key key_with_prefix(const Key& base, int cpl, util::RngStream& rng) {
  Key key{};
  rng.fill_bytes(key.data(), key.size());
  const auto byte = static_cast<std::size_t>(cpl / 8);
  const int bit = 7 - cpl % 8;
  for (std::size_t i = 0; i < byte; ++i) key[i] = base[i];
  const auto keep = static_cast<std::uint8_t>(0xff << (bit + 1));
  key[byte] = static_cast<std::uint8_t>((base[byte] & keep) |
                                        (~base[byte] & (1u << bit)) |
                                        (key[byte] & ((1u << bit) - 1)));
  return key;
}

TEST(RoutingTable, ClosestMatchesFullSort) {
  util::RngStream rng(9, "rt-closest");
  int checked = 0;
  for (const std::size_t bucket_size : {std::size_t{20}, std::size_t{4}}) {
    for (const int attempts : {0, 1, 3, 20, 60, 150, 500}) {
      const crypto::PeerId self = random_peer(rng);
      const Key self_key = key_of(self);
      RoutingTable table(self, bucket_size);
      std::unordered_map<crypto::PeerId, std::uint32_t> node_of;
      // Half uniformly random peers (shallow buckets), half with a random
      // shared prefix so deep buckets fill too.
      for (int n = 0; n < attempts; ++n) {
        const Key key =
            n % 2 == 0 ? key_of(random_peer(rng))
                       : key_with_prefix(self_key,
                                         static_cast<int>(rng.uniform_index(256)),
                                         rng);
        const auto node = static_cast<std::uint32_t>(n);
        // Deep prefixes can repeat a key: a re-add refreshes the entry and
        // keeps the tag it was inserted with.
        if (table.add(crypto::PeerId(key), node)) {
          node_of.try_emplace(crypto::PeerId(key), node);
        }
      }
      const std::vector<crypto::PeerId> members = table.all_peers();
      ASSERT_EQ(members.size(), table.size());

      std::vector<Key> targets = {self_key};  // cpl 256, clamped to 255
      for (int t = 0; t < 8; ++t) targets.push_back(key_of(random_peer(rng)));
      for (int t = 0; t < 8; ++t) {
        targets.push_back(key_with_prefix(
            self_key, static_cast<int>(rng.uniform_index(256)), rng));
      }
      if (!members.empty()) {
        targets.push_back(key_of(members[rng.uniform_index(members.size())]));
      }
      for (const Key& target : targets) {
        // Reference order: byte-wise comparison of the XOR distances.
        std::vector<crypto::PeerId> reference = members;
        std::sort(reference.begin(), reference.end(),
                  [&target](const crypto::PeerId& a, const crypto::PeerId& b) {
                    return xor_distance(key_of(a), target) <
                           xor_distance(key_of(b), target);
                  });
        for (const std::size_t count :
             {std::size_t{0}, std::size_t{1}, bucket_size, members.size() + 5}) {
          const auto got = table.closest(target, count);
          const std::size_t want = std::min(count, reference.size());
          ASSERT_EQ(got.size(), want);
          for (std::size_t i = 0; i < want; ++i) {
            ASSERT_EQ(got[i].id, reference[i])
                << "bucket_size " << bucket_size << " size " << members.size()
                << " count " << count << " rank " << i;
            EXPECT_EQ(got[i].node, node_of.at(reference[i]));  // kept tag
          }
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 0);
}

// --- provider store ----------------------------------------------------------

TEST(ProviderStore, AddAndGet) {
  util::RngStream rng(8, "ps");
  ProviderStore store(1 * kHour);
  const Key key = key_of(random_peer(rng));
  const PeerRecord provider{random_peer(rng), net::Address{1, 1}};
  store.add(key, provider, /*now=*/0);
  const auto found = store.get(key, 30 * kMinute);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].id, provider.id);
}

TEST(ProviderStore, RecordsExpire) {
  util::RngStream rng(9, "ps2");
  ProviderStore store(1 * kHour);
  const Key key = key_of(random_peer(rng));
  store.add(key, PeerRecord{random_peer(rng), {}}, 0);
  EXPECT_EQ(store.get(key, 2 * kHour).size(), 0u);
}

TEST(ProviderStore, ReAddRefreshesExpiry) {
  util::RngStream rng(10, "ps3");
  ProviderStore store(1 * kHour);
  const Key key = key_of(random_peer(rng));
  const PeerRecord provider{random_peer(rng), {}};
  store.add(key, provider, 0);
  store.add(key, provider, 50 * kMinute);  // refresh
  EXPECT_EQ(store.get(key, 100 * kMinute).size(), 1u);
  EXPECT_EQ(store.get(key, 120 * kMinute).size(), 0u);
}

TEST(ProviderStore, MultipleProvidersPerKey) {
  util::RngStream rng(11, "ps4");
  ProviderStore store;
  const Key key = key_of(random_peer(rng));
  for (int i = 0; i < 5; ++i) {
    store.add(key, PeerRecord{random_peer(rng), {}}, 0);
  }
  EXPECT_EQ(store.get(key, 1).size(), 5u);
}

TEST(ProviderStore, SweepDropsExpiredKeys) {
  util::RngStream rng(12, "ps5");
  ProviderStore store(1 * kHour);
  store.add(key_of(random_peer(rng)), PeerRecord{random_peer(rng), {}}, 0);
  EXPECT_EQ(store.key_count(), 1u);
  store.sweep(2 * kHour);
  EXPECT_EQ(store.key_count(), 0u);
}

// --- DhtNode over a simulated network ---------------------------------------

/// Builds `count` online server nodes, all bootstrapped off node 0, and
/// lets the DHT settle.
std::vector<node::IpfsNode*> make_dht_network(SimFixture& fix,
                                              std::size_t count) {
  std::vector<node::IpfsNode*> nodes;
  node::NodeConfig config;
  config.dht_server = true;
  config.discovery_dials = 0;  // isolate DHT behaviour from discovery
  for (std::size_t i = 0; i < count; ++i) {
    nodes.push_back(&fix.make_node(config));
  }
  nodes[0]->go_online({});
  for (std::size_t i = 1; i < count; ++i) {
    nodes[i]->go_online({nodes[0]->id()});
  }
  fix.run_for(30 * kMinute);  // a couple of refresh cycles
  return nodes;
}

TEST(DhtNode, BootstrapPopulatesRoutingTables) {
  SimFixture fix(20);
  auto nodes = make_dht_network(fix, 12);
  for (auto* n : nodes) {
    EXPECT_GE(n->dht().routing_table().size(), 5u) << n->id().short_hex();
  }
}

TEST(DhtNode, FindClosestConvergesToTrueClosest) {
  SimFixture fix(21);
  auto nodes = make_dht_network(fix, 30);
  const Key target =
      key_of(cid::Cid::of_data(cid::Multicodec::Raw, util::bytes_of("target")));
  // Ground truth: sort all server ids by distance.
  std::vector<crypto::PeerId> all;
  for (auto* n : nodes) all.push_back(n->id());
  std::sort(all.begin(), all.end(),
            [&](const crypto::PeerId& a, const crypto::PeerId& b) {
              return closer(key_of(a), key_of(b), target);
            });

  std::vector<PeerRecord> result;
  nodes[5]->dht().find_closest(
      target, [&](std::vector<PeerRecord> r) { result = std::move(r); });
  fix.run_for(2 * kMinute);
  ASSERT_GE(result.size(), 5u);
  EXPECT_LE(result.size(), kBucketSize);
  // The lookup's best hit should be the globally closest node (excluding
  // the querier itself, which cannot appear in its own result).
  const crypto::PeerId best = all[0] == nodes[5]->id() ? all[1] : all[0];
  EXPECT_EQ(result[0].id, best);
}

TEST(DhtNode, ProvideThenFindProviders) {
  SimFixture fix(22);
  auto nodes = make_dht_network(fix, 15);
  const cid::Cid content =
      cid::Cid::of_data(cid::Multicodec::Raw, util::bytes_of("the content"));
  nodes[3]->dht().provide(content, nodes[3]->address());
  fix.run_for(2 * kMinute);

  std::vector<PeerRecord> providers;
  nodes[9]->dht().find_providers(
      content, [&](std::vector<PeerRecord> r) { providers = std::move(r); });
  fix.run_for(2 * kMinute);
  ASSERT_EQ(providers.size(), 1u);
  EXPECT_EQ(providers[0].id, nodes[3]->id());
  EXPECT_EQ(providers[0].address, nodes[3]->address());
}

TEST(DhtNode, FindProvidersEmptyForUnknownContent) {
  SimFixture fix(23);
  auto nodes = make_dht_network(fix, 10);
  bool called = false;
  nodes[2]->dht().find_providers(
      cid::Cid::of_data(cid::Multicodec::Raw, util::bytes_of("nothing")),
      [&](std::vector<PeerRecord> r) {
        called = true;
        EXPECT_TRUE(r.empty());
      });
  fix.run_for(2 * kMinute);
  EXPECT_TRUE(called);
}

TEST(DhtNode, ClientsAreNotInsertedIntoRoutingTables) {
  SimFixture fix(24);
  node::NodeConfig server_config;
  server_config.discovery_dials = 0;
  node::NodeConfig client_config = server_config;
  client_config.nat = true;  // NAT ⇒ DHT client

  auto& server = fix.make_node(server_config);
  auto& client = fix.make_node(client_config);
  server.go_online({});
  client.go_online({server.id()});
  fix.run_for(10 * kMinute);

  EXPECT_FALSE(client.dht().is_server());
  // The client knows the server...
  EXPECT_TRUE(client.dht().routing_table().contains(server.id()));
  // ...but the server must NOT have the client in its k-buckets.
  EXPECT_FALSE(server.dht().routing_table().contains(client.id()));
}

TEST(DhtNode, StopFailsPendingLookups) {
  SimFixture fix(26);
  auto nodes = make_dht_network(fix, 10);
  bool called = false;
  nodes[1]->dht().find_closest(key_of(random_peer(fix.rng)),
                               [&](std::vector<PeerRecord>) { called = true; });
  nodes[1]->go_offline();  // stops the DHT: pending RPCs fail
  fix.run_for(1 * kMinute);
  EXPECT_TRUE(called);
}

TEST(DhtNode, UnreachablePeersEvictedFromTable) {
  SimFixture fix(27);
  auto nodes = make_dht_network(fix, 10);
  const crypto::PeerId victim = nodes[4]->id();
  nodes[4]->go_offline();
  // Trigger lookups that will try to contact the dead node.
  for (int round = 0; round < 4; ++round) {
    nodes[1]->dht().find_closest(key_of(victim), nullptr);
    fix.run_for(2 * kMinute);
  }
  EXPECT_FALSE(nodes[1]->dht().routing_table().contains(victim));
}

TEST(DhtNode, ProviderRecordsExpireEndToEnd) {
  SimFixture fix(33);
  node::NodeConfig config;
  config.discovery_dials = 0;
  config.dht.provider_ttl = 2 * kHour;
  config.reprovide_interval = 100 * kHour;  // never within the test
  std::vector<node::IpfsNode*> nodes;
  for (int i = 0; i < 10; ++i) nodes.push_back(&fix.make_node(config));
  nodes[0]->go_online({});
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    nodes[i]->go_online({nodes[0]->id()});
  }
  fix.run_for(20 * kMinute);

  const cid::Cid c = nodes[2]->add_bytes(util::bytes_of("will expire"));
  fix.run_for(2 * kMinute);
  std::vector<PeerRecord> fresh;
  nodes[7]->dht().find_providers(
      c, [&](std::vector<PeerRecord> r) { fresh = std::move(r); });
  fix.run_for(1 * kMinute);
  ASSERT_FALSE(fresh.empty());

  // After the TTL (and no reproviding), the records are gone.
  fix.run_for(3 * kHour);
  std::vector<PeerRecord> stale{PeerRecord{}};
  nodes[7]->dht().find_providers(
      c, [&](std::vector<PeerRecord> r) { stale = std::move(r); });
  fix.run_for(1 * kMinute);
  EXPECT_TRUE(stale.empty());
}

// --- crawler -------------------------------------------------------------------

/// A crawler on its own RNG stream, as exp_network_size builds one.
DhtCrawler make_crawler(SimFixture& fix, const std::string& country,
                        const char* stream) {
  return DhtCrawler(fix.network, random_peer(fix.rng),
                    fix.network.geo().allocate_address(country), country,
                    fix.rng.fork(stream));
}

TEST(Crawler, EnumeratesServersButNotClients) {
  SimFixture fix(28);
  node::NodeConfig server_config;
  server_config.discovery_dials = 0;
  node::NodeConfig client_config = server_config;
  client_config.nat = true;

  std::vector<node::IpfsNode*> servers, clients;
  for (int i = 0; i < 12; ++i) servers.push_back(&fix.make_node(server_config));
  for (int i = 0; i < 5; ++i) clients.push_back(&fix.make_node(client_config));
  servers[0]->go_online({});
  for (std::size_t i = 1; i < servers.size(); ++i) {
    servers[i]->go_online({servers[0]->id()});
  }
  for (auto* c : clients) c->go_online({servers[0]->id()});
  fix.run_for(40 * kMinute);

  DhtCrawler crawler = make_crawler(fix, "US", "crawl");
  std::optional<CrawlResult> result;
  crawler.crawl({servers[0]->id()},
                [&](CrawlResult r) { result = std::move(r); });
  fix.run_for(10 * kMinute);

  ASSERT_TRUE(result.has_value());
  // All servers discovered...
  for (auto* s : servers) {
    EXPECT_TRUE(result->discovered.count(s->id()) != 0)
        << "missing server " << s->id().short_hex();
  }
  // ...and no DHT client (they never appear in k-buckets).
  for (auto* c : clients) {
    EXPECT_EQ(result->discovered.count(c->id()), 0u)
        << "client leaked into crawl " << c->id().short_hex();
  }
}

TEST(Crawler, CountsUnreachableProposedPeers) {
  SimFixture fix(29);
  auto nodes = make_dht_network(fix, 12);
  // Take a node down *after* it is well-known; crawls still "discover" it
  // through stale routing-table entries (the overcounting bias from the
  // paper's Sec. V-C).
  const crypto::PeerId dead = nodes[7]->id();
  nodes[7]->go_offline();
  fix.run_for(1 * kMinute);

  DhtCrawler crawler = make_crawler(fix, "DE", "crawl2");
  std::optional<CrawlResult> result;
  crawler.crawl({nodes[0]->id()},
                [&](CrawlResult r) { result = std::move(r); });
  fix.run_for(10 * kMinute);

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->discovered.count(dead) != 0);
  EXPECT_EQ(result->responsive.count(dead), 0u);
}

// Pins one seeded crawl at the protocol defaults, one server offline.
TEST(Crawler, OneCrawlIsPinned) {
  SimFixture fix(30);
  auto nodes = make_dht_network(fix, 16);
  nodes[5]->go_offline();
  fix.run_for(1 * kMinute);

  DhtCrawler crawler = make_crawler(fix, "US", "crawl3");
  std::optional<CrawlResult> result;
  const util::SimTime started = fix.scheduler.now();
  util::SimTime finished = 0;
  crawler.crawl({nodes[0]->id()}, [&](CrawlResult r) {
    result = std::move(r);
    finished = fix.scheduler.now();
  });
  fix.run_for(10 * kMinute);

  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->discovered.size(), 16u);
  EXPECT_EQ(result->responsive.size(), 15u);
  EXPECT_EQ(result->rpcs_sent, 128u);
  EXPECT_EQ(finished - started, 52252086);
}

}  // namespace
}  // namespace ipfsmon::dht
