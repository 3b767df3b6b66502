// Addresses, geography, and the simulated overlay transport: dialing, NAT,
// acceptance, FIFO delivery, churn teardown, and discovery sampling.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "net/address.hpp"
#include "net/geo.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"

namespace ipfsmon::net {
namespace {

using util::kSecond;

// --- Address -----------------------------------------------------------------

TEST(Address, FormatsAsMultiaddr) {
  const Address a{0x0a000001, 4001};
  EXPECT_EQ(a.ip_string(), "10.0.0.1");
  EXPECT_EQ(a.to_string(), "/ip4/10.0.0.1/tcp/4001");
}

TEST(Address, ParsesItsOwnOutput) {
  const Address a{0x0b01fe07, 12345};
  const auto parsed = Address::from_string(a.to_string());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, a);
}

TEST(Address, RejectsMalformedStrings) {
  EXPECT_FALSE(Address::from_string("").has_value());
  EXPECT_FALSE(Address::from_string("/ip4/1.2.3/tcp/1").has_value());
  EXPECT_FALSE(Address::from_string("/ip4/1.2.3.4.5/tcp/1").has_value());
  EXPECT_FALSE(Address::from_string("/ip4/256.0.0.1/tcp/1").has_value());
  EXPECT_FALSE(Address::from_string("/ip4/1.2.3.4/udp/1").has_value());
  EXPECT_FALSE(Address::from_string("/ip4/1.2.3.4/tcp/99999").has_value());
  EXPECT_FALSE(Address::from_string("/ip4/1.2.3.4/tcp/").has_value());
}

// --- GeoDatabase ----------------------------------------------------------------

TEST(Geo, DefaultWorldHasPaperCountries) {
  GeoDatabase geo = GeoDatabase::standard();
  bool has_us = false, has_nl = false, has_de = false;
  for (const auto& c : geo.countries()) {
    if (c.code == "US") has_us = true;
    if (c.code == "NL") has_nl = true;
    if (c.code == "DE") has_de = true;
  }
  EXPECT_TRUE(has_us && has_nl && has_de);
}

TEST(Geo, AllocatedAddressesResolveBack) {
  GeoDatabase geo = GeoDatabase::standard();
  const Address us = geo.allocate_address("US");
  const Address de = geo.allocate_address("DE");
  EXPECT_EQ(geo.lookup(us), "US");
  EXPECT_EQ(geo.lookup(de), "DE");
  EXPECT_NE(us.ip, de.ip);
}

TEST(Geo, AllocationsAreUnique) {
  GeoDatabase geo = GeoDatabase::standard();
  std::set<std::uint32_t> ips;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(ips.insert(geo.allocate_address("US").ip).second);
  }
}

TEST(Geo, UnknownIpResolvesToUnknown) {
  GeoDatabase geo = GeoDatabase::standard();
  EXPECT_EQ(geo.lookup(0x01020304u), "??");
}

TEST(Geo, AllocateUnknownCountryThrows) {
  GeoDatabase geo = GeoDatabase::standard();
  EXPECT_THROW(geo.allocate_address("ZZ"), std::invalid_argument);
}

TEST(Geo, MeanLatencyIsSymmetricAndLocalIsFast) {
  GeoDatabase geo = GeoDatabase::standard();
  EXPECT_EQ(geo.mean_latency("US", "DE"), geo.mean_latency("DE", "US"));
  EXPECT_LT(geo.mean_latency("DE", "NL"), geo.mean_latency("DE", "AU"));
  EXPECT_LT(geo.mean_latency("US", "US"), 10 * util::kMillisecond);
}

TEST(Geo, JitteredLatencyStaysNearMean) {
  GeoDatabase geo = GeoDatabase::standard();
  util::RngStream rng(1, "geo");
  const auto mean = geo.mean_latency("US", "DE");
  for (int i = 0; i < 200; ++i) {
    const auto lat = geo.latency("US", "DE", rng);
    EXPECT_GE(lat, static_cast<util::SimDuration>(0.85 * mean));
    EXPECT_LE(lat, static_cast<util::SimDuration>(1.55 * mean));
  }
}

TEST(Geo, IndexedLatencyEqualsNamedLatency) {
  GeoDatabase geo = GeoDatabase::standard();
  std::vector<std::string> codes;
  for (const auto& c : geo.countries()) codes.push_back(c.code);
  codes.push_back("??");  // unknown countries share one index
  codes.push_back("XX");
  util::RngStream by_index(3, "geo-twin");
  util::RngStream by_name(3, "geo-twin");
  for (const auto& a : codes) {
    for (const auto& b : codes) {
      const std::size_t ia = geo.country_index(a);
      const std::size_t ib = geo.country_index(b);
      EXPECT_EQ(geo.mean_latency(ia, ib), geo.mean_latency(a, b)) << a << b;
      EXPECT_EQ(geo.latency(ia, ib, by_index), geo.latency(a, b, by_name))
          << a << "->" << b;
    }
  }
  // Both paths drew exactly as many numbers.
  EXPECT_EQ(by_index.next_u64(), by_name.next_u64());
  // The precomputed means follow the documented model: 4 ms + 6 ms per
  // map unit, 120 ms when either side is unknown.
  EXPECT_EQ(geo.country_index("??"), geo.countries().size());
  EXPECT_EQ(geo.mean_latency("US", "??"), 120 * util::kMillisecond);
  const CountrySpec& us = geo.countries()[geo.country_index("US")];
  const CountrySpec& de = geo.countries()[geo.country_index("DE")];
  const double dist = std::sqrt((us.x - de.x) * (us.x - de.x) +
                                (us.y - de.y) * (us.y - de.y));
  EXPECT_EQ(geo.mean_latency("US", "DE"),
            static_cast<util::SimDuration>(
                (4.0 + 6.0 * dist) * static_cast<double>(util::kMillisecond)));
}

TEST(Geo, CountrySamplingFollowsWeights) {
  GeoDatabase geo = GeoDatabase::standard();
  util::RngStream rng(2, "geo2");
  int us = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (geo.sample_country(rng) == "US") ++us;
  }
  // US has weight 45 of ~100.5 total.
  EXPECT_NEAR(us / static_cast<double>(n), 0.45, 0.03);
}

// --- Network ---------------------------------------------------------------------

struct TestPayload : Payload {
  explicit TestPayload(int v) : value(v) {}
  int value;
};

/// Scripted host: counts events, optionally rejects inbound.
class TestHost : public Host {
 public:
  bool accept = true;
  std::vector<crypto::PeerId> connected;
  std::vector<crypto::PeerId> disconnected;
  std::vector<int> received;

  bool accept_inbound(const crypto::PeerId&) override { return accept; }
  void on_connection(ConnectionId, const crypto::PeerId& peer, bool) override {
    connected.push_back(peer);
  }
  void on_disconnect(ConnectionId, const crypto::PeerId& peer) override {
    disconnected.push_back(peer);
  }
  void on_message(ConnectionId, const crypto::PeerId&,
                  const PayloadPtr& payload) override {
    if (const auto* p = dynamic_cast<const TestPayload*>(payload.get())) {
      received.push_back(p->value);
    }
  }
};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest()
      : network_(scheduler_, GeoDatabase::standard(), 7), rng_(7, "net-test") {}

  crypto::PeerId add_node(TestHost& host, bool nat = false,
                          const std::string& country = "US",
                          double weight = 1.0) {
    const crypto::PeerId id = crypto::KeyPair::generate(rng_).peer_id();
    network_.register_node(id, network_.geo().allocate_address(country),
                           country, nat, &host, weight);
    network_.set_online(id, true);
    return id;
  }

  std::optional<ConnectionId> dial_sync(const crypto::PeerId& from,
                                        const crypto::PeerId& to) {
    std::optional<ConnectionId> result;
    bool done = false;
    network_.dial(from, to, [&](std::optional<ConnectionId> conn) {
      result = conn;
      done = true;
    });
    scheduler_.run_until(scheduler_.now() + 10 * kSecond);
    EXPECT_TRUE(done);
    return result;
  }

  sim::Scheduler scheduler_;
  Network network_;
  util::RngStream rng_;
};

TEST_F(NetworkTest, DialEstablishesConnectionBothSidesNotified) {
  TestHost a_host, b_host;
  const auto a = add_node(a_host);
  const auto b = add_node(b_host);
  const auto conn = dial_sync(a, b);
  ASSERT_TRUE(conn.has_value());
  EXPECT_EQ(a_host.connected, std::vector{b});
  EXPECT_EQ(b_host.connected, std::vector{a});
  EXPECT_EQ(network_.connection_count(a), 1u);
  EXPECT_TRUE(network_.connection_between(a, b).has_value());
}

TEST_F(NetworkTest, DialToNatTargetFails) {
  TestHost a_host, b_host;
  const auto a = add_node(a_host);
  const auto b = add_node(b_host, /*nat=*/true);
  EXPECT_FALSE(dial_sync(a, b).has_value());
}

TEST_F(NetworkTest, NatNodeCanDialOut) {
  TestHost a_host, b_host;
  const auto a = add_node(a_host, /*nat=*/true);
  const auto b = add_node(b_host, /*nat=*/false);
  EXPECT_TRUE(dial_sync(a, b).has_value());
}

TEST_F(NetworkTest, DialToOfflineTargetFails) {
  TestHost a_host, b_host;
  const auto a = add_node(a_host);
  const auto b = add_node(b_host);
  network_.set_online(b, false);
  EXPECT_FALSE(dial_sync(a, b).has_value());
}

TEST_F(NetworkTest, RejectedInboundFails) {
  TestHost a_host, b_host;
  b_host.accept = false;
  const auto a = add_node(a_host);
  const auto b = add_node(b_host);
  EXPECT_FALSE(dial_sync(a, b).has_value());
}

TEST_F(NetworkTest, RepeatDialReusesConnection) {
  TestHost a_host, b_host;
  const auto a = add_node(a_host);
  const auto b = add_node(b_host);
  const auto first = dial_sync(a, b);
  const auto second = dial_sync(a, b);
  ASSERT_TRUE(first && second);
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(network_.connection_count(a), 1u);
}

TEST_F(NetworkTest, SelfDialFails) {
  TestHost host;
  const auto a = add_node(host);
  EXPECT_FALSE(dial_sync(a, a).has_value());
}

TEST_F(NetworkTest, MessagesDeliverInFifoOrder) {
  TestHost a_host, b_host;
  const auto a = add_node(a_host, false, "US");
  const auto b = add_node(b_host, false, "AU");  // long, jittery path
  const auto conn = dial_sync(a, b);
  ASSERT_TRUE(conn.has_value());
  for (int i = 0; i < 50; ++i) {
    network_.send(*conn, a, std::make_shared<TestPayload>(i));
  }
  scheduler_.run_until(scheduler_.now() + 60 * kSecond);
  ASSERT_EQ(b_host.received.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(b_host.received[static_cast<size_t>(i)], i);
}

TEST_F(NetworkTest, MessagesDroppedIfConnectionClosesInFlight) {
  TestHost a_host, b_host;
  const auto a = add_node(a_host);
  const auto b = add_node(b_host);
  const auto conn = dial_sync(a, b);
  network_.send(*conn, a, std::make_shared<TestPayload>(1));
  network_.close(*conn);  // close before delivery latency elapses
  scheduler_.run_until(scheduler_.now() + 10 * kSecond);
  EXPECT_TRUE(b_host.received.empty());
}

TEST_F(NetworkTest, NonPartySenderIsIgnored) {
  TestHost a_host, b_host, c_host;
  const auto a = add_node(a_host);
  const auto b = add_node(b_host);
  const auto c = add_node(c_host);
  const auto conn = dial_sync(a, b);
  network_.send(*conn, c, std::make_shared<TestPayload>(9));
  scheduler_.run_until(scheduler_.now() + 10 * kSecond);
  EXPECT_TRUE(a_host.received.empty());
  EXPECT_TRUE(b_host.received.empty());
}

TEST_F(NetworkTest, GoingOfflineClosesAllConnections) {
  TestHost a_host, b_host, c_host;
  const auto a = add_node(a_host);
  const auto b = add_node(b_host);
  const auto c = add_node(c_host);
  dial_sync(a, b);
  dial_sync(a, c);
  EXPECT_EQ(network_.connection_count(a), 2u);
  network_.set_online(a, false);
  EXPECT_EQ(network_.connection_count(a), 0u);
  EXPECT_EQ(b_host.disconnected, std::vector{a});
  EXPECT_EQ(c_host.disconnected, std::vector{a});
}

TEST_F(NetworkTest, CloseNotifiesBothSides) {
  TestHost a_host, b_host;
  const auto a = add_node(a_host);
  const auto b = add_node(b_host);
  const auto conn = dial_sync(a, b);
  network_.close(*conn);
  EXPECT_EQ(a_host.disconnected, std::vector{b});
  EXPECT_EQ(b_host.disconnected, std::vector{a});
  EXPECT_FALSE(network_.connection_between(a, b).has_value());
  network_.close(*conn);  // double close is a no-op
}

TEST_F(NetworkTest, RemotePeerResolvesFromEitherSide) {
  TestHost a_host, b_host;
  const auto a = add_node(a_host);
  const auto b = add_node(b_host);
  const auto conn = dial_sync(a, b);
  ASSERT_TRUE(conn.has_value());
  EXPECT_EQ(network_.connected_peers(a), std::vector{b});
  EXPECT_EQ(network_.connected_peers(b), std::vector{a});
  EXPECT_EQ(network_.connection_between(b, a), conn);
}

TEST_F(NetworkTest, SamplingExcludesNatAndOffline) {
  TestHost pub_host, nat_host, off_host;
  const auto pub = add_node(pub_host, false);
  add_node(nat_host, true);
  const auto off = add_node(off_host, false);
  network_.set_online(off, false);
  for (int i = 0; i < 50; ++i) {
    const auto sampled = network_.sample_online_public(rng_);
    ASSERT_TRUE(sampled.has_value());
    EXPECT_EQ(*sampled, pub);
  }
}

TEST_F(NetworkTest, HubWeightBiasesSampling) {
  TestHost regular_hosts[20], hub_host;
  std::vector<crypto::PeerId> regulars;
  for (auto& host : regular_hosts) regulars.push_back(add_node(host));
  const auto hub = add_node(hub_host, false, "US", /*weight=*/20.0);
  int hub_hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (*network_.sample_online_public(rng_) == hub) ++hub_hits;
  }
  // Hub weight 20 vs 20 regulars: expect ~50% of samples.
  EXPECT_NEAR(hub_hits / static_cast<double>(n), 0.5, 0.05);
}

TEST_F(NetworkTest, HubRemovalAfterOffline) {
  TestHost hub_host, reg_host;
  const auto hub = add_node(hub_host, false, "US", 50.0);
  const auto reg = add_node(reg_host);
  network_.set_online(hub, false);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(*network_.sample_online_public(rng_), reg);
  }
  (void)hub;
}

TEST_F(NetworkTest, ChurnedDialInFlightFails) {
  TestHost a_host, b_host;
  const auto a = add_node(a_host);
  const auto b = add_node(b_host);
  std::optional<ConnectionId> result = ConnectionId{999};
  bool done = false;
  network_.dial(a, b, [&](std::optional<ConnectionId> conn) {
    result = conn;
    done = true;
  });
  network_.set_online(b, false);  // churn while SYN is in flight
  scheduler_.run_until(scheduler_.now() + 10 * kSecond);
  EXPECT_TRUE(done);
  EXPECT_FALSE(result.has_value());
}

TEST_F(NetworkTest, ConnectionEstablishedTimestamp) {
  TestHost a_host, b_host;
  const auto a = add_node(a_host);
  const auto b = add_node(b_host);
  scheduler_.run_until(42 * kSecond);
  const auto conn = dial_sync(a, b);
  ASSERT_TRUE(conn.has_value());
  const auto established = network_.connection_established_at(*conn);
  ASSERT_TRUE(established.has_value());
  EXPECT_GE(*established, 42 * kSecond);
  network_.close(*conn);
  EXPECT_FALSE(network_.connection_established_at(*conn).has_value());
}

// Latency sanity across all country pairs: positive, symmetric, and the
// triangle-ish structure of the coordinate model (diagonal fastest).
class GeoPairLatency
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GeoPairLatency, MeanLatencyIsSaneAndSymmetric) {
  GeoDatabase geo = GeoDatabase::standard();
  const auto& countries = geo.countries();
  const auto [i, j] = GetParam();
  if (i >= static_cast<int>(countries.size()) ||
      j >= static_cast<int>(countries.size())) {
    GTEST_SKIP();
  }
  const auto& a = countries[static_cast<std::size_t>(i)].code;
  const auto& b = countries[static_cast<std::size_t>(j)].code;
  const auto forward = geo.mean_latency(a, b);
  const auto backward = geo.mean_latency(b, a);
  EXPECT_EQ(forward, backward);
  EXPECT_GT(forward, 0);
  EXPECT_LT(forward, 400 * util::kMillisecond);
  // Same-country latency never exceeds the cross-country one by model
  // construction (base + distance).
  EXPECT_LE(geo.mean_latency(a, a), forward);
}

INSTANTIATE_TEST_SUITE_P(AllPairs, GeoPairLatency,
                         ::testing::Combine(::testing::Range(0, 12),
                                            ::testing::Range(0, 12)));

}  // namespace
}  // namespace ipfsmon::net
