// Bitswap protocol behaviour: the responder engine (ledgers, presences,
// block serving), and the requester client (broadcast-first retrieval, DHT
// fallback, 30 s re-broadcast, sessions, cancels, wantlist push, and the
// countermeasure knobs from paper Sec. VI-C).
#include <gtest/gtest.h>

#include "bitswap/client.hpp"
#include "bitswap/engine.hpp"
#include "bitswap/message.hpp"
#include "test_helpers.hpp"

namespace ipfsmon::bitswap {
namespace {

using testing_helpers::SimFixture;
using util::kMinute;
using util::kSecond;

cid::Cid cid_of(std::string_view s) {
  return cid::Cid::of_data(cid::Multicodec::Raw, util::bytes_of(s));
}

dag::BlockPtr block_of(std::string_view s) {
  return std::make_shared<dag::Block>(dag::Block::raw(util::bytes_of(s)));
}

TEST(Message, TypeNames) {
  EXPECT_EQ(want_type_name(WantType::WantHave), "WANT_HAVE");
  EXPECT_EQ(want_type_name(WantType::WantBlock), "WANT_BLOCK");
  EXPECT_EQ(want_type_name(WantType::Cancel), "CANCEL");
}

// --- Engine (responder) fixtures ----------------------------------------------

/// Two online nodes with an established connection; node 0 holds a block.
struct EnginePair {
  explicit EnginePair(SimFixture& fix)
      : provider(fix.make_node()), requester(fix.make_node()) {
    provider.go_online({});
    requester.go_online({provider.id()});
    fix.run_for(10 * kSecond);
  }
  node::IpfsNode& provider;
  node::IpfsNode& requester;
};

TEST(Engine, AnswersWantHaveWithHave) {
  SimFixture fix(40);
  EnginePair pair(fix);
  const cid::Cid c = pair.provider.add_bytes(util::bytes_of("block"));
  fix.run_for(5 * kSecond);

  bool got = false;
  pair.requester.fetch(c, [&](dag::BlockPtr b) { got = b != nullptr; });
  fix.run_for(30 * kSecond);
  EXPECT_TRUE(got);
  EXPECT_GT(pair.provider.engine().presences_sent() +
                pair.provider.engine().blocks_served(),
            0u);
}

TEST(Engine, LedgerTracksRemoteWants) {
  SimFixture fix(41);
  EnginePair pair(fix);
  const cid::Cid missing = cid_of("not here");
  pair.requester.fetch(missing, nullptr);
  fix.run_for(5 * kSecond);
  // The provider's ledger for the requester now contains the want.
  const auto wants = pair.provider.engine().wantlist_of(pair.requester.id());
  ASSERT_EQ(wants.size(), 1u);
  EXPECT_EQ(wants[0].cid, missing);
}

TEST(Engine, CancelRemovesLedgerEntry) {
  SimFixture fix(42);
  EnginePair pair(fix);
  const cid::Cid missing = cid_of("will cancel");
  pair.requester.fetch(missing, nullptr);
  fix.run_for(5 * kSecond);
  pair.requester.client().cancel(missing);
  fix.run_for(5 * kSecond);
  EXPECT_TRUE(pair.provider.engine().wantlist_of(pair.requester.id()).empty());
}

TEST(Engine, DisconnectDropsLedger) {
  SimFixture fix(43);
  EnginePair pair(fix);
  pair.requester.fetch(cid_of("pending"), nullptr);
  fix.run_for(5 * kSecond);
  EXPECT_FALSE(pair.provider.engine().wantlist_of(pair.requester.id()).empty());
  const auto conn =
      fix.network.connection_between(pair.provider.id(), pair.requester.id());
  ASSERT_TRUE(conn.has_value());
  fix.network.close(*conn);
  EXPECT_TRUE(pair.provider.engine().wantlist_of(pair.requester.id()).empty());
}

TEST(Engine, NotifyNewBlockServesWaitingPeers) {
  SimFixture fix(44);
  EnginePair pair(fix);
  const auto block = block_of("late arrival");
  bool got = false;
  pair.requester.fetch(block->id(), [&](dag::BlockPtr b) {
    got = b != nullptr;
  });
  fix.run_for(20 * kSecond);
  EXPECT_FALSE(got);  // nobody has it yet
  // The provider obtains the block later (e.g. via its own download):
  // waiting peers are served without re-asking.
  pair.provider.add_block(block, /*provide=*/false);
  fix.run_for(20 * kSecond);
  EXPECT_TRUE(got);
}

TEST(Engine, ServeBlocksFlagDisablesServing) {
  SimFixture fix(45);
  node::NodeConfig no_serve;
  no_serve.serve_blocks = false;
  auto& provider = fix.make_node(no_serve);
  auto& requester = fix.make_node();
  provider.go_online({});
  requester.go_online({provider.id()});
  fix.run_for(10 * kSecond);
  const cid::Cid c = provider.add_bytes(util::bytes_of("hoarded"));

  bool got = false;
  bool done = false;
  requester.client().fetch(c, kNoSession, [&](dag::BlockPtr b) {
    got = b != nullptr;
    done = true;
  });
  fix.run_for(12 * kMinute);  // past the fetch deadline
  EXPECT_TRUE(done);
  EXPECT_FALSE(got);
  EXPECT_EQ(provider.engine().blocks_served(), 0u);
}

// --- Client (requester) ---------------------------------------------------------

TEST(Client, FetchesViaBroadcast) {
  SimFixture fix(46);
  EnginePair pair(fix);
  const cid::Cid c = pair.provider.add_bytes(util::bytes_of("simple"));
  dag::BlockPtr got;
  pair.requester.client().fetch(c, kNoSession,
                                [&](dag::BlockPtr b) { got = std::move(b); });
  fix.run_for(30 * kSecond);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->id(), c);
  EXPECT_TRUE(got->verify());
  EXPECT_EQ(fix.total("ipfsmon_bitswap_fetches_completed_total"), 1u);
}

TEST(Client, FallsBackToDhtProviders) {
  SimFixture fix(47);
  // provider and requester NOT directly connected; both know a common
  // bootstrap server, so the DHT can route.
  auto& bootstrap = fix.make_node();
  auto& provider = fix.make_node();
  auto& requester = fix.make_node();
  bootstrap.go_online({});
  provider.go_online({bootstrap.id()});
  requester.go_online({bootstrap.id()});
  fix.run_for(1 * kMinute);
  const cid::Cid c = provider.add_bytes(util::bytes_of("via dht"));
  fix.run_for(1 * kMinute);  // provider record propagates

  // Ensure no direct connection exists (broadcast cannot succeed directly;
  // bootstrap doesn't have the block).
  if (const auto conn =
          fix.network.connection_between(provider.id(), requester.id())) {
    fix.network.close(*conn);
  }

  dag::BlockPtr got;
  requester.client().fetch(c, kNoSession,
                           [&](dag::BlockPtr b) { got = std::move(b); });
  fix.run_for(2 * kMinute);
  ASSERT_NE(got, nullptr);
  EXPECT_GE(fix.total("ipfsmon_bitswap_provider_searches_total"), 1u);
}

TEST(Client, RebroadcastsEvery30Seconds) {
  SimFixture fix(48);
  EnginePair pair(fix);
  auto count_entries = [&]() {
    std::size_t n = 0;
    (void)n;
    return pair.provider.engine().wantlist_of(pair.requester.id()).size();
  };
  (void)count_entries;
  pair.requester.client().fetch(cid_of("never found"), kNoSession, nullptr);
  fix.run_for(2 * kMinute + 10 * kSecond);
  // ~4 re-broadcast rounds in 130 s.
  EXPECT_GE(fix.total("ipfsmon_bitswap_rebroadcast_rounds_total"), 3u);
  EXPECT_LE(fix.total("ipfsmon_bitswap_rebroadcast_rounds_total"), 5u);
}

TEST(Client, RebroadcastDisabledByCountermeasure) {
  SimFixture fix(49);
  node::NodeConfig quiet;
  quiet.bitswap.rebroadcast = false;
  auto& provider = fix.make_node();
  auto& requester = fix.make_node(quiet);
  provider.go_online({});
  requester.go_online({provider.id()});
  fix.run_for(10 * kSecond);
  requester.client().fetch(cid_of("quiet want"), kNoSession, nullptr);
  fix.run_for(3 * kMinute);
  EXPECT_EQ(fix.total("ipfsmon_bitswap_rebroadcast_rounds_total"), 0u);
}

TEST(Client, BroadcastDisabledGoesDhtOnly) {
  SimFixture fix(50);
  node::NodeConfig dht_only;
  dht_only.bitswap.broadcast_wants = false;
  auto& provider = fix.make_node();
  auto& requester = fix.make_node(dht_only);
  provider.go_online({});
  requester.go_online({provider.id()});
  fix.run_for(30 * kSecond);
  const cid::Cid c = provider.add_bytes(util::bytes_of("dht only"));
  fix.run_for(30 * kSecond);

  dag::BlockPtr got;
  requester.client().fetch(c, kNoSession,
                           [&](dag::BlockPtr b) { got = std::move(b); });
  fix.run_for(2 * kMinute);
  ASSERT_NE(got, nullptr);
  // No broadcast probe was ever sent: the provider saw only the directed
  // WANT_BLOCK after a DHT provider search.
  EXPECT_GE(fix.total("ipfsmon_bitswap_provider_searches_total"), 1u);
}

TEST(Client, FetchTimesOutAndSendsCancels) {
  SimFixture fix(51);
  node::NodeConfig fast_timeout;
  fast_timeout.bitswap.fetch_timeout = 2 * kMinute;
  auto& provider = fix.make_node();
  auto& requester = fix.make_node(fast_timeout);
  provider.go_online({});
  requester.go_online({provider.id()});
  fix.run_for(10 * kSecond);

  bool failed = false;
  requester.client().fetch(cid_of("ghost"), kNoSession, [&](dag::BlockPtr b) {
    failed = b == nullptr;
  });
  fix.run_for(3 * kMinute);
  EXPECT_TRUE(failed);
  EXPECT_EQ(fix.total("ipfsmon_bitswap_fetches_failed_total"), 1u);
  EXPECT_GT(fix.total("ipfsmon_bitswap_cancels_sent_total"), 0u);
  EXPECT_TRUE(provider.engine().wantlist_of(requester.id()).empty());
}

TEST(Client, CoalescesConcurrentFetchesOfSameCid) {
  SimFixture fix(52);
  EnginePair pair(fix);
  const cid::Cid c = pair.provider.add_bytes(util::bytes_of("shared"));
  int callbacks = 0;
  for (int i = 0; i < 3; ++i) {
    pair.requester.client().fetch(c, kNoSession, [&](dag::BlockPtr b) {
      if (b != nullptr) ++callbacks;
    });
  }
  fix.run_for(30 * kSecond);
  EXPECT_EQ(callbacks, 3);
  EXPECT_EQ(fix.total("ipfsmon_bitswap_fetches_started_total"), 1u);
}

TEST(Client, PushesWantlistToNewPeers) {
  SimFixture fix(53);
  auto& requester = fix.make_node();
  auto& bystander = fix.make_node();
  requester.go_online({});
  bystander.go_online({});
  // Outstanding want BEFORE the peers connect.
  requester.client().fetch(cid_of("outstanding"), kNoSession, nullptr);
  fix.run_for(5 * kSecond);
  EXPECT_TRUE(fix.connect(requester, bystander));
  fix.run_for(5 * kSecond);
  // The new peer immediately learned the requester's wantlist.
  EXPECT_EQ(bystander.engine().wantlist_of(requester.id()).size(), 1u);
}

TEST(Client, SessionScopesFollowUpRequests) {
  SimFixture fix(54);
  auto& provider = fix.make_node();
  auto& requester = fix.make_node();
  auto& bystander = fix.make_node();
  provider.go_online({});
  requester.go_online({provider.id()});
  bystander.go_online({provider.id()});
  fix.run_for(10 * kSecond);
  EXPECT_TRUE(fix.connect(requester, bystander));

  const cid::Cid root = provider.add_bytes(util::bytes_of("session root"));
  const cid::Cid child_cid = provider.add_bytes(util::bytes_of("child data"));
  fix.run_for(10 * kSecond);

  // Root fetch: broadcast — bystander sees it.
  const SessionId session = requester.client().create_session();
  requester.client().fetch(root, session, nullptr);
  fix.run_for(30 * kSecond);
  const auto seen_root = bystander.engine().wantlist_of(requester.id());
  // (The want may already be cancelled; check session peers instead.)
  const auto peers = requester.client().session_peers(session);
  EXPECT_TRUE(std::find(peers.begin(), peers.end(), provider.id()) !=
              peers.end());
  (void)seen_root;

  // Child fetch within the session: only session peers (the provider) are
  // asked; the bystander never sees this CID.
  std::size_t bystander_entries_before = 0;
  bool got_child = false;
  requester.client().fetch(child_cid, session,
                           [&](dag::BlockPtr b) { got_child = b != nullptr; });
  fix.run_for(30 * kSecond);
  EXPECT_TRUE(got_child);
  const auto bystander_wants = bystander.engine().wantlist_of(requester.id());
  for (const auto& w : bystander_wants) {
    EXPECT_NE(w.cid, child_cid) << "session-scoped want leaked to bystander";
  }
  (void)bystander_entries_before;
}

TEST(Client, LegacyModeBroadcastsWantBlock) {
  SimFixture fix(55);
  node::NodeConfig legacy;
  legacy.legacy_protocol = true;
  auto& provider = fix.make_node();
  auto& requester = fix.make_node(legacy);
  provider.go_online({});
  requester.go_online({provider.id()});
  fix.run_for(10 * kSecond);

  // Observe the wire: attach a listener on the provider's engine.
  std::vector<WantType> seen;
  provider.engine().set_listener(
      [&](const crypto::PeerId&, net::ConnectionId, const BitswapMessage& m) {
        for (const auto& e : m.entries) seen.push_back(e.type);
      });
  const cid::Cid c = provider.add_bytes(util::bytes_of("legacy fetch"));
  bool got = false;
  requester.client().fetch(c, kNoSession,
                           [&](dag::BlockPtr b) { got = b != nullptr; });
  fix.run_for(30 * kSecond);
  EXPECT_TRUE(got);
  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen.front(), WantType::WantBlock);  // no WANT_HAVE probe
}

TEST(Client, VersionUpgradeSwitchesProbeType) {
  SimFixture fix(56);
  node::NodeConfig legacy;
  legacy.legacy_protocol = true;
  auto& provider = fix.make_node();
  auto& requester = fix.make_node(legacy);
  provider.go_online({});
  requester.go_online({provider.id()});
  fix.run_for(10 * kSecond);

  std::vector<WantType> seen;
  provider.engine().set_listener(
      [&](const crypto::PeerId&, net::ConnectionId, const BitswapMessage& m) {
        for (const auto& e : m.entries) seen.push_back(e.type);
      });
  EXPECT_FALSE(requester.client().use_want_have());
  requester.client().set_use_want_have(true);  // the v0.5 upgrade
  const cid::Cid c = provider.add_bytes(util::bytes_of("post upgrade"));
  requester.client().fetch(c, kNoSession, nullptr);
  fix.run_for(30 * kSecond);
  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen.front(), WantType::WantHave);
}

TEST(Client, ShutdownFailsOutstandingFetches) {
  SimFixture fix(57);
  EnginePair pair(fix);
  bool failed = false;
  pair.requester.client().fetch(cid_of("doomed"), kNoSession,
                                [&](dag::BlockPtr b) { failed = b == nullptr; });
  fix.run_for(5 * kSecond);
  pair.requester.client().shutdown();
  EXPECT_TRUE(failed);
  EXPECT_EQ(pair.requester.client().active_fetches(), 0u);
}

TEST(Client, DontHaveTriggersNextCandidate) {
  SimFixture fix(58);
  // Two "providers": one lies (HAVE then loses the block), handled by
  // timeout; here we test the simpler DONT_HAVE path via directed probes.
  EnginePair pair(fix);
  const cid::Cid c = cid_of("empty answer");
  bool done = false;
  pair.requester.client().fetch(c, kNoSession,
                                [&](dag::BlockPtr) { done = true; });
  // Provider lacks the block; broadcast probes get no HAVE, eventually the
  // deadline fires. The fetch must not hang forever.
  fix.run_for(11 * kMinute);
  EXPECT_TRUE(done);
}

// --- Salted-CID wire format (countermeasure, paper Sec. VI-C item 4) --------

TEST(SaltedEntry, HashBindsCidAndSalt) {
  const cid::Cid a = cid_of("content a");
  const cid::Cid b = cid_of("content b");
  const util::Bytes salt1 = util::bytes_of("salt one");
  const util::Bytes salt2 = util::bytes_of("salt two");
  EXPECT_EQ(salted_cid_hash(a, salt1), salted_cid_hash(a, salt1));
  EXPECT_NE(salted_cid_hash(a, salt1), salted_cid_hash(b, salt1));
  EXPECT_NE(salted_cid_hash(a, salt1), salted_cid_hash(a, salt2));
}

TEST(SaltedEntry, MakeSaltedEntryCarriesNoPlaintextCid) {
  const cid::Cid target = cid_of("hidden");
  const WantEntry entry = make_salted_entry(target, util::bytes_of("s"),
                                            WantType::WantHave, false);
  EXPECT_TRUE(entry.salted);
  EXPECT_NE(entry.cid, target);  // default-constructed, not the target
  EXPECT_EQ(entry.salted_hash, salted_cid_hash(target, entry.salt));
}

TEST(SaltedEntry, OpaqueCidIsStableForSameEntryDistinctAcrossSalts) {
  const cid::Cid target = cid_of("hidden 2");
  const WantEntry e1 = make_salted_entry(target, util::bytes_of("salt-a"),
                                         WantType::WantHave, false);
  const WantEntry e2 = make_salted_entry(target, util::bytes_of("salt-b"),
                                         WantType::WantHave, false);
  EXPECT_EQ(opaque_cid_for(e1), opaque_cid_for(e1));
  EXPECT_NE(opaque_cid_for(e1), opaque_cid_for(e2));
  EXPECT_NE(opaque_cid_for(e1), target);
}

TEST(Engine, ResolvesSaltedWantForStoredBlock) {
  SimFixture fix(120);
  node::NodeConfig salted;
  salted.bitswap.salted_wants = true;
  auto& provider = fix.make_node();
  auto& requester = fix.make_node(salted);
  provider.go_online({});
  requester.go_online({provider.id()});
  fix.run_for(10 * kSecond);
  const cid::Cid c = provider.add_bytes(util::bytes_of("salted target"));

  dag::BlockPtr got;
  requester.client().fetch(c, kNoSession,
                           [&](dag::BlockPtr b) { got = std::move(b); });
  fix.run_for(30 * kSecond);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->id(), c);
  EXPECT_GT(provider.engine().salted_hashes_computed(), 0u);
}

TEST(Engine, SaltedWantForUnknownBlockIsDroppedSilently) {
  SimFixture fix(121);
  node::NodeConfig salted;
  salted.bitswap.salted_wants = true;
  auto& bystander = fix.make_node();
  auto& requester = fix.make_node(salted);
  bystander.go_online({});
  requester.go_online({bystander.id()});
  fix.run_for(10 * kSecond);

  requester.client().fetch(cid_of("nobody has this"), kNoSession, nullptr);
  fix.run_for(10 * kSecond);
  // The bystander could not resolve the salted want: no ledger entry
  // (want persistence silently breaks — a cost of the countermeasure).
  EXPECT_TRUE(bystander.engine().wantlist_of(requester.id()).empty());
}

TEST(Engine, SaltedHashingCostScalesWithBlockstore) {
  SimFixture fix(122);
  node::NodeConfig salted;
  salted.bitswap.salted_wants = true;
  auto& provider = fix.make_node();
  auto& requester = fix.make_node(salted);
  provider.go_online({});
  requester.go_online({provider.id()});
  fix.run_for(10 * kSecond);
  // A provider with a large store pays per stored CID per salted request.
  for (int i = 0; i < 50; ++i) {
    provider.add_bytes(util::bytes_of("filler " + std::to_string(i)));
  }
  const auto before = provider.engine().salted_hashes_computed();
  requester.client().fetch(cid_of("miss"), kNoSession, nullptr);
  fix.run_for(5 * kSecond);
  EXPECT_GE(provider.engine().salted_hashes_computed() - before, 50u);
}

}  // namespace
}  // namespace ipfsmon::bitswap
