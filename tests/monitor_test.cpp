// The passive monitor: accept-all behaviour, trace recording fidelity,
// its trace store (temp or named directory, open failures), peer-set
// snapshots, Bitswap-active tracking, and the salted-CID
// countermeasure's effect on what monitors can record.
#include <gtest/gtest.h>

#include <filesystem>

#include "analysis/popularity.hpp"
#include "monitor/active_monitor.hpp"
#include "attacks/trace_attacks.hpp"
#include "test_helpers.hpp"
#include "trace/preprocess.hpp"

namespace ipfsmon::monitor {
namespace {

using testing_helpers::read_store;
using testing_helpers::SimFixture;
using util::kMinute;
using util::kSecond;

class MonitorTest : public ::testing::Test {
 protected:
  MonitorTest() : mon_(fix_.make_monitor()) {
    bootstrap_ = &fix_.make_node();
    bootstrap_->go_online({});
    mon_.go_online({bootstrap_->id()});
    fix_.run_for(10 * kSecond);
  }

  node::IpfsNode& connected_node(node::NodeConfig config = {}) {
    auto& n = fix_.make_node(config);
    n.go_online({bootstrap_->id()});
    fix_.run_for(5 * kSecond);
    fix_.network.dial(n.id(), mon_.id(), nullptr);
    fix_.run_for(5 * kSecond);
    return n;
  }

  SimFixture fix_{90};
  PassiveMonitor& mon_;
  node::IpfsNode* bootstrap_ = nullptr;
};

TEST_F(MonitorTest, AcceptsUnlimitedInbound) {
  for (int i = 0; i < 30; ++i) connected_node();
  // 30 nodes + bootstrap connections: all accepted.
  EXPECT_GE(fix_.network.connection_count(mon_.id()), 30u);
}

TEST_F(MonitorTest, RecordsWantEntriesWithMetadata) {
  auto& requester = connected_node();
  const cid::Cid wanted =
      cid::Cid::of_data(cid::Multicodec::DagCBOR, util::bytes_of("observed"));
  requester.fetch(wanted, nullptr);
  fix_.run_for(10 * kSecond);

  const trace::Trace recorded = read_store(mon_);
  ASSERT_FALSE(recorded.empty());
  bool found = false;
  for (const auto& e : recorded.entries()) {
    if (e.cid != wanted) continue;
    found = true;
    EXPECT_EQ(e.peer, requester.id());
    EXPECT_EQ(e.address, requester.address());
    EXPECT_EQ(e.type, bitswap::WantType::WantHave);
    EXPECT_EQ(e.monitor, mon_.monitor_id());
  }
  EXPECT_TRUE(found);
}

TEST_F(MonitorTest, RecordsCancels) {
  auto& requester = connected_node();
  const cid::Cid wanted =
      cid::Cid::of_data(cid::Multicodec::Raw, util::bytes_of("cancel me"));
  requester.fetch(wanted, nullptr);
  fix_.run_for(5 * kSecond);
  requester.client().cancel(wanted);
  fix_.run_for(5 * kSecond);

  bool saw_cancel = false;
  const trace::Trace recorded = read_store(mon_);
  for (const auto& e : recorded.entries()) {
    if (e.cid == wanted && e.type == bitswap::WantType::Cancel) {
      saw_cancel = true;
    }
  }
  EXPECT_TRUE(saw_cancel);
}

TEST_F(MonitorTest, TracksBitswapActivePeersOnly) {
  auto& quiet = connected_node();
  auto& active = connected_node();
  active.fetch(cid::Cid::of_data(cid::Multicodec::Raw,
                                 util::bytes_of("activity")),
               nullptr);
  fix_.run_for(10 * kSecond);

  EXPECT_TRUE(mon_.bitswap_active_peers().count(active.id()) != 0);
  EXPECT_EQ(mon_.bitswap_active_peers().count(quiet.id()), 0u);
  // Both are in the connected-peer universe though.
  EXPECT_TRUE(mon_.peers_seen().count(quiet.id()) != 0);
}

TEST_F(MonitorTest, SnapshotsCapturePeerSets) {
  connected_node();
  connected_node();
  mon_.start_snapshots();
  fix_.run_for(2 * util::kHour + 5 * kMinute);
  ASSERT_GE(mon_.snapshots().size(), 2u);
  EXPECT_GE(mon_.snapshots().back().peers.size(), 2u);
  const auto t0 = mon_.snapshots()[0].time;
  const auto t1 = mon_.snapshots()[1].time;
  EXPECT_EQ(t1 - t0, util::kHour);
  mon_.stop_snapshots();
  const auto count = mon_.snapshots().size();
  fix_.run_for(2 * util::kHour);
  EXPECT_EQ(mon_.snapshots().size(), count);
}

TEST_F(MonitorTest, ResetClearsObservations) {
  auto& requester = connected_node();
  requester.fetch(cid::Cid::of_data(cid::Multicodec::Raw,
                                    util::bytes_of("pre-reset")),
                  nullptr);
  fix_.run_for(10 * kSecond);
  EXPECT_FALSE(read_store(mon_).empty());
  mon_.reset_observations();
  EXPECT_TRUE(read_store(mon_).empty());
  EXPECT_TRUE(mon_.peers_seen().empty());
  EXPECT_TRUE(mon_.bitswap_active_peers().empty());
}

TEST_F(MonitorTest, ReadingTheStoreDoesNotStopRecording) {
  auto& requester = connected_node();
  requester.fetch(cid::Cid::of_data(cid::Multicodec::Raw,
                                    util::bytes_of("first read")),
                  nullptr);
  fix_.run_for(10 * kSecond);
  const std::size_t first = read_store(mon_).size();
  ASSERT_GT(first, 0u);
  requester.fetch(cid::Cid::of_data(cid::Multicodec::Raw,
                                    util::bytes_of("second read")),
                  nullptr);
  fix_.run_for(10 * kSecond);
  EXPECT_GT(read_store(mon_).size(), first);
}

TEST_F(MonitorTest, MonitorHoldsNoDataAndAnswersNothing) {
  auto& requester = connected_node();
  bool failed = false;
  // Ask for something only via the monitor-connected path; the monitor
  // must never provide data.
  requester.client().fetch(
      cid::Cid::of_data(cid::Multicodec::Raw, util::bytes_of("from monitor?")),
      bitswap::kNoSession, [&](dag::BlockPtr b) { failed = b == nullptr; });
  fix_.run_for(11 * kMinute);
  EXPECT_TRUE(failed);
  EXPECT_EQ(mon_.engine().blocks_served(), 0u);
}

// --- The monitor's trace store --------------------------------------------

/// Brings `mon` online next to a requester that then asks it for a dead
/// CID for `span` (the first want plus 30 s re-broadcasts).
void drive_wants(SimFixture& fix, PassiveMonitor& mon, util::SimDuration span) {
  auto& bootstrap = fix.make_node();
  bootstrap.go_online({});
  mon.go_online({bootstrap.id()});
  auto& requester = fix.make_node();
  requester.go_online({bootstrap.id()});
  fix.run_for(5 * kSecond);
  fix.network.dial(requester.id(), mon.id(), nullptr);
  fix.run_for(5 * kSecond);
  requester.fetch(cid::Cid::of_data(cid::Multicodec::Raw,
                                    util::bytes_of("never provided")),
                  nullptr);
  fix.run_for(span);
}

TEST(MonitorStoreTest, UnwritableSpillDirIsAnErrorNotARamFallback) {
  // A regular file sits where the store directory should go.
  const std::string path = ::testing::TempDir() + "/monitor_store_is_a_file";
  std::filesystem::remove_all(path);
  ASSERT_TRUE(util::write_file(path, "not a directory"));

  SimFixture fix(91);
  MonitorConfig config;
  config.spill_dir = path;
  auto& mon = fix.make_monitor(config);
  EXPECT_FALSE(mon.spill_error().empty());
  drive_wants(fix, mon, 10 * kSecond);

  // Nothing was recorded anywhere, and every reader says so.
  EXPECT_FALSE(mon.open_store().has_value());
  EXPECT_TRUE(read_store(mon).empty());
  EXPECT_FALSE(mon.finalize_spill());
  EXPECT_TRUE(std::filesystem::is_regular_file(path));
  std::filesystem::remove(path);
}

TEST(MonitorStoreTest, UnnamedStoreIsATempDirRemovedWithTheMonitor) {
  std::string dir;
  {
    SimFixture fix(92);
    auto& mon = fix.make_monitor();
    dir = mon.spill_dir();
    ASSERT_FALSE(dir.empty());
    EXPECT_TRUE(mon.spill_error().empty());
    EXPECT_TRUE(std::filesystem::is_directory(dir));
    EXPECT_TRUE(mon.open_store().has_value());
    EXPECT_TRUE(std::filesystem::exists(dir + "/MANIFEST"));
  }
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(MonitorStoreTest, ResetWhileCrashedRestartsOnACleanStore) {
  // A crash during warm-up, then the warm-up reset: the restarted monitor
  // must not recover the warm-up segments the crash left on disk.
  SimFixture fix(94);
  MonitorConfig config;
  config.spill_segment_entries = 2;
  auto& mon = fix.make_monitor(config);
  drive_wants(fix, mon, 2 * kMinute);
  ASSERT_GE(read_store(mon).size(), 3u);
  mon.crash();
  mon.reset_observations();
  mon.restart({});
  EXPECT_EQ(mon.last_recovery().entries_recovered, 0u);
  EXPECT_TRUE(read_store(mon).empty());
}

TEST(MonitorStoreTest, NamedStoreOutlivesTheMonitor) {
  const std::string dir = ::testing::TempDir() + "/monitor_named_store";
  std::filesystem::remove_all(dir);
  {
    SimFixture fix(93);
    MonitorConfig config;
    config.spill_dir = dir;
    auto& mon = fix.make_monitor(config);
    EXPECT_EQ(mon.spill_dir(), dir);
  }
  EXPECT_TRUE(tracestore::TraceStore::open(dir).has_value());
  std::filesystem::remove_all(dir);
}

// --- Salted-CID countermeasure vs the monitor -----------------------------

TEST_F(MonitorTest, SaltedRequestsHideTheRealCid) {
  node::NodeConfig hardened;
  hardened.bitswap.salted_wants = true;
  auto& requester = connected_node(hardened);
  const cid::Cid wanted =
      cid::Cid::of_data(cid::Multicodec::Raw, util::bytes_of("secret fetch"));
  requester.fetch(wanted, nullptr);
  fix_.run_for(10 * kSecond);

  bool recorded_something = false;
  trace::Trace recorded = read_store(mon_);
  for (const auto& e : recorded.entries()) {
    if (e.peer != requester.id()) continue;
    recorded_something = true;
    EXPECT_NE(e.cid, wanted) << "real CID leaked to the monitor";
  }
  EXPECT_TRUE(recorded_something);  // traffic is visible, content is not
  // IDW against the real CID comes up empty.
  trace::mark_flags(recorded);
  EXPECT_TRUE(testing_helpers::feed(attacks::IdwAccumulator(wanted), recorded)
                  .hits()
                  .empty());
}

TEST_F(MonitorTest, SaltedRequestsAreUnlinkableAcrossRebroadcasts) {
  node::NodeConfig hardened;
  hardened.bitswap.salted_wants = true;
  auto& requester = connected_node(hardened);
  // A dead CID: the fetch re-broadcasts every 30 s with fresh salts.
  requester.fetch(cid::Cid::of_data(cid::Multicodec::Raw,
                                    util::bytes_of("dead salted")),
                  nullptr);
  fix_.run_for(2 * kMinute);

  std::set<cid::Cid> opaque_cids;
  std::size_t requests = 0;
  const trace::Trace recorded = read_store(mon_);
  for (const auto& e : recorded.entries()) {
    if (e.peer != requester.id() || !e.is_request()) continue;
    ++requests;
    opaque_cids.insert(e.cid);
  }
  ASSERT_GE(requests, 3u);  // initial + re-broadcasts
  // Every observation looks like a different CID: nothing to link.
  EXPECT_EQ(opaque_cids.size(), requests);
}

TEST_F(MonitorTest, SaltedFetchStillSucceedsViaProviders) {
  auto& provider = connected_node();
  node::NodeConfig hardened;
  hardened.bitswap.salted_wants = true;
  auto& requester = connected_node(hardened);
  EXPECT_TRUE(fix_.connect(requester, provider));
  const cid::Cid c = provider.add_bytes(util::bytes_of("salted payload"));
  fix_.run_for(5 * kSecond);

  bool got = false;
  requester.fetch(c, [&](dag::BlockPtr b) { got = b != nullptr; });
  fix_.run_for(30 * kSecond);
  EXPECT_TRUE(got);
  // The provider paid the per-stored-CID hashing cost to resolve it.
  EXPECT_GT(provider.engine().salted_hashes_computed(), 0u);
}

// --- ActiveMonitor (the paper's "more active peer discovery") --------------

TEST(ActiveMonitorTest, SweepsDialDiscoveredPeers) {
  SimFixture fix(95);
  // A mesh of servers that do NOT dial anyone on their own.
  node::NodeConfig quiet;
  quiet.discovery_dials = 0;
  std::vector<node::IpfsNode*> nodes;
  for (int i = 0; i < 15; ++i) nodes.push_back(&fix.make_node(quiet));
  nodes[0]->go_online({});
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    nodes[i]->go_online({nodes[0]->id()});
  }
  fix.run_for(30 * kMinute);

  crypto::KeyPair keys = crypto::KeyPair::generate(fix.rng);
  ActiveMonitor active(fix.network, std::move(keys),
                       fix.network.geo().allocate_address("US"), "US",
                       MonitorConfig{}, fix.rng.fork("active"));
  active.go_online({nodes[0]->id()});
  active.start_sweeps();
  fix.run_for(4 * util::kHour + 10 * kMinute);  // sweeps every 2 h

  EXPECT_GE(active.sweeps_completed(), 2u);
  EXPECT_GT(active.peers_dialed(), 5u);
  // The active monitor reaches most of the quiet mesh that would never
  // have dialed it.
  EXPECT_GE(fix.network.connection_count(active.id()), 12u);
}

TEST(ActiveMonitorTest, StillRecordsLikeAPassiveMonitor) {
  SimFixture fix(96);
  auto& provider = fix.make_node();
  auto& requester = fix.make_node();
  provider.go_online({});
  requester.go_online({provider.id()});

  crypto::KeyPair keys = crypto::KeyPair::generate(fix.rng);
  ActiveMonitor active(fix.network, std::move(keys),
                       fix.network.geo().allocate_address("DE"), "DE",
                       MonitorConfig{}, fix.rng.fork("active2"));
  active.go_online({provider.id()});
  active.start_sweeps();
  // The first sweep, 2 h in, connects it to the requester.
  fix.run_for(2 * util::kHour + 10 * kMinute);

  const cid::Cid wanted =
      cid::Cid::of_data(cid::Multicodec::Raw, util::bytes_of("seen by active"));
  requester.fetch(wanted, nullptr);
  fix.run_for(10 * kSecond);

  bool observed = false;
  const trace::Trace recorded = read_store(active);
  for (const auto& e : recorded.entries()) {
    if (e.cid == wanted && e.peer == requester.id()) observed = true;
  }
  EXPECT_TRUE(observed);
  active.stop_sweeps();
}

}  // namespace
}  // namespace ipfsmon::monitor
