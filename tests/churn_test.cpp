// Fault injection (src/churn) and everything it leans on: heavy-tailed
// session models, the Network link-fault/partition/backoff layer, tracestore
// crash recovery (torn-tail quarantine + resume), PassiveMonitor
// crash/restart, the churn-aware size estimators, and the FaultInjector
// driving a full MonitoringStudy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>

#include "analysis/estimators.hpp"
#include "churn/injector.hpp"
#include "churn/session_model.hpp"
#include "obs/exporters.hpp"
#include "scenario/study.hpp"
#include "test_helpers.hpp"
#include "tracestore/merge.hpp"
#include "tracestore/scan.hpp"
#include "tracestore/store.hpp"

namespace ipfsmon {
namespace {

using testing_helpers::read_store;
using util::kHour;
using util::kMinute;
using util::kSecond;

// --- Session models -------------------------------------------------------------

TEST(SessionModel, AllDistributionsHitTheConfiguredMean) {
  util::RngStream rng(11, "session-means");
  const churn::SessionDist dists[] = {
      churn::SessionDist::kExponential, churn::SessionDist::kWeibull,
      churn::SessionDist::kLogNormal, churn::SessionDist::kPareto};
  for (const auto dist : dists) {
    churn::SessionModel model;
    model.dist = dist;
    model.mean_hours = 2.0;
    model.shape = dist == churn::SessionDist::kPareto    ? 2.5
                  : dist == churn::SessionDist::kLogNormal ? 1.0
                                                           : 0.7;
    model.min_hours = 0.0;
    double acc = 0.0;
    const int n = 60000;
    for (int i = 0; i < n; ++i) acc += model.sample_hours(rng);
    EXPECT_NEAR(acc / n, 2.0, 0.2) << "dist " << static_cast<int>(dist);
  }
}

TEST(SessionModel, ClampsToTheFloor) {
  util::RngStream rng(12, "session-floor");
  churn::SessionModel model;
  model.dist = churn::SessionDist::kWeibull;
  model.mean_hours = 0.001;  // would produce sub-second sessions
  model.min_hours = 0.05;
  for (int i = 0; i < 500; ++i) {
    EXPECT_GE(model.sample_hours(rng), 0.05);
  }
  EXPECT_GE(model.sample(rng), util::seconds(0.05 * 3600.0));
}

TEST(SessionModel, HeavyTailMeansMostSessionsAreShort) {
  // A Weibull with shape < 1 at the same mean has a much lower median than
  // the memoryless exponential — the Henningsen et al. shape.
  util::RngStream rng(13, "session-tail");
  churn::SessionModel heavy;
  heavy.dist = churn::SessionDist::kWeibull;
  heavy.mean_hours = 2.0;
  heavy.shape = 0.5;
  heavy.min_hours = 0.0;
  std::vector<double> samples;
  for (int i = 0; i < 20001; ++i) samples.push_back(heavy.sample_hours(rng));
  std::nth_element(samples.begin(), samples.begin() + 10000, samples.end());
  const double heavy_median = samples[10000];
  const double exp_median = 2.0 * std::log(2.0);
  EXPECT_LT(heavy_median, exp_median);
}

// --- Network fault layer --------------------------------------------------------

struct TestPayload : net::Payload {
  explicit TestPayload(int v) : value(v) {}
  int value;
};

class TestHost : public net::Host {
 public:
  std::vector<crypto::PeerId> connected;
  std::vector<crypto::PeerId> disconnected;
  std::vector<int> received;

  bool accept_inbound(const crypto::PeerId&) override { return true; }
  void on_connection(net::ConnectionId, const crypto::PeerId& peer,
                     bool) override {
    connected.push_back(peer);
  }
  void on_disconnect(net::ConnectionId, const crypto::PeerId& peer) override {
    disconnected.push_back(peer);
  }
  void on_message(net::ConnectionId, const crypto::PeerId&,
                  const net::PayloadPtr& payload) override {
    if (const auto* p = dynamic_cast<const TestPayload*>(payload.get())) {
      received.push_back(p->value);
    }
  }
};

class NetworkFaultTest : public ::testing::Test {
 protected:
  NetworkFaultTest()
      : network_(scheduler_, net::GeoDatabase::standard(), 7),
        rng_(7, "churn-net-test") {}

  crypto::PeerId add_node(TestHost& host) {
    const crypto::PeerId id = crypto::KeyPair::generate(rng_).peer_id();
    network_.register_node(id, network_.geo().allocate_address("US"), "US",
                           /*nat=*/false, &host);
    network_.set_online(id, true);
    return id;
  }

  std::optional<net::ConnectionId> dial_sync(const crypto::PeerId& from,
                                             const crypto::PeerId& to) {
    std::optional<net::ConnectionId> result;
    network_.dial(from, to,
                  [&](std::optional<net::ConnectionId> conn) { result = conn; });
    scheduler_.run_until(scheduler_.now() + 10 * kSecond);
    return result;
  }

  /// Dials a→b with the network's reconnection backoff.
  void dial_with_default_backoff(
      const crypto::PeerId& a, const crypto::PeerId& b,
      std::function<void(std::optional<net::ConnectionId>)> on_result) {
    network_.dial_with_backoff(a, b, std::move(on_result));
  }

  void settle(util::SimDuration span = 30 * kSecond) {
    scheduler_.run_until(scheduler_.now() + span);
  }

  sim::Scheduler scheduler_;
  net::Network network_;
  util::RngStream rng_;
};

TEST_F(NetworkFaultTest, FullDropProbabilityBlocksEveryDelivery) {
  TestHost a_host, b_host;
  const auto a = add_node(a_host);
  const auto b = add_node(b_host);
  const auto conn = dial_sync(a, b);
  ASSERT_TRUE(conn.has_value());

  net::LinkFaultProfile profile;
  profile.drop_probability = 1.0;
  network_.set_link_faults(profile);
  for (int i = 0; i < 10; ++i) {
    network_.send(*conn, a, std::make_shared<TestPayload>(i));
  }
  settle();
  EXPECT_TRUE(b_host.received.empty());
  EXPECT_EQ(network_.fault_drops(), 10u);

  // Clearing the profile restores normal delivery over the same connection.
  network_.set_link_faults(net::LinkFaultProfile{});
  network_.send(*conn, a, std::make_shared<TestPayload>(42));
  settle();
  EXPECT_EQ(b_host.received, std::vector{42});
  EXPECT_EQ(network_.fault_drops(), 10u);
}

TEST_F(NetworkFaultTest, IsolatePartitionsANodeUntilHealed) {
  TestHost a_host, b_host;
  const auto a = add_node(a_host);
  const auto b = add_node(b_host);
  ASSERT_TRUE(dial_sync(a, b).has_value());

  network_.isolate(b);
  EXPECT_TRUE(network_.isolated(b));
  EXPECT_EQ(network_.isolated_count(), 1u);
  // Existing connections are torn down (both sides notified)...
  EXPECT_EQ(a_host.disconnected, std::vector{b});
  EXPECT_EQ(network_.connection_count(a), 0u);
  // ...and new dials toward the partitioned node fail, although it still
  // believes it is online.
  EXPECT_TRUE(network_.is_online(b));
  EXPECT_FALSE(dial_sync(a, b).has_value());

  network_.heal(b);
  EXPECT_FALSE(network_.isolated(b));
  EXPECT_EQ(network_.isolated_count(), 0u);
  EXPECT_TRUE(dial_sync(a, b).has_value());
}

TEST_F(NetworkFaultTest, IsolatedSenderCannotDeliverPayloads) {
  TestHost a_host, b_host;
  const auto a = add_node(a_host);
  const auto b = add_node(b_host);
  const auto conn = dial_sync(a, b);
  ASSERT_TRUE(conn.has_value());

  // Isolation tears the connection down, so a host that missed the
  // disconnect notification and keeps sending just loses its payloads
  // (TCP reset semantics) — nothing arrives.
  network_.isolate(a);
  EXPECT_EQ(network_.connection_count(a), 0u);
  network_.send(*conn, a, std::make_shared<TestPayload>(1));
  settle();
  EXPECT_TRUE(b_host.received.empty());
}

TEST_F(NetworkFaultTest, DialWithBackoffSucceedsOnceTargetHeals) {
  TestHost a_host, b_host;
  const auto a = add_node(a_host);
  const auto b = add_node(b_host);
  network_.isolate(b);

  std::optional<net::ConnectionId> result;
  bool done = false;
  dial_with_default_backoff(a, b, [&](std::optional<net::ConnectionId> conn) {
    result = conn;
    done = true;
  });
  // Heal mid-backoff: a later retry must get through.
  scheduler_.schedule_after(5 * kSecond, [&] { network_.heal(b); });
  scheduler_.run_until(scheduler_.now() + 10 * kMinute);
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.has_value());
  EXPECT_TRUE(network_.connection_between(a, b).has_value());
}

TEST_F(NetworkFaultTest, DialWithBackoffExhaustsAgainstDeadTarget) {
  TestHost a_host, b_host;
  const auto a = add_node(a_host);
  const auto b = add_node(b_host);
  network_.set_online(b, false);

  std::optional<net::ConnectionId> result = net::kInvalidConnection;
  bool done = false;
  dial_with_default_backoff(a, b, [&](std::optional<net::ConnectionId> conn) {
    result = conn;
    done = true;
  });
  scheduler_.run_until(scheduler_.now() + 10 * kMinute);
  ASSERT_TRUE(done);
  EXPECT_FALSE(result.has_value());
}

// Pins the default reconnection schedule against a target that never
// comes back: when the last attempt gives up, and the retry counters.
TEST_F(NetworkFaultTest, DefaultBackoffScheduleIsPinned) {
  TestHost a_host, b_host;
  const auto a = add_node(a_host);
  const auto b = add_node(b_host);
  network_.isolate(b);

  const util::SimTime started = scheduler_.now();
  util::SimTime gave_up = 0;
  bool connected = true;
  dial_with_default_backoff(a, b, [&](std::optional<net::ConnectionId> conn) {
    connected = conn.has_value();
    gave_up = scheduler_.now();
  });
  scheduler_.run_until(scheduler_.now() + 30 * kMinute);
  auto& metrics = network_.obs().metrics;
  EXPECT_FALSE(connected);
  EXPECT_EQ(gave_up - started, 30813629011);
  EXPECT_EQ(metrics.counter("ipfsmon_net_backoff_retries_total").value(), 5u);
  EXPECT_EQ(metrics.counter("ipfsmon_net_backoff_exhausted_total").value(),
            1u);
}

TEST_F(NetworkFaultTest, FaultFreeRunsRegisterNoFaultMetrics) {
  // The fault layer must be invisible until used: a fault-free run's
  // Prometheus dump is byte-identical to a build that never heard of it.
  TestHost a_host, b_host;
  const auto a = add_node(a_host);
  const auto b = add_node(b_host);
  const auto conn = dial_sync(a, b);
  ASSERT_TRUE(conn.has_value());
  network_.send(*conn, a, std::make_shared<TestPayload>(1));
  settle();

  const std::string before = obs::to_prometheus(network_.obs().metrics);
  EXPECT_EQ(before.find("ipfsmon_net_fault_drops_total"), std::string::npos);
  EXPECT_EQ(before.find("ipfsmon_net_backoff"), std::string::npos);
  EXPECT_EQ(before.find("ipfsmon_net_isolated_nodes"), std::string::npos);

  network_.isolate(b);
  const std::string after = obs::to_prometheus(network_.obs().metrics);
  EXPECT_NE(after.find("ipfsmon_net_fault_drops_total"), std::string::npos);
  EXPECT_NE(after.find("ipfsmon_net_isolated_nodes"), std::string::npos);
}

// --- Tracestore crash recovery --------------------------------------------------

crypto::PeerId peer_n(int n) {
  crypto::PeerId::Digest digest{};
  digest[0] = static_cast<std::uint8_t>(n);
  digest[1] = static_cast<std::uint8_t>(n >> 8);
  digest[31] = 0x5b;
  return crypto::PeerId(digest);
}

cid::Cid cid_n(int n) {
  return cid::Cid::of_data(cid::Multicodec::Raw,
                           util::bytes_of("churn cid " + std::to_string(n)));
}

/// A deterministic time-ordered entry stream (the same stream every call).
trace::Trace make_stream(std::size_t n, std::uint64_t seed) {
  util::RngStream rng(seed, "churn-test-stream");
  trace::Trace t;
  util::SimTime ts = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ts += rng.uniform_index(20 * kSecond);
    trace::TraceEntry e;
    e.timestamp = ts;
    const int peer = static_cast<int>(rng.uniform_index(25));
    e.peer = peer_n(peer);
    e.address =
        net::Address{0x0a000001u + static_cast<std::uint32_t>(peer), 4001};
    e.type = rng.bernoulli(0.25) ? bitswap::WantType::WantBlock
                                 : bitswap::WantType::WantHave;
    e.cid = cid_n(static_cast<int>(rng.uniform_index(40)));
    e.monitor = 0;
    t.append(std::move(e));
  }
  return t;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/churn_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

trace::Trace drain(const tracestore::TraceStore& store) {
  tracestore::StoreCursor cursor(store);
  trace::Trace out;
  trace::TraceEntry e;
  while (cursor.next(e)) out.append(e);
  return out;
}

bool entries_equal(const trace::TraceEntry& a, const trace::TraceEntry& b) {
  return a.timestamp == b.timestamp && a.peer == b.peer &&
         a.address == b.address && a.type == b.type && a.cid == b.cid &&
         a.monitor == b.monitor && a.flags == b.flags;
}

TEST(Recovery, QuarantinesTornTailAndRebuildsManifest) {
  const std::string dir = fresh_dir("torn_tail");
  tracestore::StoreOptions options;
  options.max_entries_per_segment = 100;
  const trace::Trace stream = make_stream(350, 21);

  auto writer = tracestore::SegmentWriter::create(dir, options);
  ASSERT_NE(writer, nullptr);
  for (const auto& e : stream.entries()) writer->append(e);
  // Segments flush on the append after the cap: 350 appends leave seg 0-2
  // (300 entries) on disk and 50 buffered. Crash before finalize — the
  // buffered tail dies and no MANIFEST is on disk.
  writer->abandon();
  ASSERT_FALSE(std::filesystem::exists(dir + "/MANIFEST"));

  // Tear the tail segment in half, as an interrupted write would.
  const std::string tail = dir + "/seg-000002.seg";
  ASSERT_TRUE(std::filesystem::exists(tail));
  std::filesystem::resize_file(tail,
                               std::filesystem::file_size(tail) / 2);

  const auto report = tracestore::recover_store_dir(dir, options);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->segments_kept, 2u);
  EXPECT_EQ(report->segments_dropped, 1u);
  EXPECT_EQ(report->entries_recovered, 200u);
  EXPECT_EQ(report->next_segment_index, 3u);
  EXPECT_TRUE(std::filesystem::exists(tail + ".torn"));
  EXPECT_FALSE(std::filesystem::exists(tail));

  // The rebuilt MANIFEST makes the survivors a readable store again.
  auto store = tracestore::TraceStore::open(dir, options);
  ASSERT_TRUE(store.has_value());
  EXPECT_EQ(store->total_entries(), 200u);
  const trace::Trace recovered = drain(*store);
  ASSERT_EQ(recovered.size(), 200u);
  for (std::size_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(entries_equal(recovered.entries()[i], stream.entries()[i]))
        << "entry " << i;
  }

  // Recovery is idempotent: a second pass finds a healthy store.
  const auto again = tracestore::recover_store_dir(dir, options);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->segments_kept, 2u);
  EXPECT_EQ(again->segments_dropped, 0u);
}

TEST(Recovery, ResumeSkipsTornIndexAndContinues) {
  const std::string dir = fresh_dir("resume_index");
  tracestore::StoreOptions options;
  options.max_entries_per_segment = 100;
  const trace::Trace stream = make_stream(500, 22);

  {
    auto writer = tracestore::SegmentWriter::create(dir, options);
    ASSERT_NE(writer, nullptr);
    // 350 appends flush seg 0-2; the 50 buffered entries die in the crash.
    for (std::size_t i = 0; i < 350; ++i) writer->append(stream.entries()[i]);
    writer->abandon();
  }
  const std::string tail = dir + "/seg-000002.seg";
  std::filesystem::resize_file(tail, std::filesystem::file_size(tail) / 2);

  tracestore::RecoveryReport report;
  auto writer = tracestore::SegmentWriter::resume(dir, options, &report);
  ASSERT_NE(writer, nullptr);
  EXPECT_EQ(report.segments_dropped, 1u);
  EXPECT_EQ(writer->entries_written(), 200u);
  for (std::size_t i = 350; i < 500; ++i) writer->append(stream.entries()[i]);
  ASSERT_TRUE(writer->finalize());

  // The resumed writer must not reuse the torn file's name.
  EXPECT_TRUE(std::filesystem::exists(dir + "/seg-000003.seg"));
  EXPECT_TRUE(std::filesystem::exists(tail + ".torn"));
  auto store = tracestore::TraceStore::open(dir, options);
  ASSERT_TRUE(store.has_value());
  for (const auto& seg : store->segments()) {
    EXPECT_NE(seg.file, "seg-000002.seg");
  }
}

TEST(Recovery, CrashedStoreEqualsNoCrashRunMinusLostWindow) {
  // The headline crash-safety property: feed the same deterministic entry
  // stream to two writers. Writer A never crashes. Writer B crashes
  // mid-segment (buffered tail lost, flushed tail physically torn), is
  // resumed, and then receives the post-restart remainder of the stream.
  // B's store must equal A's minus exactly the lost window — entry-wise and
  // as serialized bytes.
  tracestore::StoreOptions options;
  options.max_entries_per_segment = 250;
  const trace::Trace stream = make_stream(1000, 23);

  const std::string dir_a = fresh_dir("nocrash");
  auto writer_a = tracestore::SegmentWriter::create(dir_a, options);
  ASSERT_NE(writer_a, nullptr);
  for (const auto& e : stream.entries()) writer_a->append(e);
  ASSERT_TRUE(writer_a->finalize());

  const std::string dir_b = fresh_dir("crash");
  auto writer_b = tracestore::SegmentWriter::create(dir_b, options);
  ASSERT_NE(writer_b, nullptr);
  // Crash at entry 700: segments 0/1 (500 entries) are flushed, entries
  // [500, 700) sit in the open buffer and die with the process.
  for (std::size_t i = 0; i < 700; ++i) writer_b->append(stream.entries()[i]);
  writer_b->abandon();
  // The OS also tore the last flushed segment mid-write: entries [250, 500)
  // are lost too. Lost window: [250, 700).
  const std::string tail_b = dir_b + "/seg-000001.seg";
  ASSERT_TRUE(std::filesystem::exists(tail_b));
  std::filesystem::resize_file(tail_b,
                               std::filesystem::file_size(tail_b) / 2);

  tracestore::RecoveryReport report;
  auto resumed = tracestore::SegmentWriter::resume(dir_b, options, &report);
  ASSERT_NE(resumed, nullptr);
  EXPECT_EQ(report.segments_kept, 1u);
  EXPECT_EQ(report.segments_dropped, 1u);
  EXPECT_EQ(report.entries_recovered, 250u);
  // Post-restart the monitor records the rest of the stream.
  for (std::size_t i = 700; i < 1000; ++i) {
    resumed->append(stream.entries()[i]);
  }
  ASSERT_TRUE(resumed->finalize());

  auto store_a = tracestore::TraceStore::open(dir_a, options);
  auto store_b = tracestore::TraceStore::open(dir_b, options);
  ASSERT_TRUE(store_a.has_value());
  ASSERT_TRUE(store_b.has_value());

  const trace::Trace full = drain(*store_a);
  ASSERT_EQ(full.size(), 1000u);
  trace::Trace expected;  // the no-crash trace minus the lost window
  for (std::size_t i = 0; i < 250; ++i) expected.append(full.entries()[i]);
  for (std::size_t i = 700; i < 1000; ++i) expected.append(full.entries()[i]);

  const trace::Trace recovered = drain(*store_b);
  ASSERT_EQ(recovered.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(entries_equal(recovered.entries()[i], expected.entries()[i]))
        << "entry " << i;
  }
}

// --- Churn-aware estimators -----------------------------------------------------

std::vector<crypto::PeerId> peer_range(int lo, int hi) {
  std::vector<crypto::PeerId> out;
  for (int i = lo; i < hi; ++i) out.push_back(peer_n(i));
  return out;
}

TEST(ChurnEstimators, StableSnapshotsReduceToRawEstimates) {
  // With no churn (identical consecutive snapshots) the correction must be
  // exactly neutral: rho == 1 and every adjusted series equals the raw one.
  const std::vector<std::vector<crypto::PeerId>> frame = {
      peer_range(0, 60), peer_range(30, 90)};
  const std::vector<std::vector<std::vector<crypto::PeerId>>> snapshots = {
      frame, frame, frame};

  EXPECT_DOUBLE_EQ(analysis::measure_session_overlap(snapshots), 1.0);
  const auto churned = analysis::estimate_over_snapshots_churned(snapshots);
  EXPECT_DOUBLE_EQ(churned.session_overlap, 1.0);
  ASSERT_EQ(churned.pairwise_adjusted.values.size(),
            churned.raw.pairwise.values.size());
  for (std::size_t i = 0; i < churned.raw.pairwise.values.size(); ++i) {
    EXPECT_DOUBLE_EQ(churned.pairwise_adjusted.values[i],
                     churned.raw.pairwise.values[i]);
  }
  ASSERT_EQ(churned.committee_adjusted.values.size(),
            churned.raw.committee.values.size());
  for (std::size_t i = 0; i < churned.raw.committee.values.size(); ++i) {
    EXPECT_NEAR(churned.committee_adjusted.values[i],
                churned.raw.committee.values[i], 1e-6);
  }
}

TEST(ChurnEstimators, HalfReplacementYieldsOneThirdOverlap) {
  // Consecutive snapshots sharing half their peers have Jaccard 1/3
  // (|A∩B| = 30, |A∪B| = 90).
  const std::vector<std::vector<std::vector<crypto::PeerId>>> snapshots = {
      {peer_range(0, 60)}, {peer_range(30, 90)}, {peer_range(60, 120)}};
  EXPECT_NEAR(analysis::measure_session_overlap(snapshots), 1.0 / 3.0, 1e-9);
}

TEST(ChurnEstimators, CommitteeOverloadsAgree) {
  const auto integral = analysis::estimate_committee(std::size_t{90}, 2, 60.0);
  const auto real = analysis::estimate_committee(90.0, 2, 60.0);
  ASSERT_TRUE(integral.has_value());
  ASSERT_TRUE(real.has_value());
  EXPECT_DOUBLE_EQ(*integral, *real);
}

TEST(ChurnEstimators, PairwiseCorrectionScalesTheRawEstimate) {
  const auto p1 = peer_range(0, 50);
  const auto p2 = peer_range(25, 75);
  const auto raw = analysis::estimate_pairwise(p1, p2);
  const auto adjusted = analysis::estimate_pairwise_churned(p1, p2, 0.5);
  ASSERT_TRUE(raw.has_value());
  ASSERT_TRUE(adjusted.has_value());
  EXPECT_DOUBLE_EQ(*adjusted, 0.5 * *raw);
}

TEST(ChurnEstimators, ChurnInflatedSetsOverestimateWithoutCorrection) {
  // Simulate turnover: the true concurrent size is 80, but each monitor's
  // hour-long accumulation window carries over stale peers, inflating both
  // m and w. The corrected committee estimate must land closer to truth.
  const std::size_t truth = 80;
  std::vector<std::vector<std::vector<crypto::PeerId>>> snapshots;
  for (int t = 0; t < 4; ++t) {
    // Each snapshot sees the live cohort plus 40 already-departed peers.
    const int base = t * 40;
    std::vector<crypto::PeerId> m0 = peer_range(base, base + 80);
    std::vector<crypto::PeerId> m1 = peer_range(base + 20, base + 100);
    const auto stale0 = peer_range(1000 + base, 1000 + base + 40);
    const auto stale1 = peer_range(2000 + base, 2000 + base + 40);
    m0.insert(m0.end(), stale0.begin(), stale0.end());
    m1.insert(m1.end(), stale1.begin(), stale1.end());
    snapshots.push_back({std::move(m0), std::move(m1)});
  }
  const auto churned = analysis::estimate_over_snapshots_churned(snapshots);
  ASSERT_FALSE(churned.raw.committee.values.empty());
  ASSERT_FALSE(churned.committee_adjusted.values.empty());
  EXPECT_LT(churned.session_overlap, 1.0);
  const double raw_err =
      std::abs(churned.raw.committee.mean() - static_cast<double>(truth));
  const double adj_err = std::abs(churned.committee_adjusted.mean() -
                                  static_cast<double>(truth));
  EXPECT_LT(adj_err, raw_err);
}

// --- ChurnConfig gating ---------------------------------------------------------

TEST(ChurnConfig, DefaultIsInert) {
  churn::ChurnConfig config;
  EXPECT_FALSE(config.enabled());
  config.nodes.arrival_rate_per_hour = 1.0;
  EXPECT_TRUE(config.enabled());

  churn::ChurnConfig crash_only;
  crash_only.scheduled_crashes.push_back(
      churn::CrashEvent{0, 1 * kHour, 10 * kMinute});
  EXPECT_TRUE(crash_only.enabled());

  churn::ChurnConfig link_only;
  link_only.link.drop_probability = 0.1;
  EXPECT_TRUE(link_only.enabled());
}

TEST(ChurnConfig, StudyWithoutChurnCreatesNoInjector) {
  scenario::StudyConfig config;
  config.population.node_count = 6;
  config.enable_gateways = false;
  config.collect_metrics = false;
  scenario::MonitoringStudy study(config);
  EXPECT_EQ(study.injector(), nullptr);
}

// --- FaultInjector driving a study ----------------------------------------------

scenario::StudyConfig small_study_config() {
  scenario::StudyConfig config;
  config.seed = 9;
  config.population.node_count = 40;
  config.catalog.item_count = 400;
  config.enable_gateways = false;
  config.collect_metrics = false;
  config.warmup = 1 * kHour;
  config.duration = 3 * kHour;
  config.snapshot_interval = 30 * kMinute;
  return config;
}

TEST(FaultInjector, ChurnsTransientsAndOpensPartitions) {
  scenario::StudyConfig config = small_study_config();
  config.churn.nodes.arrival_rate_per_hour = 20.0;
  config.churn.nodes.session =
      churn::SessionModel{churn::SessionDist::kWeibull, 0.5, 0.6};
  config.churn.nodes.intersession =
      churn::SessionModel{churn::SessionDist::kExponential, 1.0, 1.0};
  config.churn.link.drop_probability = 0.02;
  config.churn.partitions.rate_per_hour = 2.0;
  config.churn.partitions.mean_duration_minutes = 3.0;

  scenario::MonitoringStudy study(config);
  study.run();

  const auto* injector = study.injector();
  ASSERT_NE(injector, nullptr);
  EXPECT_GT(injector->transients_spawned(), 0u);
  EXPECT_GT(injector->sessions_completed(), 0u);
  EXPECT_GT(injector->partitions_opened(), 0u);
  EXPECT_GT(study.network().fault_drops(), 0u);
  EXPECT_EQ(injector->transient_ids().size(), injector->transients_spawned());
  EXPECT_LE(injector->transients_online(), injector->transients_spawned());
  // Partitions heal: far fewer nodes are isolated at the end than were
  // ever partitioned (only windows still open at the final instant, a
  // couple of partitions' worth at most — not the whole run's).
  EXPECT_LE(study.network().isolated_count(), 2u * 4u);  // ≤ 4 per window
}

// Pins what one seeded run of every fault process does: transient churn,
// link drops, and partition windows. Healed nodes redial a bootstrap node,
// which is never partitioned, so no redial retries here;
// DefaultBackoffScheduleIsPinned pins the retry schedule.
TEST(FaultInjector, ChurnTotalsArePinned) {
  scenario::StudyConfig config = small_study_config();
  config.churn.nodes.arrival_rate_per_hour = 20.0;
  config.churn.nodes.session =
      churn::SessionModel{churn::SessionDist::kWeibull, 0.5, 0.6};
  config.churn.nodes.intersession =
      churn::SessionModel{churn::SessionDist::kExponential, 1.0, 1.0};
  config.churn.link.drop_probability = 0.02;
  config.churn.partitions.rate_per_hour = 2.0;
  config.churn.partitions.mean_duration_minutes = 3.0;
  scenario::MonitoringStudy study(config);
  study.run();

  auto& metrics = study.obs().metrics;
  const auto total = [&metrics](const char* name) {
    return metrics.counter(name).value();
  };
  EXPECT_EQ(study.network().fault_drops(), 1684u);
  EXPECT_EQ(total("ipfsmon_net_backoff_retries_total"), 0u);
  EXPECT_EQ(total("ipfsmon_net_backoff_exhausted_total"), 0u);
  EXPECT_EQ(total("ipfsmon_churn_transients_spawned_total"), 103u);
  EXPECT_EQ(total("ipfsmon_churn_sessions_total"), 127u);
  EXPECT_EQ(total("ipfsmon_churn_retirements_total"), 52u);
  EXPECT_EQ(total("ipfsmon_churn_partitions_total"), 13u);
  EXPECT_EQ(total("ipfsmon_churn_requests_total"), 57u);
}

TEST(FaultInjector, ScheduledMonitorCrashRecoversSpilledStore) {
  const std::string spill = fresh_dir("study_spill");
  scenario::StudyConfig config = small_study_config();
  config.monitor_spill_dir = spill;
  config.spill_segment_span = 15 * kMinute;
  config.churn.scheduled_crashes.push_back(churn::CrashEvent{
      /*monitor_index=*/0,
      /*at=*/config.warmup + 90 * kMinute,
      /*down_for=*/20 * kMinute});

  scenario::MonitoringStudy study(config);
  study.run();

  const auto* injector = study.injector();
  ASSERT_NE(injector, nullptr);
  EXPECT_EQ(injector->monitor_crashes(), 1u);
  EXPECT_EQ(injector->monitor_restarts(), 1u);
  // The monitor came back, recovered its spill, and kept recording.
  EXPECT_FALSE(study.monitor(0).crashed());
  EXPECT_GE(study.monitor(0).last_recovery().segments_kept, 1u);
  const util::SimTime restarted_at = config.warmup + 110 * kMinute;
  const trace::Trace recorded = read_store(study.monitor(0));
  EXPECT_TRUE(std::any_of(recorded.entries().begin(), recorded.entries().end(),
                          [&](const trace::TraceEntry& e) {
                            return e.timestamp > restarted_at;
                          }));

  // crash() is idempotent while crashed, nothing is readable while down,
  // and a restarted monitor records again.
  auto& other = study.monitor(1);
  other.crash();
  other.crash();
  EXPECT_TRUE(other.crashed());
  EXPECT_FALSE(other.open_store().has_value());
  other.restart(study.population().bootstrap_ids());
  EXPECT_FALSE(other.crashed());
  const std::size_t recovered = read_store(other).size();
  EXPECT_EQ(recovered, other.last_recovery().entries_recovered);
  study.run_measurement(1 * kHour);
  EXPECT_GT(read_store(other).size(), recovered);

  // The recovered store still participates in trace unification.
  ASSERT_TRUE(study.finalize_monitor_spill());
  std::vector<tracestore::TraceStore> stores;
  for (const auto& dir : study.monitor_store_dirs()) {
    auto store = tracestore::TraceStore::open(dir);
    ASSERT_TRUE(store.has_value()) << dir;
    stores.push_back(std::move(*store));
  }
  ASSERT_EQ(stores.size(), 2u);
  std::vector<const tracestore::TraceStore*> inputs;
  for (const auto& s : stores) inputs.push_back(&s);
  std::uint64_t sunk = 0;
  const auto stats = tracestore::unify_stores(
      inputs, [&](const trace::TraceEntry&) { ++sunk; });
  EXPECT_GT(stats.entries, 0u);
  EXPECT_EQ(stats.entries, sunk);
}

}  // namespace
}  // namespace ipfsmon
