// The observability subsystem: registry create/lookup/duplicate handling,
// histogram bucket edges, collector cadence + ring bounds under the sim
// scheduler, exporters (Prometheus text + JSONL), and the end-to-end
// invariant that every Bitswap want/cancel a client sends to a monitor
// shows up as exactly one trace entry.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "obs/collector.hpp"
#include "obs/exporters.hpp"
#include "obs/metrics.hpp"
#include "test_helpers.hpp"
#include "util/json.hpp"

namespace ipfsmon::obs {
namespace {

using testing_helpers::read_store;
using testing_helpers::SimFixture;
using util::kMinute;
using util::kSecond;

// --- MetricsRegistry -------------------------------------------------------

TEST(MetricsRegistryTest, RegistersAndLooksUpInstruments) {
  MetricsRegistry reg;
  Counter& c = reg.counter("ipfsmon_test_ops_total", "ops");
  Gauge& g = reg.gauge("ipfsmon_test_depth", "depth");
  c.inc(3);
  g.set(1.5);

  EXPECT_EQ(reg.size(), 2u);
  const InstrumentInfo* info = reg.find("ipfsmon_test_ops_total");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->kind, InstrumentKind::kCounter);
  EXPECT_EQ(reg.counter_at(info->slot).value(), 3u);
  EXPECT_EQ(reg.find("ipfsmon_test_absent"), nullptr);
}

TEST(MetricsRegistryTest, ReRegistrationReturnsTheSameInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.counter("ipfsmon_test_ops_total");
  Counter& b = reg.counter("ipfsmon_test_ops_total");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistryTest, SameNameDifferentKindThrows) {
  MetricsRegistry reg;
  reg.counter("ipfsmon_test_value");
  EXPECT_THROW(reg.gauge("ipfsmon_test_value"), std::invalid_argument);
}

TEST(MetricsRegistryTest, LabelsSeparateSeries) {
  MetricsRegistry reg;
  Gauge& us = reg.gauge("ipfsmon_test_conns", "conns", "country=\"US\"");
  Gauge& de = reg.gauge("ipfsmon_test_conns", "conns", "country=\"DE\"");
  EXPECT_NE(&us, &de);
  us.set(4.0);
  const InstrumentInfo* info =
      reg.find("ipfsmon_test_conns", "country=\"US\"");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->full_name(), "ipfsmon_test_conns{country=\"US\"}");
  EXPECT_DOUBLE_EQ(reg.gauge_at(info->slot).value(), 4.0);
}

TEST(MetricsRegistryTest, ConcurrentUpdatesAndRegistrationsAreExact) {
  // Several threads register the same instruments and update them while
  // another thread renders: every update lands, and each (name, labels)
  // stays one instrument.
  MetricsRegistry reg;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kCalls = 100000;
  std::atomic<bool> done{false};
  std::thread renderer([&] {
    while (!done.load()) {
      const std::string text = to_prometheus(reg);
      EXPECT_EQ(text.find("# TYPE ipfsmon_test_ops_total counter"),
                text.rfind("# TYPE ipfsmon_test_ops_total counter"));
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&reg] {
      Counter& ops = reg.counter("ipfsmon_test_ops_total", "ops");
      Gauge& level = reg.gauge("ipfsmon_test_level", "level", "shard=\"a\"");
      Histogram& sizes =
          reg.histogram("ipfsmon_test_sizes", {1.0, 10.0}, "sizes");
      for (std::uint64_t i = 0; i < kCalls; ++i) {
        ops.inc();
        level.add(1.0);
        sizes.observe(static_cast<double>(i % 3) * 5.0);  // 0, 5, 10
      }
    });
  }
  for (auto& w : writers) w.join();
  done.store(true);
  renderer.join();

  constexpr std::uint64_t kTotal = kThreads * kCalls;
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_EQ(reg.counter("ipfsmon_test_ops_total").value(), kTotal);
  EXPECT_DOUBLE_EQ(reg.gauge("ipfsmon_test_level", "", "shard=\"a\"").value(),
                   static_cast<double>(kTotal));
  const Histogram& sizes = reg.histogram("ipfsmon_test_sizes", {1.0, 10.0});
  EXPECT_EQ(sizes.count(), kTotal);
  const std::vector<std::uint64_t> buckets = sizes.bucket_counts();
  // i % 3 == 0 -> 0 (<= 1); 1 -> 5 and 2 -> 10 (<= 10); none above.
  std::uint64_t zeros = 0;
  for (std::uint64_t i = 0; i < kCalls; ++i) zeros += i % 3 == 0 ? 1 : 0;
  EXPECT_EQ(buckets[0], kThreads * zeros);
  EXPECT_EQ(buckets[1], kTotal - kThreads * zeros);
  EXPECT_EQ(buckets[2], 0u);
  EXPECT_DOUBLE_EQ(sizes.sum(),
                   kThreads * (5.0 * ((kCalls + 1) / 3) + 10.0 * (kCalls / 3)));
  const std::string text = to_prometheus(reg);
  EXPECT_NE(text.find("ipfsmon_test_ops_total 400000\n"), std::string::npos);
  EXPECT_NE(text.find("ipfsmon_test_sizes_count 400000\n"), std::string::npos);
}

// --- Histogram -------------------------------------------------------------

TEST(HistogramTest, BucketEdgesFollowLeSemantics) {
  Histogram h({1.0, 2.0});
  h.observe(0.5);  // <= 1.0
  h.observe(1.0);  // <= 1.0 (boundary lands in its bucket)
  h.observe(1.5);  // <= 2.0
  h.observe(2.0);  // <= 2.0
  h.observe(9.0);  // +Inf

  ASSERT_EQ(h.bucket_counts().size(), 3u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 2u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 14.0);
}

TEST(HistogramTest, RejectsNonIncreasingBounds) {
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({}), std::invalid_argument);
}

TEST(HistogramTest, ExponentialBuckets) {
  const auto bounds = exponential_buckets(0.1, 10.0, 3);
  ASSERT_EQ(bounds.size(), 3u);
  EXPECT_DOUBLE_EQ(bounds[0], 0.1);
  EXPECT_DOUBLE_EQ(bounds[1], 1.0);
  EXPECT_DOUBLE_EQ(bounds[2], 10.0);
}

// --- Collector -------------------------------------------------------------

TEST(CollectorTest, SamplesOnSimTimeCadence) {
  sim::Scheduler scheduler;
  MetricsRegistry reg;
  Counter& ops = reg.counter("ipfsmon_test_ops_total");
  Gauge& depth = reg.gauge("ipfsmon_test_depth");

  Collector collector(scheduler, reg);
  collector.add_sampler([&] { depth.set(static_cast<double>(ops.value())); });
  collector.start();

  scheduler.schedule_after(12 * kMinute, [&] { ops.inc(7); });
  scheduler.run_until(22 * kMinute);

  // Ticks at 5/10/15/20 min.
  ASSERT_EQ(collector.samples().size(), 4u);
  EXPECT_EQ(collector.samples()[0].time, 5 * kMinute);
  EXPECT_EQ(collector.samples()[3].time, 20 * kMinute);
  // Counter bump at 12 min is visible from the 15 min sample on; the sampler
  // refreshed the gauge from it before the ring write.
  const std::vector<InstrumentInfo> infos = reg.instruments();
  const auto index_of = [&infos](const char* name) {
    return static_cast<std::size_t>(
        std::find_if(infos.begin(), infos.end(),
                     [name](const InstrumentInfo& info) {
                       return info.name == name;
                     }) -
        infos.begin());
  };
  const std::size_t ops_idx = index_of("ipfsmon_test_ops_total");
  const std::size_t depth_idx = index_of("ipfsmon_test_depth");
  ASSERT_LT(ops_idx, infos.size());
  ASSERT_LT(depth_idx, infos.size());
  EXPECT_DOUBLE_EQ(collector.samples()[1].values[ops_idx], 0.0);
  EXPECT_DOUBLE_EQ(collector.samples()[2].values[ops_idx], 7.0);
  EXPECT_DOUBLE_EQ(collector.samples()[2].values[depth_idx], 7.0);

  collector.stop();
  scheduler.run_until(60 * kMinute);
  EXPECT_EQ(collector.samples().size(), 4u);
}

TEST(CollectorTest, RingIsBoundedAndCountsDrops) {
  sim::Scheduler scheduler;
  MetricsRegistry reg;
  reg.counter("ipfsmon_test_ops_total");

  Collector collector(scheduler, reg);
  collector.start();
  // The ring holds 4096 samples, one every 5 simulated minutes.
  scheduler.run_until(4102 * (5 * kMinute));

  EXPECT_EQ(collector.samples().size(), 4096u);
  EXPECT_EQ(collector.samples_taken(), 4102u);
  EXPECT_EQ(collector.samples_dropped(), 6u);
  // Oldest samples were dropped: the ring holds the most recent ticks.
  EXPECT_EQ(collector.samples().front().time, 7 * (5 * kMinute));
  EXPECT_EQ(collector.samples().back().time, 4102 * (5 * kMinute));
}

TEST(CollectorTest, LateRegisteredInstrumentsAlignByIndex) {
  sim::Scheduler scheduler;
  MetricsRegistry reg;
  reg.counter("ipfsmon_test_a_total");
  Collector collector(scheduler, reg);
  collector.collect_now();
  reg.counter("ipfsmon_test_b_total").inc(5);
  collector.collect_now();

  ASSERT_EQ(collector.samples().size(), 2u);
  EXPECT_EQ(collector.samples()[0].values.size(), 1u);
  EXPECT_EQ(collector.samples()[1].values.size(), 2u);
  EXPECT_DOUBLE_EQ(collector.samples()[1].values[1], 5.0);
}

// --- Scheduler cancelled counter -------------------------------------------

TEST(SchedulerObsTest, CountsCancelledEvents) {
  sim::Scheduler scheduler;
  bool fired = false;
  sim::EventHandle h =
      scheduler.schedule_after(1 * kSecond, [&] { fired = true; });
  h.cancel();
  scheduler.schedule_after(2 * kSecond, [] {});
  scheduler.run_until(5 * kSecond);

  EXPECT_FALSE(fired);
  EXPECT_EQ(scheduler.cancelled(), 1u);
  EXPECT_EQ(scheduler.dispatched(), 1u);
}

// --- Exporters -------------------------------------------------------------

TEST(ExportersTest, PrometheusTextExposition) {
  MetricsRegistry reg;
  reg.counter("ipfsmon_test_ops_total", "Operations").inc(3);
  reg.gauge("ipfsmon_test_conns", "Connections", "country=\"US\"").set(2.0);
  Histogram& h =
      reg.histogram("ipfsmon_test_latency_seconds", {0.1, 1.0}, "Latency");
  h.observe(0.05);
  h.observe(0.5);
  h.observe(5.0);
  reg.gauge("ipfsmon_test_nan").set(std::nan(""));
  reg.gauge("ipfsmon_test_huge").set(1e300);
  reg.gauge("ipfsmon_test_neg_inf").set(-INFINITY);

  const std::string text = to_prometheus(reg);
  EXPECT_NE(text.find("# TYPE ipfsmon_test_ops_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("ipfsmon_test_ops_total 3"), std::string::npos);
  EXPECT_NE(text.find("ipfsmon_test_conns{country=\"US\"} 2"),
            std::string::npos);
  // Histogram buckets are cumulative with le labels, plus sum and count.
  EXPECT_NE(text.find("ipfsmon_test_latency_seconds_bucket{le=\"0.1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("ipfsmon_test_latency_seconds_bucket{le=\"1\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("ipfsmon_test_latency_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("ipfsmon_test_latency_seconds_count 3"),
            std::string::npos);
  // Non-finite and huge values use the exposition format's spellings.
  EXPECT_NE(text.find("\nipfsmon_test_nan NaN\n"), std::string::npos);
  EXPECT_NE(text.find("\nipfsmon_test_huge 1e+300\n"), std::string::npos);
  EXPECT_NE(text.find("\nipfsmon_test_neg_inf -Inf\n"), std::string::npos);
}

TEST(ExportersTest, JsonlLineCarriesEveryInstrument) {
  sim::Scheduler scheduler;
  MetricsRegistry reg;
  reg.counter("ipfsmon_test_ops_total").inc(2);
  reg.histogram("ipfsmon_test_latency_seconds", {1.0}).observe(0.5);
  reg.gauge("ipfsmon_test_conns", "", "country=\"US\"").set(4.0);
  reg.gauge("ipfsmon_test_nan").set(std::nan(""));
  reg.gauge("ipfsmon_test_huge").set(1e300);
  Collector collector(scheduler, reg);
  collector.collect_now();

  const std::string line = to_jsonl_line(reg, collector.samples().front());
  EXPECT_NE(line.find("\"t_seconds\":"), std::string::npos);
  EXPECT_NE(line.find("\"ipfsmon_test_ops_total\":2"), std::string::npos);
  // Histograms export their observation count under _count.
  EXPECT_NE(line.find("\"ipfsmon_test_latency_seconds_count\":1"),
            std::string::npos);
  // Label quotes are backslash-escaped so the line stays valid JSON.
  EXPECT_NE(line.find("\"ipfsmon_test_conns{country=\\\"US\\\"}\":4"),
            std::string::npos);
  EXPECT_EQ(line.find("{country=\"US\"}\":"), std::string::npos);
  // JSON has no NaN: it becomes null, and a huge value stays a number.
  EXPECT_NE(line.find("\"ipfsmon_test_nan\":null"), std::string::npos);
  EXPECT_NE(line.find("\"ipfsmon_test_huge\":1e+300"), std::string::npos);
  EXPECT_TRUE(util::json::valid(line)) << line;
}

// --- End-to-end invariant ---------------------------------------------------

// Requesters that connect ONLY to a monitor: every want/cancel entry they
// send must appear as exactly one monitor trace entry, and nothing may be
// dropped — the bookkeeping identity the sidecars rely on.
TEST(ObsInvariantTest, BroadcastsSentEqualTraceEntriesRecorded) {
  SimFixture fix(17);
  auto& mon = fix.make_monitor();
  mon.go_online({});

  node::NodeConfig requester_config;
  requester_config.dht_server = false;  // clients: never enter DHT tables,
                                        // so no cross-dials between them
  requester_config.target_degree = 0;   // no ambient discovery
  requester_config.discovery_dials = 0;
  requester_config.high_water = 0;  // no connection-manager trims
  requester_config.low_water = 0;
  requester_config.bitswap.fetch_timeout = 1 * kMinute;

  std::vector<node::IpfsNode*> requesters;
  for (int i = 0; i < 5; ++i) {
    auto& n = fix.make_node(requester_config);
    n.go_online({mon.id()});
    requesters.push_back(&n);
  }
  fix.run_for(10 * kSecond);

  for (std::size_t i = 0; i < requesters.size(); ++i) {
    requesters[i]->fetch(
        cid::Cid::of_data(cid::Multicodec::Raw,
                          util::bytes_of("missing-" + std::to_string(i))),
        nullptr);
  }
  // Past every fetch deadline: broadcasts, re-broadcasts, and final
  // CANCELs have all been sent and delivered.
  fix.run_for(3 * kMinute);

  auto counter = [&](const char* name) -> std::uint64_t {
    const InstrumentInfo* info = fix.network.obs().metrics.find(name);
    EXPECT_NE(info, nullptr) << name;
    return info != nullptr
               ? fix.network.obs().metrics.counter_at(info->slot).value()
               : 0;
  };

  const std::uint64_t wants = counter("ipfsmon_bitswap_want_have_sent_total") +
                              counter("ipfsmon_bitswap_want_block_sent_total");
  const std::uint64_t cancels = counter("ipfsmon_bitswap_cancels_sent_total");
  const std::uint64_t recorded =
      counter("ipfsmon_monitor_trace_entries_total");

  EXPECT_GT(wants, 0u);
  EXPECT_GT(cancels, 0u);
  EXPECT_EQ(counter("ipfsmon_net_messages_dropped_total"), 0u);
  EXPECT_EQ(wants + cancels, recorded);
  EXPECT_EQ(recorded, read_store(mon).size());
}

}  // namespace
}  // namespace ipfsmon::obs
