// Scenario layer: content catalog, version adoption, population churn and
// workloads, gateway fleet, and the end-to-end monitoring study.
#include <gtest/gtest.h>

#include "ingest/replay.hpp"
#include "scenario/catalog.hpp"
#include "scenario/study.hpp"
#include "scenario/version_model.hpp"
#include "trace/preprocess.hpp"

namespace ipfsmon::scenario {
namespace {

using util::kDay;
using util::kHour;
using util::kMinute;

// --- ContentCatalog -----------------------------------------------------------

TEST(Catalog, GeneratesRequestedItemCount) {
  CatalogConfig config;
  config.item_count = 500;
  ContentCatalog catalog(config, util::RngStream(1, "cat"));
  EXPECT_EQ(catalog.size(), 500u);
  EXPECT_GT(catalog.resolvable_count(), 400u);
  EXPECT_LT(catalog.resolvable_count(), 500u);  // some unresolvable
}

TEST(Catalog, CodecMixFollowsTable1Shape) {
  CatalogConfig config;
  config.item_count = 5000;
  ContentCatalog catalog(config, util::RngStream(2, "cat2"));
  std::size_t dagpb = 0, raw = 0;
  for (const auto& item : catalog.items()) {
    if (item.codec == cid::Multicodec::DagProtobuf) ++dagpb;
    if (item.codec == cid::Multicodec::Raw) ++raw;
  }
  EXPECT_NEAR(dagpb / 5000.0, 0.8621, 0.03);
  EXPECT_NEAR(raw / 5000.0, 0.1342, 0.03);
}

TEST(Catalog, DagItemsHaveMultipleBlocks) {
  CatalogConfig config;
  config.item_count = 1000;
  config.dag_share = 1.0;  // every DagProtobuf item is a real DAG
  ContentCatalog catalog(config, util::RngStream(3, "cat3"));
  bool saw_dag = false;
  for (const auto& item : catalog.items()) {
    if (item.is_dag) {
      saw_dag = true;
      EXPECT_GT(item.blocks.size(), 1u);
      EXPECT_EQ(item.root.codec(), cid::Multicodec::DagProtobuf);
    }
  }
  EXPECT_TRUE(saw_dag);
}

TEST(Catalog, WeightedSamplingPrefersHeavyItems) {
  CatalogConfig config;
  config.item_count = 100;
  ContentCatalog catalog(config, util::RngStream(4, "cat4"));
  util::RngStream rng(5, "cat5");
  // Find the heaviest item.
  std::size_t heaviest = 0;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    if (catalog.items()[i].weight > catalog.items()[heaviest].weight) {
      heaviest = i;
    }
  }
  std::size_t hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (catalog.sample_index(rng) == heaviest) ++hits;
  }
  EXPECT_GT(hits, static_cast<std::size_t>(n) / 100);  // way above 1/100
}

TEST(Catalog, PopularSamplingIsMoreConcentrated) {
  CatalogConfig config;
  config.item_count = 500;
  ContentCatalog catalog(config, util::RngStream(6, "cat6"));
  util::RngStream rng(7, "cat7");
  double plain_weight = 0.0, biased_weight = 0.0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    plain_weight += catalog.sample(rng).weight;
    biased_weight += catalog.sample_popular(rng, 6).weight;
  }
  EXPECT_GT(biased_weight, plain_weight);
}

TEST(Catalog, OneOffsAreUniqueAndSingleBlock) {
  CatalogConfig config;
  ContentCatalog catalog(config, util::RngStream(8, "cat8"));
  util::RngStream rng(9, "cat9");
  const CatalogItem a = catalog.create_oneoff(rng);
  const CatalogItem b = catalog.create_oneoff(rng);
  EXPECT_NE(a.root, b.root);
  EXPECT_EQ(a.blocks.size(), 1u);
  EXPECT_FALSE(a.is_dag);
}

TEST(Catalog, DeterministicForFixedSeed) {
  CatalogConfig config;
  config.item_count = 50;
  ContentCatalog a(config, util::RngStream(10, "cat"));
  ContentCatalog b(config, util::RngStream(10, "cat"));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.items()[i].root, b.items()[i].root);
  }
}

// --- VersionAdoptionModel -------------------------------------------------------

TEST(VersionModel, LogisticShape) {
  VersionAdoptionModel model;
  model.midpoint = 30 * kDay;
  model.initial_share = 0.0;
  model.final_share = 1.0;
  EXPECT_LT(model.upgraded_share(0), 0.1);
  EXPECT_NEAR(model.upgraded_share(30 * kDay), 0.5, 1e-9);
  EXPECT_GT(model.upgraded_share(90 * kDay), 0.95);
}

TEST(VersionModel, MonotonicallyIncreasing) {
  VersionAdoptionModel model;
  double prev = -1.0;
  for (int day = 0; day <= 120; day += 5) {
    const double share = model.upgraded_share(day * kDay);
    EXPECT_GE(share, prev);
    prev = share;
  }
}

TEST(VersionModel, RespectsFloorAndCeiling) {
  VersionAdoptionModel model;
  model.initial_share = 0.1;
  model.final_share = 0.9;
  EXPECT_GE(model.upgraded_share(-1000 * kDay), 0.1);
  EXPECT_LE(model.upgraded_share(1000 * kDay), 0.9);
}

// --- Study end-to-end ------------------------------------------------------------

StudyConfig small_study_config(std::uint64_t seed = 11) {
  StudyConfig config;
  config.seed = seed;
  config.population.node_count = 120;
  config.population.stable_server_count = 10;
  config.catalog.item_count = 300;
  config.warmup = 2 * kHour;
  config.duration = 4 * kHour;
  return config;
}

TEST(Study, MonitorsObserveTraffic) {
  MonitoringStudy study(small_study_config());
  study.run();
  for (auto* m : study.monitors()) {
    EXPECT_GT(m->recorded().size(), 50u);
    EXPECT_GT(m->bitswap_active_peers().size(), 5u);
    EXPECT_GT(m->peers_seen().size(), 20u);
  }
}

TEST(Study, SnapshotsAreCollectedHourly) {
  MonitoringStudy study(small_study_config(12));
  study.run();
  // 4 h measurement with 1 h snapshots → 4 snapshots (+/- boundary).
  for (auto* m : study.monitors()) {
    EXPECT_GE(m->snapshots().size(), 3u);
    EXPECT_LE(m->snapshots().size(), 5u);
  }
  EXPECT_EQ(study.matched_snapshots().size(),
            std::min(study.monitor(0).snapshots().size(),
                     study.monitor(1).snapshots().size()));
}

TEST(Study, UnifiedTraceHasBothMonitorsAndFlags) {
  MonitoringStudy study(small_study_config(13));
  study.run();
  const trace::Trace unified = study.unified_trace();
  ASSERT_GT(unified.size(), 0u);
  bool saw_m0 = false, saw_m1 = false, saw_rebroadcast = false,
       saw_duplicate = false;
  util::SimTime prev = 0;
  for (const auto& e : unified.entries()) {
    EXPECT_GE(e.timestamp, prev);  // time-sorted
    prev = e.timestamp;
    if (e.monitor == 0) saw_m0 = true;
    if (e.monitor == 1) saw_m1 = true;
    if (e.is_rebroadcast()) saw_rebroadcast = true;
    if (e.is_duplicate()) saw_duplicate = true;
  }
  EXPECT_TRUE(saw_m0);
  EXPECT_TRUE(saw_m1);
  EXPECT_TRUE(saw_rebroadcast);
  EXPECT_TRUE(saw_duplicate);
}

TEST(Study, WarmupResetsObservations) {
  MonitoringStudy study(small_study_config(14));
  study.run_warmup();
  // Right after warm-up the traces are clean and snapshots empty.
  for (auto* m : study.monitors()) {
    EXPECT_EQ(m->recorded().size(), 0u);
    EXPECT_EQ(m->snapshots().size(), 0u);
  }
  study.run_measurement(2 * kHour);
  std::size_t total = 0;
  for (auto* m : study.monitors()) total += m->recorded().size();
  EXPECT_GT(total, 0u);
}

TEST(Study, GatewayGroundTruthMatchesFleetSpec) {
  MonitoringStudy study(small_study_config(15));
  auto* fleet = study.gateways();
  ASSERT_NE(fleet, nullptr);
  const auto& truth = fleet->ground_truth();
  const auto* cf = fleet->spec_of("cloudflare-ipfs.com");
  ASSERT_NE(cf, nullptr);
  EXPECT_EQ(truth.at("cloudflare-ipfs.com").size(), cf->node_count);
  EXPECT_EQ(cf->node_count, 13u);  // the paper's 13 Cloudflare nodes
  for (const auto& id : truth.at("cloudflare-ipfs.com")) {
    EXPECT_TRUE(fleet->is_gateway_node(id));
    EXPECT_EQ(fleet->operator_of(id), "cloudflare-ipfs.com");
  }
  EXPECT_FALSE(fleet->is_gateway_node(study.monitor(0).id()));
}

TEST(Study, PopulationChurnKeepsOnlineCountInBand) {
  StudyConfig config = small_study_config(16);
  config.population.mean_session_hours = 2.0;
  config.population.mean_downtime_hours = 2.0;  // 50% duty cycle
  MonitoringStudy study(config);
  study.run();
  const std::size_t online = study.population().online_count();
  const std::size_t total = study.population().size();
  // ~50% duty: accept a generous band.
  EXPECT_GT(online, total / 4);
  EXPECT_LT(online, total * 3 / 4);
  // Churn means more nodes were ever online than are online now.
  EXPECT_GT(study.population().ever_online_count(), online);
}

TEST(Study, DeterministicAcrossRuns) {
  MonitoringStudy a(small_study_config(17));
  MonitoringStudy b(small_study_config(17));
  a.run();
  b.run();
  ASSERT_EQ(a.monitor(0).recorded().size(), b.monitor(0).recorded().size());
  ASSERT_EQ(a.monitor(1).recorded().size(), b.monitor(1).recorded().size());
  // Spot-check entry-level equality.
  for (std::size_t i = 0; i < a.monitor(0).recorded().size(); i += 37) {
    const auto& ea = a.monitor(0).recorded().entries()[i];
    const auto& eb = b.monitor(0).recorded().entries()[i];
    EXPECT_EQ(ea.timestamp, eb.timestamp);
    EXPECT_EQ(ea.peer, eb.peer);
    EXPECT_EQ(ea.cid, eb.cid);
  }
}

// Golden anchor for the plain study: a fixed small run pinned to its
// unified-trace checksum, entry count and population request count. Any
// change to event ordering, RNG consumption or recording shows up here.
TEST(Study, GoldenSmallStudyTraceIsPinned) {
  StudyConfig config;
  config.seed = 7;
  config.population.node_count = 90;
  config.warmup = 1 * kHour;
  config.duration = 1 * kHour;
  config.catalog.item_count = 400;
  config.collect_metrics = false;
  config.enable_gateways = false;
  MonitoringStudy study(config);
  study.run();

  const trace::Trace unified = study.unified_trace();
  std::uint64_t checksum = 0;
  for (const auto& e : unified.entries()) {
    checksum = ingest::fold_entry_checksum(checksum, e);
  }
  EXPECT_EQ(checksum, 0x18bd3c37c1d65095ull);
  EXPECT_EQ(unified.size(), 784u);
  EXPECT_EQ(study.population().requests_issued(), 349u);
}

TEST(Study, DifferentSeedsDiffer) {
  MonitoringStudy a(small_study_config(18));
  MonitoringStudy b(small_study_config(19));
  a.run();
  b.run();
  EXPECT_NE(a.monitor(0).recorded().size(), b.monitor(0).recorded().size());
}

TEST(Study, VersionModelDrivesWantBlockShare) {
  // Early in the adoption curve most requests must be legacy WANT_BLOCK;
  // late, WANT_HAVE dominates.
  auto run_with_midpoint = [](util::SimTime midpoint) {
    StudyConfig config = small_study_config(20);
    config.enable_gateways = false;  // gateways are always modern
    config.population.mean_session_hours = 1.0;  // frequent churn → quick
    config.population.mean_downtime_hours = 1.0; // version re-rolls
    MonitoringStudy study(config);
    VersionAdoptionModel model;
    model.midpoint = midpoint;
    study.population().set_version_model(model);
    study.run();
    const trace::Trace unified = study.unified_trace();
    std::size_t have = 0, block = 0;
    for (const auto& e : unified.entries()) {
      if (e.type == bitswap::WantType::WantHave) ++have;
      if (e.type == bitswap::WantType::WantBlock) ++block;
    }
    return std::pair{have, block};
  };
  const auto early = run_with_midpoint(365 * kDay);  // far future: legacy
  const auto late = run_with_midpoint(-365 * kDay);  // long past: upgraded
  EXPECT_GT(early.second, early.first);  // WANT_BLOCK dominates
  EXPECT_GT(late.first, late.second);    // WANT_HAVE dominates
}

TEST(Study, RateSurgeIncreasesTraffic) {
  StudyConfig config = small_study_config(21);
  config.enable_gateways = false;
  // Misconfigured-client retries run at a fixed rate and would dilute the
  // measured surge factor.
  config.population.misconfigured_nodes = 0;
  MonitoringStudy base(config);
  base.run();
  const std::size_t base_requests = base.population().requests_issued();

  MonitoringStudy surged(config);
  surged.run_warmup();
  const util::SimTime now = surged.scheduler().now();
  surged.population().add_rate_surge(now, now + config.duration, 4.0);
  surged.run_measurement();
  EXPECT_GT(surged.population().requests_issued(), base_requests * 2);
}

TEST(Study, IdentityRotationMultipliesObservedIdentities) {
  StudyConfig config = small_study_config(30);
  config.enable_gateways = false;
  config.population.mean_session_hours = 1.0;
  config.population.mean_downtime_hours = 1.0;
  MonitoringStudy baseline(config);
  baseline.run();

  config.population.rotate_identity_on_rebirth = true;
  MonitoringStudy rotated(config);
  rotated.run();

  EXPECT_GT(rotated.population().identities_rotated(), 20u);
  EXPECT_GT(rotated.population().ever_online_count(),
            baseline.population().ever_online_count() + 20);
}

TEST(Study, CoverTrafficIsTrackedAsGroundTruth) {
  StudyConfig config = small_study_config(31);
  config.enable_gateways = false;
  config.population.cover_traffic_share = 1.0;
  MonitoringStudy study(config);
  study.run();
  EXPECT_GT(study.population().cover_requests_issued(), 10u);

  // Some observed (peer, cid) pairs must be flagged as cover.
  const trace::Trace unified = study.unified_trace();
  std::size_t cover_seen = 0;
  for (const auto& e : unified.entries()) {
    if (e.is_request() &&
        study.population().is_cover_request(e.peer, e.cid)) {
      ++cover_seen;
    }
  }
  EXPECT_GT(cover_seen, 0u);
}

TEST(Study, SaltedWantsHideCidsStudyWide) {
  StudyConfig config = small_study_config(32);
  config.enable_gateways = false;
  config.population.node.bitswap.salted_wants = true;
  MonitoringStudy study(config);
  study.run();

  std::unordered_set<cid::Cid> known;
  for (const auto& item : study.catalog().items()) known.insert(item.root);
  const trace::Trace unified = study.unified_trace();
  ASSERT_GT(unified.size(), 0u);
  for (const auto& e : unified.entries()) {
    EXPECT_EQ(known.count(e.cid), 0u)
        << "catalog CID visible despite salted wants";
  }
}

}  // namespace
}  // namespace ipfsmon::scenario
