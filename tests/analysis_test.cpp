// Analysis toolkit: size estimators (eq. 1 / eq. 3), ECDF, KS, QQ,
// popularity scores, and the Clauset-Shalizi-Newman power-law machinery.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "analysis/aggregate.hpp"
#include "analysis/cache_model.hpp"
#include "analysis/ecdf.hpp"
#include "analysis/estimators.hpp"
#include "analysis/ks.hpp"
#include "analysis/popularity.hpp"
#include "analysis/powerlaw.hpp"
#include "analysis/qq.hpp"
#include "test_helpers.hpp"

namespace ipfsmon::analysis {
namespace {

using testing_helpers::feed;
using util::kSecond;

crypto::PeerId peer_n(int n) {
  util::RngStream rng(static_cast<std::uint64_t>(n) + 1, "an-peer");
  return crypto::KeyPair::generate(rng).peer_id();
}

cid::Cid cid_n(int n) {
  return cid::Cid::of_data(cid::Multicodec::Raw,
                           util::bytes_of("an-cid " + std::to_string(n)));
}

// --- Estimators -----------------------------------------------------------------

TEST(Estimators, PairwiseMatchesFormula) {
  // N̂ = |P1|·|P2| / |P1 ∩ P2| = 100·80/40 = 200.
  const auto est = estimate_pairwise(100, 80, 40);
  ASSERT_TRUE(est.has_value());
  EXPECT_DOUBLE_EQ(*est, 200.0);
}

TEST(Estimators, PairwiseUndefinedWithoutOverlap) {
  EXPECT_FALSE(estimate_pairwise(100, 80, 0).has_value());
}

TEST(Estimators, PairwiseFromPeerSets) {
  std::vector<crypto::PeerId> a, b;
  for (int i = 0; i < 10; ++i) a.push_back(peer_n(i));       // 0..9
  for (int i = 5; i < 15; ++i) b.push_back(peer_n(i));       // 5..14
  const auto est = estimate_pairwise(a, b);                   // 10*10/5
  ASSERT_TRUE(est.has_value());
  EXPECT_DOUBLE_EQ(*est, 20.0);
}

TEST(Estimators, PairwiseIgnoresDuplicateEntries) {
  std::vector<crypto::PeerId> a{peer_n(0), peer_n(0), peer_n(1)};
  std::vector<crypto::PeerId> b{peer_n(1), peer_n(1), peer_n(2)};
  const auto est = estimate_pairwise(a, b);  // sets {0,1}, {1,2}: 2*2/1
  ASSERT_TRUE(est.has_value());
  EXPECT_DOUBLE_EQ(*est, 4.0);
}

TEST(Estimators, CommitteeReducesToPairwiseRegime) {
  // With r=2 and full-information values both estimators should land in
  // the same ballpark: simulate N=1000, w=400.
  // E[union] = N(1-(1-w/N)^r) = 1000*(1-0.36) = 640.
  const auto est = estimate_committee(std::size_t{640}, 2, 400.0);
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(*est, 1000.0, 1.0);
}

TEST(Estimators, CommitteeUndefinedWithDisjointDraws) {
  // m == r·w means no overlap was observed: MLE diverges.
  EXPECT_FALSE(estimate_committee(std::size_t{800}, 2, 400.0).has_value());
}

class CommitteeRecovery
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(CommitteeRecovery, RecoversTrueNFromSyntheticDraws) {
  const auto [true_n, r] = GetParam();
  const std::size_t w = true_n / 3;
  util::RngStream rng(99, "committee");

  // Simulate r draws of w distinct peers from a population of true_n.
  std::vector<int> population(true_n);
  std::set<int> union_set;
  for (std::size_t draw = 0; draw < r; ++draw) {
    std::set<int> drawn;
    while (drawn.size() < w) {
      drawn.insert(static_cast<int>(rng.uniform_index(true_n)));
    }
    union_set.insert(drawn.begin(), drawn.end());
  }
  const auto est = estimate_committee(union_set.size(), r,
                                      static_cast<double>(w));
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(*est, static_cast<double>(true_n),
              0.15 * static_cast<double>(true_n));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CommitteeRecovery,
    ::testing::Values(std::tuple{500u, 2u}, std::tuple{500u, 4u},
                      std::tuple{2000u, 2u}, std::tuple{2000u, 3u},
                      std::tuple{10000u, 2u}, std::tuple{10000u, 5u}));

TEST(Estimators, SnapshotSeriesStatistics) {
  EstimateSeries series;
  series.values = {10.0, 12.0, 14.0};
  EXPECT_DOUBLE_EQ(series.mean(), 12.0);
  EXPECT_DOUBLE_EQ(series.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(EstimateSeries{}.mean(), 0.0);
}

TEST(Estimators, EstimateOverSnapshotsEndToEnd) {
  // Two monitors, three identical snapshots; each sees half of 100 peers
  // with 25 overlap → eq. (1) gives 50*50/25 = 100 per snapshot.
  std::vector<crypto::PeerId> m1, m2;
  for (int i = 0; i < 50; ++i) m1.push_back(peer_n(i));
  for (int i = 25; i < 75; ++i) m2.push_back(peer_n(i));
  std::vector<std::vector<std::vector<crypto::PeerId>>> snapshots(
      3, {m1, m2});
  const auto result = estimate_over_snapshots(snapshots);
  ASSERT_EQ(result.pairwise.values.size(), 3u);
  EXPECT_DOUBLE_EQ(result.pairwise.mean(), 100.0);
  EXPECT_DOUBLE_EQ(result.pairwise.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(result.mean_union_size, 75.0);
  ASSERT_EQ(result.mean_set_sizes.size(), 2u);
  EXPECT_DOUBLE_EQ(result.mean_set_sizes[0], 50.0);
  ASSERT_FALSE(result.committee.empty());
  EXPECT_NEAR(result.committee.mean(), 100.0, 10.0);
}

TEST(Estimators, IntersectionOverUnion) {
  std::vector<crypto::PeerId> a, b;
  for (int i = 0; i < 10; ++i) a.push_back(peer_n(i));
  for (int i = 5; i < 15; ++i) b.push_back(peer_n(i));
  EXPECT_DOUBLE_EQ(intersection_over_union(a, b), 5.0 / 15.0);
  EXPECT_DOUBLE_EQ(intersection_over_union(a, a), 1.0);
  EXPECT_DOUBLE_EQ(intersection_over_union({}, {}), 0.0);
}

// --- ECDF -------------------------------------------------------------------------

TEST(EcdfTest, EvaluatesStepFunction) {
  Ecdf ecdf({1.0, 2.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(ecdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(ecdf.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(ecdf.at(2.0), 0.75);
  EXPECT_DOUBLE_EQ(ecdf.at(3.0), 0.75);
  EXPECT_DOUBLE_EQ(ecdf.at(4.0), 1.0);
  EXPECT_DOUBLE_EQ(ecdf.at(99.0), 1.0);
}

TEST(EcdfTest, Quantiles) {
  Ecdf ecdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(ecdf.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(ecdf.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(ecdf.quantile(1.0), 4.0);
  EXPECT_THROW(Ecdf({}).quantile(0.5), std::logic_error);
}

TEST(EcdfTest, PointsCollapseDuplicates) {
  Ecdf ecdf({1.0, 1.0, 1.0, 5.0});
  const auto pts = ecdf.points();
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_DOUBLE_EQ(pts[0].second, 0.75);
  EXPECT_DOUBLE_EQ(pts[1].second, 1.0);
}

TEST(EcdfTest, DownsamplingKeepsEndpoints) {
  std::vector<double> samples;
  for (int i = 0; i < 1000; ++i) samples.push_back(i);
  Ecdf ecdf(std::move(samples));
  const auto pts = ecdf.points(10);
  ASSERT_EQ(pts.size(), 10u);
  EXPECT_DOUBLE_EQ(pts.front().first, 0.0);
  EXPECT_DOUBLE_EQ(pts.back().first, 999.0);
}

// --- KS ---------------------------------------------------------------------------

TEST(Ks, UniformSamplesScoreLow) {
  util::RngStream rng(1, "ks");
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) samples.push_back(rng.uniform());
  EXPECT_LT(ks_statistic_uniform(samples), 0.03);
}

TEST(Ks, SkewedSamplesScoreHigh) {
  util::RngStream rng(2, "ks2");
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) samples.push_back(rng.uniform() * 0.5);
  EXPECT_GT(ks_statistic_uniform(samples), 0.4);
}

TEST(Ks, TwoSampleSameDistributionScoresLow) {
  util::RngStream rng(3, "ks3");
  std::vector<double> a, b;
  for (int i = 0; i < 4000; ++i) a.push_back(rng.normal(0, 1));
  for (int i = 0; i < 4000; ++i) b.push_back(rng.normal(0, 1));
  EXPECT_LT(ks_statistic_two_sample(a, b), 0.05);
}

TEST(Ks, TwoSampleShiftedScoresHigh) {
  util::RngStream rng(4, "ks4");
  std::vector<double> a, b;
  for (int i = 0; i < 2000; ++i) a.push_back(rng.normal(0, 1));
  for (int i = 0; i < 2000; ++i) b.push_back(rng.normal(2, 1));
  EXPECT_GT(ks_statistic_two_sample(a, b), 0.5);
}

TEST(Ks, PValueBehaviour) {
  EXPECT_GT(ks_p_value(0.01, 100), 0.9);   // tiny deviation: not significant
  EXPECT_LT(ks_p_value(0.5, 1000), 1e-6);  // huge deviation: significant
  EXPECT_DOUBLE_EQ(ks_p_value(0.0, 10), 1.0);
}

// --- QQ ----------------------------------------------------------------------------

TEST(Qq, UniformIdsHugTheDiagonal) {
  util::RngStream rng(5, "qq");
  std::vector<crypto::PeerId> peers;
  for (int i = 0; i < 4000; ++i) {
    peers.push_back(crypto::KeyPair::generate(rng).peer_id());
  }
  const auto points = qq_against_uniform(peers, 64);
  ASSERT_EQ(points.size(), 64u);
  EXPECT_LT(qq_max_deviation(points), 0.05);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GE(points[i].empirical, points[i - 1].empirical);  // monotone
  }
}

TEST(Qq, BiasedIdsDeviate) {
  // Synthetic bias: only IDs in the lower half of the space.
  util::RngStream rng(6, "qq2");
  std::vector<crypto::PeerId> peers;
  while (peers.size() < 1000) {
    const auto id = crypto::KeyPair::generate(rng).peer_id();
    if (id.as_unit_interval() < 0.5) peers.push_back(id);
  }
  EXPECT_GT(qq_max_deviation(qq_against_uniform(peers, 64)), 0.3);
}

TEST(Qq, EmptyInput) {
  EXPECT_TRUE(qq_against_uniform({}, 10).empty());
}

// --- Popularity ---------------------------------------------------------------------

trace::TraceEntry request(int peer, int cid, util::SimTime t = 0,
                          std::uint32_t flags = 0) {
  trace::TraceEntry e;
  e.timestamp = t;
  e.peer = peer_n(peer);
  e.cid = cid_n(cid);
  e.type = bitswap::WantType::WantHave;
  e.flags = flags;
  return e;
}

TEST(Popularity, RrpCountsAllRequestsUrpCountsDistinctPeers) {
  trace::Trace t;
  t.append(request(1, 1, 0));
  t.append(request(1, 1, 100 * kSecond));  // same peer again (new request)
  t.append(request(2, 1, 200 * kSecond));
  t.append(request(3, 2, 300 * kSecond));
  const auto scores = feed(PopularityAccumulator(), t).scores();
  EXPECT_EQ(scores.rrp.at(cid_n(1)), 3u);
  EXPECT_EQ(scores.urp.at(cid_n(1)), 2u);
  EXPECT_EQ(scores.rrp.at(cid_n(2)), 1u);
  EXPECT_EQ(scores.urp.at(cid_n(2)), 1u);
}

TEST(Popularity, FlaggedEntriesExcludedWhenCleanOnly) {
  trace::Trace t;
  t.append(request(1, 1));
  t.append(request(1, 1, 30 * kSecond, trace::kRebroadcast));
  const auto clean = feed(PopularityAccumulator(true), t).scores();
  const auto all = feed(PopularityAccumulator(false), t).scores();
  EXPECT_EQ(clean.rrp.at(cid_n(1)), 1u);
  EXPECT_EQ(all.rrp.at(cid_n(1)), 2u);
}

TEST(Popularity, CancelsNeverCount) {
  trace::Trace t;
  auto e = request(1, 1);
  e.type = bitswap::WantType::Cancel;
  t.append(e);
  EXPECT_TRUE(feed(PopularityAccumulator(), t).scores().rrp.empty());
}

TEST(Popularity, SingleRequesterShare) {
  trace::Trace t;
  t.append(request(1, 1));
  t.append(request(1, 2));
  t.append(request(2, 2));
  const auto scores = feed(PopularityAccumulator(), t).scores();
  EXPECT_DOUBLE_EQ(scores.single_requester_share(), 0.5);
}

TEST(Popularity, TopKIsSortedAndDeterministic) {
  trace::Trace t;
  for (int p = 0; p < 5; ++p) t.append(request(p, 1, p * kSecond * 60));
  for (int p = 0; p < 3; ++p) t.append(request(p, 2, p * kSecond * 60));
  t.append(request(0, 3));
  const auto scores = feed(PopularityAccumulator(), t).scores();
  const auto top = scores.top_urp(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, cid_n(1));
  EXPECT_EQ(top[0].second, 5u);
  EXPECT_EQ(top[1].first, cid_n(2));
}

// --- Power law -----------------------------------------------------------------------

TEST(PowerLaw, HurwitzZetaMatchesKnownValues) {
  // ζ(2, 1) = π²/6.
  EXPECT_NEAR(hurwitz_zeta(2.0, 1.0), std::numbers::pi * std::numbers::pi / 6.0,
              1e-9);
  // ζ(s, a+1) = ζ(s, a) − a^−s.
  EXPECT_NEAR(hurwitz_zeta(2.5, 4.0),
              hurwitz_zeta(2.5, 3.0) - std::pow(3.0, -2.5), 1e-9);
}

TEST(PowerLaw, AlphaRecoveredFromSyntheticPowerLaw) {
  util::RngStream rng(7, "pl");
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    samples.push_back(sample_discrete_power_law(rng, 1.0, 2.5));
  }
  const double alpha = fit_alpha_discrete(samples, 1.0);
  EXPECT_NEAR(alpha, 2.5, 0.1);
}

TEST(PowerLaw, FitFindsReasonableXmin) {
  util::RngStream rng(8, "pl2");
  // Power law only above 5; uniform noise below.
  std::vector<double> samples;
  for (int i = 0; i < 3000; ++i) {
    samples.push_back(sample_discrete_power_law(rng, 5.0, 2.2));
  }
  for (int i = 0; i < 3000; ++i) {
    samples.push_back(1.0 + static_cast<double>(rng.uniform_index(4)));
  }
  const PowerLawFit fit = fit_power_law(samples);
  EXPECT_GE(fit.xmin, 3.0);
  EXPECT_LE(fit.xmin, 12.0);
  EXPECT_NEAR(fit.alpha, 2.2, 0.35);
  EXPECT_LT(fit.ks_distance, 0.1);
}

TEST(PowerLaw, TruePowerLawIsNotRejected) {
  util::RngStream rng(9, "pl3");
  std::vector<double> samples;
  for (int i = 0; i < 2000; ++i) {
    samples.push_back(sample_discrete_power_law(rng, 1.0, 2.3));
  }
  const PowerLawTest test = test_power_law(samples, rng, 50);
  EXPECT_GE(test.p_value, 0.1);
  EXPECT_FALSE(test.rejected());
}

TEST(PowerLaw, GeometricTailIsRejected) {
  // A geometric (exponential-tail) distribution is the classic non-power-
  // law case: CSN must reject it decisively with enough samples.
  util::RngStream rng(10, "pl4");
  std::vector<double> samples;
  for (int i = 0; i < 10000; ++i) {
    samples.push_back(1.0 + std::floor(rng.exponential(3.0)));
  }
  const PowerLawTest test = test_power_law(samples, rng, 50);
  EXPECT_TRUE(test.rejected()) << "p=" << test.p_value;
}

TEST(PowerLaw, UniformDistributionIsRejected) {
  util::RngStream rng(13, "pl7");
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) {
    samples.push_back(1.0 + static_cast<double>(rng.uniform_index(100)));
  }
  const PowerLawTest test = test_power_law(samples, rng, 50);
  EXPECT_TRUE(test.rejected()) << "p=" << test.p_value;
}

TEST(PowerLaw, EmptyAndTinyInputsAreSafe) {
  util::RngStream rng(11, "pl5");
  EXPECT_NO_THROW(fit_power_law({}));
  EXPECT_NO_THROW(fit_power_law({1.0, 2.0}));
  const PowerLawTest test = test_power_law({}, rng, 5);
  EXPECT_EQ(test.fit.tail_size, 0u);
}

TEST(PowerLaw, SamplerRespectsXmin) {
  util::RngStream rng(12, "pl6");
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(sample_discrete_power_law(rng, 3.0, 2.0), 3.0);
  }
}

// --- Aggregations -----------------------------------------------------------------------

TEST(Aggregate, ShareByCodec) {
  trace::Trace t;
  for (int i = 0; i < 3; ++i) {
    trace::TraceEntry e = request(i, i);
    e.cid = cid::Cid::of_data(cid::Multicodec::DagProtobuf,
                              util::bytes_of("pb" + std::to_string(i)));
    t.append(e);
  }
  trace::TraceEntry raw = request(0, 9);
  t.append(raw);
  const auto rows = feed(ShareAccumulator::by_codec(), t).rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].label, "DagProtobuf");
  EXPECT_EQ(rows[0].count, 3u);
  EXPECT_NEAR(rows[0].share_percent, 75.0, 1e-9);
  EXPECT_EQ(rows[1].label, "Raw");
}

TEST(Aggregate, ShareByCountryUsesGeoDatabase) {
  net::GeoDatabase geo = net::GeoDatabase::standard();
  trace::Trace t;
  trace::TraceEntry us = request(1, 1);
  us.address = geo.allocate_address("US");
  trace::TraceEntry de = request(2, 2);
  de.address = geo.allocate_address("DE");
  t.append(us);
  t.append(us);
  t.append(de);
  const auto rows = feed(ShareAccumulator::by_country(geo), t).rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].label, "US");
  EXPECT_NEAR(rows[0].share_percent, 200.0 / 3.0, 1e-9);
}

TEST(Aggregate, RequestsByTypeOverTimeBuckets) {
  trace::Trace t;
  trace::TraceEntry day0 = request(1, 1, 3 * util::kHour);
  day0.type = bitswap::WantType::WantBlock;
  trace::TraceEntry day1 = request(1, 2, util::kDay + util::kHour);
  day1.type = bitswap::WantType::WantHave;
  trace::TraceEntry day1b = request(2, 3, util::kDay + 2 * util::kHour);
  day1b.type = bitswap::WantType::WantHave;
  t.append(day0);
  t.append(day1);
  t.append(day1b);
  const auto buckets = feed(RequestTypeAccumulator(util::kDay), t).buckets();
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0].want_block, 1u);
  EXPECT_EQ(buckets[0].want_have, 0u);
  EXPECT_EQ(buckets[1].want_have, 2u);
}

TEST(Aggregate, RequestRateByGroup) {
  trace::Trace t;
  t.append(request(1, 1, 10 * kSecond));
  t.append(request(1, 2, 20 * kSecond));
  t.append(request(2, 3, 30 * kSecond));
  const auto buckets = feed(GroupRateAccumulator(
                                [&](const crypto::PeerId& p) {
                                  return p == peer_n(1)
                                             ? std::string("gateway")
                                             : std::string("homegrown");
                                },
                                util::kHour),
                            t)
                           .buckets();
  ASSERT_EQ(buckets.size(), 1u);
  EXPECT_NEAR(buckets[0].rate_per_second.at("gateway"), 2.0 / 3600.0, 1e-12);
  EXPECT_NEAR(buckets[0].rate_per_second.at("homegrown"), 1.0 / 3600.0, 1e-12);
}

TEST(Aggregate, RequestsPerPeerSorted) {
  trace::Trace t;
  t.append(request(1, 1));
  t.append(request(1, 2));
  t.append(request(2, 3));
  const auto per_peer = feed(PeerRequestAccumulator(), t).rows();
  ASSERT_EQ(per_peer.size(), 2u);
  EXPECT_EQ(per_peer[0].first, peer_n(1));
  EXPECT_EQ(per_peer[0].second, 2u);
}

// --- Cache model (Che's approximation, paper ref. [28]) ---------------------

TEST(CacheModel, FullCatalogCacheHitsEverything) {
  const auto prediction = che_hit_ratio({1.0, 2.0, 3.0}, 3);
  EXPECT_DOUBLE_EQ(prediction.hit_ratio, 1.0);
}

TEST(CacheModel, EmptyInputsAreSafe) {
  EXPECT_DOUBLE_EQ(che_hit_ratio({}, 10).hit_ratio, 0.0);
  EXPECT_DOUBLE_EQ(che_hit_ratio({1.0}, 0).hit_ratio, 0.0);
  EXPECT_DOUBLE_EQ(simulate_lru_hit_ratio({}, 5, 100, 1), 0.0);
}

TEST(CacheModel, HitRatioGrowsWithCacheSize) {
  util::RngStream rng(20, "cm");
  std::vector<double> weights;
  for (int i = 0; i < 500; ++i) weights.push_back(rng.pareto(1.0, 1.2));
  double prev = -1.0;
  for (std::size_t cache : {5u, 25u, 100u, 250u}) {
    const double hit = che_hit_ratio(weights, cache).hit_ratio;
    EXPECT_GT(hit, prev);
    prev = hit;
  }
}

TEST(CacheModel, PopularItemsHitMoreOften) {
  const std::vector<double> weights{100.0, 1.0, 1.0, 1.0, 1.0, 1.0};
  const auto prediction = che_hit_ratio(weights, 2);
  ASSERT_EQ(prediction.per_item_hit.size(), weights.size());
  EXPECT_GT(prediction.per_item_hit[0], prediction.per_item_hit[1]);
  EXPECT_GT(prediction.per_item_hit[0], 0.95);
}

class CheAccuracy : public ::testing::TestWithParam<double> {};

TEST_P(CheAccuracy, MatchesLruSimulationWithinOnePercent) {
  // Zipf-ish weights, cache size as a fraction of the catalog.
  util::RngStream rng(21, "che-acc");
  std::vector<double> weights;
  for (int i = 1; i <= 800; ++i) weights.push_back(1.0 / std::pow(i, 0.9));
  const auto cache = static_cast<std::size_t>(GetParam() * 800);
  const double predicted = che_hit_ratio(weights, cache).hit_ratio;
  const double simulated = simulate_lru_hit_ratio(weights, cache, 200000, 7);
  EXPECT_NEAR(predicted, simulated, 0.01);
}

INSTANTIATE_TEST_SUITE_P(CacheFractions, CheAccuracy,
                         ::testing::Values(0.01, 0.05, 0.1, 0.3, 0.6));

TEST(CacheModel, SimulationIsDeterministic) {
  const std::vector<double> weights{5.0, 3.0, 2.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(simulate_lru_hit_ratio(weights, 2, 10000, 42),
                   simulate_lru_hit_ratio(weights, 2, 10000, 42));
}

}  // namespace
}  // namespace ipfsmon::analysis
