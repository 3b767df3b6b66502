// Experiment: monitoring coverage and network-size estimation —
// paper Sec. V-C ("Monitoring Coverage and Network Size").
//
// Reproduced quantities (shape, not absolute scale — the simulated network
// is ~100x smaller than the 2021 IPFS network):
//   * unique peers per monitor over the week vs the per-snapshot averages
//     (weekly totals ≫ averages: churn),
//   * Bitswap-active peers per monitor and their union, with the >70%
//     intersection-over-union the paper reports,
//   * eq. (1) and eq. (3) estimates with std. dev.,
//   * a DHT crawl baseline: crawls see servers (incl. stale entries) but
//     miss DHT clients; monitors see clients too,
//   * per-monitor and joint coverage (paper: 54% / 49%, union 67%).
//
// Flags: --nodes= --days= --seed=
#include "analysis/estimators.hpp"
#include "bench_common.hpp"
#include "dht/crawler.hpp"
#include "scenario/study.hpp"

using namespace ipfsmon;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const bench::Stopwatch stopwatch;
  scenario::StudyConfig config;
  config.seed = flags.u64("--seed", 42);
  config.population.node_count = flags.u64("--nodes", 700);
  config.catalog.item_count = 8000;
  config.warmup = 12 * util::kHour;
  config.duration = static_cast<util::SimDuration>(
      flags.f64("--days", 3.0) * static_cast<double>(util::kDay));
  if (!flags.ok()) return flags.usage("[--nodes=N] [--days=D] [--seed=S]");

  bench::print_header("exp_network_size",
                      "Sec. V-C: monitoring coverage & network size "
                      "(incl. Table-less numbers: peers, estimates, coverage)");
  std::printf("population=%zu days=%.1f seed=%llu\n",
              config.population.node_count, util::to_days(config.duration),
              static_cast<unsigned long long>(config.seed));

  scenario::MonitoringStudy study(config);
  study.run();

  // --- Peers seen: totals vs averages -------------------------------------
  bench::print_section("unique peers (study totals vs snapshot averages)");
  const auto snapshots = study.matched_snapshots();
  const auto estimates = analysis::estimate_over_snapshots(snapshots);
  const auto monitors = study.monitors();
  std::unordered_set<crypto::PeerId> union_total;
  for (std::size_t i = 0; i < monitors.size(); ++i) {
    const auto& seen = monitors[i]->peers_seen();
    union_total.insert(seen.begin(), seen.end());
    std::printf("  monitor %zu: %6zu unique peers total, %7.1f avg connected\n",
                i, seen.size(), estimates.mean_set_sizes[i]);
  }
  std::printf("  union:     %6zu unique peers total, %7.1f avg union\n",
              union_total.size(), estimates.mean_union_size);
  std::printf("  (paper: 78011 / 81423 total, union 99147; avg 7132.56 / "
              "7798.82, union 9628.67 — totals >> averages due to churn)\n");
  const double total_over_avg =
      static_cast<double>(union_total.size()) / estimates.mean_union_size;
  bench::print_comparison("weekly-total / average union ratio",
                          99147.0 / 9628.67, total_over_avg);

  // --- Bitswap-active peers -------------------------------------------------
  bench::print_section("Bitswap-active peers");
  std::vector<crypto::PeerId> active0(monitors[0]->bitswap_active_peers().begin(),
                                      monitors[0]->bitswap_active_peers().end());
  std::vector<crypto::PeerId> active1(monitors[1]->bitswap_active_peers().begin(),
                                      monitors[1]->bitswap_active_peers().end());
  std::unordered_set<crypto::PeerId> active_union(active0.begin(), active0.end());
  active_union.insert(active1.begin(), active1.end());
  std::printf("  monitor 0: %zu active, monitor 1: %zu active, union %zu\n",
              active0.size(), active1.size(), active_union.size());
  std::printf("  (paper: 6080 / 6247, union 7520)\n");
  bench::print_comparison("IoU of Bitswap-active peer sets (>0.70 in paper)",
                          0.70, analysis::intersection_over_union(active0, active1));

  // --- Size estimates ---------------------------------------------------------
  bench::print_section("network-size estimates");
  const std::size_t true_online = study.population().online_count() +
                                  (study.gateways() != nullptr ? 25 : 0) + 2;
  std::printf("  ground truth online now (nodes+gateways+monitors): %zu\n",
              true_online);
  if (!estimates.pairwise.empty()) {
    std::printf("  eq.(1) pairwise : %8.1f  (std %.1f)   [paper: 10561, std 390]\n",
                estimates.pairwise.mean(), estimates.pairwise.stddev());
  }
  if (!estimates.committee.empty()) {
    std::printf("  eq.(3) committee: %8.1f  (std %.1f)   [paper: 10250, std 395]\n",
                estimates.committee.mean(), estimates.committee.stddev());
  }
  bench::print_comparison(
      "eq.(1) / eq.(3) agreement ratio", 10561.0 / 10250.0,
      estimates.pairwise.mean() / estimates.committee.mean(), "%.3f");

  // --- DHT crawl baseline -------------------------------------------------------
  bench::print_section("DHT crawl baseline (crawler sees servers only)");
  util::RngStream crawl_rng(config.seed, "bench-crawl");
  dht::DhtCrawler crawler(study.network(),
                          crypto::KeyPair::generate(crawl_rng).peer_id(),
                          study.network().geo().allocate_address("DE"), "DE",
                          crawl_rng.fork("c"));
  std::optional<dht::CrawlResult> crawl;
  crawler.crawl(study.population().bootstrap_ids(),
                [&](dht::CrawlResult r) { crawl = std::move(r); });
  study.scheduler().run_until(study.scheduler().now() + 30 * util::kMinute);

  if (crawl) {
    std::printf("  crawl discovered %zu peers (%zu responsive) with %llu RPCs\n",
                crawl->discovered.size(), crawl->responsive.size(),
                static_cast<unsigned long long>(crawl->rpcs_sent));
    std::printf("  monitors saw %zu unique peers over the study — more than "
                "one crawl, because monitors also see DHT clients\n",
                union_total.size());
    std::printf("  (paper: monitors 99147 total vs crawler 52463 total; "
                "avg 14411.42 per crawl)\n");

    // Coverage relative to the crawl-based size (the paper's denominators).
    bench::print_section("monitoring coverage (vs crawl-estimated size)");
    const double crawl_size = static_cast<double>(crawl->discovered.size());
    for (std::size_t i = 0; i < monitors.size(); ++i) {
      const double coverage = estimates.mean_set_sizes[i] / crawl_size;
      std::printf("  monitor %zu coverage: %4.0f%%   [paper: %s]\n", i,
                  100.0 * coverage, i == 0 ? "54%" : "49%");
    }
    bench::print_comparison("joint coverage (union / crawl size)", 0.67,
                            estimates.mean_union_size / crawl_size, "%.2f");

    // How many DHT clients did monitors see that the crawl cannot?
    std::size_t clients_seen = 0;
    for (const auto& peer : union_total) {
      const net::NodeRecord* rec = study.network().record(peer);
      if (rec != nullptr && rec->nat) ++clients_seen;
    }
    std::printf("  NAT'd DHT clients observed by monitors: %zu "
                "(crawler can see none of these)\n", clients_seen);
  }
  bench::print_run_footer(stopwatch);
  return 0;
}
