// Experiment: Figure 3 — quantile-quantile plot of the node IDs of peers
// connected to the "us" monitor against the uniform distribution. The paper
// finds the distribution "surprisingly close to uniformity", justifying the
// uniform-draw assumption behind the size estimators.
//
// Output: the QQ series (theoretical vs empirical quantile) that the figure
// plots, plus the KS statistic and its p-value.
//
// Flags: --nodes= --hours= --seed= --points=
#include <cmath>

#include "analysis/ks.hpp"
#include "analysis/qq.hpp"
#include "bench_common.hpp"
#include "scenario/study.hpp"

using namespace ipfsmon;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const bench::Stopwatch stopwatch;
  scenario::StudyConfig config;
  config.seed = flags.u64("--seed", 42);
  config.population.node_count = flags.u64("--nodes", 500);
  config.catalog.item_count = 2000;
  config.warmup = 8 * util::kHour;
  config.duration = static_cast<util::SimDuration>(
      flags.f64("--hours", 18.0) * static_cast<double>(util::kHour));
  const std::size_t points = flags.u64("--points", 33);
  if (!flags.ok()) {
    return flags.usage("[--nodes=N] [--hours=H] [--seed=S] [--points=N]");
  }

  bench::print_header("exp_fig3_qq_uniformity",
                      "Fig. 3: QQ plot of monitor-connected peer IDs vs "
                      "the uniform distribution");

  scenario::MonitoringStudy study(config);
  study.run();

  // The paper snapshots all connected peers of the us monitor on one day
  // (8171 peers). Our simulated network is ~100x smaller, so one snapshot
  // is statistically thin; we take the union of peers ever connected to
  // the monitor over the run — the same draw process, more samples.
  const auto& seen = study.monitor(0).peers_seen();
  const std::vector<crypto::PeerId> peers(seen.begin(), seen.end());
  std::printf("peer sample: %zu peers connected to the us monitor over the "
              "run; %zu right now (paper snapshot: 8171 peers)\n",
              peers.size(),
              study.network().connection_count(study.monitor(0).id()));

  const auto qq = analysis::qq_against_uniform(peers, points);
  bench::print_section("QQ series (plot: x=uniform quantile, y=ID quantile)");
  std::printf("  %-10s %-12s %-12s %s\n", "quantile", "uniform", "peer-IDs",
              "deviation");
  for (const auto& p : qq) {
    std::printf("  %-10.3f %-12.4f %-12.4f %+.4f\n", p.theoretical,
                p.theoretical, p.empirical, p.empirical - p.theoretical);
  }

  bench::print_section("uniformity verdict");
  std::vector<double> unit_ids;
  unit_ids.reserve(peers.size());
  for (const auto& p : peers) unit_ids.push_back(p.as_unit_interval());
  const double ks = analysis::ks_statistic_uniform(unit_ids);
  const double p_value = analysis::ks_p_value(ks, unit_ids.size());
  const double noise_floor =
      1.36 / std::sqrt(static_cast<double>(unit_ids.size()));
  std::printf("  KS statistic vs U(0,1): %.4f  (p-value %.3f, 95%% sampling "
              "noise floor %.4f at n=%zu)\n",
              ks, p_value, noise_floor, unit_ids.size());
  std::printf("  max QQ deviation:       %.4f\n", analysis::qq_max_deviation(qq));
  std::printf("  paper: 'surprisingly close to uniformity' — the QQ curve "
              "hugs the diagonal.\n");
  // Verdict is noise-aware: at simulated scale a few hundred peers carry
  // ~10x the sampling noise of the paper's 8171-peer snapshot.
  std::printf("  verdict: %s\n",
              ks < 2.0 * noise_floor
                  ? "CLOSE TO UNIFORM (matches paper)"
                  : "DEVIATES FROM UNIFORM (mismatch!)");
  bench::print_run_footer(stopwatch);
  return 0;
}
