// Experiment: monitoring resilience under churn and faults (src/churn).
//
// The paper's monitors ran for 15 months against a live network where
// peers arrive, leave, and fail constantly; "Passively Measuring IPFS
// Churn and Network Size" (Daniel & Tschorsch, 2022) shows churn is
// first-order for the size estimates of Sec. IV-C. This experiment sweeps
// the transient-peer arrival rate (heavy-tailed Weibull sessions per
// Henningsen et al.) with link faults, partition windows, and a scheduled
// monitor crash/restart riding along, and reports
//   * coverage (mean connected-peer-set size / true concurrent size),
//   * raw vs churn-corrected estimator error. The session overlap rho is
//     below 1 even with zero churn (monitors sample the population), so
//     the correction uses rho normalized by the zero-churn baseline rho0
//     — only overlap lost *beyond* sampling noise is attributed to churn.
//     Eq. (3) is scale-homogeneous, so adjusted = raw * min(1, rho/rho0).
//   * crash recovery: segments kept/dropped and the unified-trace entry
//     count from the recovered spill stores.
// Emits BENCH_churn.json (the shared envelope, see EXPERIMENTS.md).
//
// Flags: --nodes= --hours= --seed=
#include <algorithm>
#include <unordered_set>

#include "analysis/estimators.hpp"
#include "bench_common.hpp"
#include "scenario/study.hpp"

using namespace ipfsmon;

namespace {

struct LevelResult {
  double arrival_rate = 0.0;
  std::uint64_t transients_spawned = 0;
  std::uint64_t sessions = 0;
  std::uint64_t fault_drops = 0;
  std::uint64_t partitions = 0;
  std::uint64_t crashes = 0;
  std::size_t truth = 0;  // concurrent online nodes at study end
  double coverage = 0.0;
  double session_overlap = 1.0;
  double overlap_norm = 1.0;  // min(1, rho / rho0), rho0 = zero-churn row
  double est_raw = 0.0;       // committee, raw
  double est_adjusted = 0.0;  // committee, churn-corrected (normalized rho)
  double err_raw = 0.0;
  double err_adjusted = 0.0;
  std::size_t recovered_segments = 0;
  std::size_t torn_segments = 0;
  std::uint64_t unified_entries = 0;
};

double rel_err(double est, double truth) {
  return truth > 0.0 ? (est - truth) / truth : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const bench::Stopwatch stopwatch;
  const std::size_t nodes = flags.u64("--nodes", 220);
  const double hours = flags.f64("--hours", 6.0);
  const std::uint64_t seed = flags.u64("--seed", 42);
  if (!flags.ok()) return flags.usage("[--nodes=N] [--hours=H] [--seed=S]");

  bench::print_header("exp_churn_resilience",
                      "Coverage and estimator error vs churn rate, with "
                      "link faults, partitions, and monitor crash/restart");
  std::printf("population=%zu hours=%.1f seed=%llu\n", nodes, hours,
              static_cast<unsigned long long>(seed));

  // Each run spills into its own temp directory, removed on exit.
  const util::TempDir spill_root("ipfsmon_exp_churn");
  if (spill_root.path().empty()) {
    std::fprintf(stderr, "cannot create a temporary directory\n");
    return 1;
  }
  const double arrival_rates[] = {0.0, 10.0, 30.0, 60.0};
  std::vector<LevelResult> results;

  for (const double rate : arrival_rates) {
    scenario::StudyConfig config;
    config.seed = seed;
    config.population.node_count = nodes;
    config.catalog.item_count = 3000;
    config.enable_gateways = false;  // keep the ground truth clean
    config.warmup = 6 * util::kHour;
    config.duration = static_cast<util::SimDuration>(
        hours * static_cast<double>(util::kHour));
    // Dense snapshots: the session-overlap correction reads churn off
    // consecutive snapshots, so the interval must be short against mean
    // session time or between-snapshot turnover swamps the signal.
    config.snapshot_interval = 10 * util::kMinute;

    if (rate > 0.0) {
      // Transient churn: heavy-tailed sessions (Henningsen et al.).
      config.churn.nodes.arrival_rate_per_hour = rate;
      config.churn.nodes.session =
          churn::SessionModel{churn::SessionDist::kWeibull, 1.0, 0.6};
      config.churn.nodes.intersession =
          churn::SessionModel{churn::SessionDist::kLogNormal, 3.0, 1.5};
      // Link faults + partition windows ride along.
      config.churn.link.drop_probability = 0.01;
      config.churn.partitions.rate_per_hour = 0.5;
      config.churn.partitions.mean_duration_minutes = 5.0;
      // One scheduled monitor crash mid-measurement, spilling to disk so
      // the restart exercises tracestore recovery.
      config.monitor_spill_dir =
          spill_root.path() + "/rate-" + std::to_string(static_cast<int>(rate));
      // Roll segments every 30 min so the crash loses only a short open
      // window and the restart has flushed segments to recover.
      config.spill_segment_span = 30 * util::kMinute;
      config.churn.scheduled_crashes.push_back(churn::CrashEvent{
          /*monitor_index=*/0,
          /*at=*/config.warmup + config.duration / 2,
          /*down_for=*/30 * util::kMinute});
    }

    scenario::MonitoringStudy study(config);
    study.run();

    LevelResult r;
    r.arrival_rate = rate;
    const auto snapshots = study.matched_snapshots();
    const auto churned = analysis::estimate_over_snapshots_churned(snapshots);
    r.session_overlap = churned.session_overlap;
    r.truth = study.population().online_count() + config.monitor_count +
              (study.injector() != nullptr
                   ? study.injector()->transients_online()
                   : 0);
    if (!churned.raw.committee.empty()) {
      r.est_raw = churned.raw.committee.mean();
      r.err_raw = rel_err(r.est_raw, static_cast<double>(r.truth));
    }
    double mean_set = 0.0;
    for (double w : churned.raw.mean_set_sizes) mean_set += w;
    if (!churned.raw.mean_set_sizes.empty()) {
      mean_set /= static_cast<double>(churned.raw.mean_set_sizes.size());
    }
    r.coverage = r.truth > 0
                     ? mean_set / static_cast<double>(r.truth)
                     : 0.0;
    r.fault_drops = study.network().fault_drops();
    if (const auto* injector = study.injector()) {
      r.transients_spawned = injector->transients_spawned();
      r.sessions = injector->sessions_completed();
      r.partitions = injector->partitions_opened();
      r.crashes = injector->monitor_crashes();
    }

    // Crash recovery: what did the restarted monitor's spill keep, and
    // does the unified trace still assemble from the recovered stores?
    if (rate > 0.0) {
      const auto& recovery = study.monitor(0).last_recovery();
      r.recovered_segments = recovery.segments_kept;
      r.torn_segments = recovery.segments_dropped;
      study.finalize_monitor_spill();
      r.unified_entries = study.unify([](const trace::TraceEntry&) {}).entries;
    }
    results.push_back(r);
  }

  // The zero-churn row measures how much overlap sampling alone costs;
  // only the drop below that baseline is churn. Eq. (3) correction is
  // scale-homogeneous, so the normalized-rho correction is a rescale.
  const double rho0 = results.empty() ? 1.0 : results[0].session_overlap;
  for (auto& r : results) {
    r.overlap_norm =
        rho0 > 0.0 ? std::min(1.0, r.session_overlap / rho0) : 1.0;
    r.est_adjusted = r.est_raw * r.overlap_norm;
    r.err_adjusted = rel_err(r.est_adjusted, static_cast<double>(r.truth));
  }

  bench::print_section("coverage & estimator error vs churn rate");
  std::printf("  %-10s %-6s %-9s %-5s %-6s %-9s %-10s %-10s %-9s %s\n",
              "arrivals/h", "truth", "coverage", "rho", "rho/r0", "eq3.raw",
              "err.raw", "err.adj", "drops", "crash(kept/torn)");
  for (const auto& r : results) {
    std::printf("  %-10.0f %-6zu %-9.2f %-5.2f %-6.2f %-9.1f %+-10.3f "
                "%+-10.3f %-9llu %zu/%zu\n",
                r.arrival_rate, r.truth, r.coverage, r.session_overlap,
                r.overlap_norm, r.est_raw, r.err_raw, r.err_adjusted,
                static_cast<unsigned long long>(r.fault_drops),
                r.recovered_segments, r.torn_segments);
  }
  std::printf("  expectation: rho falls as churn rises; after normalizing\n"
              "  by the zero-churn baseline rho0 the corrected estimate\n"
              "  tracks the concurrent size more closely than the raw one,\n"
              "  whose churn-inflated peer sets overestimate N.\n");

  const bool written = bench::write_bench_artifact(
      "churn", results,
      [&](util::json::Writer& json) {
        json.key("nodes").u64(nodes)
            .key("hours").fixed(hours, 1)
            .key("seed").u64(seed);
      },
      [](util::json::Writer& json, const LevelResult& r) {
        json.key("arrival_rate_per_hour").fixed(r.arrival_rate, 1)
            .key("truth_online").u64(r.truth)
            .key("coverage").fixed(r.coverage, 4)
            .key("session_overlap").fixed(r.session_overlap, 4)
            .key("session_overlap_norm").fixed(r.overlap_norm, 4)
            .key("committee_raw").fixed(r.est_raw, 2)
            .key("committee_adjusted").fixed(r.est_adjusted, 2)
            .key("err_raw").fixed(r.err_raw, 4)
            .key("err_adjusted").fixed(r.err_adjusted, 4)
            .key("transients_spawned").u64(r.transients_spawned)
            .key("sessions").u64(r.sessions)
            .key("partitions").u64(r.partitions)
            .key("fault_drops").u64(r.fault_drops)
            .key("monitor_crashes").u64(r.crashes)
            .key("recovered_segments").u64(r.recovered_segments)
            .key("torn_segments").u64(r.torn_segments)
            .key("unified_entries").u64(r.unified_entries);
      });
  if (!written) return 1;

  bench::print_run_footer(stopwatch);
  return 0;
}
