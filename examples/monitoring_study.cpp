// A miniature end-to-end monitoring study (paper Sec. V): churned
// population + gateways + two passive monitors, one simulated day, followed
// by the full analysis pipeline — coverage, size estimates, dedup stats,
// popularity, and per-country activity. At exit the obs registry is dumped
// in Prometheus text format and the collector ring as a JSONL sidecar.
//
// Monitors record into on-disk trace stores: under the spill directory when
// one is given (the example prints where they land and they outlive the
// run), else in temp directories removed at exit. The example fails (exit
// 1) when a monitor's store cannot be written or read back, rather than
// silently analyzing an empty trace.
//
// Usage: monitoring_study [nodes] [hours] [seed] [spill_dir]
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/aggregate.hpp"
#include "analysis/estimators.hpp"
#include "analysis/popularity.hpp"
#include "obs/exporters.hpp"
#include "scenario/study.hpp"
#include "trace/preprocess.hpp"
#include "util/flags.hpp"

using namespace ipfsmon;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  scenario::StudyConfig config;
  config.population.node_count = flags.u64_at(0, 400);
  const double hours = flags.f64_at(1, 24.0);
  config.seed = flags.u64_at(2, 42);
  const std::string spill_dir = flags.text_at(3);
  if (!flags.ok()) return flags.usage("[nodes] [hours] [seed] [spill_dir]");
  config.monitor_spill_dir = spill_dir;
  config.duration = static_cast<util::SimDuration>(
      hours * static_cast<double>(util::kHour));
  config.warmup = 6 * util::kHour;
  config.catalog.item_count = 6000;
  config.progress_heartbeat = true;

  std::printf("running study: %zu nodes, %.0f h measurement, seed %llu\n",
              config.population.node_count, hours,
              static_cast<unsigned long long>(config.seed));

  scenario::MonitoringStudy study(config);
  study.run();

  // --- Monitor view ---------------------------------------------------------
  const auto monitors = study.monitors();
  for (std::size_t i = 0; i < monitors.size(); ++i) {
    auto* m = monitors[i];
    const auto store = m->open_store();
    if (!store.has_value()) {
      std::fprintf(stderr,
                   "error: monitor %u has no readable trace store in %s: %s\n",
                   static_cast<unsigned>(m->monitor_id()),
                   m->spill_dir().c_str(), m->spill_error().c_str());
      return 1;
    }
    if (!spill_dir.empty()) {
      std::printf("spill store: %s (%llu entries, %zu segments)\n",
                  m->spill_dir().c_str(),
                  static_cast<unsigned long long>(store->total_entries()),
                  store->segments().size());
    }
    std::printf("monitor %zu: %zu connected now, %zu unique peers seen, "
                "%zu bitswap-active, %llu trace entries\n",
                i, study.network().connection_count(m->id()),
                m->peers_seen().size(), m->bitswap_active_peers().size(),
                static_cast<unsigned long long>(store->total_entries()));
  }

  // --- Coverage & size estimates --------------------------------------------
  const auto snapshots = study.matched_snapshots();
  const auto estimates = analysis::estimate_over_snapshots(snapshots);
  const std::size_t truly_online = study.population().online_count();
  std::printf("\ntrue online now: %zu (of %zu ever online)\n", truly_online,
              study.population().ever_online_count());
  if (!estimates.pairwise.empty()) {
    std::printf("eq.(1) pairwise estimate:  %.0f (std %.0f)\n",
                estimates.pairwise.mean(), estimates.pairwise.stddev());
  }
  if (!estimates.committee.empty()) {
    std::printf("eq.(3) committee estimate: %.0f (std %.0f)\n",
                estimates.committee.mean(), estimates.committee.stddev());
  }
  std::printf("mean union of monitor peer sets: %.0f\n",
              estimates.mean_union_size);
  for (std::size_t i = 0; i < estimates.mean_set_sizes.size(); ++i) {
    std::printf("monitor %zu mean peers: %.0f  (coverage of online: %.0f%%)\n",
                i, estimates.mean_set_sizes[i],
                100.0 * estimates.mean_set_sizes[i] /
                    static_cast<double>(truly_online));
    // The monitor's live coverage gauge is computed over the same
    // snapshots the analysis pipeline consumes — cross-check they agree.
    auto& registry = study.obs().metrics;
    const auto* info = registry.find(
        "ipfsmon_monitor_coverage_mean_peers",
        "monitor=\"" + std::to_string(i) + "\"");
    if (info != nullptr) {
      const double gauge = registry.gauge_at(info->slot).value();
      std::printf("  coverage gauge agrees with analysis: %s "
                  "(gauge %.2f vs pipeline %.2f)\n",
                  std::fabs(gauge - estimates.mean_set_sizes[i]) <= 1.0
                      ? "YES"
                      : "NO (mismatch!)",
                  gauge, estimates.mean_set_sizes[i]);
    }
  }

  // --- Trace preprocessing --------------------------------------------------
  // One pass over the unified trace feeds every analysis below.
  trace::StatsAccumulator stats_acc;
  analysis::PopularityAccumulator popularity_acc;
  auto by_country_acc =
      analysis::ShareAccumulator::by_country(study.network().geo());
  study.unify([&](const trace::TraceEntry& e) {
    stats_acc.add(e);
    popularity_acc.add(e);
    if (e.is_clean()) by_country_acc.add(e);
  });
  const trace::TraceStats stats = stats_acc.stats();
  std::printf("\nunified trace: %zu entries (%zu requests), "
              "%zu re-broadcasts (%.1f%% of requests), %zu inter-monitor dups\n",
              stats.total, stats.requests, stats.rebroadcasts,
              100.0 * stats.rebroadcast_share(),
              stats.inter_monitor_duplicates);

  // --- Popularity -------------------------------------------------------------
  const auto popularity = popularity_acc.scores();
  std::printf("\npopularity: %zu distinct CIDs, %.1f%% requested by exactly "
              "one peer\n",
              popularity.urp.size(),
              100.0 * popularity.single_requester_share());

  // --- Geography ---------------------------------------------------------------
  const auto by_country = by_country_acc.rows();
  std::printf("\nrequests by country:\n");
  for (std::size_t i = 0; i < by_country.size() && i < 6; ++i) {
    std::printf("  %-4s %8llu  %5.2f%%\n", by_country[i].label.c_str(),
                static_cast<unsigned long long>(by_country[i].count),
                by_country[i].share_percent);
  }

  if (auto* fleet = study.gateways()) {
    std::printf("\ngateway fleet: %llu HTTP requests, cache hit ratio %.1f%%\n",
                static_cast<unsigned long long>(fleet->http_requests_issued()),
                100.0 * fleet->cache_hit_ratio());
  }

  // --- Observability dump -----------------------------------------------------
  std::printf("\nmetrics (prometheus text exposition):\n%s",
              obs::to_prometheus(study.obs().metrics).c_str());
  if (const auto* collector = study.collector()) {
    const std::string sidecar = std::string(argv[0]) + ".metrics.jsonl";
    if (obs::write_jsonl(*collector, sidecar)) {
      std::printf("metrics sidecar: %s (%zu samples, %zu dropped)\n",
                  sidecar.c_str(), collector->samples().size(),
                  static_cast<std::size_t>(collector->samples_dropped()));
    }
  }
  return 0;
}
