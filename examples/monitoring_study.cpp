// A miniature end-to-end monitoring study (paper Sec. V): churned
// population + gateways + two passive monitors, one simulated day, followed
// by the full analysis pipeline — coverage, size estimates, dedup stats,
// popularity, and per-country activity. At exit the obs registry is dumped
// in Prometheus text format and the collector ring as a JSONL sidecar.
//
// With a spill directory, monitors record through the out-of-core trace
// store instead of RAM; the example prints where the stores land and fails
// (exit 1) when the directory cannot be written, rather than silently
// analyzing an empty trace.
//
// Usage: monitoring_study [nodes] [hours] [seed] [spill_dir]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/aggregate.hpp"
#include "analysis/estimators.hpp"
#include "analysis/popularity.hpp"
#include "obs/exporters.hpp"
#include "scenario/study.hpp"
#include "trace/preprocess.hpp"
#include "tracestore/merge.hpp"

using namespace ipfsmon;

int main(int argc, char** argv) {
  scenario::StudyConfig config;
  config.population.node_count =
      argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 400;
  const double hours = argc > 2 ? std::strtod(argv[2], nullptr) : 24.0;
  config.seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 42;
  const std::string spill_dir = argc > 4 ? argv[4] : "";
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

  // --- Spill stores ---------------------------------------------------------
  std::vector<tracestore::TraceStore> stores;
  if (!spill_dir.empty()) {
    // A monitor that could not write its directory fell back to recording
    // in RAM (with an error event) — that is a broken spill run, not a
    // quietly-degraded one. Fail loudly.
    bool spill_ok = true;
    for (const auto* m : study.monitors()) {
      if (!m->spilling()) {
        std::fprintf(stderr,
                     "error: monitor %u could not open its spill store under "
                     "%s (unwritable directory?)\n",
                     static_cast<unsigned>(m->monitor_id()), spill_dir.c_str());
        spill_ok = false;
      }
    }
    if (spill_ok && !study.finalize_monitor_spill()) {
      std::fprintf(stderr, "error: finalizing spill stores under %s failed\n",
                   spill_dir.c_str());
      spill_ok = false;
    }
    if (!spill_ok) return 1;
    for (const auto& dir : study.monitor_store_dirs()) {
      auto store = tracestore::TraceStore::open(dir);
      if (!store.has_value()) {
        std::fprintf(stderr, "error: cannot reopen spill store %s\n",
                     dir.c_str());
        return 1;
      }
      std::printf("spill store: %s (%llu entries, %zu segments)\n",
                  dir.c_str(),
                  static_cast<unsigned long long>(store->total_entries()),
                  store->segments().size());
      stores.push_back(std::move(*store));
    }
  }

  // --- Monitor view ---------------------------------------------------------
  const auto monitors = study.monitors();
  for (std::size_t i = 0; i < monitors.size(); ++i) {
    const auto* m = monitors[i];
    std::printf("monitor %zu: %zu connected now, %zu unique peers seen, "
                "%zu bitswap-active, %zu trace entries\n",
                i, study.network().connection_count(m->id()),
                m->peers_seen().size(),
                m->bitswap_active_peers().size(), m->recorded().size());
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
  trace::Trace unified;
  if (spill_dir.empty()) {
    unified = study.unified_trace();
  } else {
    // Out-of-core path: k-way merge + flagging straight off the stores,
    // identical to trace::unify (see DESIGN.md Sec. 7).
    std::vector<const tracestore::TraceStore*> inputs;
    for (const auto& s : stores) inputs.push_back(&s);
    tracestore::unify_stores(
        inputs, [&](const trace::TraceEntry& e) { unified.append(e); });
  }
  const trace::TraceStats stats = trace::compute_stats(unified);
  std::printf("\nunified trace: %zu entries (%zu requests), "
              "%zu re-broadcasts (%.1f%% of requests), %zu inter-monitor dups\n",
              stats.total, stats.requests, stats.rebroadcasts,
              100.0 * trace::rebroadcast_share(unified),
              stats.inter_monitor_duplicates);

  // --- Popularity -------------------------------------------------------------
  const auto popularity = analysis::compute_popularity(unified);
  std::printf("\npopularity: %zu distinct CIDs, %.1f%% requested by exactly "
              "one peer\n",
              popularity.urp.size(),
              100.0 * popularity.single_requester_share());

  // --- Geography ---------------------------------------------------------------
  const auto by_country = analysis::share_by_country(
      unified.deduplicated(), study.network().geo());
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
