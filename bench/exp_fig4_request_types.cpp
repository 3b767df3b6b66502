// Experiment: Figure 4 — data requests per day collected by monitor "us",
// classified into the legacy WANT_BLOCK type and the WANT_HAVE type
// introduced with IPFS v0.5 (March–August 2020). The WANT_HAVE series
// overtakes WANT_BLOCK as users upgrade; a traffic spike appears in August
// (the paper registered one on both monitors and left it uninvestigated —
// we inject a flash crowd to reproduce the shape).
//
// Flags: --nodes= --days= --seed=
#include "analysis/aggregate.hpp"
#include "bench_common.hpp"
#include "scenario/study.hpp"
#include "tracestore/merge.hpp"

using namespace ipfsmon;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const bench::Stopwatch stopwatch;
  const double days = flags.f64("--days", 28.0);

  scenario::StudyConfig config;
  config.seed = flags.u64("--seed", 42);
  config.population.node_count = flags.u64("--nodes", 160);
  config.population.mean_session_hours = 6.0;
  config.population.mean_downtime_hours = 12.0;
  config.population.mean_request_interval_hours = 2.0;
  // Fewer timers for the long simulation.
  config.population.node.discovery_interval = 15 * util::kMinute;
  config.population.node.dht.refresh_interval = 1 * util::kHour;
  config.population.node.bitswap.fetch_timeout = 6 * util::kMinute;
  // Misconfigured-client retry loops are irrelevant to the type migration
  // and dominate the event count over a multi-month run.
  config.population.misconfigured_nodes = 0;
  config.catalog.item_count = 4000;
  config.enable_gateways = false;  // isolate the homegrown migration
  config.warmup = 12 * util::kHour;
  config.duration = static_cast<util::SimDuration>(
      days * static_cast<double>(util::kDay));
  if (!flags.ok()) return flags.usage("[--nodes=N] [--days=D] [--seed=S]");

  bench::print_header("exp_fig4_request_types",
                      "Fig. 4: requests/day by entry type during the "
                      "v0.5 WANT_HAVE migration (+ traffic spike)");
  std::printf("population=%zu days=%.0f seed=%llu\n",
              config.population.node_count, days,
              static_cast<unsigned long long>(config.seed));

  scenario::MonitoringStudy study(config);

  // Version adoption: midpoint ~40% into the window, as with the real
  // v0.5 rollout relative to the paper's March–August excerpt.
  scenario::VersionAdoptionModel adoption;
  adoption.midpoint = static_cast<util::SimTime>(0.4 * days * util::kDay);
  adoption.steepness_days = days / 8.0;
  adoption.initial_share = 0.03;
  adoption.final_share = 0.97;
  study.population().set_version_model(adoption);

  study.run_warmup();
  // The unexplained early-August spike: a flash crowd near the end.
  const util::SimTime t0 = study.scheduler().now();
  study.population().add_rate_surge(
      t0 + static_cast<util::SimDuration>(0.82 * days * util::kDay),
      t0 + static_cast<util::SimDuration>(0.86 * days * util::kDay), 6.0);
  study.run_measurement();

  // The paper plots the us monitor's raw view (recorded in time order).
  analysis::RequestTypeAccumulator by_type(util::kDay);
  if (const auto store = study.monitor(0).open_store()) {
    tracestore::StoreCursor cursor(*store);
    for (trace::TraceEntry e; cursor.next(e);) by_type.add(e);
  }
  const auto buckets = by_type.buckets();

  bench::print_section("series: requests per day by type (monitor us)");
  std::printf("  %-6s %12s %12s   %s\n", "day", "WANT_BLOCK", "WANT_HAVE",
              "dominant");
  std::uint64_t crossover_day = 0;
  bool crossed = false;
  std::uint64_t spike_day = 0, spike_total = 0;
  for (const auto& b : buckets) {
    const auto day = static_cast<std::uint64_t>(b.bucket_start / util::kDay);
    const std::uint64_t total = b.want_block + b.want_have;
    std::printf("  %-6llu %12llu %12llu   %s\n",
                static_cast<unsigned long long>(day),
                static_cast<unsigned long long>(b.want_block),
                static_cast<unsigned long long>(b.want_have),
                b.want_have > b.want_block ? "WANT_HAVE" : "WANT_BLOCK");
    if (!crossed && b.want_have > b.want_block) {
      crossed = true;
      crossover_day = day;
    }
    if (total > spike_total) {
      spike_total = total;
      spike_day = day;
    }
  }

  bench::print_section("shape checks vs paper");
  std::printf("  WANT_BLOCK dominates early, WANT_HAVE late:   %s\n",
              !buckets.empty() &&
                      buckets.front().want_block > buckets.front().want_have &&
                      buckets.back().want_have > buckets.back().want_block
                  ? "YES (matches)"
                  : "NO (mismatch!)");
  std::printf("  crossover at day %llu of %.0f (adoption midpoint day %.0f)\n",
              static_cast<unsigned long long>(crossover_day), days, 0.4 * days);
  std::printf("  traffic spike: day %llu with %llu requests "
              "(paper: unexplained early-August spike on both monitors)\n",
              static_cast<unsigned long long>(spike_day),
              static_cast<unsigned long long>(spike_total));
  bench::print_run_footer(stopwatch);
  return 0;
}
