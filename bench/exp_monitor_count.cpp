// Ablation: monitoring coverage and estimate quality vs the number of
// monitors r, and passive vs active peer discovery.
//
// The paper runs r = 2 and notes (footnote 8) that "a higher r might
// result in a larger portion of the network's requests being recorded",
// and that coverage "can be further increased ... by implementing a more
// active peer discovery mechanism" (Sec. V-C). This harness sweeps both
// knobs and reports coverage, request capture, and eq. (3) accuracy.
//
// Flags: --nodes= --hours= --seed=
#include "analysis/estimators.hpp"
#include "bench_common.hpp"
#include "scenario/study.hpp"

using namespace ipfsmon;

namespace {

struct Row {
  std::string label;
  double mean_union = 0.0;          // avg peers covered by the union
  double coverage_of_online = 0.0;  // vs ground-truth online count
  std::size_t requests_captured = 0;
  double committee_estimate = 0.0;
  double estimate_error = 0.0;  // relative to true online
};

Row run(const std::string& label, scenario::StudyConfig config) {
  const std::size_t monitor_count = config.monitor_count;
  scenario::MonitoringStudy study(std::move(config));
  study.run();

  Row row;
  row.label = label;
  const auto estimates = analysis::estimate_over_snapshots(
      study.matched_snapshots());
  row.mean_union = estimates.mean_union_size;
  const double truth = static_cast<double>(
      study.population().online_count() + monitor_count);
  row.coverage_of_online = row.mean_union / truth;
  study.unify([&row](const trace::TraceEntry& e) {
    if (e.is_request() && e.is_clean()) ++row.requests_captured;
  });
  if (!estimates.committee.empty()) {
    row.committee_estimate = estimates.committee.mean();
    row.estimate_error = (row.committee_estimate - truth) / truth;
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const bench::Stopwatch stopwatch;
  scenario::StudyConfig base;
  base.seed = flags.u64("--seed", 42);
  base.population.node_count = flags.u64("--nodes", 450);
  base.catalog.item_count = 3000;
  base.enable_gateways = false;
  base.warmup = 4 * util::kHour;
  // Churny sessions keep a standing pool of freshly joined nodes the
  // monitors have not yet met — coverage saturates otherwise.
  base.population.mean_session_hours = 3.0;
  base.population.mean_downtime_hours = 6.0;
  // Fresh-identity adversary: no accumulated discovery reputation, so
  // passive coverage has headroom and the r / active sweeps matter.
  base.monitor_discovery_weight = 1.0;
  base.duration = static_cast<util::SimDuration>(
      flags.f64("--hours", 12.0) * static_cast<double>(util::kHour));
  if (!flags.ok()) return flags.usage("[--nodes=N] [--hours=H] [--seed=S]");

  bench::print_header("exp_monitor_count",
                      "Sec. V-C / footnote 8 ablation: coverage & capture "
                      "vs monitor count r, and passive vs active discovery");

  std::vector<Row> rows;
  for (const std::size_t r : {1u, 2u, 4u}) {
    scenario::StudyConfig config = base;
    config.monitor_count = r;
    rows.push_back(run(util::format("passive r=%zu", r), config));
  }
  {
    scenario::StudyConfig config = base;
    config.monitor_count = 2;
    config.use_active_monitors = true;
    rows.push_back(run("ACTIVE  r=2", config));
  }

  bench::print_section("results");
  std::printf("  %-14s %12s %12s %12s %12s %10s\n", "setup", "mean union",
              "coverage", "requests", "eq.(3) est", "est err");
  for (const auto& row : rows) {
    std::printf("  %-14s %12.1f %11.0f%% %12zu %12.1f %+9.1f%%\n",
                row.label.c_str(), row.mean_union,
                100.0 * row.coverage_of_online, row.requests_captured,
                row.committee_estimate, 100.0 * row.estimate_error);
  }

  bench::print_section("expectations");
  std::printf(
      "  * coverage and captured requests grow with r (diminishing returns\n"
      "    — the paper found >70%% IoU between its two monitors already);\n"
      "  * the eq.(3) estimate is only defined for r >= 2 and stabilizes\n"
      "    as r grows;\n"
      "  * active discovery beats passive r=2 on coverage, at the cost of\n"
      "    being detectable (crawl + mass dialing is not regular behavior).\n");
  bench::print_run_footer(stopwatch);
  return 0;
}
