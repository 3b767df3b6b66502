// Experiment: Table II — share of data requests by origin country, over the
// unified deduplicated trace, resolved via the (synthetic) GeoIP database.
// Paper (Apr 30–May 6 2021):
//   US 45.65 | NL 13.85 | DE 12.72 | CA 7.61 | FR 6.64 | Others <13.60
//
// Flags: --nodes= --hours= --seed=
#include <map>

#include "analysis/aggregate.hpp"
#include "bench_common.hpp"
#include "scenario/study.hpp"

using namespace ipfsmon;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const bench::Stopwatch stopwatch;
  scenario::StudyConfig config;
  config.seed = flags.u64("--seed", 42);
  config.population.node_count = flags.u64("--nodes", 500);
  config.catalog.item_count = 8000;
  config.warmup = 8 * util::kHour;
  config.duration = static_cast<util::SimDuration>(
      flags.f64("--hours", 30.0) * static_cast<double>(util::kHour));
  if (!flags.ok()) return flags.usage("[--nodes=N] [--hours=H] [--seed=S]");

  bench::print_header("exp_table2_geography",
                      "Table II: share of data requests by country "
                      "(unified deduplicated trace + GeoIP)");

  scenario::MonitoringStudy study(config);
  study.run();

  auto by_country =
      analysis::ShareAccumulator::by_country(study.network().geo());
  std::size_t deduped = 0;
  const auto unified = study.unify([&](const trace::TraceEntry& e) {
    if (!e.is_clean()) return;
    ++deduped;
    by_country.add(e);
  });
  std::printf("unified trace: %llu entries, deduplicated: %zu\n",
              static_cast<unsigned long long>(unified.entries), deduped);

  const auto rows = by_country.rows();

  bench::print_section("Table II (measured)");
  const std::map<std::string, double> paper = {
      {"US", 45.65}, {"NL", 13.85}, {"DE", 12.72}, {"CA", 7.61}, {"FR", 6.64}};
  std::printf("  %-8s %12s %10s   %s\n", "Country", "Count", "Share(%)",
              "paper share(%)");
  double others = 0.0;
  for (const auto& r : rows) {
    const auto it = paper.find(r.label);
    if (it != paper.end()) {
      std::printf("  %-8s %12llu %9.2f%%   %.2f\n", r.label.c_str(),
                  static_cast<unsigned long long>(r.count), r.share_percent,
                  it->second);
    } else {
      others += r.share_percent;
    }
  }
  std::printf("  %-8s %12s %9.2f%%   <13.60\n", "Others", "-", others);

  bench::print_section("shape checks vs paper");
  const auto share_of = [&](std::string_view code) {
    for (const auto& r : rows) {
      if (r.label == code) return r.share_percent;
    }
    return 0.0;
  };
  bench::print_comparison("US share (%)", 45.65, share_of("US"));
  bench::print_comparison("top-3 (US+NL+DE) share (~70% in paper)",
                          45.65 + 13.85 + 12.72,
                          share_of("US") + share_of("NL") + share_of("DE"));
  std::printf("  US is the dominant origin:                    %s\n",
              !rows.empty() && rows[0].label == "US" ? "YES (matches)"
                                                     : "NO (mismatch!)");
  std::printf("  NL and DE in the top three:                   %s\n",
              share_of("NL") > share_of("CA") && share_of("DE") > share_of("FR")
                  ? "YES (matches)"
                  : "NO (mismatch!)");
  bench::print_run_footer(stopwatch);
  return 0;
}
