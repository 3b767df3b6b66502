// Experiment: Table I — share of data requests by multicodec, derived from
// the raw (unprocessed) traces of both monitors, counting requested entries
// only (no CANCELs). Paper (Mar 2020–Jun 2021):
//   DagProtobuf 86.21% | Raw 13.42% | DagCBOR 0.37% | GitRaw <0.01%
//   EthereumTx <0.01%  | Others (8) <0.01%
//
// Flags: --nodes= --hours= --seed=
#include <map>

#include "analysis/aggregate.hpp"
#include "bench_common.hpp"
#include "scenario/study.hpp"
#include "tracestore/merge.hpp"

using namespace ipfsmon;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const bench::Stopwatch stopwatch;
  scenario::StudyConfig config;
  config.seed = flags.u64("--seed", 42);
  config.population.node_count = flags.u64("--nodes", 500);
  config.catalog.item_count = 12000;
  config.warmup = 8 * util::kHour;
  config.duration = static_cast<util::SimDuration>(
      flags.f64("--hours", 30.0) * static_cast<double>(util::kHour));
  if (!flags.ok()) return flags.usage("[--nodes=N] [--hours=H] [--seed=S]");

  bench::print_header("exp_table1_multicodec",
                      "Table I: share of data requests by multicodec "
                      "(raw traces, requests only)");

  scenario::MonitoringStudy study(config);
  study.run();

  // Raw, unprocessed traces of both monitors, read store by store without
  // dedup — the paper's Table I explicitly uses raw traces.
  auto by_codec = analysis::ShareAccumulator::by_codec();
  for (auto* m : study.monitors()) {
    if (const auto store = m->open_store()) {
      tracestore::StoreCursor cursor(*store);
      for (trace::TraceEntry e; cursor.next(e);) by_codec.add(e);
    }
  }
  const auto rows = by_codec.rows();
  std::uint64_t total = 0;
  for (const auto& r : rows) total += r.count;
  std::printf("total raw requests collected: %llu "
              "(paper: 2.78e10 over fifteen months)\n",
              static_cast<unsigned long long>(total));

  bench::print_section("Table I (measured)");
  std::printf("  %-14s %14s %10s   %s\n", "Codec", "Count", "Share(%)",
              "paper share");
  const std::map<std::string, std::string> paper_shares = {
      {"DagProtobuf", "86.21"}, {"Raw", "13.42"},   {"DagCBOR", "0.37"},
      {"GitRaw", "<0.01"},      {"EthereumTx", "<0.01"},
      {"DagJSON", "<0.01"},     {"EthereumBlock", "<0.01"},
  };
  for (const auto& r : rows) {
    const auto it = paper_shares.find(r.label);
    std::printf("  %-14s %14llu %9.2f%%   %s\n", r.label.c_str(),
                static_cast<unsigned long long>(r.count), r.share_percent,
                it != paper_shares.end() ? it->second.c_str() : "-");
  }

  bench::print_section("shape checks vs paper");
  const auto share_of = [&](std::string_view name) {
    for (const auto& r : rows) {
      if (r.label == name) return r.share_percent;
    }
    return 0.0;
  };
  bench::print_comparison("DagProtobuf share (%)", 86.21, share_of("DagProtobuf"));
  bench::print_comparison("Raw share (%)", 13.42, share_of("Raw"));
  bench::print_comparison("DagCBOR share (%)", 0.37, share_of("DagCBOR"));
  std::printf("  ordering DagProtobuf > Raw > DagCBOR > rest: %s\n",
              share_of("DagProtobuf") > share_of("Raw") &&
                      share_of("Raw") > share_of("DagCBOR")
                  ? "YES (matches)"
                  : "NO (mismatch!)");
  bench::print_run_footer(stopwatch);
  return 0;
}
