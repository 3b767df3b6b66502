// exp_monitor_scaling --smoke — the event-core gate behind
// scripts/check.sh --scaling-smoke.
//
// Runs one 2000-node study (0.5 simulated hours after a 10-minute warm-up,
// seed 42, gateways and metrics off) twice. The repeat must reproduce the
// unified trace bit-for-bit (FNV-1a stream checksum equality), and the
// first run's event rate must stay at or above half the committed floor in
// bench/scaling_smoke_floor.json (a missing floor fails the gate).
//
// Flags: --smoke (required; without it the binary prints usage and exits 2)
//        --floor=PATH (default bench/scaling_smoke_floor.json)
//
// Event-core throughput at 10^4 nodes is measured end to end by perfbench's
// `study` workload.
#include "bench_common.hpp"
#include "ingest/replay.hpp"
#include "scenario/study.hpp"

using namespace ipfsmon;

namespace {

struct Row {
  std::size_t nodes = 0;
  double seconds = 0.0;
  std::uint64_t events = 0;
  std::size_t trace_entries = 0;
  std::uint64_t checksum = 0;

  double events_per_s() const {
    return seconds > 0.0 ? static_cast<double>(events) / seconds : 0.0;
  }
};

scenario::StudyConfig make_config() {
  scenario::StudyConfig config;
  config.seed = 42;
  config.population.node_count = 2000;
  config.warmup = 10 * util::kMinute;
  config.duration = util::kHour / 2;
  // No metrics ring, no gateway fleet: the gate measures the event core.
  config.collect_metrics = false;
  config.enable_gateways = false;
  config.catalog.item_count = 2000;
  return config;
}

Row run_study(const scenario::StudyConfig& config) {
  const bench::Stopwatch watch;
  scenario::MonitoringStudy study(config);
  study.run();
  Row row;
  row.nodes = config.population.node_count;
  row.seconds = watch.seconds();
  row.events = study.scheduler().dispatched();
  row.trace_entries = study.unify([&row](const trace::TraceEntry& entry) {
    row.checksum = ingest::fold_entry_checksum(row.checksum, entry);
  }).entries;
  return row;
}

void print_row(const Row& row) {
  std::printf("  %8zu %9.2fs %12llu %11.0f %9zu  %016llx\n", row.nodes,
              row.seconds, static_cast<unsigned long long>(row.events),
              row.events_per_s(), row.trace_entries,
              static_cast<unsigned long long>(row.checksum));
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const bool smoke = flags.boolean("--smoke");
  const std::string floor_path =
      flags.text("--floor", "bench/scaling_smoke_floor.json");
  if (!flags.ok() || !smoke) return flags.usage("--smoke [--floor=PATH]");
  const bench::Stopwatch stopwatch;
  bench::print_header("exp_monitor_scaling",
                      "event-core gate (infrastructure, no paper figure)");

  bench::print_section("runs");
  std::printf("  %8s %10s %12s %11s %9s  %16s\n", "nodes", "wall", "events",
              "events/s", "entries", "checksum");
  const Row first = run_study(make_config());
  print_row(first);
  const Row again = run_study(make_config());
  print_row(again);

  bench::print_section("determinism gate");
  const bool deterministic_ok =
      again.checksum == first.checksum && first.trace_entries > 0;
  std::printf("  repeat: checksum %016llx vs %016llx, %zu entries -> %s\n",
              static_cast<unsigned long long>(again.checksum),
              static_cast<unsigned long long>(first.checksum),
              first.trace_entries, deterministic_ok ? "ok" : "FAIL");

  bench::print_section("perf smoke gate");
  const bool floor_ok = bench::passes_smoke_floor(
      floor_path,
      "smoke_events_per_s", first.events_per_s(), "events/s");
  bench::print_run_footer(stopwatch);
  return deterministic_ok && floor_ok ? 0 : 1;
}
