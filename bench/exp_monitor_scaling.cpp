// Scaling harness for the single-threaded event core: sweeps population
// size and reports wall time, event throughput, and unified-trace volume
// per tier. Everything lands in BENCH_scaling.json (schema in
// EXPERIMENTS.md).
//
// --smoke runs one 2000-node tier twice: the repeat must reproduce the
// unified trace bit-for-bit (FNV-1a stream checksum equality), and the
// first run's event rate is gated against the committed floor.
//
// Flags: --nodes=N (single population instead of the tier sweep) --hours=
//        --seed= --full (adds the 10^6-node tier) --smoke
//        --floor=path (default bench/scaling_smoke_floor.json)
#include <thread>

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

scenario::StudyConfig make_config(std::size_t nodes, std::uint64_t seed,
                                  double hours) {
  scenario::StudyConfig config;
  config.seed = seed;
  config.population.node_count = nodes;
  config.warmup = 10 * util::kMinute;
  config.duration = static_cast<util::SimDuration>(
      hours * static_cast<double>(util::kHour));
  // Perf harness: no metrics ring, no gateway fleet — the sweep measures
  // the event core.
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
  const trace::Trace unified = study.unified_trace();
  row.trace_entries = unified.size();
  for (const auto& entry : unified.entries()) {
    row.checksum = ingest::fold_entry_checksum(row.checksum, entry);
  }
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
  const bench::Flags flags(argc, argv);
  const bench::Stopwatch stopwatch;
  const std::uint64_t seed = flags.get_u64("seed", 42);
  const bool smoke = flags.has("smoke");
  const double hours = flags.get("hours", smoke ? 0.5 : 0.33);
  const unsigned cores = std::thread::hardware_concurrency();

  bench::print_header("exp_monitor_scaling",
                      "event-core throughput across population sizes "
                      "(DESIGN.md Sec. 12)");
  std::printf("hardware threads: %u, seed %llu\n", cores,
              static_cast<unsigned long long>(seed));

  std::vector<std::size_t> sizes;
  if (flags.has("nodes")) {
    sizes.push_back(static_cast<std::size_t>(flags.get("nodes", 10000)));
  } else if (smoke) {
    sizes.push_back(2000);
  } else {
    sizes = {1000, 10000, 100000};
    if (flags.has("full")) sizes.push_back(1000000);
  }

  std::vector<Row> rows;
  bench::print_section("sweep");
  std::printf("  %8s %10s %12s %11s %9s  %16s\n", "nodes", "wall", "events",
              "events/s", "entries", "checksum");
  for (const std::size_t nodes : sizes) {
    rows.push_back(run_study(make_config(nodes, seed, hours)));
    print_row(rows.back());
  }

  bool deterministic_ok = true;
  bool floor_ok = true;
  if (smoke) {
    bench::print_section("determinism gate");
    const Row& first = rows.front();
    const Row again = run_study(make_config(first.nodes, seed, hours));
    deterministic_ok =
        again.checksum == first.checksum && first.trace_entries > 0;
    std::printf("  repeat: checksum %016llx vs %016llx, %zu entries -> %s\n",
                static_cast<unsigned long long>(again.checksum),
                static_cast<unsigned long long>(first.checksum),
                first.trace_entries, deterministic_ok ? "ok" : "FAIL");

    bench::print_section("perf smoke gate");
    floor_ok = bench::passes_smoke_floor(
        flags.get_str("floor", "bench/scaling_smoke_floor.json"),
        "smoke_events_per_s", first.events_per_s(), "events/s");
  }

  const std::string artifact = "BENCH_scaling.json";
  std::FILE* out = std::fopen(artifact.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", artifact.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\"bench\":\"monitor_scaling\",\"hardware_threads\":%u,"
               "\"seed\":%llu,\"smoke\":%s,\"sweep\":[",
               cores, static_cast<unsigned long long>(seed),
               smoke ? "true" : "false");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(out,
                 "%s{\"nodes\":%zu,\"seconds\":%.3f,\"events\":%llu,"
                 "\"events_per_s\":%.0f,\"trace_entries\":%zu,"
                 "\"checksum\":\"%016llx\"}",
                 i == 0 ? "" : ",", row.nodes, row.seconds,
                 static_cast<unsigned long long>(row.events),
                 row.events_per_s(), row.trace_entries,
                 static_cast<unsigned long long>(row.checksum));
  }
  std::fprintf(out, "]}\n");
  std::fclose(out);
  std::printf("\n[run] artifact: %s\n", artifact.c_str());
  bench::print_run_footer(stopwatch);
  return deterministic_ok && floor_ok ? 0 : 1;
}
