// study: one batch monitoring study at ~10^4 nodes — warm-up, measurement,
// monitor spill finalize, and out-of-core unify of the two monitors'
// stores. Almost all of its time is the discrete-event core (sim, net,
// dht, bitswap, node, monitor); the trace store does little and ingest and
// query are idle.
//
// Each rep constructs a fresh MonitoringStudy from the seed, so every rep
// must reproduce the same unified-trace checksum and layer counts; any
// difference is a failed correctness check.
#include <filesystem>

#include "bench.hpp"
#include "ingest/replay.hpp"
#include "tracestore/merge.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;

namespace perfbench {

namespace {

using namespace ipfsmon;

constexpr std::size_t kStudyNodes = 10000;
// Warm-up and measurement are event budgets, not simulated durations: the
// same simulated span costs ±10% events from seed to seed, while a fixed
// event count keeps the work per rep the same for every seed. The study
// advances in 100 ms steps until the budget is reached. The warm-up
// covers the start-up burst of DHT bootstrap traffic (~1.5 simulated
// minutes at 10^4 nodes); the measurement is the next ~2 minutes. Short
// reps, many per run: the fastest of them rides out machine noise.
constexpr std::uint64_t kWarmupEvents = 150000;
constexpr std::uint64_t kMeasureEvents = 100000;
constexpr util::SimDuration kStep = 100 * util::kMillisecond;
constexpr util::SimDuration kMaxSimTime = 6 * util::kHour;  // runaway guard

/// Everything one rep produces; the count fields must repeat exactly.
struct StudyRep {
  double setup_s = 0;
  double wall_s = 0;
  // Phase split (traced reps only).
  double warmup_s = 0;
  double measure_s = 0;
  double finalize_s = 0;
  double unify_s = 0;
  bool ok = true;

  struct Counts {
    std::uint64_t checksum = 0;
    std::uint64_t unified_entries = 0;
    std::uint64_t events = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t messages_delivered = 0;
    std::uint64_t dials = 0;
    std::uint64_t dial_failures = 0;
    std::uint64_t dht_lookups = 0;
    std::uint64_t dht_rpcs = 0;
    std::uint64_t dht_timeouts = 0;
    std::uint64_t want_messages = 0;
    std::uint64_t fetches_started = 0;
    std::uint64_t fetches_completed = 0;
    std::uint64_t monitor_entries = 0;
    std::uint64_t segments_written = 0;
    std::uint64_t bytes_written = 0;
    std::uint64_t entries_written = 0;
    std::int64_t measured_sim_ns = 0;  // simulated span of the measurement
    bool operator==(const Counts&) const = default;
  } counts;
};

/// Advances the study in kStep steps until `events` have been dispatched.
/// False when the simulation runs dry first.
bool run_to_events(scenario::MonitoringStudy& study, std::uint64_t events) {
  auto& scheduler = study.scheduler();
  while (scheduler.dispatched() < events) {
    if (scheduler.now() >= kMaxSimTime) return false;
    scheduler.run_until(scheduler.now() + kStep);
  }
  return true;
}

std::uint64_t total(const obs::MetricsRegistry& registry,
                    std::string_view name) {
  return static_cast<std::uint64_t>(registry_total(registry, name));
}

/// Adds a finished store's segment count, bytes and entries to `counts`.
void count_store(const tracestore::TraceStore& store, StudyRep::Counts* counts) {
  counts->segments_written += store.segments().size();
  counts->bytes_written += store.total_bytes();
  counts->entries_written += store.total_entries();
}

StudyRep run_once(std::uint64_t seed, const std::string& dir, bool phases) {
  StudyRep rep;
  reset_dir(dir);
  const std::string spill = (fs::path(dir) / "spill").string();
  const std::string unified_dir = (fs::path(dir) / "unified").string();

  const Stopwatch setup;
  auto study = std::make_unique<scenario::MonitoringStudy>(
      study_config(seed, spill));
  rep.setup_s = setup.seconds();

  const Stopwatch wall;
  study->start_components();
  rep.ok = run_to_events(*study, kWarmupEvents);
  study->after_warmup();
  const util::SimTime measure_start = study->scheduler().now();
  if (phases) rep.warmup_s = wall.seconds();
  rep.ok = run_to_events(*study, kWarmupEvents + kMeasureEvents) && rep.ok;
  if (phases) rep.measure_s = wall.seconds() - rep.warmup_s;
  rep.counts.measured_sim_ns = study->scheduler().now() - measure_start;
  rep.ok = study->finalize_monitor_spill() && rep.ok;
  if (phases) rep.finalize_s = wall.seconds() - rep.warmup_s - rep.measure_s;
  const double before_unify = wall.seconds();
  std::vector<tracestore::TraceStore> stores;
  for (const auto& store_dir : study->monitor_store_dirs()) {
    auto store = tracestore::TraceStore::open(store_dir);
    if (!store) {
      rep.ok = false;
      continue;
    }
    stores.push_back(std::move(*store));
  }
  std::vector<const tracestore::TraceStore*> inputs;
  for (const auto& store : stores) inputs.push_back(&store);
  auto writer = tracestore::SegmentWriter::create(unified_dir);
  if (writer == nullptr) {
    rep.ok = false;
  } else {
    tracestore::unify_to_store(inputs, *writer);
    rep.ok = writer->finalize() && rep.ok;
  }
  rep.wall_s = wall.seconds();
  if (phases) rep.unify_s = rep.wall_s - before_unify;

  // Outputs and counts, read after the clock stopped.
  auto& c = rep.counts;
  const auto& registry = study->obs().metrics;
  c.events = study->scheduler().dispatched();
  c.cancelled = study->scheduler().cancelled();
  c.messages_delivered = total(registry, "ipfsmon_net_messages_delivered_total");
  c.dials = total(registry, "ipfsmon_net_dials_total");
  c.dial_failures = total(registry, "ipfsmon_net_dial_failures_total");
  c.dht_lookups = total(registry, "ipfsmon_dht_lookups_total");
  c.dht_rpcs = total(registry, "ipfsmon_dht_rpcs_sent_total");
  c.dht_timeouts = total(registry, "ipfsmon_dht_rpc_timeouts_total");
  c.want_messages = total(registry, "ipfsmon_bitswap_want_messages_total");
  c.fetches_started = total(registry, "ipfsmon_bitswap_fetches_started_total");
  c.fetches_completed =
      total(registry, "ipfsmon_bitswap_fetches_completed_total");
  c.monitor_entries = total(registry, "ipfsmon_monitor_trace_entries_total");
  for (const auto& store : stores) count_store(store, &c);
  if (auto unified = tracestore::TraceStore::open(unified_dir)) {
    count_store(*unified, &c);
    c.unified_entries = unified->total_entries();
    tracestore::StoreCursor cursor(*unified);
    trace::TraceEntry entry;
    while (cursor.next(entry)) {
      c.checksum = ingest::fold_entry_checksum(c.checksum, entry);
    }
  } else {
    rep.ok = false;
  }
  stores.clear();
  study.reset();
  std::error_code ec;
  fs::remove_all(dir, ec);
  return rep;
}

double ratio(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

scenario::StudyConfig study_config(std::uint64_t seed,
                                   const std::string& spill_dir) {
  scenario::StudyConfig config;
  config.seed = seed;
  config.population.node_count = kStudyNodes;
  config.monitor_spill_dir = spill_dir;
  return config;
}

std::string study_config_text(std::uint64_t seed) {
  const scenario::StudyConfig config = study_config(seed, "");
  return util::format(
      "seed=%llu nodes=%zu monitors=%zu gateways=%d warmup_events=%llu "
      "measure_events=%llu shards=%zu tracing=%d spill_segment_entries=%llu",
      static_cast<unsigned long long>(config.seed),
      config.population.node_count, config.monitor_count,
      config.enable_gateways ? 1 : 0,
      static_cast<unsigned long long>(kWarmupEvents),
      static_cast<unsigned long long>(kMeasureEvents), config.shards,
      config.tracing.enabled ? 1 : 0,
      static_cast<unsigned long long>(config.spill_segment_entries));
}

void run_study(const RunOptions& options, Report* report) {
  // Untraced runs time whole reps only; a traced run times one rep without
  // and one with the phase split, so the difference is tracing overhead.
  std::vector<StudyRep> reps;
  std::vector<double> setups;
  double peak_rss = 0;
  repeat_for(options.seconds, 2, [&](std::size_t i) {
    const bool phases = options.trace && i % 2 == 1;
    reps.push_back(run_once(options.seed,
                            (fs::path(options.work_dir) / "rep").string(),
                            phases));
    // Peak RSS of one batch job; later reps only add allocator reuse noise.
    if (i == 0) peak_rss = peak_rss_mib();
    // Set-up is short; every rep adds one extra construction, so the
    // samples spread over the run.
    const Stopwatch setup;
    auto study = std::make_unique<scenario::MonitoringStudy>(study_config(
        options.seed, (fs::path(options.work_dir) / "setup").string()));
    setups.push_back(setup.seconds());
  });

  std::vector<double> walls;
  bool identical = true;
  for (const auto& rep : reps) {
    setups.push_back(rep.setup_s);
    walls.push_back(rep.wall_s);
    report->fails().record(rep.ok);
    // Same seed, same study: every rep must reproduce rep 0 exactly.
    identical = identical && rep.counts == reps.front().counts;
    report->fails().record(rep.counts == reps.front().counts);
  }

  const StudyRep& first = reps.front();
  const auto& c = first.counts;
  const double sim_hours = static_cast<double>(c.measured_sim_ns) /
                           static_cast<double>(util::kHour);
  const double wall_s = steady_time(walls);
  report->note(describe_setups(setups));
  report->note(util::format(
      "config: %s", study_config_text(options.seed).c_str()));
  report->note(util::format(
      "reps=%zu unified-trace checksum %s (%s across reps) entries=%llu "
      "events=%llu",
      reps.size(), hex64(c.checksum).c_str(),
      identical ? "identical" : "DIFFERENT",
      static_cast<unsigned long long>(c.unified_entries),
      static_cast<unsigned long long>(c.events)));
  report->note(util::format(
      "property: trace entries per simulated hour %.1f; %s",
      static_cast<double>(c.unified_entries) / sim_hours,
      describe_reps(walls).c_str()));

  if (!options.trace) {
    report->metric("setup_s", median(setups), "s");
    report->metric("wall_s", wall_s, "s");
    // The event core's throughput: scheduler events per wall second.
    report->metric("rps", static_cast<double>(c.events) / wall_s, "1/s");
    report->metric("peak_rss_mib", peak_rss, "MiB");
    report->metric("store_bytes_per_entry",
                   ratio(c.bytes_written, c.entries_written), "B/entry");
    return;
  }
  // Odd reps carry the phase split; each phase reports its fastest.
  std::vector<double> traced_walls, plain_walls, warmup, measure, finalize,
      unify, rest;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const StudyRep& rep = reps[i];
    if (i % 2 == 0) {
      plain_walls.push_back(rep.wall_s);
      continue;
    }
    traced_walls.push_back(rep.wall_s);
    warmup.push_back(rep.warmup_s);
    measure.push_back(rep.measure_s);
    finalize.push_back(rep.finalize_s);
    unify.push_back(rep.unify_s);
    rest.push_back(rep.wall_s - rep.warmup_s - rep.measure_s - rep.finalize_s -
                   rep.unify_s);
  }
  const double sim_s = steady_time(warmup) + steady_time(measure);
  report->metric("sim.warmup_s", steady_time(warmup), "s");
  report->metric("sim.measure_s", steady_time(measure), "s");
  report->metric("sim.events", static_cast<double>(c.events), "count");
  report->metric("sim.ns_per_event",
                 sim_s * 1e9 / static_cast<double>(std::max<std::uint64_t>(
                                   c.events, 1)),
                 "ns");
  report->metric("sim.cancelled_ratio",
                 ratio(c.cancelled, c.events + c.cancelled), "ratio");
  report->metric("net.messages_delivered",
                 static_cast<double>(c.messages_delivered), "count");
  report->metric("net.dial_failure_ratio", ratio(c.dial_failures, c.dials),
                 "ratio");
  report->metric("dht.lookups", static_cast<double>(c.dht_lookups), "count");
  report->metric("dht.rpcs_sent", static_cast<double>(c.dht_rpcs), "count");
  report->metric("dht.rpc_timeout_ratio", ratio(c.dht_timeouts, c.dht_rpcs),
                 "ratio");
  report->metric("bitswap.want_messages", static_cast<double>(c.want_messages),
                 "count");
  report->metric("bitswap.fetch_success_ratio",
                 ratio(c.fetches_completed, c.fetches_started), "ratio");
  report->metric("monitor.trace_entries",
                 static_cast<double>(c.monitor_entries), "count");
  report->metric("monitor.entries_per_sim_hour",
                 static_cast<double>(c.unified_entries) / sim_hours, "1/h");
  report->metric("tracestore.spill_finalize_s", steady_time(finalize), "s");
  report->metric("tracestore.unify_s", steady_time(unify), "s");
  report->metric("tracestore.segments_written",
                 static_cast<double>(c.segments_written), "count");
  report->metric("tracestore.bytes_written",
                 static_cast<double>(c.bytes_written), "B");
  report->metric("bench.trace_overhead_s",
                 steady_time(traced_walls) - steady_time(plain_walls), "s");
  report->metric("bench.unattributed_s", steady_time(rest), "s");
}

}  // namespace perfbench
