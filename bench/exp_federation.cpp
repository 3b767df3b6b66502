// exp_federation — streaming replication throughput of the monitor
// federation subsystem.
//
// Sweeps monitor count × segment rate on loopback: N vantage-point stores
// are shipped into one coordinator by N concurrent Shippers, either from
// fully sealed stores (rate 0 = bulk replication) or while a writer thread
// seals segments live at a target rate (catch-up + tail-chasing). Reports
// segments/s and MB/s landed, replication-lag p50/p99 (segment seal →
// coordinator ack, measured by the shippers), and the recovery time after
// a shipper is killed mid-stream and a fresh one resumes from the
// coordinator's HELLO_ACK watermark.
//
// Everything lands in BENCH_federation.json (schema in EXPERIMENTS.md) so
// the replication-perf trajectory accumulates across revisions.
//
// Flags: --monitors=1,2,4,8  sweep of monitor counts
//        --rates=0,25        segment seal rates (segments/s; 0 = bulk)
//        --entries=N         entries per monitor store (default 20000)
//        --segment-entries=N entries per segment (default 2048)
//        --smoke             correctness gate, not a perf run (see below)
//
// --smoke is the scripts/check.sh --federation-smoke gate: two shippers
// stream into a live coordinator, one is killed mid-stream and restarted,
// and the unified /v1/stats answer must be identical to a single-store
// ground-truth run (exit 1 on any mismatch). Each sweep point and the
// smoke keep their stores in a fresh temporary directory that is removed
// when they finish.
#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "federation/coordinator.hpp"
#include "federation/federated.hpp"
#include "federation/shipper.hpp"
#include "query/engine.hpp"
#include "tracestore/merge.hpp"
#include "tracestore/store.hpp"
#include "util/rng.hpp"

using namespace ipfsmon;

namespace {

crypto::PeerId bench_peer(std::uint64_t index) {
  crypto::PeerId::Digest digest{};
  digest[0] = static_cast<std::uint8_t>(index);
  digest[1] = static_cast<std::uint8_t>(index >> 8);
  return crypto::PeerId(digest);
}

trace::Trace make_monitor_trace(std::size_t n, trace::MonitorId monitor,
                                std::uint64_t seed) {
  util::RngStream rng(seed, "federation-bench");
  trace::Trace t;
  util::SimTime ts = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ts += rng.uniform_index(2 * util::kSecond);
    trace::TraceEntry e;
    e.timestamp = ts;
    const auto peer = rng.uniform_index(2000);
    e.peer = bench_peer(peer);
    e.address =
        net::Address{0x0a000001u + static_cast<std::uint32_t>(peer), 4001};
    e.cid = cid::Cid::of_data(
        cid::Multicodec::Raw,
        util::bytes_of("fed cid " + std::to_string(rng.uniform_index(5000))));
    const auto type = rng.uniform_index(4);
    e.type = type == 0   ? bitswap::WantType::Cancel
             : type == 1 ? bitswap::WantType::WantBlock
                         : bitswap::WantType::WantHave;
    e.monitor = monitor;
    t.append(std::move(e));
  }
  return t;
}

void build_store(const std::string& dir, const trace::Trace& t,
                 std::uint64_t segment_entries) {
  tracestore::StoreOptions options;
  options.max_entries_per_segment = segment_entries;
  auto writer = tracestore::SegmentWriter::create(dir, options);
  for (const auto& e : t.entries()) writer->append(e);
  writer->finalize();
}

/// The comma-separated counts of list flag `name` (empty items skipped);
/// a malformed item fails `flags`.
std::vector<std::uint64_t> parse_list(util::Flags& flags, std::string_view name,
                                      std::string fallback) {
  std::vector<std::uint64_t> out;
  const std::string text = flags.text(name, std::move(fallback));
  for (const auto& item : util::split(text, ',')) {
    if (item.empty()) continue;
    const auto value = util::parse_u64(item);
    if (!value) {
      flags.fail(std::string(name) + ": '" + item + "' is not an integer");
      return {};
    }
    out.push_back(*value);
  }
  return out;
}

double percentile(std::vector<std::int64_t>& samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto index = static_cast<std::size_t>(
      p * static_cast<double>(samples.size() - 1) + 0.5);
  return static_cast<double>(samples[std::min(index, samples.size() - 1)]);
}

std::uint64_t landed_segments(const federation::Coordinator& coordinator) {
  std::uint64_t total = 0;
  for (const auto& m : coordinator.monitors()) total += m.segments;
  return total;
}

/// Waits until the coordinator holds `want` segments; false on timeout.
bool await_landed(const federation::Coordinator& coordinator,
                  std::uint64_t want, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (landed_segments(coordinator) < want) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

struct SweepResult {
  std::uint64_t monitors = 0;
  std::uint64_t rate = 0;  // target seal rate (segments/s); 0 = bulk
  std::uint64_t segments = 0;
  std::uint64_t bytes = 0;
  double seconds = 0;
  double lag_p50_us = 0;
  double lag_p99_us = 0;
  double recovery_seconds = 0;

  double segments_per_s() const {
    return seconds > 0 ? static_cast<double>(segments) / seconds : 0;
  }
  double mb_per_s() const {
    return seconds > 0
               ? static_cast<double>(bytes) / (1024.0 * 1024.0) / seconds
               : 0;
  }
};

federation::ShipperOptions shipper_options(std::uint16_t port,
                                           std::uint32_t id) {
  federation::ShipperOptions options;
  options.port = port;
  options.monitor_id = id;
  options.vantage = "vp-" + std::to_string(id);
  options.poll_interval_ms = 5;
  options.reconnect.initial_delay_ms = 10;
  options.reconnect.max_delay_ms = 100;
  return options;
}

/// One replication sweep: `monitors` stores × `rate` seals/s into a fresh
/// coordinator. Returns nullopt when replication never converged.
std::optional<SweepResult> run_sweep(std::uint64_t monitors,
                                     std::uint64_t rate,
                                     std::uint64_t entries,
                                     std::uint64_t segment_entries) {
  // Declared first so it outlives every store, shipper and thread below.
  const util::TempDir scratch("ipfsmon_exp_federation");
  if (scratch.path().empty()) {
    std::fprintf(stderr, "cannot create a temporary directory\n");
    return std::nullopt;
  }
  SweepResult result;
  result.monitors = monitors;
  result.rate = rate;

  // Traces are pre-generated; in live mode segments seal while shipping.
  std::vector<std::string> dirs;
  std::vector<trace::Trace> traces;
  for (std::uint64_t m = 0; m < monitors; ++m) {
    traces.push_back(make_monitor_trace(
        entries, static_cast<trace::MonitorId>(m), 100 + m));
    dirs.push_back(scratch.path() + "/m" + std::to_string(m));
  }
  tracestore::StoreOptions store_options;
  store_options.max_entries_per_segment = segment_entries;
  if (rate == 0) {
    for (std::uint64_t m = 0; m < monitors; ++m) {
      build_store(dirs[m], traces[m], segment_entries);
    }
  } else {
    // Live mode still needs the directories (and a first sealed segment so
    // the shippers have something to do from the start).
    for (std::uint64_t m = 0; m < monitors; ++m) {
      auto writer = tracestore::SegmentWriter::create(dirs[m], store_options);
      for (std::uint64_t i = 0; i < segment_entries; ++i) {
        writer->append(traces[m].entries()[i]);
      }
      writer->abandon();  // sealed segments stay; manifest comes later
      tracestore::recover_store_dir(dirs[m], store_options);
    }
  }

  const std::string root = scratch.path() + "/root";
  std::string error;
  auto coordinator = federation::Coordinator::start(root, {}, &error);
  if (coordinator == nullptr) {
    std::fprintf(stderr, "coordinator: %s\n", error.c_str());
    return std::nullopt;
  }

  // Live writers: seal segments at the target aggregate rate per monitor.
  std::vector<std::thread> writers;
  if (rate > 0) {
    const auto per_segment_us = static_cast<std::int64_t>(
        1'000'000.0 * static_cast<double>(monitors) /
        static_cast<double>(rate));
    for (std::uint64_t m = 0; m < monitors; ++m) {
      // per_segment_us by value: it is scoped to this if-block, which exits
      // (and its stack slot gets reused) while the writer threads still run.
      writers.emplace_back([&, m, per_segment_us] {
        auto writer =
            tracestore::SegmentWriter::resume(dirs[m], store_options);
        if (writer == nullptr) return;
        const auto& t = traces[m].entries();
        for (std::size_t i = segment_entries; i < t.size();
             i += segment_entries) {
          const auto start = std::chrono::steady_clock::now();
          const std::size_t end = std::min(i + segment_entries, t.size());
          for (std::size_t j = i; j < end; ++j) writer->append(t[j]);
          std::this_thread::sleep_until(
              start + std::chrono::microseconds(per_segment_us));
        }
        writer->finalize();
      });
    }
  }

  std::vector<std::unique_ptr<federation::Shipper>> shippers;
  const bench::Stopwatch clock;
  for (std::uint64_t m = 0; m < monitors; ++m) {
    shippers.push_back(std::make_unique<federation::Shipper>(
        dirs[m],
        shipper_options(coordinator->port(),
                        static_cast<std::uint32_t>(m + 1))));
    shippers.back()->start();
  }
  for (auto& w : writers) w.join();

  // Expected segment count: the sealed set after all writers finished.
  std::uint64_t expected = 0;
  std::uint64_t bytes = 0;
  for (std::uint64_t m = 0; m < monitors; ++m) {
    tracestore::recover_store_dir(dirs[m], store_options);
    auto store = tracestore::TraceStore::open(dirs[m], store_options);
    if (!store) return std::nullopt;
    expected += store->segments().size();
    bytes += store->total_bytes();
  }
  if (!await_landed(*coordinator, expected, 60'000)) {
    std::fprintf(stderr, "replication never converged (%llu/%llu)\n",
                 static_cast<unsigned long long>(landed_segments(*coordinator)),
                 static_cast<unsigned long long>(expected));
    return std::nullopt;
  }
  result.seconds = clock.seconds();
  result.segments = expected;
  result.bytes = bytes;

  std::vector<std::int64_t> lag;
  for (auto& shipper : shippers) {
    for (const auto sample : shipper->drain_lag_samples()) {
      lag.push_back(sample);
    }
    shipper->stop();
  }
  result.lag_p50_us = percentile(lag, 0.50);
  result.lag_p99_us = percentile(lag, 0.99);

  // Recovery: monitor 1 grows new segments, its shipper is killed after
  // the first of them lands, and a fresh shipper (empty in-memory state,
  // HELLO_ACK watermarks only) finishes the job.
  {
    auto writer = tracestore::SegmentWriter::resume(dirs[0], store_options);
    const trace::Trace extra = make_monitor_trace(
        4 * segment_entries, 0, 900 + monitors);
    const util::SimTime base = traces[0].entries().back().timestamp;
    for (const auto& e : extra.entries()) {
      auto shifted = e;
      shifted.timestamp += base;
      writer->append(shifted);
    }
    writer->finalize();
    std::uint64_t full = 0;
    for (std::uint64_t m = 0; m < monitors; ++m) {
      auto store = tracestore::TraceStore::open(dirs[m], store_options);
      full += store->segments().size();
    }

    auto victim = std::make_unique<federation::Shipper>(
        dirs[0], shipper_options(coordinator->port(), 1));
    victim->start();
    await_landed(*coordinator, expected + 1, 30'000);
    victim->stop();  // killed mid-stream
    victim.reset();

    const bench::Stopwatch recovery_clock;
    federation::Shipper replacement(dirs[0],
                                    shipper_options(coordinator->port(), 1));
    replacement.start();
    if (!await_landed(*coordinator, full, 60'000)) {
      std::fprintf(stderr, "recovery never converged\n");
      return std::nullopt;
    }
    result.recovery_seconds = recovery_clock.seconds();
    replacement.stop();
  }

  coordinator->stop();
  return result;
}

/// The --federation-smoke correctness gate (see header comment).
int run_smoke(std::uint64_t entries, std::uint64_t segment_entries) {
  bench::print_section("federation smoke: 2 shippers, 1 killed mid-stream");
  // Declared first so it outlives every store and thread below.
  const util::TempDir scratch("ipfsmon_federation_smoke");
  if (scratch.path().empty()) {
    std::fprintf(stderr, "smoke: cannot create a temporary directory\n");
    return 1;
  }

  std::vector<std::string> dirs;
  std::vector<trace::Trace> traces;
  for (int m = 0; m < 2; ++m) {
    traces.push_back(make_monitor_trace(
        entries, static_cast<trace::MonitorId>(m),
        500 + static_cast<std::uint64_t>(m)));
    dirs.push_back(scratch.path() + "/monitor_" + std::to_string(m));
    build_store(dirs[static_cast<std::size_t>(m)],
                traces[static_cast<std::size_t>(m)], segment_entries);
  }

  // Ground truth: one local unify served by a plain QueryService.
  const std::string truth_dir = scratch.path() + "/truth";
  std::string error;
  std::unique_ptr<query::QueryService> truth;
  if (tracestore::unify_dirs(dirs, truth_dir, {}, &error)) {
    truth = query::QueryService::open(truth_dir, {}, &error);
  }
  if (truth == nullptr) {
    std::fprintf(stderr, "smoke: ground truth store: %s\n", error.c_str());
    return 1;
  }

  const std::string root = scratch.path() + "/coordinator";
  auto federated = federation::FederatedService::start(root, {}, &error);
  if (federated == nullptr) {
    std::fprintf(stderr, "smoke: federated service: %s\n", error.c_str());
    return 1;
  }
  auto& coordinator = federated->coordinator();

  // Shipper 1 replicates cleanly; shipper 2 is killed mid-stream after its
  // first segment lands, then a fresh one resumes from the watermark.
  federation::Shipper first(dirs[0], shipper_options(coordinator.port(), 1));
  first.start();
  {
    auto victim = std::make_unique<federation::Shipper>(
        dirs[1], shipper_options(coordinator.port(), 2));
    victim->start();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    auto second_landed = [&] {
      for (const auto& m : coordinator.monitors()) {
        if (m.id == 2 && m.segments >= 1) return true;
      }
      return false;
    };
    while (!second_landed() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    victim->stop();  // mid-stream: some of its segments never shipped
    std::printf("  killed shipper 2 after %llu of its segments landed\n",
                static_cast<unsigned long long>(
                    coordinator.monitors().size() > 1
                        ? coordinator.monitors()[1].segments
                        : 0));
  }
  federation::Shipper replacement(dirs[1],
                                  shipper_options(coordinator.port(), 2));
  replacement.start();

  std::uint64_t expected = 0;
  for (const auto& dir : dirs) {
    expected += tracestore::TraceStore::open(dir)->segments().size();
  }
  if (!await_landed(coordinator, expected, 60'000)) {
    std::fprintf(stderr, "smoke: replication never converged\n");
    return 1;
  }
  first.stop();
  replacement.stop();
  if (!federated->refresh(&error)) {
    std::fprintf(stderr, "smoke: refresh: %s\n", error.c_str());
    return 1;
  }

  // The unified answer must equal the single-store ground truth, both as
  // structured stats and as the rendered /v1/stats body.
  const util::SimTime hi = truth->store().max_time();
  const query::RangeStats unified = federated->query().stats_between(0, hi);
  const query::RangeStats expected_stats = truth->stats_between(0, hi);
  query::HttpRequest request;
  request.method = "GET";
  request.target = "/v1/stats?min_t=0&max_t=" + std::to_string(hi);
  request.path = "/v1/stats";
  request.params = {{"min_t", "0"}, {"max_t", std::to_string(hi)}};
  const auto unified_body = federated->query().handle(request).body;
  const auto truth_body = truth->handle(request).body;

  std::printf("  unified total=%llu duplicates=%llu vs truth total=%llu "
              "duplicates=%llu\n",
              static_cast<unsigned long long>(unified.total),
              static_cast<unsigned long long>(unified.duplicates),
              static_cast<unsigned long long>(expected_stats.total),
              static_cast<unsigned long long>(expected_stats.duplicates));
  if (!(unified == expected_stats) || unified_body != truth_body) {
    std::fprintf(stderr,
                 "smoke: FAILED — unified /v1/stats diverges from the "
                 "single-store ground truth\n  unified: %s\n  truth:   %s\n",
                 unified_body.c_str(), truth_body.c_str());
    return 1;
  }
  std::printf("  /v1/stats byte-identical to the single-store run — OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const std::uint64_t segment_entries =
      flags.u64("--segment-entries", 2048);
  const bool smoke = flags.boolean("--smoke");
  const std::uint64_t entries = flags.u64("--entries", smoke ? 6000 : 20000);
  const auto monitor_counts = parse_list(flags, "--monitors", "1,2,4,8");
  const auto rates = parse_list(flags, "--rates", "0,25");
  if (!flags.ok()) {
    return flags.usage(
        "[--entries=N] [--segment-entries=N] [--monitors=1,2,4,8] "
        "[--rates=0,25]\n--smoke [--entries=N]");
  }
  const bench::Stopwatch total;
  bench::print_header("exp_federation",
                      "monitor federation: vantage points -> coordinator "
                      "(paper Sec. IV multi-monitor deployment, streamed)");
  if (smoke) {
    const int code = run_smoke(entries, 512);
    bench::print_run_footer(total);
    return code;
  }

  std::vector<SweepResult> results;
  for (const auto rate : rates) {
    for (const auto monitors : monitor_counts) {
      std::printf("\nsweep: %llu monitor(s), rate %llu seg/s%s...\n",
                  static_cast<unsigned long long>(monitors),
                  static_cast<unsigned long long>(rate),
                  rate == 0 ? " (bulk)" : "");
      auto result = run_sweep(monitors, rate, entries, segment_entries);
      if (!result) return 1;
      results.push_back(*result);
      std::printf(
          "  %llu segments, %.1f MB in %.2f s -> %.0f seg/s, %.1f MB/s; "
          "lag p50 %.1f ms p99 %.1f ms; recovery %.2f s\n",
          static_cast<unsigned long long>(result->segments),
          static_cast<double>(result->bytes) / (1024.0 * 1024.0),
          result->seconds, result->segments_per_s(), result->mb_per_s(),
          result->lag_p50_us / 1000.0, result->lag_p99_us / 1000.0,
          result->recovery_seconds);
    }
  }

  bench::print_section("results");
  std::printf("  %-9s %6s %9s %9s %9s %11s %11s %10s\n", "monitors", "rate",
              "segments", "seg/s", "MB/s", "lag p50 ms", "lag p99 ms",
              "recov s");
  for (const auto& r : results) {
    std::printf("  %-9llu %6llu %9llu %9.0f %9.1f %11.1f %11.1f %10.2f\n",
                static_cast<unsigned long long>(r.monitors),
                static_cast<unsigned long long>(r.rate),
                static_cast<unsigned long long>(r.segments),
                r.segments_per_s(), r.mb_per_s(), r.lag_p50_us / 1000.0,
                r.lag_p99_us / 1000.0, r.recovery_seconds);
  }

  const bool written = bench::write_bench_artifact(
      "federation", results,
      [&](util::json::Writer& json) {
        json.key("entries").u64(entries)
            .key("segment_entries").u64(segment_entries);
      },
      [](util::json::Writer& json, const SweepResult& r) {
        json.key("monitors").u64(r.monitors)
            .key("rate_seg_per_s").u64(r.rate)
            .key("segments").u64(r.segments)
            .key("bytes").u64(r.bytes)
            .key("seconds").fixed(r.seconds, 4)
            .key("segments_per_s").fixed(r.segments_per_s(), 1)
            .key("mb_per_s").fixed(r.mb_per_s(), 2)
            .key("lag_p50_us").fixed(r.lag_p50_us, 1)
            .key("lag_p99_us").fixed(r.lag_p99_us, 1)
            .key("recovery_seconds").fixed(r.recovery_seconds, 4);
      });
  if (!written) return 1;

  bench::print_run_footer(total);
  return 0;
}
