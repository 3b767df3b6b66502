// ipfsmon_ingest — real-capture ingest, export, and deterministic replay.
//
// Ingest a Bitswap wantlist capture (NDJSON or CSV, plain or gzip) into a
// trace store directory, export a store back out as a capture file, or
// replay a store through the event scheduler and report the stream
// checksum the replay produced.
//
// Usage:
//   ipfsmon_ingest --capture <file> --store <dir>
//       [--format ndjson|csv] [--lenient] [--epoch <wall time>]
//       [--monitor <vantage>=<id>]... [--no-flags]
//       [--checkpoint-every N] [--resume]
//   ipfsmon_ingest --replay <dir> [--speedup X] [--start NS] [--stop NS]
//       [--remark-flags] [--expect-checksum HEX]
//   ipfsmon_ingest --export <dir> --out <file> [--format ndjson|csv]
//       [--gzip]
//
// Replay prints the FNV-1a stream checksum; --expect-checksum turns the
// run into an assertion (exit 1 on mismatch), which is how the smoke suite
// pins byte-identical replay of the committed fixtures. --speedup 0 (the
// default) replays as fast as possible; N > 0 paces N sim-seconds per
// wall-second. Exit status: 0 on success, 2 on a malformed command line
// (usage), 1 on any other failure.
#include <cinttypes>
#include <cstdio>
#include <optional>
#include <string>

#include "ingest/export.hpp"
#include "ingest/ingest.hpp"
#include "ingest/replay.hpp"
#include "trace/trace.hpp"
#include "util/file.hpp"
#include "util/flags.hpp"
#include "util/strings.hpp"

using namespace ipfsmon;

namespace {

constexpr const char* kUsage =
    "--capture <file> --store <dir> [--format ndjson|csv] [--lenient] "
    "[--epoch T] [--monitor V=ID]... [--no-flags] [--checkpoint-every N] "
    "[--resume] [--max-entries N]\n"
    "--replay <dir> [--speedup X] [--start NS] [--stop NS] [--remark-flags] "
    "[--expect-checksum HEX]\n"
    "--export <dir> --out <file> [--format ndjson|csv] [--gzip]";

std::optional<ingest::CaptureFormat> format_from_name(const std::string& name) {
  if (name == "ndjson") return ingest::CaptureFormat::kNdjson;
  if (name == "csv") return ingest::CaptureFormat::kCsv;
  if (name == "auto") return ingest::CaptureFormat::kAuto;
  return std::nullopt;
}

int run_ingest(const std::string& capture, const std::string& store_dir,
               const ingest::IngestOptions& options) {
  std::string error;
  const auto stats = ingest::ingest_capture(capture, store_dir, options,
                                            &error);
  if (!stats) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::printf("ingested %s (%s%s%s) -> %s\n", capture.c_str(),
              std::string(capture_format_name(stats->format)).c_str(),
              stats->resumed ? ", resumed" : "",
              stats->truncated ? ", stopped at --max-entries (resumable)" : "",
              store_dir.c_str());
  std::printf("  entries   %" PRIu64 "  (lines %" PRIu64 ", rejected %" PRIu64
              ", unordered %" PRIu64 ")\n",
              stats->entries, stats->lines, stats->rejected,
              stats->unordered);
  std::printf("  epoch     %s\n",
              util::format_wall_time(stats->wall_epoch_ns).c_str());
  std::printf("  range     %s .. %s\n",
              util::format_wall_time(stats->wall_epoch_ns + stats->min_time)
                  .c_str(),
              util::format_wall_time(stats->wall_epoch_ns + stats->max_time)
                  .c_str());
  for (const auto& [vantage, id] : stats->monitors) {
    std::printf("  monitor   %u = %s\n", id, vantage.c_str());
  }
  if (stats->rejected > 0) {
    std::printf("  rejects quarantined in %s\n",
                ingest::rejects_path(store_dir).c_str());
  }
  return 0;
}

int run_replay(const std::string& store_dir,
               const ingest::ReplayOptions& options,
               const std::string& expect_checksum) {
  std::string error;
  auto store = tracestore::TraceStore::open(store_dir, {}, &error);
  if (!store) {
    std::fprintf(stderr, "error: cannot open %s: %s\n", store_dir.c_str(),
                 error.c_str());
    return 1;
  }
  if (store->meta()) {
    std::printf("replaying %s (capture %s, epoch %s)\n", store_dir.c_str(),
                store->meta()->source.c_str(),
                util::format_wall_time(store->meta()->wall_epoch_ns).c_str());
  } else {
    std::printf("replaying %s (simulated store, no wall-clock epoch)\n",
                store_dir.c_str());
  }

  trace::StatsAccumulator accumulator;
  const auto replay = ingest::replay_store(
      *store, [&](const trace::TraceEntry& entry) { accumulator.add(entry); },
      options);
  const auto stats = accumulator.stats();
  std::printf("  entries   %" PRIu64 " in %" PRIu64 " batches, sim %s\n",
              replay.entries, replay.batches,
              util::format("%.1fs",
                           static_cast<double>(replay.last - replay.first) /
                               1e9)
                  .c_str());
  std::printf("  requests  %zu  cancels %zu  duplicates %zu  "
              "rebroadcasts %zu\n",
              stats.requests, stats.cancels, stats.inter_monitor_duplicates,
              stats.rebroadcasts);
  std::printf("  peers     %zu  cids %zu\n", stats.unique_peers,
              stats.unique_cids);
  std::printf("  checksum  %016" PRIx64 "\n", replay.checksum);
  if (!expect_checksum.empty()) {
    const std::string got = util::format("%016" PRIx64, replay.checksum);
    if (got != expect_checksum) {
      std::fprintf(stderr, "error: checksum mismatch: got %s, want %s\n",
                   got.c_str(), expect_checksum.c_str());
      return 1;
    }
    std::printf("  checksum matches expectation\n");
  }
  return 0;
}

int run_export(const std::string& store_dir, const std::string& out,
               const ingest::ExportOptions& options) {
  std::string error;
  auto store = tracestore::TraceStore::open(store_dir, {}, &error);
  if (!store) {
    std::fprintf(stderr, "error: cannot open %s: %s\n", store_dir.c_str(),
                 error.c_str());
    return 1;
  }
  const auto stats = ingest::export_capture(*store, out, options, &error);
  if (!stats) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::printf("exported %" PRIu64 " entries from %s to %s\n", stats->entries,
              store_dir.c_str(), out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const std::string capture = flags.text("--capture");
  const std::string store_dir = flags.text("--store");
  const std::string replay_dir = flags.text("--replay");
  const std::string export_dir = flags.text("--export");
  const std::string out_path = flags.text("--out");
  const std::string expect_checksum = flags.text("--expect-checksum");
  const std::string format_name = flags.text("--format", "auto");
  const auto format = format_from_name(format_name);
  if (!format) {
    flags.fail("--format: '" + format_name + "' is not ndjson, csv or auto");
  }

  ingest::IngestOptions ingest_options;
  ingest_options.lenient = flags.boolean("--lenient");
  if (flags.has("--epoch")) {
    const std::string epoch = flags.text("--epoch");
    ingest_options.epoch = util::parse_wall_time(epoch);
    if (!ingest_options.epoch) {
      flags.fail("--epoch: cannot parse '" + epoch + "'");
    }
  }
  for (const std::string& spec : flags.every("--monitor")) {
    const auto eq = spec.find('=');
    const auto id = eq == std::string::npos
                        ? std::nullopt
                        : util::parse_u64(spec.substr(eq + 1), UINT32_MAX);
    if (!id) {
      flags.fail("--monitor: '" + spec + "' is not VANTAGE=ID");
      continue;
    }
    ingest_options.monitors.emplace_back(spec.substr(0, eq),
                                         static_cast<trace::MonitorId>(*id));
  }
  ingest_options.mark_flags = !flags.boolean("--no-flags");
  ingest_options.checkpoint_every =
      flags.u64("--checkpoint-every", ingest_options.checkpoint_every);
  ingest_options.resume = flags.boolean("--resume");
  ingest_options.max_entries =
      flags.u64("--max-entries", ingest_options.max_entries);

  ingest::ReplayOptions replay_options;
  replay_options.speedup = flags.f64("--speedup", replay_options.speedup);
  if (replay_options.speedup < 0) flags.fail("--speedup must not be negative");
  replay_options.start = flags.i64("--start", replay_options.start);
  if (flags.has("--stop")) replay_options.stop = flags.i64("--stop", 0);
  replay_options.remark_flags = flags.boolean("--remark-flags");

  ingest::ExportOptions export_options;
  export_options.gzip = flags.boolean("--gzip");
  if (!flags.ok()) return flags.usage(kUsage);

  if (!capture.empty() && !store_dir.empty()) {
    ingest_options.format = *format;
    return run_ingest(capture, store_dir, ingest_options);
  }
  if (!replay_dir.empty()) {
    return run_replay(replay_dir, replay_options, expect_checksum);
  }
  if (!export_dir.empty() && !out_path.empty()) {
    export_options.format = *format;
    return run_export(export_dir, out_path, export_options);
  }
  return flags.usage(kUsage);
}
