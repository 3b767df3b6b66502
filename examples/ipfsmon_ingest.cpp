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
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ingest/export.hpp"
#include "ingest/ingest.hpp"
#include "ingest/replay.hpp"
#include "trace/trace.hpp"
#include "util/file.hpp"
#include "util/strings.hpp"

using namespace ipfsmon;

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --capture <file> --store <dir> [--format ndjson|csv]\n"
      "       %*s [--lenient] [--epoch T] [--monitor V=ID]... [--no-flags]\n"
      "       %*s [--checkpoint-every N] [--resume] [--max-entries N]\n"
      "       %s --replay <dir> [--speedup X] [--start NS] [--stop NS]\n"
      "       %*s [--remark-flags] [--expect-checksum HEX]\n"
      "       %s --export <dir> --out <file> [--format ndjson|csv] [--gzip]\n",
      argv0, static_cast<int>(std::strlen(argv0)), "",
      static_cast<int>(std::strlen(argv0)), "", argv0,
      static_cast<int>(std::strlen(argv0)), "", argv0);
  return 2;
}

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
  std::string capture, store_dir, replay_dir, export_dir, out_path;
  std::string expect_checksum;
  ingest::IngestOptions ingest_options;
  ingest::ReplayOptions replay_options;
  ingest::ExportOptions export_options;
  ingest::CaptureFormat format = ingest::CaptureFormat::kAuto;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // The next argument as a decimal in [0, max]; nullopt when it is
    // missing, malformed or out of range.
    auto number = [&](std::uint64_t max) -> std::optional<std::uint64_t> {
      const char* v = value();
      return v == nullptr ? std::nullopt : util::parse_u64(v, max);
    };
    auto sim_time = [&]() -> std::optional<std::int64_t> {
      const char* v = value();
      return v == nullptr ? std::nullopt : util::parse_i64(v);
    };
    const char* v = nullptr;
    if (arg == "--capture") {
      if ((v = value()) == nullptr) return usage(argv[0]);
      capture = v;
    } else if (arg == "--store") {
      if ((v = value()) == nullptr) return usage(argv[0]);
      store_dir = v;
    } else if (arg == "--replay") {
      if ((v = value()) == nullptr) return usage(argv[0]);
      replay_dir = v;
    } else if (arg == "--export") {
      if ((v = value()) == nullptr) return usage(argv[0]);
      export_dir = v;
    } else if (arg == "--out") {
      if ((v = value()) == nullptr) return usage(argv[0]);
      out_path = v;
    } else if (arg == "--format") {
      if ((v = value()) == nullptr) return usage(argv[0]);
      const auto parsed = format_from_name(v);
      if (!parsed) return usage(argv[0]);
      format = *parsed;
    } else if (arg == "--lenient") {
      ingest_options.lenient = true;
    } else if (arg == "--epoch") {
      if ((v = value()) == nullptr) return usage(argv[0]);
      const auto epoch = util::parse_wall_time(v);
      if (!epoch) {
        std::fprintf(stderr, "error: cannot parse --epoch '%s'\n", v);
        return 1;
      }
      ingest_options.epoch = *epoch;
    } else if (arg == "--monitor") {
      if ((v = value()) == nullptr) return usage(argv[0]);
      const std::string spec = v;
      const auto eq = spec.find('=');
      if (eq == std::string::npos) return usage(argv[0]);
      const auto id =
          util::parse_u64(std::string_view(spec).substr(eq + 1), UINT32_MAX);
      if (!id) return usage(argv[0]);
      ingest_options.monitors.emplace_back(spec.substr(0, eq),
                                           static_cast<trace::MonitorId>(*id));
    } else if (arg == "--no-flags") {
      ingest_options.mark_flags = false;
    } else if (arg == "--checkpoint-every") {
      const auto every = number(UINT64_MAX);
      if (!every) return usage(argv[0]);
      ingest_options.checkpoint_every = *every;
    } else if (arg == "--resume") {
      ingest_options.resume = true;
    } else if (arg == "--max-entries") {
      const auto max = number(UINT64_MAX);
      if (!max) return usage(argv[0]);
      ingest_options.max_entries = *max;
    } else if (arg == "--speedup") {
      if ((v = value()) == nullptr) return usage(argv[0]);
      const std::string_view text = v;
      double speedup = 0;
      const auto [end, ec] =
          std::from_chars(text.data(), text.data() + text.size(), speedup);
      if (ec != std::errc() || end != text.data() + text.size() ||
          !std::isfinite(speedup) || speedup < 0) {
        return usage(argv[0]);
      }
      replay_options.speedup = speedup;
    } else if (arg == "--start") {
      const auto start = sim_time();
      if (!start) return usage(argv[0]);
      replay_options.start = *start;
    } else if (arg == "--stop") {
      const auto stop = sim_time();
      if (!stop) return usage(argv[0]);
      replay_options.stop = *stop;
    } else if (arg == "--remark-flags") {
      replay_options.remark_flags = true;
    } else if (arg == "--expect-checksum") {
      if ((v = value()) == nullptr) return usage(argv[0]);
      expect_checksum = v;
    } else if (arg == "--gzip") {
      export_options.gzip = true;
    } else {
      return usage(argv[0]);
    }
  }

  if (!capture.empty() && !store_dir.empty()) {
    ingest_options.format = format;
    return run_ingest(capture, store_dir, ingest_options);
  }
  if (!replay_dir.empty()) {
    return run_replay(replay_dir, replay_options, expect_checksum);
  }
  if (!export_dir.empty() && !out_path.empty()) {
    export_options.format = format;
    return run_export(export_dir, out_path, export_options);
  }
  return usage(argv[0]);
}
