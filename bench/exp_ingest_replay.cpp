// exp_ingest_replay — throughput of the real-capture ingest path and the
// deterministic replay driver.
//
// Generates a deterministic synthetic Bitswap wantlist capture (NDJSON,
// optionally gzip'd), ingests it cold through ingest::ingest_capture
// (parse + normalize + flag + segment write), and replays the produced
// store through sim::Scheduler at a sweep of speedups. Reports capture
// MB/s and entries/s for each encoding, replay fan-out rate at speedup 0,
// and the pacing accuracy of throttled replays (wall time vs the sim span
// the speedup promises). The replay checksum is printed and verified
// identical across repetitions — replay must be byte-deterministic.
//
// Everything lands in BENCH_ingest.json (schema in EXPERIMENTS.md) so the
// ingest-perf trajectory accumulates across revisions.
//
// Flags: --entries=N        capture size (default 200000)
//        --speedups=0,100   replay speedup sweep (0 = as fast as possible;
//                           paced runs are clipped to ~2 s of wall time)
//        --emit-fixtures=D  write the committed smoke fixtures into D
//                           (capture_small.ndjson[.gz], capture_corrupt
//                           .ndjson, capture_small.checksum) and exit
//        --smoke            correctness + floor gate, not a perf run
//
// --smoke is the scripts/check.sh --ingest-smoke gate: a small capture is
// ingested twice (plain and gzip) and replayed; the run fails when the
// checksums diverge or the plain ingest rate drops below half the
// committed floor in bench/ingest_smoke_floor.json.
#include <cinttypes>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ingest/capture.hpp"
#include "ingest/export.hpp"
#include "ingest/ingest.hpp"
#include "ingest/replay.hpp"
#include "ingest/stream.hpp"
#include "tracestore/store.hpp"
#include "util/rng.hpp"
#include "util/walltime.hpp"

using namespace ipfsmon;

namespace {

namespace fs = std::filesystem;

constexpr util::WallNanos kEpoch = 1650000000ll * 1000000000ll;  // 2022-04-15

crypto::PeerId bench_peer(std::uint64_t index) {
  crypto::PeerId::Digest digest{};
  digest[0] = static_cast<std::uint8_t>(index);
  digest[1] = static_cast<std::uint8_t>(index >> 8);
  digest[2] = static_cast<std::uint8_t>(index >> 16);
  return crypto::PeerId(digest);
}

/// Deterministic synthetic capture: ~1 ms mean spacing, a working set of
/// peers and CIDs small enough that duplicate/re-broadcast windows fire,
/// three vantages. Same seed => byte-identical capture file.
std::vector<ingest::CaptureRecord> make_capture(std::size_t entries,
                                                std::uint64_t seed) {
  util::RngStream rng(seed, "ingest-bench");
  static const char* kVantages[] = {"us", "de", "sg"};
  std::vector<ingest::CaptureRecord> records;
  records.reserve(entries);
  util::WallNanos wall = kEpoch;
  for (std::size_t i = 0; i < entries; ++i) {
    wall += static_cast<util::WallNanos>(rng.uniform_index(2000000)) + 1;
    ingest::CaptureRecord record;
    record.wall_ns = wall;
    const auto peer = rng.uniform_index(2000);
    record.peer = bench_peer(peer);
    record.address =
        net::Address{0x0a000001u + static_cast<std::uint32_t>(peer), 4001};
    record.cid = cid::Cid::of_data(
        cid::Multicodec::Raw,
        util::bytes_of("ingest cid " +
                       std::to_string(rng.uniform_index(5000))));
    const auto type = rng.uniform_index(4);
    record.type = type == 0   ? bitswap::WantType::Cancel
                  : type == 1 ? bitswap::WantType::WantBlock
                              : bitswap::WantType::WantHave;
    record.vantage = kVantages[rng.uniform_index(3)];
    records.push_back(std::move(record));
  }
  return records;
}

bool write_capture_file(const std::string& path,
                        const std::vector<ingest::CaptureRecord>& records,
                        bool gzip) {
  auto writer = ingest::LineWriter::open(path, gzip);
  if (writer == nullptr) return false;
  for (const auto& record : records) {
    if (!writer->write(ingest::format_ndjson_record(record))) return false;
  }
  return writer->close();
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = "/tmp/ipfsmon_exp_ingest/" + name;
  fs::remove_all(dir);
  return dir;
}

struct IngestRun {
  std::string encoding;  // "plain" | "gzip"
  double seconds = 0.0;
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;  // uncompressed capture bytes

  double entries_per_s() const {
    return seconds > 0 ? static_cast<double>(entries) / seconds : 0.0;
  }
  double mb_per_s() const {
    return seconds > 0
               ? static_cast<double>(bytes) / (1024.0 * 1024.0) / seconds
               : 0.0;
  }
};

struct ReplayRun {
  double speedup = 0.0;
  double seconds = 0.0;
  std::uint64_t entries = 0;
  std::uint64_t checksum = 0;
  double sim_span_s = 0.0;  // sim time covered by the (possibly clipped) run

  double entries_per_s() const {
    return seconds > 0 ? static_cast<double>(entries) / seconds : 0.0;
  }
  /// Wall seconds the speedup promised for the covered sim span.
  double expected_seconds() const {
    return speedup > 0 ? sim_span_s / speedup : 0.0;
  }
};

std::optional<IngestRun> run_ingest(const std::string& capture,
                                    const std::string& store_dir,
                                    const std::string& encoding) {
  ingest::IngestOptions options;
  std::string error;
  bench::Stopwatch watch;
  const auto stats =
      ingest::ingest_capture(capture, store_dir, options, &error);
  if (!stats) {
    std::fprintf(stderr, "ingest of %s failed: %s\n", capture.c_str(),
                 error.c_str());
    return std::nullopt;
  }
  IngestRun run;
  run.encoding = encoding;
  run.seconds = watch.seconds();
  run.entries = stats->entries;
  run.bytes = stats->bytes;
  return run;
}

ReplayRun run_replay(const tracestore::TraceStore& store, double speedup,
                     double max_paced_wall_s) {
  ingest::ReplayOptions options;
  options.speedup = speedup;
  util::SimTime span = store.max_time() - store.min_time();
  if (speedup > 0) {
    // Clip paced runs to ~max_paced_wall_s of wall time so a slow sweep
    // point doesn't dominate the benchmark.
    const auto budget = static_cast<util::SimTime>(
        max_paced_wall_s * speedup * 1e9);
    if (budget < span) {
      options.stop = store.min_time() + budget;
      span = budget;
    }
  }
  bench::Stopwatch watch;
  const auto stats = ingest::replay_store(store, nullptr, options);
  ReplayRun run;
  run.speedup = speedup;
  run.seconds = watch.seconds();
  run.entries = stats.entries;
  run.checksum = stats.checksum;
  run.sim_span_s = static_cast<double>(span) / 1e9;
  return run;
}

/// Writes the committed smoke fixtures: a small capture (plain + gzip), a
/// corrupted variant (same records with garbage lines interleaved — strict
/// must refuse it, lenient must quarantine back to the same stream), and
/// the replay checksum the clean capture must reproduce.
int emit_fixtures(const std::string& dir) {
  fs::create_directories(dir);
  const auto records = make_capture(400, 42);
  const std::string plain = dir + "/capture_small.ndjson";
  if (!write_capture_file(plain, records, false)) {
    std::fprintf(stderr, "cannot write %s\n", plain.c_str());
    return 1;
  }
  if (ingest::gzip_supported() &&
      !write_capture_file(plain + ".gz", records, true)) {
    std::fprintf(stderr, "cannot write %s.gz\n", plain.c_str());
    return 1;
  }
  // Corrupt variant: garbage every 40 lines (malformed JSON, a bad CID,
  // a truncated object) that --lenient must quarantine.
  {
    auto writer = ingest::LineWriter::open(dir + "/capture_corrupt.ndjson",
                                           false);
    if (writer == nullptr) return 1;
    static const char* kGarbage[] = {
        "this is not json",
        R"({"ts":1650000000,"peer":"QmBroken!!!","type":"WANT_HAVE","cid":"bad"})",
        R"({"ts":1650000000,"peer":)",
    };
    std::size_t garbage = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (i % 40 == 0) {
        if (!writer->write(kGarbage[garbage++ % 3])) return 1;
      }
      if (!writer->write(ingest::format_ndjson_record(records[i]))) return 1;
    }
    if (!writer->close()) return 1;
  }
  // Pin the replay checksum of the clean capture.
  const std::string scratch = fresh_dir("fixture_store");
  std::string error;
  if (!ingest::ingest_capture(plain, scratch, {}, &error)) {
    std::fprintf(stderr, "fixture ingest failed: %s\n", error.c_str());
    return 1;
  }
  auto store = tracestore::TraceStore::open(scratch, {}, &error);
  if (!store) {
    std::fprintf(stderr, "fixture store open failed: %s\n", error.c_str());
    return 1;
  }
  const auto replay = ingest::replay_store(*store, nullptr);
  std::FILE* out = std::fopen((dir + "/capture_small.checksum").c_str(), "w");
  if (out == nullptr) return 1;
  std::fprintf(out, "%016" PRIx64 "\n", replay.checksum);
  std::fclose(out);
  std::printf("fixtures written to %s (%zu records, checksum %016" PRIx64
              ")\n",
              dir.c_str(), records.size(), replay.checksum);
  fs::remove_all(scratch);
  return 0;
}

std::vector<double> parse_speedups(const std::string& text) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const auto comma = text.find(',', pos);
    const std::string item = comma == std::string::npos
                                 ? text.substr(pos)
                                 : text.substr(pos, comma - pos);
    if (!item.empty()) out.push_back(std::strtod(item.c_str(), nullptr));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  bench::Stopwatch total;

  if (flags.has("emit-fixtures")) {
    return emit_fixtures(flags.get_str("emit-fixtures", "tests/data"));
  }

  const bool smoke = flags.has("smoke");
  const auto entries = flags.get_u64("entries", smoke ? 20000 : 200000);
  const auto speedups =
      parse_speedups(flags.get_str("speedups", smoke ? "0" : "0,1,100"));

  bench::print_header("exp_ingest_replay",
                      "ingest + replay path (infrastructure, no paper figure)");
  std::printf("entries=%llu gzip=%s\n",
              static_cast<unsigned long long>(entries),
              ingest::gzip_supported() ? "yes" : "no (zlib absent)");

  bench::print_section("generate capture");
  const auto records = make_capture(entries, 42);
  const std::string capture_dir = fresh_dir("captures");
  fs::create_directories(capture_dir);
  const std::string plain = capture_dir + "/capture.ndjson";
  if (!write_capture_file(plain, records, false)) {
    std::fprintf(stderr, "cannot write %s\n", plain.c_str());
    return 1;
  }
  std::printf("  %s: %.1f MiB\n", plain.c_str(),
              static_cast<double>(fs::file_size(plain)) / (1024.0 * 1024.0));
  const std::string gzip = plain + ".gz";
  if (ingest::gzip_supported()) {
    if (!write_capture_file(gzip, records, true)) {
      std::fprintf(stderr, "cannot write %s\n", gzip.c_str());
      return 1;
    }
    std::printf("  %s: %.1f MiB compressed\n", gzip.c_str(),
                static_cast<double>(fs::file_size(gzip)) /
                    (1024.0 * 1024.0));
  }

  bench::print_section("ingest (cold, parse + flag + segment write)");
  std::vector<IngestRun> ingests;
  {
    auto run = run_ingest(plain, fresh_dir("store_plain"), "plain");
    if (!run) return 1;
    ingests.push_back(*run);
  }
  if (ingest::gzip_supported()) {
    auto run = run_ingest(gzip, fresh_dir("store_gzip"), "gzip");
    if (!run) return 1;
    ingests.push_back(*run);
  }
  for (const auto& run : ingests) {
    std::printf("  %-6s %8.3f s  %10.0f entries/s  %7.1f MB/s\n",
                run.encoding.c_str(), run.seconds, run.entries_per_s(),
                run.mb_per_s());
  }

  bench::print_section("replay through sim::Scheduler");
  std::string error;
  auto store = tracestore::TraceStore::open("/tmp/ipfsmon_exp_ingest/store_plain",
                                            {}, &error);
  if (!store) {
    std::fprintf(stderr, "cannot open ingested store: %s\n", error.c_str());
    return 1;
  }
  std::vector<ReplayRun> replays;
  for (const double speedup : speedups) {
    replays.push_back(run_replay(*store, speedup, 2.0));
    const auto& run = replays.back();
    if (run.speedup > 0) {
      std::printf("  speedup %-7.0f %8.3f s wall (%.3f s promised)  "
                  "%10.0f entries/s  checksum %016" PRIx64 "\n",
                  run.speedup, run.seconds, run.expected_seconds(),
                  run.entries_per_s(), run.checksum);
    } else {
      std::printf("  unthrottled    %8.3f s wall  %10.0f entries/s  "
                  "checksum %016" PRIx64 "\n",
                  run.seconds, run.entries_per_s(), run.checksum);
    }
  }

  // Determinism gate: a second unthrottled replay must reproduce the
  // checksum bit-for-bit.
  const auto again = run_replay(*store, 0.0, 2.0);
  if (!replays.empty() && again.checksum != replays.front().checksum &&
      replays.front().speedup == 0.0) {
    std::fprintf(stderr, "replay checksum not deterministic: %016" PRIx64
                         " vs %016" PRIx64 "\n",
                 replays.front().checksum, again.checksum);
    return 1;
  }

  if (smoke) {
    bench::print_section("smoke gate");
    if (!bench::passes_smoke_floor(
            flags.get_str("floor", "bench/ingest_smoke_floor.json"),
            "ingest_entries_per_s", ingests.front().entries_per_s(),
            "plain-ingest entries/s")) {
      return 1;
    }
    if (ingests.size() > 1) {
      // gzip and plain land identical stores.
      auto gz = tracestore::TraceStore::open(
          "/tmp/ipfsmon_exp_ingest/store_gzip", {}, &error);
      if (!gz) {
        std::fprintf(stderr, "cannot open gzip store: %s\n", error.c_str());
        return 1;
      }
      if (ingest::replay_store(*gz, nullptr).checksum != again.checksum) {
        std::fprintf(stderr, "gzip ingest produced a different stream\n");
        return 1;
      }
      std::printf("  gzip ingest replays identically\n");
    }
  }

  const std::string artifact = "BENCH_ingest.json";
  std::FILE* out = std::fopen(artifact.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", artifact.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\"bench\":\"ingest_replay\",\"entries\":%llu,"
               "\"capture_bytes\":%llu,\"checksum\":\"%016" PRIx64
               "\",\"ingest\":[",
               static_cast<unsigned long long>(entries),
               static_cast<unsigned long long>(ingests.front().bytes),
               again.checksum);
  for (std::size_t i = 0; i < ingests.size(); ++i) {
    const auto& run = ingests[i];
    std::fprintf(out,
                 "%s{\"encoding\":\"%s\",\"seconds\":%.4f,"
                 "\"entries_per_s\":%.0f,\"mb_per_s\":%.2f}",
                 i == 0 ? "" : ",", run.encoding.c_str(), run.seconds,
                 run.entries_per_s(), run.mb_per_s());
  }
  std::fprintf(out, "],\"replay\":[");
  for (std::size_t i = 0; i < replays.size(); ++i) {
    const auto& run = replays[i];
    std::fprintf(out,
                 "%s{\"speedup\":%.0f,\"seconds\":%.4f,\"sim_span_s\":%.3f,"
                 "\"entries\":%llu,\"entries_per_s\":%.0f}",
                 i == 0 ? "" : ",", run.speedup, run.seconds, run.sim_span_s,
                 static_cast<unsigned long long>(run.entries),
                 run.entries_per_s());
  }
  std::fprintf(out, "]}\n");
  std::fclose(out);
  std::printf("\n[run] artifact: %s\n", artifact.c_str());

  bench::print_run_footer(total);
  return 0;
}
