// exp_ingest_replay --smoke — the ingest and replay gate behind
// scripts/check.sh --ingest-smoke, and the generator of the committed
// capture fixtures.
//
// --smoke generates a deterministic 20k-entry synthetic Bitswap wantlist
// capture (NDJSON, seed 42) in a fresh temporary directory, ingests it
// through ingest::ingest_capture (parse + normalize + flag + segment write)
// both plain and gzip'd, and replays the plain store twice through
// sim::Scheduler. It fails (exit 1) when the two replay checksums differ,
// when the gzip store replays to a different stream, or when the plain
// ingest rate drops below half the committed floor in
// bench/ingest_smoke_floor.json (or that floor is missing).
//
// Flags: --smoke             the gate
//        --floor=PATH        smoke floor (default bench/ingest_smoke_floor.json)
//        --emit-fixtures=D   write the committed smoke fixtures into D
//                            (capture_small.ndjson[.gz], capture_corrupt
//                            .ndjson, capture_small.checksum) and exit
// With neither --smoke nor --emit-fixtures it prints usage and exits 2.
//
// Ingest throughput is measured end to end by perfbench's `ingest`
// workload.
#include <cinttypes>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ingest/capture.hpp"
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

/// Ingests `capture` into `store_dir` and returns the rate in entries/s;
/// nullopt (with a message) on failure.
std::optional<double> timed_ingest(const char* label,
                                   const std::string& capture,
                                   const std::string& store_dir) {
  std::string error;
  const bench::Stopwatch watch;
  const auto stats = ingest::ingest_capture(capture, store_dir, {}, &error);
  const double seconds = watch.seconds();
  if (!stats) {
    std::fprintf(stderr, "ingest of %s failed: %s\n", capture.c_str(),
                 error.c_str());
    return std::nullopt;
  }
  const double rate = seconds > 0 ? stats->entries / seconds : 0.0;
  std::printf("  %-6s %8.3f s  %10.0f entries/s  %7.1f MB/s\n", label,
              seconds, rate,
              seconds > 0 ? stats->bytes / (1024.0 * 1024.0) / seconds : 0.0);
  return rate;
}

/// Unthrottled replay checksum of the store at `dir`; nullopt (with a
/// message) when it cannot be opened.
std::optional<std::uint64_t> replay_checksum(const char* label,
                                             const std::string& dir) {
  std::string error;
  auto store = tracestore::TraceStore::open(dir, {}, &error);
  if (!store) {
    std::fprintf(stderr, "cannot open %s: %s\n", dir.c_str(),
                 error.c_str());
    return std::nullopt;
  }
  const bench::Stopwatch watch;
  const auto stats = ingest::replay_store(*store, nullptr);
  const double seconds = watch.seconds();
  std::printf("  %-6s %8.3f s  %10.0f entries/s  checksum %016" PRIx64 "\n",
              label, seconds, seconds > 0 ? stats.entries / seconds : 0.0,
              stats.checksum);
  return stats.checksum;
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
  const util::TempDir scratch("ipfsmon_fixture_store");
  const std::string store_dir = scratch.path() + "/store";
  std::string error;
  if (scratch.path().empty() ||
      !ingest::ingest_capture(plain, store_dir, {}, &error)) {
    std::fprintf(stderr, "fixture ingest failed: %s\n", error.c_str());
    return 1;
  }
  auto store = tracestore::TraceStore::open(store_dir, {}, &error);
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
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const std::string fixtures_dir = flags.text("--emit-fixtures");
  const bool smoke = flags.boolean("--smoke");
  const std::string floor_path =
      flags.text("--floor", "bench/ingest_smoke_floor.json");
  if (!flags.ok() || (fixtures_dir.empty() && !smoke)) {
    return flags.usage("--smoke [--floor=PATH]\n--emit-fixtures=DIR");
  }
  if (!fixtures_dir.empty()) return emit_fixtures(fixtures_dir);

  constexpr std::size_t kEntries = 20000;
  const bench::Stopwatch total;
  bench::print_header("exp_ingest_replay",
                      "ingest + replay gate (infrastructure, no paper figure)");
  std::printf("entries=%zu gzip=%s\n", kEntries,
              ingest::gzip_supported() ? "yes" : "no (zlib absent)");
  const util::TempDir scratch("ipfsmon_ingest_smoke");
  if (scratch.path().empty()) {
    std::fprintf(stderr, "cannot create a temporary directory\n");
    return 1;
  }

  bench::print_section("generate capture");
  const auto records = make_capture(kEntries, 42);
  const std::string plain = scratch.path() + "/capture.ndjson";
  const std::string gzip = plain + ".gz";
  if (!write_capture_file(plain, records, false)) {
    std::fprintf(stderr, "cannot write %s\n", plain.c_str());
    return 1;
  }
  std::printf("  %s: %.1f MiB\n", plain.c_str(),
              static_cast<double>(fs::file_size(plain)) / (1024.0 * 1024.0));
  if (ingest::gzip_supported() && !write_capture_file(gzip, records, true)) {
    std::fprintf(stderr, "cannot write %s\n", gzip.c_str());
    return 1;
  }

  bench::print_section("ingest (cold, parse + flag + segment write)");
  const std::string plain_store = scratch.path() + "/store_plain";
  const std::string gzip_store = scratch.path() + "/store_gzip";
  const auto plain_rate = timed_ingest("plain", plain, plain_store);
  if (!plain_rate) return 1;
  if (ingest::gzip_supported() && !timed_ingest("gzip", gzip, gzip_store)) return 1;

  bench::print_section("replay through sim::Scheduler (unthrottled)");
  const auto first = replay_checksum("plain", plain_store);
  const auto again = replay_checksum("again", plain_store);
  if (!first || !again) return 1;
  if (*first != *again) {
    std::fprintf(stderr,
                 "replay checksum not deterministic: %016" PRIx64
                 " vs %016" PRIx64 "\n",
                 *first, *again);
    return 1;
  }

  bench::print_section("smoke gate");
  if (!bench::passes_smoke_floor(
          floor_path,
          "ingest_entries_per_s", *plain_rate, "plain-ingest entries/s")) {
    return 1;
  }
  if (ingest::gzip_supported()) {
    const auto gz = replay_checksum("gzip", gzip_store);
    if (!gz) return 1;
    if (*gz != *first) {
      std::fprintf(stderr, "gzip ingest produced a different stream\n");
      return 1;
    }
    std::printf("  gzip ingest replays identically\n");
  }
  bench::print_run_footer(total);
  return 0;
}
