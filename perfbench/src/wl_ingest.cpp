// ingest: ingest::ingest_capture in strict mode over the generated ~10^6
// line NDJSON capture into a fresh store. Dominated by capture parsing; it
// also exercises the streaming flagger and the trace-store write path, with
// no simulation and no query.
//
// Correctness: the replay checksum of every produced store must equal the
// checksum of the in-memory trace::mark_flags reference the generator built
// from the same records.
//
// The traced run alternates with reps that drive the same stages, in
// batches, through the public pieces ingest_capture is made of —
// LineReader::next, parse_ndjson_record, StreamingFlagger::mark and
// SegmentWriter::append/finalize — timing each stage per batch.
#include <unistd.h>

#include <filesystem>

#include "bench.hpp"
#include "ingest/capture.hpp"
#include "ingest/ingest.hpp"
#include "ingest/replay.hpp"
#include "ingest/stream.hpp"
#include "tracestore/merge.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;

namespace perfbench {

namespace {

using namespace ipfsmon;

constexpr std::size_t kSetupSamplesPerRep = 20;
constexpr std::size_t kBatchLines = 1024;

/// Stage times of one decomposed ingest pass.
struct StageTimes {
  double read_s = 0;
  double parse_s = 0;
  double normalize_s = 0;
  double flag_s = 0;
  double write_s = 0;
  double wall_s = 0;
  bool ok = true;
  double timed_s() const {
    return read_s + parse_s + normalize_s + flag_s + write_s;
  }
};

double since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The stages ingest_capture runs per line, driven batch by batch with a
/// timer around each stage. Mirrors ingest_capture's strict-mode loop:
/// SimTime from the first record, monitor ids in order of first appearance.
StageTimes decomposed_ingest(const std::string& capture,
                             const std::string& dir) {
  StageTimes t;
  const auto start = std::chrono::steady_clock::now();
  auto reader = ingest::LineReader::open(capture);
  auto writer = tracestore::SegmentWriter::create(dir);
  if (reader == nullptr || writer == nullptr) {
    t.ok = false;
    return t;
  }
  tracestore::StreamingFlagger flagger;
  std::vector<std::string> lines(kBatchLines);
  std::vector<ingest::CaptureRecord> records(kBatchLines);
  std::vector<trace::TraceEntry> entries(kBatchLines);
  std::vector<std::string> vantages;
  std::optional<util::WallNanos> epoch;
  std::string error;
  for (;;) {
    auto mark = std::chrono::steady_clock::now();
    std::size_t n = 0;
    while (n < kBatchLines && reader->next(&lines[n])) {
      if (!lines[n].empty()) ++n;
    }
    t.read_s += since(mark);
    if (n == 0) break;

    mark = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      if (!ingest::parse_ndjson_record(lines[i], &records[i], &error)) {
        t.ok = false;
      }
    }
    t.parse_s += since(mark);

    // Normalization: wall time -> SimTime, vantage -> monitor id.
    mark = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      const auto& record = records[i];
      if (!epoch) epoch = record.wall_ns;
      auto& entry = entries[i];
      entry.timestamp = record.wall_ns - *epoch;
      entry.peer = record.peer;
      entry.address = record.address;
      entry.type = record.type;
      entry.cid = record.cid;
      const auto it = std::find(vantages.begin(), vantages.end(),
                                record.vantage);
      entry.monitor = static_cast<trace::MonitorId>(it - vantages.begin());
      if (it == vantages.end()) vantages.push_back(record.vantage);
    }
    t.normalize_s += since(mark);

    mark = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < n; ++i) flagger.mark(entries[i]);
    t.flag_s += since(mark);

    mark = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < n; ++i) writer->append(entries[i]);
    t.write_s += since(mark);
  }
  const auto mark = std::chrono::steady_clock::now();
  t.ok = writer->finalize() && t.ok;
  t.write_s += since(mark);
  t.wall_s = since(start);
  return t;
}

std::optional<std::uint64_t> replay_checksum(const std::string& dir) {
  auto store = tracestore::TraceStore::open(dir);
  if (!store) return std::nullopt;
  return ingest::replay_store(*store, nullptr).checksum;
}

}  // namespace

std::string ingest_capture_path(const std::string& dir, std::uint64_t index) {
  return (fs::path(dir) / ("capture-" + std::to_string(index) + ".ndjson"))
      .string();
}

void run_ingest(const RunOptions& options, Report* report) {
  Manifest manifest;
  Manifest::read((fs::path(options.input_dir) / "INPUT").string(), &manifest);
  const std::string dir = (fs::path(options.work_dir) / "store").string();
  const auto expected = [&](std::uint64_t file) {
    return manifest.get("expected_checksum_" + std::to_string(file));
  };

  // Set-up: ingest's fixed cost, measured as ingest_capture of a one-line
  // capture — open and sniff the capture, create the store, finalize it
  // and write its manifest and STOREMETA. Samples are taken before every
  // rep, so they spread over the whole run like the reps do.
  //
  // Deleting the last store commits and discards blocks in the file
  // system's journal; sync() (untimed) before each burst of samples and
  // before each rep waits that out, so a timing never includes the
  // previous one's clean-up. Without it the set-up median of back-to-back
  // runs on one input moved between 0.14 and 0.37 ms on a shared 4-core VM
  // (0.09 to 0.13 ms with it).
  const std::string head =
      (fs::path(options.input_dir) / "capture-head.ndjson").string();
  std::vector<double> setups;
  const auto sample_setups = [&] {
    reset_dir(dir);
    ::sync();
    for (std::size_t i = 0; i < kSetupSamplesPerRep; ++i) {
      reset_dir(dir);
      const Stopwatch setup;
      const auto result = ingest::ingest_capture(head, dir);
      setups.push_back(setup.seconds());
      report->fails().record(result && result->entries == 1);
    }
  };

  // Untraced runs: rep i ingests rotated file i mod kIngestFiles into a
  // fresh store. Traced runs pair reps: an untraced ingest of a file, then
  // the stage-split pass over the same file.
  std::vector<double> walls;        // untraced ingest_capture reps
  std::vector<StageTimes> stages;   // traced reps
  double peak_rss = 0;
  ingest::IngestStats stats;        // of the first rep
  std::uint64_t store_bytes = 0;
  std::uint64_t segments = 0;
  repeat_for(options.seconds, options.trace ? 2 : 1, [&](std::size_t i) {
    const bool split = options.trace && i % 2 == 1;
    const std::uint64_t file = (options.trace ? i / 2 : i) % kIngestFiles;
    const std::string capture = ingest_capture_path(options.input_dir, file);
    sample_setups();
    reset_dir(dir);
    ::sync();
    if (split) {
      stages.push_back(decomposed_ingest(capture, dir));
      const auto checksum = replay_checksum(dir);
      report->fails().record(stages.back().ok && checksum &&
                             hex64(*checksum) == expected(file));
      return;
    }
    obs::Obs obs;
    ingest::IngestOptions ingest_options;  // strict: first bad line aborts
    ingest_options.obs = &obs;
    std::string error;
    const Stopwatch wall;
    const auto result =
        ingest::ingest_capture(capture, dir, ingest_options, &error);
    walls.push_back(wall.seconds());
    // Peak RSS of one ingest; later reps only add allocator reuse noise.
    if (i == 0) peak_rss = peak_rss_mib();
    report->fails().record(result.has_value());
    if (!result) {
      report->note("ingest failed: " + error);
      return;
    }
    report->fails().add(result->lines, result->rejected);
    const auto checksum = replay_checksum(dir);
    report->fails().record(checksum && hex64(*checksum) == expected(file));
    if (i != 0) return;
    stats = *result;
    if (auto store = tracestore::TraceStore::open(dir)) {
      store_bytes = store->total_bytes();
      segments = store->segments().size();
    }
  });

  const double wall_s = steady_time(walls);
  report->note(util::format(
      "capture %llu lines in %llu rotated files, %.1f MiB; file 0 expected "
      "checksum %s",
      static_cast<unsigned long long>(manifest.get_u64("lines")),
      static_cast<unsigned long long>(kIngestFiles),
      static_cast<double>(manifest.get_u64("bytes")) / (1024.0 * 1024.0),
      expected(0).c_str()));
  report->note(util::format(
      "property: peer repeat share %.4f (%llu distinct peers), CID repeat "
      "share %.4f (%llu distinct CIDs), URP=1 share of CIDs %.4f",
      manifest.get_double("peer_repeat_share"),
      static_cast<unsigned long long>(manifest.get_u64("distinct_peers")),
      manifest.get_double("cid_repeat_share"),
      static_cast<unsigned long long>(manifest.get_u64("distinct_cids")),
      manifest.get_double("urp1_share")));
  report->note(util::format(
      "property: flagged share %.4f (re-broadcast %.4f, inter-monitor "
      "duplicate %.4f)",
      manifest.get_double("flagged_share"),
      manifest.get_double("rebroadcast_share"),
      manifest.get_double("duplicate_share")));
  report->note(describe_setups(setups));
  report->note(describe_reps(walls));

  if (!options.trace) {
    report->metric("setup_s", median(setups), "s");
    report->metric("wall_s", wall_s, "s");
    report->metric("rps", static_cast<double>(stats.lines) / wall_s, "1/s");
    report->metric("peak_rss_mib", peak_rss, "MiB");
    report->metric("store_bytes_per_entry",
                   static_cast<double>(store_bytes) /
                       static_cast<double>(std::max<std::uint64_t>(
                           stats.entries, 1)),
                   "B/entry");
    return;
  }

  const auto stage = [&](double StageTimes::*field) {
    std::vector<double> values;
    for (const auto& s : stages) values.push_back(s.*field);
    return steady_time(values);
  };
  std::vector<double> untimed;
  for (const auto& s : stages) untimed.push_back(s.wall_s - s.timed_s());
  report->metric("ingest.read_s", stage(&StageTimes::read_s), "s");
  report->metric("ingest.parse_s", stage(&StageTimes::parse_s), "s");
  report->metric("ingest.other_s", stage(&StageTimes::normalize_s), "s");
  report->metric("ingest.lines", static_cast<double>(stats.lines), "count");
  report->metric("ingest.bytes", static_cast<double>(stats.bytes), "B");
  report->metric("ingest.rejected", static_cast<double>(stats.rejected),
                 "count");
  report->metric("ingest.checkpoints", static_cast<double>(stats.checkpoints),
                 "count");
  report->metric("ingest.peer_repeat_share",
                 manifest.get_double("peer_repeat_share"), "ratio");
  report->metric("ingest.cid_repeat_share",
                 manifest.get_double("cid_repeat_share"), "ratio");
  report->metric("trace.flag_s", stage(&StageTimes::flag_s), "s");
  report->metric("tracestore.write_s", stage(&StageTimes::write_s), "s");
  report->metric("tracestore.segments_written", static_cast<double>(segments),
                 "count");
  report->metric("tracestore.bytes_written", static_cast<double>(store_bytes),
                 "B");
  // What timing each stage separately costs: the stage-split pass against
  // one ingest_capture call on the same files (negative when the checkpoint
  // and STOREMETA writes the split pass skips outweigh its timers).
  report->metric("bench.trace_overhead_s",
                 stage(&StageTimes::wall_s) - wall_s, "s");
  report->metric("bench.unattributed_s", steady_time(untimed), "s");
}

}  // namespace perfbench
