#include "ingest/ingest.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <thread>

#include "ingest/stream.hpp"
#include "tracestore/merge.hpp"
#include "tracestore/pool.hpp"
#include "tracestore/scan.hpp"
#include "util/file.hpp"
#include "util/strings.hpp"

namespace fs = std::filesystem;

namespace ipfsmon::ingest {

namespace {

constexpr char kCheckpointName[] = "INGEST.ckpt";
constexpr char kCheckpointHeader[] = "ipfsmon-ingest-ckpt v1";
constexpr char kRejectsName[] = "rejects.rej";

/// Everything a resumed run needs to continue mid-capture.
struct Checkpoint {
  std::string source;       // capture file name the checkpoint belongs to
  std::uint64_t offset = 0; // uncompressed byte offset reached
  std::uint64_t lines = 0;
  std::uint64_t entries = 0;
  std::uint64_t rejected = 0;
  std::uint64_t unordered = 0;
  util::WallNanos epoch = 0;
  util::SimTime last_sim = 0;
  std::vector<std::pair<std::string, trace::MonitorId>> monitors;
};

std::string checkpoint_path(const std::string& dir) {
  return (fs::path(dir) / kCheckpointName).string();
}

bool write_checkpoint(const std::string& dir, const Checkpoint& ckpt,
                      std::string* error) {
  std::string text = std::string(kCheckpointHeader) + '\n';
  text += "source=" + ckpt.source + '\n';
  text += "offset=" + std::to_string(ckpt.offset) + '\n';
  text += "lines=" + std::to_string(ckpt.lines) + '\n';
  text += "entries=" + std::to_string(ckpt.entries) + '\n';
  text += "rejected=" + std::to_string(ckpt.rejected) + '\n';
  text += "unordered=" + std::to_string(ckpt.unordered) + '\n';
  text += "epoch=" + std::to_string(ckpt.epoch) + '\n';
  text += "last_sim=" + std::to_string(ckpt.last_sim) + '\n';
  for (const auto& [name, id] : ckpt.monitors) {
    text += "monitor=" + std::to_string(id) + ':' + name + '\n';
  }
  return util::publish(checkpoint_path(dir), {text}, error);
}

std::optional<Checkpoint> read_checkpoint(const std::string& dir) {
  std::string text;
  if (!util::read_file(checkpoint_path(dir), &text)) return std::nullopt;
  const auto lines = util::split(text, '\n');
  if (lines.front() != kCheckpointHeader) return std::nullopt;
  Checkpoint ckpt;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    const auto as_u64 = [&value](std::uint64_t* out) {
      const auto parsed = util::parse_u64(value);
      if (parsed) *out = *parsed;
      return parsed.has_value();
    };
    const auto as_i64 = [&value](std::int64_t* out) {
      const auto parsed = util::parse_i64(value);
      if (parsed) *out = *parsed;
      return parsed.has_value();
    };
    bool ok = true;
    if (key == "source") {
      ckpt.source = value;
    } else if (key == "offset") {
      ok = as_u64(&ckpt.offset);
    } else if (key == "lines") {
      ok = as_u64(&ckpt.lines);
    } else if (key == "entries") {
      ok = as_u64(&ckpt.entries);
    } else if (key == "rejected") {
      ok = as_u64(&ckpt.rejected);
    } else if (key == "unordered") {
      ok = as_u64(&ckpt.unordered);
    } else if (key == "epoch") {
      ok = as_i64(&ckpt.epoch);
    } else if (key == "last_sim") {
      ok = as_i64(&ckpt.last_sim);
    } else if (key == "monitor") {
      const auto colon = value.find(':');
      const auto id =
          colon == std::string::npos
              ? std::nullopt
              : util::parse_u64(std::string_view(value).substr(0, colon),
                                UINT32_MAX);
      ok = id.has_value();
      if (ok) {
        ckpt.monitors.emplace_back(value.substr(colon + 1),
                                   static_cast<trace::MonitorId>(*id));
      }
    }
    if (!ok) return std::nullopt;
  }
  return ckpt;
}

/// Deterministic vantage -> MonitorId assignment: pre-seeded ids first,
/// then first-appearance order.
class MonitorMap {
 public:
  explicit MonitorMap(
      const std::vector<std::pair<std::string, trace::MonitorId>>& seed) {
    for (const auto& [name, id] : seed) assign(name, id);
  }

  trace::MonitorId id_for(const std::string& vantage) {
    for (const auto& [name, id] : monitors_) {
      if (name == vantage) return id;
    }
    trace::MonitorId next = 0;
    for (const auto& [name, id] : monitors_) next = std::max(next, id + 1);
    assign(vantage, next);
    return next;
  }

  /// In id order, for STOREMETA and stats.
  std::vector<std::pair<std::string, trace::MonitorId>> sorted() const {
    auto out = monitors_;
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.second < b.second; });
    return out;
  }

 private:
  void assign(const std::string& name, trace::MonitorId id) {
    for (const auto& [existing, _] : monitors_) {
      if (existing == name) return;
    }
    monitors_.emplace_back(name, id);
  }

  std::vector<std::pair<std::string, trace::MonitorId>> monitors_;
};

/// Rebuilds the flagger state of a checkpoint from the resumed store, so
/// flags stay exact across the resume boundary: every stored entry within
/// the widest window of `last_sim` passes through it, in store order.
/// Checkpoints seal segments, so that window can straddle several trailing
/// segments; the time-pruned scan selects exactly those. Leaves `flagger`
/// untouched and returns false when the store cannot be opened or the scan
/// skipped a segment (a corrupt body behind a valid footer): such a
/// checkpoint is not to be trusted.
bool reprime_flagger(const std::string& store_dir,
                     const tracestore::StoreOptions& options,
                     util::SimTime last_sim,
                     tracestore::StreamingFlagger* flagger) {
  const auto store = tracestore::TraceStore::open(store_dir, options);
  if (!store) return false;
  tracestore::StreamingFlagger primed;
  tracestore::ScanQuery tail;
  tail.min_time = last_sim - tracestore::StreamingFlagger::kWidestWindow;
  tracestore::scan(*store, tail, [&primed](const trace::TraceEntry& e) {
    trace::TraceEntry entry = e;
    primed.mark(entry);
  });
  if (!store->warnings().empty()) return false;
  *flagger = std::move(primed);
  return true;
}

CaptureFormat sniff_format(std::string_view first_line) {
  std::size_t pos = 0;
  while (pos < first_line.size() &&
         (first_line[pos] == ' ' || first_line[pos] == '\t')) {
    ++pos;
  }
  return pos < first_line.size() && first_line[pos] == '{'
             ? CaptureFormat::kNdjson
             : CaptureFormat::kCsv;
}

/// Lines one pool task parses.
constexpr std::size_t kParseChunkLines = 256;

/// One non-blank capture line, the uncompressed offset just past it, and
/// what parsing it produced (`record` when `parsed`, else `error`).
struct BatchLine {
  std::string text;
  std::uint64_t end_offset = 0;
  bool parsed = false;
  CaptureRecord record;
  std::string error;
};

/// Up to kParseBatchLines lines. `lines` only grows, so its strings and
/// records keep their buffers from one batch to the next.
struct Batch {
  std::vector<BatchLine> lines;
  std::size_t size = 0;
};

/// Refills `batch` with the next non-blank lines; a short batch means the
/// reader is exhausted (or failed: see LineReader::error()).
void read_batch(LineReader& reader, Batch* batch) {
  batch->size = 0;
  while (batch->size < kParseBatchLines) {
    if (batch->size == batch->lines.size()) batch->lines.emplace_back();
    BatchLine& line = batch->lines[batch->size];
    if (!reader.next(&line.text)) return;
    if (line.text.empty()) continue;
    line.end_offset = reader.offset();
    ++batch->size;
  }
}

std::size_t chunk_count(const Batch& batch) {
  return (batch.size + kParseChunkLines - 1) / kParseChunkLines;
}

/// Parse workers: one per hardware thread but the caller's, which runs
/// the serial stage (and joins the first batch's parse).
std::size_t parse_threads() {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  return std::max(1u, cores - 1);
}

}  // namespace

std::string rejects_path(const std::string& store_dir) {
  return (fs::path(store_dir) / kRejectsName).string();
}

std::optional<IngestStats> ingest_capture(const std::string& capture_path,
                                          const std::string& store_dir,
                                          const IngestOptions& options,
                                          std::string* error) {
  const auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };

  std::string io_error;
  auto reader = LineReader::open(capture_path, &io_error);
  if (reader == nullptr) return fail(io_error);

  const std::string source = fs::path(capture_path).filename().string();

  // --- Resume or start clean ------------------------------------------------
  tracestore::StoreOptions store_options = options.store;
  store_options.obs = options.obs;
  std::unique_ptr<tracestore::SegmentWriter> writer;
  std::optional<Checkpoint> resume_from;
  tracestore::StreamingFlagger flagger;
  if (options.resume) {
    if (auto ckpt = read_checkpoint(store_dir);
        ckpt && ckpt->source == source) {
      tracestore::RecoveryReport report;
      std::string resume_error;
      auto resumed = tracestore::SegmentWriter::resume(
          store_dir, store_options, &report, &resume_error);
      // Trust the checkpoint only when the recovered store matches it
      // exactly — a torn tail segment past the checkpoint would otherwise
      // double-ingest its entries — and, when flags are marked, its tail
      // reads back whole into the flagger.
      if (resumed != nullptr && report.entries_recovered == ckpt->entries &&
          (!options.mark_flags ||
           reprime_flagger(store_dir, options.store, ckpt->last_sim,
                           &flagger))) {
        writer = std::move(resumed);
        resume_from = std::move(*ckpt);
      }
    }
  }
  if (writer == nullptr) {
    std::string create_error;
    writer = tracestore::SegmentWriter::create(store_dir, store_options,
                                               &create_error);
    if (writer == nullptr) return fail(create_error);
  }

  IngestStats stats;
  MonitorMap monitors(resume_from ? resume_from->monitors : options.monitors);
  std::optional<util::WallNanos> epoch = options.epoch;
  util::SimTime last_sim = 0;
  bool have_last = false;

  // The capture format and CSV header come from its first non-blank line,
  // which a resumed ingest reads again before seeking past it.
  CaptureFormat format = options.format;
  std::optional<CsvLayout> csv;
  std::string header_error;
  const auto take_head = [&](const std::string& head) {
    if (format == CaptureFormat::kAuto) format = sniff_format(head);
    if (format == CaptureFormat::kCsv) {
      csv = CsvLayout::from_header(head, &header_error);
    }
    return format != CaptureFormat::kCsv || csv.has_value();
  };

  if (resume_from) {
    std::string head;
    while (reader->next(&head) && head.empty()) {
    }
    if (!take_head(head)) return fail(header_error);
    if (!reader->skip_to(resume_from->offset)) {
      return fail("cannot seek capture to checkpoint offset " +
                  std::to_string(resume_from->offset) +
                  (reader->error().empty() ? "" : ": " + reader->error()));
    }
    stats.resumed = true;
    stats.resumed_entries = resume_from->entries;
    stats.lines = resume_from->lines;
    stats.rejected = resume_from->rejected;
    stats.unordered = resume_from->unordered;
    epoch = resume_from->epoch;
    last_sim = resume_from->last_sim;
    have_last = resume_from->entries > 0;
  }

  // --- Reject sink (lenient mode) -------------------------------------------
  std::ofstream rejects;
  obs::Counter* rejected_counter = nullptr;
  obs::Counter* unordered_counter = nullptr;
  obs::Counter* entries_counter = nullptr;
  if (options.obs != nullptr) {
    rejected_counter = &options.obs->metrics.counter(
        "ipfsmon_ingest_rejected_lines_total",
        "Malformed capture lines quarantined during ingest");
    unordered_counter = &options.obs->metrics.counter(
        "ipfsmon_ingest_unordered_total",
        "Capture records with backwards timestamps clamped during ingest");
    entries_counter = &options.obs->metrics.counter(
        "ipfsmon_ingest_entries_total", "Capture records ingested");
  }
  const auto reject = [&](std::uint64_t line_number, const std::string& line,
                          const std::string& why) {
    ++stats.rejected;
    if (rejected_counter != nullptr) rejected_counter->inc();
    if (!rejects.is_open()) {
      rejects.open(rejects_path(store_dir),
                   stats.resumed ? std::ios::app : std::ios::trunc);
    }
    if (rejects.is_open()) {
      rejects << "# line " << line_number << ": " << why << '\n'
              << line << '\n';
    }
  };

  // --- Main loop ------------------------------------------------------------
  const auto publish_checkpoint = [&](std::uint64_t offset,
                                      IngestStats* s,
                                      std::string* ckpt_error) -> bool {
    if (!writer->checkpoint()) {
      *ckpt_error = "checkpoint failed: " + writer->error();
      return false;
    }
    Checkpoint ckpt;
    ckpt.source = source;
    ckpt.offset = offset;
    ckpt.lines = s->lines;
    ckpt.entries = writer->entries_written();
    ckpt.rejected = s->rejected;
    ckpt.unordered = s->unordered;
    ckpt.epoch = *epoch;
    ckpt.last_sim = last_sim;
    ckpt.monitors = monitors.sorted();
    if (!write_checkpoint(store_dir, ckpt, ckpt_error)) return false;
    ++s->checkpoints;
    return true;
  };

  std::uint64_t since_checkpoint = 0;
  const std::uint64_t start_offset = reader->offset();
  bool first_record = !resume_from.has_value();

  // Why handle_batch stopped early; see the loop below.
  enum class Stop { kNone, kFailed, kTruncated };
  std::string stop_error;
  std::uint64_t stop_offset = 0;
  // Reused for every record: assigning a record's CID reuses its digest
  // buffer.
  trace::TraceEntry entry;
  // The serial stage: everything order-dependent, one line at a time in
  // capture order.
  const auto handle_batch = [&](Batch& batch, std::size_t first) -> Stop {
    for (std::size_t i = first; i < batch.size; ++i) {
      BatchLine& line = batch.lines[i];
      ++stats.lines;
      if (!line.parsed) {
        if (!options.lenient) {
          stop_error = util::format(
              "%s line %llu: %s", source.c_str(),
              static_cast<unsigned long long>(stats.lines), line.error.c_str());
          return Stop::kFailed;
        }
        reject(stats.lines, line.text, line.error);
        continue;
      }
      const CaptureRecord& record = line.record;

      if (!epoch) epoch = record.wall_ns;  // first accepted record anchors t=0
      util::SimTime sim = record.wall_ns - *epoch;
      if ((have_last && sim < last_sim) || sim < 0) {
        if (!options.lenient) {
          stop_error = util::format(
              "%s line %llu: timestamp goes backwards (%s); re-run with "
              "--lenient to clamp",
              source.c_str(), static_cast<unsigned long long>(stats.lines),
              util::format_wall_time(record.wall_ns).c_str());
          return Stop::kFailed;
        }
        ++stats.unordered;
        if (unordered_counter != nullptr) unordered_counter->inc();
        sim = have_last ? last_sim : 0;
      }
      last_sim = sim;
      have_last = true;

      entry.timestamp = sim;
      entry.peer = record.peer;
      entry.address = record.address;
      entry.type = record.type;
      entry.cid = record.cid;
      entry.monitor = monitors.id_for(record.vantage);
      entry.flags = 0;
      if (options.mark_flags) flagger.mark(entry);
      writer->append(entry);
      if (entries_counter != nullptr) entries_counter->inc();
      if (first_record) {
        stats.min_time = sim;
        first_record = false;
      }
      stats.max_time = sim;

      // --- Durability checkpoint -------------------------------------------
      ++since_checkpoint;
      if (options.checkpoint_every > 0 &&
          since_checkpoint >= options.checkpoint_every) {
        since_checkpoint = 0;
        if (!publish_checkpoint(line.end_offset, &stats, &stop_error)) {
          return Stop::kFailed;
        }
      }

      // --- Bounded sample: stop resumable instead of finalizing ------------
      if (options.max_entries > 0 &&
          writer->entries_written() >= options.max_entries) {
        if (!publish_checkpoint(line.end_offset, &stats, &stop_error)) {
          return Stop::kFailed;
        }
        stop_offset = line.end_offset;
        return Stop::kTruncated;
      }
    }
    return Stop::kNone;
  };

  // Two stages: while this thread runs handle_batch over batch k, the pool
  // parses batch k+1 chunk by chunk. Parsing depends only on the line and
  // the capture format, fixed by the first line before any batch is
  // parsed, so line numbers, the quarantine order and checkpoint offsets
  // are those of a line-by-line loop.
  Batch batches[2];
  Batch* current = &batches[0];
  Batch* ahead = &batches[1];
  read_batch(*reader, current);
  std::size_t first_line = 0;  // 1 while batch 0 starts with a CSV header
  if (current->size > 0 && !resume_from) {
    if (!take_head(current->lines[0].text)) return fail(header_error);
    if (csv) {
      first_line = 1;
      ++stats.lines;  // the header line carries no record
    }
  }
  const auto parse_chunk = [&format, &csv](Batch& batch, std::size_t chunk) {
    const std::size_t begin = chunk * kParseChunkLines;
    const std::size_t end = std::min(batch.size, begin + kParseChunkLines);
    for (std::size_t i = begin; i < end; ++i) {
      BatchLine& line = batch.lines[i];
      line.parsed =
          format == CaptureFormat::kNdjson
              ? parse_ndjson_record(line.text, &line.record, &line.error)
              : csv->parse(line.text, &line.record, &line.error);
    }
  };
  // A short batch means the capture ended; a capture that fits one batch
  // never starts the pool.
  if (current->size == kParseBatchLines) read_batch(*reader, ahead);
  std::unique_ptr<tracestore::ScanPool> pool;
  if (ahead->size > 0) {
    pool = std::make_unique<tracestore::ScanPool>(parse_threads());
    pool->parallel_for(chunk_count(*current), [&](std::size_t chunk) {
      parse_chunk(*current, chunk);
    });
  } else {
    for (std::size_t c = 0; c < chunk_count(*current); ++c) {
      parse_chunk(*current, c);
    }
  }

  while (current->size > 0) {
    tracestore::ScanPool::Ticket parsing;
    if (ahead->size > 0) {
      Batch* batch = ahead;
      parsing = pool->run(chunk_count(*batch), [&parse_chunk, batch](
                                                   std::size_t chunk) {
        parse_chunk(*batch, chunk);
      });
    }
    const Stop stop = handle_batch(*current, first_line);
    first_line = 0;
    // `current` is spent: refill it with the batch after `ahead` while the
    // pool is still parsing `ahead`.
    current->size = 0;
    if (stop == Stop::kNone && ahead->size == kParseBatchLines) {
      read_batch(*reader, current);
    }
    // Help with what is left of that parse; the tasks write into `ahead`,
    // so never leave them running.
    if (pool != nullptr) pool->join(parsing);
    if (stop == Stop::kFailed) return fail(stop_error);
    if (stop == Stop::kTruncated) {
      writer->abandon();  // everything is flushed; suppress finalize()
      stats.truncated = true;
      stats.bytes = stop_offset - start_offset;
      stats.format = format;
      stats.wall_epoch_ns = *epoch;
      stats.monitors = monitors.sorted();
      if (auto store =
              tracestore::TraceStore::open(store_dir, store_options)) {
        stats.min_time = store->min_time();
        stats.max_time = store->max_time();
        stats.entries = store->total_entries();
      }
      return stats;
    }
    std::swap(current, ahead);
  }
  if (!reader->error().empty()) {
    return fail(capture_path + ": " + reader->error());
  }
  if (stats.lines == 0 && !resume_from) {
    return fail(capture_path + ": empty capture");
  }

  stats.bytes = reader->offset() - start_offset;
  stats.format = format;
  stats.entries = writer->entries_written();
  stats.wall_epoch_ns = epoch.value_or(0);
  stats.monitors = monitors.sorted();

  if (!writer->finalize()) {
    return fail("finalize failed: " + writer->error());
  }

  tracestore::StoreMeta meta;
  meta.wall_epoch_ns = stats.wall_epoch_ns;
  meta.source = source;
  meta.format = std::string(capture_format_name(format));
  meta.monitors = stats.monitors;
  std::string meta_error;
  if (!tracestore::write_store_meta(store_dir, meta, &meta_error)) {
    return fail(meta_error);
  }

  // The store is complete; the checkpoint has served its purpose.
  std::error_code ec;
  fs::remove(checkpoint_path(store_dir), ec);

  // Recompute the full range for resumed runs (min_time predates us).
  if (auto store = tracestore::TraceStore::open(store_dir, store_options)) {
    stats.min_time = store->min_time();
    stats.max_time = store->max_time();
    stats.entries = store->total_entries();
  }
  return stats;
}

}  // namespace ipfsmon::ingest
