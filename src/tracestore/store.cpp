#include "tracestore/store.hpp"

#include <algorithm>
#include <filesystem>

#include "tracestore/rollup.hpp"
#include "util/file.hpp"
#include "util/strings.hpp"

namespace fs = std::filesystem;

namespace ipfsmon::tracestore {

namespace {

constexpr char kManifestName[] = "MANIFEST";
constexpr char kManifestHeader[] = "ipfsmon-tracestore v1";
constexpr char kStoreMetaName[] = "STOREMETA";
constexpr char kStoreMetaHeader[] = "ipfsmon-storemeta v1";

std::string segment_name(std::size_t index) {
  return util::format("seg-%06zu.seg", index);
}

}  // namespace

bool write_manifest(
    const std::string& dir,
    const std::vector<std::pair<std::string, SegmentFooter>>& segments,
    std::string* error) {
  std::string text = std::string(kManifestHeader) + '\n';
  for (const auto& [file, footer] : segments) {
    text += file + ' ' + std::to_string(footer.entry_count) + ' ' +
            std::to_string(footer.min_time) + ' ' +
            std::to_string(footer.max_time) + '\n';
  }
  return util::publish((fs::path(dir) / kManifestName).string(), {text},
                       error);
}

// --- Store metadata ---------------------------------------------------------

bool write_store_meta(const std::string& dir, const StoreMeta& meta,
                      std::string* error) {
  std::string text = std::string(kStoreMetaHeader) + '\n';
  text += "wall_epoch_ns=" + std::to_string(meta.wall_epoch_ns) + '\n';
  if (!meta.source.empty()) text += "source=" + meta.source + '\n';
  if (!meta.format.empty()) text += "format=" + meta.format + '\n';
  for (const auto& [name, id] : meta.monitors) {
    text += "monitor=" + std::to_string(id) + ':' + name + '\n';
  }
  return util::publish((fs::path(dir) / kStoreMetaName).string(), {text},
                       error);
}

std::optional<StoreMeta> read_store_meta(const std::string& dir) {
  std::string text;
  if (!util::read_file((fs::path(dir) / kStoreMetaName).string(), &text)) {
    return std::nullopt;
  }
  const auto lines = util::split(text, '\n');
  if (lines.front() != kStoreMetaHeader) return std::nullopt;
  StoreMeta meta;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key == "wall_epoch_ns") {
      const auto parsed = util::parse_i64(value);
      if (!parsed) return std::nullopt;
      meta.wall_epoch_ns = *parsed;
    } else if (key == "source") {
      meta.source = value;
    } else if (key == "format") {
      meta.format = value;
    } else if (key == "monitor") {
      const auto colon = value.find(':');
      if (colon == std::string::npos) return std::nullopt;
      const auto id = util::parse_u64(
          std::string_view(value).substr(0, colon), UINT32_MAX);
      if (!id) return std::nullopt;
      meta.monitors.emplace_back(value.substr(colon + 1),
                                 static_cast<std::uint32_t>(*id));
    }
    // Unknown keys are skipped so newer writers stay readable.
  }
  return meta;
}

// --- Crash recovery ---------------------------------------------------------

std::optional<RecoveryReport> recover_store_dir(const std::string& dir,
                                                StoreOptions options,
                                                std::string* error) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    if (error != nullptr) *error = dir + ": not a directory";
    return std::nullopt;
  }
  // The MANIFEST cannot be trusted after a crash (finalize() never ran, or
  // ran in a previous incarnation); enumerate segment files directly. A
  // crash mid-publish leaves at worst a temp file the rename never
  // published; it is deleted here and its data re-derived or re-shipped.
  RecoveryReport report;
  std::vector<std::string> files;
  std::vector<fs::path> temps;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("seg-") && name.ends_with(".seg")) {
      files.push_back(name);
    } else if (util::is_publish_temp(name)) {
      temps.push_back(entry.path());
    }
  }
  if (ec) {
    if (error != nullptr) *error = "scan " + dir + ": " + ec.message();
    return std::nullopt;
  }
  std::sort(files.begin(), files.end());
  std::sort(temps.begin(), temps.end());
  for (const auto& temp : temps) {
    fs::remove(temp, ec);
    report.notes.push_back("removed in-flight " + temp.filename().string());
  }

  for (const auto& name : files) {
    // "seg-%06zu.seg"; a malformed name counts as index 0, which only
    // ever grows next_segment_index.
    const std::size_t index = static_cast<std::size_t>(
        util::parse_u64(std::string_view(name).substr(4, name.size() - 8))
            .value_or(0));
    report.next_segment_index =
        std::max(report.next_segment_index, index + 1);
    const std::string path = (fs::path(dir) / name).string();
    std::string footer_error;
    auto footer = read_segment_footer(path, &footer_error);
    if (!footer) {
      fs::rename(path, path + ".torn", ec);
      fs::remove(rollup_path_for(path), ec);
      ++report.segments_dropped;
      report.notes.push_back("dropped torn segment " + name + ": " +
                             footer_error);
      continue;
    }
    report.entries_recovered += footer->entry_count;
    report.segments.emplace_back(name, std::move(*footer));
    ++report.segments_kept;
  }

  std::string manifest_error;
  if (!write_manifest(dir, report.segments, &manifest_error)) {
    if (error != nullptr) *error = "rebuild manifest: " + manifest_error;
    return std::nullopt;
  }
  if (options.obs != nullptr) {
    options.obs->metrics
        .counter("ipfsmon_tracestore_recoveries_total",
                 "Store directories repaired by crash recovery")
        .inc();
    if (report.segments_dropped > 0) {
      options.obs->metrics
          .counter("ipfsmon_tracestore_torn_segments_total",
                   "Torn segments quarantined during crash recovery")
          .inc(static_cast<double>(report.segments_dropped));
    }
  }
  return report;
}

// --- SegmentWriter ----------------------------------------------------------

SegmentWriter::SegmentWriter(std::string dir, StoreOptions options)
    : dir_(std::move(dir)), options_(options) {
  if (options_.obs != nullptr) {
    auto& reg = options_.obs->metrics;
    segments_counter_ =
        &reg.counter("ipfsmon_tracestore_segments_written_total",
                     "Trace store segments flushed to disk");
    entries_counter_ =
        &reg.counter("ipfsmon_tracestore_entries_written_total",
                     "Trace entries spilled into stores");
    unordered_counter_ =
        &reg.counter("ipfsmon_tracestore_unordered_appends_total",
                     "Appends that went backwards in time (see append())");
    flush_bytes_ = &reg.histogram(
        "ipfsmon_tracestore_segment_bytes",
        obs::exponential_buckets(4096, 4.0, 8),
        "On-disk size of flushed trace store segments");
  }
}

std::unique_ptr<SegmentWriter> SegmentWriter::create(const std::string& dir,
                                                     StoreOptions options,
                                                     std::string* error) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    if (error != nullptr) *error = "mkdir " + dir + ": " + ec.message();
    return nullptr;
  }
  // Start clean: drop any segments/manifest from a previous run, plus the
  // ingest sidecars (metadata, checkpoint, quarantined rejects) that would
  // otherwise describe data this writer is about to erase.
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name == kManifestName || name == kStoreMetaName ||
        name.ends_with(".seg") || name.ends_with(".rollup") ||
        util::is_publish_temp(name) || name.ends_with(".ckpt") ||
        name.ends_with(".rej")) {
      fs::remove(entry.path(), ec);
    }
  }
  return std::unique_ptr<SegmentWriter>(
      new SegmentWriter(dir, options));
}

std::unique_ptr<SegmentWriter> SegmentWriter::resume(const std::string& dir,
                                                     StoreOptions options,
                                                     RecoveryReport* report,
                                                     std::string* error) {
  auto recovered = recover_store_dir(dir, options, error);
  if (!recovered) return nullptr;
  auto writer =
      std::unique_ptr<SegmentWriter>(new SegmentWriter(dir, options));
  writer->segments_ = recovered->segments;
  writer->next_index_ = recovered->next_segment_index;
  writer->entries_written_ = recovered->entries_recovered;
  if (report != nullptr) *report = std::move(*recovered);
  return writer;
}

SegmentWriter::~SegmentWriter() {
  if (!finalized_) finalize();
}

void SegmentWriter::append(const trace::TraceEntry& entry) {
  if (entries_written_ > 0 && entry.timestamp < last_timestamp_) {
    ++unordered_appends_;
    if (unordered_counter_ != nullptr) unordered_counter_->inc();
  } else {
    last_timestamp_ = entry.timestamp;
  }
  if (!open_.empty()) {
    const util::SimTime first = open_.entries().front().timestamp;
    if (open_.size() >= options_.max_entries_per_segment ||
        entry.timestamp - first > options_.max_segment_span) {
      flush_open_segment();
    }
  }
  open_.append(entry);
  ++entries_written_;
  if (entries_counter_ != nullptr) entries_counter_->inc();
}

void SegmentWriter::abandon() {
  open_ = trace::Trace{};
  finalized_ = true;
}

void SegmentWriter::flush_open_segment() {
  if (open_.empty()) return;
  const std::string name = segment_name(next_index_++);
  const std::string path = (fs::path(dir_) / name).string();
  SegmentFooter footer;
  SegmentKeyCounts keys;
  std::string error;
  if (!write_segment_file(path, open_, &footer, &error, &keys)) {
    failed_ = true;
    error_ = "segment flush failed: " + error;
  } else {
    segments_.emplace_back(name, footer);
    if (segments_counter_ != nullptr) segments_counter_->inc();
    if (flush_bytes_ != nullptr) {
      std::error_code ec;
      const auto bytes = fs::file_size(path, ec);
      if (!ec) flush_bytes_->observe(static_cast<double>(bytes));
    }
    // Every flushed segment gets a one-minute rollup sidecar. Rollups are
    // derived data: a failed write is a warning, never a store failure.
    if (write_rollup_file(rollup_path_for(path), build_rollup(open_, keys)) &&
        options_.obs != nullptr) {
      options_.obs->metrics
          .counter("ipfsmon_tracestore_rollups_written_total",
                   "Rollup sidecars written beside flushed segments")
          .inc();
    }
  }
  open_ = trace::Trace{};
}

bool SegmentWriter::finalize() {
  if (finalized_) return !failed_;
  finalized_ = true;
  flush_open_segment();
  std::string error;
  if (!write_manifest(dir_, segments_, &error)) {
    failed_ = true;
    error_ = "manifest write failed: " + error;
  }
  return !failed_;
}

bool SegmentWriter::checkpoint() {
  if (finalized_) return !failed_;
  flush_open_segment();
  std::string error;
  if (!write_manifest(dir_, segments_, &error)) {
    failed_ = true;
    error_ = "manifest write failed: " + error;
  }
  return !failed_;
}

// --- TraceStore -------------------------------------------------------------

std::optional<TraceStore> TraceStore::open(const std::string& dir,
                                           StoreOptions options,
                                           std::string* error) {
  std::string text;
  std::string read_error;
  if (!util::read_file((fs::path(dir) / kManifestName).string(), &text,
                       &read_error)) {
    if (error != nullptr) {
      *error = dir + ": no readable MANIFEST (" + read_error + ")";
    }
    return std::nullopt;
  }
  const auto lines = util::split(text, '\n');
  if (lines.front() != kManifestHeader) {
    if (error != nullptr) *error = dir + ": bad manifest header";
    return std::nullopt;
  }

  TraceStore store;
  store.dir_ = dir;
  store.options_ = options;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (line.empty()) continue;
    const auto fields = util::split(line, ' ');
    if (fields.empty()) continue;
    const std::string path = (fs::path(dir) / fields[0]).string();
    std::string footer_error;
    auto footer = read_segment_footer(path, &footer_error);
    if (!footer) {
      store.skip_segment("skipping segment: " + footer_error);
      continue;
    }
    Segment segment;
    segment.file = fields[0];
    segment.footer = std::move(*footer);
    std::error_code ec;
    const auto bytes = fs::file_size(path, ec);
    segment.file_bytes = ec ? 0 : bytes;
    store.segments_.push_back(std::move(segment));
  }
  store.meta_ = read_store_meta(dir);
  return store;
}

std::uint64_t TraceStore::total_entries() const {
  std::uint64_t total = 0;
  for (const auto& s : segments_) total += s.footer.entry_count;
  return total;
}

std::uint64_t TraceStore::total_bytes() const {
  std::uint64_t total = 0;
  for (const auto& s : segments_) total += s.file_bytes;
  return total;
}

util::SimTime TraceStore::min_time() const {
  util::SimTime t = 0;
  bool first = true;
  for (const auto& s : segments_) {
    if (s.footer.entry_count == 0) continue;
    if (first || s.footer.min_time < t) t = s.footer.min_time;
    first = false;
  }
  return t;
}

util::SimTime TraceStore::max_time() const {
  util::SimTime t = 0;
  bool first = true;
  for (const auto& s : segments_) {
    if (s.footer.entry_count == 0) continue;
    if (first || s.footer.max_time > t) t = s.footer.max_time;
    first = false;
  }
  return t;
}

std::string TraceStore::segment_path(std::size_t index) const {
  return (fs::path(dir_) / segments_[index].file).string();
}

ScanPool& TraceStore::scan_pool() const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  if (shared_->pool == nullptr) {
    shared_->pool = std::make_shared<ScanPool>();
  }
  return *shared_->pool;
}

ValidationCache* TraceStore::validation_cache() const {
  if (options_.shared_validation != nullptr) return options_.shared_validation;
  return &shared_->validated;
}

std::size_t TraceStore::prune_before(util::SimTime cutoff) {
  std::vector<Segment> kept;
  std::size_t removed = 0;
  for (auto& s : segments_) {
    if (s.footer.max_time < cutoff) {
      std::error_code ec;
      fs::remove(fs::path(dir_) / s.file, ec);
      fs::remove(rollup_path_for((fs::path(dir_) / s.file).string()), ec);
      ++removed;
    } else {
      kept.push_back(std::move(s));
    }
  }
  if (removed == 0) return 0;
  segments_ = std::move(kept);
  if (!rewrite_manifest()) {
    warn("manifest rewrite after prune failed");
  }
  return removed;
}

bool TraceStore::rewrite_manifest() const {
  std::vector<std::pair<std::string, SegmentFooter>> entries;
  entries.reserve(segments_.size());
  for (const auto& s : segments_) entries.emplace_back(s.file, s.footer);
  return write_manifest(dir_, entries);
}

std::vector<std::string> TraceStore::warnings() const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  return shared_->warnings;
}

void TraceStore::warn(const std::string& message) const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  shared_->warnings.push_back(message);
}

void TraceStore::skip_segment(const std::string& message) const {
  warn(message);
  if (options_.obs == nullptr) return;
  options_.obs->metrics
      .counter("ipfsmon_tracestore_segments_skipped_total",
               "Segments skipped due to corruption or IO errors")
      .inc();
}

}  // namespace ipfsmon::tracestore
