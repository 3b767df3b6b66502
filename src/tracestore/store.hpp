// The on-disk trace store: a directory of segment files plus a MANIFEST.
//
//   <dir>/seg-000000.seg, seg-000001.seg, ...   (see segment.hpp)
//   <dir>/MANIFEST                              (text, written atomically)
//
// SegmentWriter appends entries (monitors record in time order) and rolls a
// new segment whenever the open one exceeds the entry cap or the time span
// cap, so every segment covers a bounded time window. finalize() flushes
// the open segment and publishes the manifest via write-to-temp + rename —
// a crashed run leaves either the previous manifest or none, never a
// half-written one. TraceStore is the read side: it parses the manifest,
// validates each segment's footer, skips unreadable segments with a
// recorded warning, and supports pruning whole segments by time range.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "tracestore/pool.hpp"
#include "tracestore/segment.hpp"
#include "trace/trace.hpp"
#include "util/walltime.hpp"

namespace ipfsmon::tracestore {

/// Optional store-level metadata sidecar ("STOREMETA", key=value text,
/// written atomically). Simulated stores don't have one; ingest writes it
/// so consumers can anchor the store's SimTime axis back to wall-clock
/// time: wall time = wall_epoch_ns + SimTime. Absence is not an error —
/// readers treat such stores as purely simulated.
struct StoreMeta {
  /// Unix nanoseconds corresponding to SimTime 0 in this store.
  util::WallNanos wall_epoch_ns = 0;
  /// Where the entries came from ("capture.ndjson.gz", ...), display only.
  std::string source;
  /// Capture format the store was ingested from ("ndjson", "csv", ...).
  std::string format;
  /// Vantage-point names and the MonitorId each was assigned during
  /// ingest, in id order ("us" -> 0, "de" -> 1, ...).
  std::vector<std::pair<std::string, std::uint32_t>> monitors;
};

/// Writes `<dir>/STOREMETA` via write-to-temp + rename.
bool write_store_meta(const std::string& dir, const StoreMeta& meta,
                      std::string* error = nullptr);

/// Reads `<dir>/STOREMETA`; nullopt when absent or unparsable.
std::optional<StoreMeta> read_store_meta(const std::string& dir);

struct StoreOptions {
  /// Roll the open segment after this many entries...
  std::uint64_t max_entries_per_segment = 1u << 18;
  /// ...or when it would span more than this much sim time.
  util::SimDuration max_segment_span = 6 * util::kHour;
  /// Optional instrumentation sink (counters and histograms).
  /// The store keeps the pointer; the Obs must outlive it.
  obs::Obs* obs = nullptr;
  /// Remember body-checksum validation in this cache instead of the
  /// store's own (TraceStore::validation_cache() returns whichever is in
  /// use). Either way, repeat reads of an unchanged sealed segment (keyed
  /// by path + mtime + size) skip the whole-body hash pass. Lets a
  /// federation coordinator verify a landed segment once and have every
  /// serving TraceStore opened over the same directory skip the
  /// re-validation pass. The cache must outlive the store.
  ValidationCache* shared_validation = nullptr;
};

/// What crash recovery found and did in a store directory.
struct RecoveryReport {
  std::size_t segments_kept = 0;
  /// Torn/corrupt segments quarantined as "<name>.torn" (their stale
  /// rollup sidecars are deleted).
  std::size_t segments_dropped = 0;
  std::uint64_t entries_recovered = 0;
  /// First segment index a resumed writer may use without colliding with
  /// any file seen on disk (valid or torn).
  std::size_t next_segment_index = 0;
  std::vector<std::pair<std::string, SegmentFooter>> segments;
  std::vector<std::string> notes;
};

/// Crash recovery for a store directory. After a crash the MANIFEST is
/// stale or missing (it is only published by finalize()), so this scans the
/// directory for segment files directly, validates each footer, renames any
/// torn segment (usually the tail that was mid-write) to "<name>.torn",
/// deletes the temp files of publishes a crash cut short (one note each),
/// and rebuilds the MANIFEST atomically from the surviving segments.
/// Idempotent.
/// Returns nullopt only when the directory itself is unusable.
std::optional<RecoveryReport> recover_store_dir(const std::string& dir,
                                                StoreOptions options = {},
                                                std::string* error = nullptr);

class SegmentWriter {
 public:
  /// Creates `dir` (and parents) and removes any previous store contents
  /// there, so a restarted run starts from a clean directory. Returns
  /// nullptr on IO failure (error describes why).
  static std::unique_ptr<SegmentWriter> create(const std::string& dir,
                                               StoreOptions options = {},
                                               std::string* error = nullptr);

  /// Reopens a crashed store for appending: runs recover_store_dir() on
  /// `dir`, keeps the surviving segments, and resumes writing at the next
  /// free segment index. Recovered entries count toward entries_written().
  /// `report`, when non-null, receives the recovery details. Returns
  /// nullptr when the directory is unusable.
  static std::unique_ptr<SegmentWriter> resume(const std::string& dir,
                                               StoreOptions options = {},
                                               RecoveryReport* report = nullptr,
                                               std::string* error = nullptr);

  ~SegmentWriter();
  SegmentWriter(const SegmentWriter&) = delete;
  SegmentWriter& operator=(const SegmentWriter&) = delete;

  /// Buffers `entry`, flushing a completed segment when a cap is hit.
  ///
  /// Entries are expected in non-decreasing time order (monitor recording
  /// order). The footer time range is computed from the data either way,
  /// so footers never lie — but out-of-order input degrades the store:
  /// segment time ranges may overlap (weakening time-range pruning and
  /// breaking StoreCursor's segments-are-time-ordered merge invariant) and
  /// the time-span roll cap is measured from the segment's *first* entry,
  /// not its minimum. Such appends are therefore counted (obs counter
  /// `ipfsmon_tracestore_unordered_appends_total` and
  /// unordered_appends()); producers that cannot trust their input order —
  /// real-capture ingest above all — must reject or clamp before
  /// appending (see ingest::IngestOptions::lenient).
  void append(const trace::TraceEntry& entry);

  /// Flushes the open segment and atomically publishes the manifest.
  /// Idempotent; append() may not be called afterwards.
  bool finalize();

  /// Crash-safe point: flushes the open segment (if any) and publishes the
  /// manifest like finalize(), but keeps the writer appendable. After a
  /// process crash (not a power loss: nothing is fsync'd), everything
  /// appended before the last checkpoint() survives
  /// recover_store_dir() intact. Ingest writes its resume checkpoint right
  /// after calling this. Returns false when any flush has failed.
  bool checkpoint();

  /// Simulates a crash: the buffered (unflushed) entries are discarded and
  /// finalize() becomes a no-op, leaving already-flushed segments on disk
  /// behind a stale or missing MANIFEST — exactly the state
  /// recover_store_dir() repairs. Used by PassiveMonitor::crash().
  void abandon();

  const std::string& dir() const { return dir_; }
  std::uint64_t entries_written() const { return entries_written_; }
  std::uint64_t segments_written() const { return segments_.size(); }
  /// Appends that went backwards in time (see append()).
  std::uint64_t unordered_appends() const { return unordered_appends_; }
  /// Set when any flush failed; finalize() also returns false then.
  bool failed() const { return failed_; }
  /// Why the last segment flush or MANIFEST publish failed ("" if none).
  const std::string& error() const { return error_; }

 private:
  SegmentWriter(std::string dir, StoreOptions options);
  void flush_open_segment();

  std::string dir_;
  StoreOptions options_;
  trace::Trace open_;  // entries of the segment being built
  std::vector<std::pair<std::string, SegmentFooter>> segments_;
  // Next on-disk segment index. Tracked separately from segments_.size():
  // after recovery drops a torn tail, resumed writers must not reuse its
  // file name.
  std::size_t next_index_ = 0;
  std::uint64_t entries_written_ = 0;
  std::uint64_t unordered_appends_ = 0;
  util::SimTime last_timestamp_ = 0;
  bool finalized_ = false;
  bool failed_ = false;
  std::string error_;

  obs::Counter* segments_counter_ = nullptr;
  obs::Counter* entries_counter_ = nullptr;
  obs::Counter* unordered_counter_ = nullptr;
  obs::Histogram* flush_bytes_ = nullptr;
};

/// Read-side view of a store directory.
class TraceStore {
 public:
  struct Segment {
    std::string file;  // name relative to dir
    SegmentFooter footer;
    std::uint64_t file_bytes = 0;
  };

  /// Parses the manifest and validates every listed segment's footer.
  /// Unreadable/corrupt segments are skipped and reported in warnings()
  /// (and counted in obs when options.obs is set). Returns nullopt
  /// only when the directory or manifest itself is unusable.
  static std::optional<TraceStore> open(const std::string& dir,
                                        StoreOptions options = {},
                                        std::string* error = nullptr);

  const std::string& dir() const { return dir_; }
  const std::vector<Segment>& segments() const { return segments_; }
  /// A copy of the warnings recorded so far: readers may add more from
  /// concurrent scans, so a live reference could not be held safely.
  std::vector<std::string> warnings() const;
  const StoreOptions& options() const { return options_; }
  /// Store-level metadata (wall-clock epoch, capture source) when a
  /// STOREMETA sidecar is present — i.e. when this store was ingested from
  /// a real capture. nullopt for simulated stores.
  const std::optional<StoreMeta>& meta() const { return meta_; }

  std::uint64_t total_entries() const;
  std::uint64_t total_bytes() const;
  util::SimTime min_time() const;
  util::SimTime max_time() const;

  std::string segment_path(std::size_t index) const;

  /// The store's one persistent scan pool (scan(), the query engine and
  /// the merge readers' read-ahead all run on it). Created lazily with one
  /// worker per hardware thread, and lives as long as the store.
  ScanPool& scan_pool() const;

  /// What every reader of this store passes to SegmentReader::open:
  /// options().shared_validation when set, else the store's own cache.
  /// Never null.
  ValidationCache* validation_cache() const;

  /// Drops every segment whose entire time range lies before `cutoff`
  /// (file deleted, manifest rewritten atomically). Returns the number of
  /// segments removed.
  std::size_t prune_before(util::SimTime cutoff);

  /// Records a warning in warnings(). Safe from concurrent readers.
  void warn(const std::string& message) const;
  /// Records a warning for a segment a reader skipped and counts it in
  /// ipfsmon_tracestore_segments_skipped_total (when options.obs is set).
  /// Used by open(), scan() and the streaming readers mid-scan; safe from
  /// concurrent readers.
  void skip_segment(const std::string& message) const;

 private:
  TraceStore() = default;
  bool rewrite_manifest() const;

  /// Heap-shared read-path state, so TraceStore stays movable while the
  /// lazily-created pool and the validation cache keep stable addresses.
  struct SharedReadState {
    std::mutex mu;  // guards pool creation and warnings
    std::shared_ptr<ScanPool> pool;
    std::vector<std::string> warnings;
    ValidationCache validated;
  };

  std::string dir_;
  StoreOptions options_;
  std::vector<Segment> segments_;
  std::optional<StoreMeta> meta_;
  std::shared_ptr<SharedReadState> shared_ =
      std::make_shared<SharedReadState>();
};

/// Writes the manifest for `segments` into `dir` atomically. Shared by the
/// writer's finalize() and the store's prune.
bool write_manifest(
    const std::string& dir,
    const std::vector<std::pair<std::string, SegmentFooter>>& segments,
    std::string* error = nullptr);

}  // namespace ipfsmon::tracestore
