// Real-capture ingest: streams a Bitswap wantlist capture (NDJSON or CSV,
// plain or gzip) into an on-disk trace store, normalizing wall-clock
// timestamps onto the SimTime axis and vantage names onto MonitorIds.
// The produced store is indistinguishable from a simulated spill — same
// segments, Blooms, rollups, MANIFEST — plus a STOREMETA sidecar anchoring
// SimTime 0 back to the capture's wall-clock epoch, so every downstream
// consumer (scans, unify, federation, the query daemon, replay) runs
// unchanged over real data.
//
// Error handling is explicit, never silent:
//  * strict (default): the first malformed line or backwards timestamp
//    aborts the ingest with a line-numbered error;
//  * lenient: malformed lines are counted, quarantined verbatim into a
//    "<store>/rejects.rej" sidecar, and surfaced as
//    ipfsmon_ingest_rejected_lines_total; backwards timestamps are clamped
//    to the previous entry's time and counted as
//    ipfsmon_ingest_unordered_total.
//
// Multi-GB captures checkpoint: every checkpoint_every accepted entries
// the writer publishes its manifest and an "INGEST.ckpt" records the
// uncompressed byte offset reached. A re-run with resume = true recovers
// the store, validates the checkpoint against what actually survived on
// disk, and continues from that offset instead of starting over. Resume
// re-primes the duplicate-window flagger from every recovered entry within
// the widest dedup window of the checkpoint (walking back across
// trailing segments as needed), so flags stay exact across the boundary.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ingest/capture.hpp"
#include "obs/obs.hpp"
#include "tracestore/store.hpp"
#include "trace/trace.hpp"

namespace ipfsmon::ingest {

struct IngestOptions {
  CaptureFormat format = CaptureFormat::kAuto;
  /// false = strict: abort on the first malformed line or backwards
  /// timestamp. true = quarantine/clamp and count (see file comment).
  bool lenient = false;
  /// Wall-clock instant mapped to SimTime 0. Unset = the first accepted
  /// record's timestamp (so the store starts at SimTime 0 exactly).
  std::optional<util::WallNanos> epoch;
  /// Pre-assigned vantage -> MonitorId mappings. Vantages not listed get
  /// the next free id in order of first appearance (deterministic for a
  /// given capture). An empty vantage field maps to monitor 0.
  std::vector<std::pair<std::string, trace::MonitorId>> monitors;
  /// Mark kInterMonitorDuplicate / kRebroadcast flags while ingesting
  /// (the stream is time-ordered by construction, so the streaming
  /// flagger applies).
  bool mark_flags = true;
  /// Accepted entries between checkpoints (atomic publishes of MANIFEST
  /// and INGEST.ckpt; crash-safe against a process crash, not a power
  /// loss: nothing is fsync'd); 0 = only the final finalize().
  std::uint64_t checkpoint_every = 1u << 20;
  /// Continue from an INGEST.ckpt left by a previous interrupted run. The
  /// checkpoint is trusted only if it matches this capture and the entry
  /// count recovered from disk; otherwise ingest restarts from scratch.
  bool resume = false;
  /// Stop after this many accepted entries (0 = unlimited), leaving a
  /// resumable checkpoint instead of a finalized store — for sampling the
  /// head of a huge capture, and how the tests exercise interruption.
  std::uint64_t max_entries = 0;
  /// Store tuning for the produced segments.
  tracestore::StoreOptions store;
  /// Counters/warnings sink (also handed to the segment writer).
  obs::Obs* obs = nullptr;
};

struct IngestStats {
  std::uint64_t lines = 0;           // non-blank lines consumed this run
  std::uint64_t entries = 0;         // entries in the store (incl. resumed)
  std::uint64_t resumed_entries = 0; // carried over by a checkpoint resume
  std::uint64_t rejected = 0;        // malformed lines (lenient)
  std::uint64_t unordered = 0;       // clamped backwards timestamps
  std::uint64_t bytes = 0;           // uncompressed capture bytes consumed
  std::uint64_t checkpoints = 0;     // checkpoints published
  bool resumed = false;              // this run continued a checkpoint
  /// Stopped at max_entries: the store is checkpointed, not finalized —
  /// re-run with resume = true to continue.
  bool truncated = false;
  CaptureFormat format = CaptureFormat::kAuto;  // detected format
  util::WallNanos wall_epoch_ns = 0;
  util::SimTime min_time = 0;
  util::SimTime max_time = 0;
  /// Vantage -> MonitorId map actually used, in id order.
  std::vector<std::pair<std::string, trace::MonitorId>> monitors;
};

/// Non-blank capture lines per parse batch. ingest_capture parses the
/// next batch on a pool while it flags and writes the current one.
inline constexpr std::size_t kParseBatchLines = 4096;

/// Streams `capture_path` into a trace store at `store_dir`. Returns
/// nullopt on failure (error says why, with a line number for parse
/// failures in strict mode).
std::optional<IngestStats> ingest_capture(const std::string& capture_path,
                                          const std::string& store_dir,
                                          const IngestOptions& options = {},
                                          std::string* error = nullptr);

/// Name of the quarantine sidecar inside the store directory.
std::string rejects_path(const std::string& store_dir);

}  // namespace ipfsmon::ingest
