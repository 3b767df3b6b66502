// Per-segment rollups: pre-aggregated per-minute counts written beside
// each segment file ("seg-000000.seg.rollup") so a query service can
// answer request-type/flag statistics over a time range without decoding
// segment bodies. A rollup is derived data — losing or corrupting one only
// costs a rebuild (or an entry-level scan), never trace data — so readers
// treat a missing/bad rollup as "recompute", not as an error.
//
// A rollup is sealed by the same checksummed trailer as a segment footer
// and decoded through the same bounds-checked util::ByteReader (one binary
// codec, util/codec), so a bucket count larger than the payload can hold
// is refused before anything is reserved for it:
//   [payload: varint-packed header + buckets]
//   [trailer, 16 bytes LE: u32 payload_len | u64 payload_checksum | u32 magic]
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "tracestore/segment.hpp"
#include "trace/trace.hpp"

namespace ipfsmon::tracestore {

/// Counts for one bucket of sim time ([start, start + width)). Type and
/// flag counts are orthogonal views of the same entries: want_have +
/// want_block + cancels == entries; duplicates/rebroadcasts/clean follow
/// trace::StatsAccumulator semantics (an entry can carry both flags).
struct RollupBucket {
  util::SimTime start = 0;
  std::uint64_t want_have = 0;
  std::uint64_t want_block = 0;
  std::uint64_t cancels = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t rebroadcasts = 0;
  std::uint64_t clean = 0;

  std::uint64_t entries() const { return want_have + want_block + cancels; }
};

struct SegmentRollup {
  util::SimDuration bucket_width = util::kMinute;
  std::uint64_t entry_count = 0;
  util::SimTime min_time = 0;
  util::SimTime max_time = 0;
  /// Exact distinct counts within this segment (across segments they only
  /// sum to an upper-bound estimate — peers/CIDs recur between segments).
  std::uint64_t distinct_peers = 0;
  std::uint64_t distinct_cids = 0;
  /// Non-empty buckets only, in ascending start order.
  std::vector<RollupBucket> buckets;
};

/// The rollup sidecar path for a segment file ("x.seg" -> "x.seg.rollup").
std::string rollup_path_for(const std::string& segment_path);

/// Aggregates `entries` into `bucket_width` buckets. The distinct counts
/// are the segment's dictionary sizes, which the encoder (or a reader)
/// already has, so the rollup never hashes a key again.
SegmentRollup build_rollup(const trace::Trace& entries,
                           const SegmentKeyCounts& keys,
                           util::SimDuration bucket_width = util::kMinute);

/// Publishes `rollup` at `path` atomically (util::publish).
bool write_rollup_file(const std::string& path, const SegmentRollup& rollup,
                       std::string* error = nullptr);

/// Reads and validates a rollup sidecar; nullopt on missing/corrupt files.
std::optional<SegmentRollup> read_rollup_file(const std::string& path,
                                              std::string* error = nullptr);

/// Rebuilds a rollup by decoding the segment body: the reference that
/// tests compare written sidecars against. Readers do not fall back to it;
/// a segment whose sidecar is missing or invalid is decoded per query.
std::optional<SegmentRollup> rollup_from_segment(
    const std::string& segment_path,
    util::SimDuration bucket_width = util::kMinute,
    std::string* error = nullptr);

}  // namespace ipfsmon::tracestore
