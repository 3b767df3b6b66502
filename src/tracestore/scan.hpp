// Predicate-pushdown scans over a trace store. A ScanQuery names a time
// range and/or peer/CID sets; scan() prunes whole segments with the
// footer index (time range first, then Bloom membership) and decodes the
// survivors on the store's persistent work-stealing pool, at most
// 2 x pool.size() segments ahead of the visitor. Matches stream to the
// visitor in segment order — deterministic, and memory-bounded by the
// matches of that read-ahead window, never the whole result.
//
// Matching inside a decoded segment takes the dictionary fast path: the
// query's peer/CID sets are resolved against the segment's interned
// dictionaries once (a flat open-addressing HotSet probe per dictionary
// entry), and every record is then matched on integer ids — no per-entry
// hashing, and entries are only materialized after they match.
#pragma once

#include <functional>
#include <optional>
#include <unordered_set>
#include <vector>

#include "tracestore/store.hpp"

namespace ipfsmon::tracestore {

struct ScanQuery {
  /// Inclusive time bounds; unset = unbounded.
  std::optional<util::SimTime> min_time;
  std::optional<util::SimTime> max_time;
  /// Entry must match one of these peers / CIDs; empty = any. Hashed sets
  /// so membership stays O(1) even for large watch lists.
  std::unordered_set<crypto::PeerId> peers;
  std::unordered_set<cid::Cid> cids;

  bool matches(const trace::TraceEntry& entry) const;
};

struct ScanStats {
  std::size_t segments_total = 0;
  std::size_t segments_scanned = 0;
  std::size_t segments_pruned_time = 0;
  std::size_t segments_pruned_bloom = 0;
  /// Segments opened but skipped without decoding a single entry because
  /// no dictionary key survived the query's key sets (a Bloom false
  /// positive caught after the dictionary resolve).
  std::size_t segments_pruned_dictionary = 0;
  /// Segments that failed to open or validate mid-scan (recorded in the
  /// store's warnings()).
  std::size_t segments_skipped = 0;
  std::uint64_t entries_matched = 0;
  /// Records decoded (before the predicate) and segment-body bytes read,
  /// for MB/s and entries/s accounting in the benches.
  std::uint64_t entries_decoded = 0;
  std::uint64_t bytes_scanned = 0;

  bool operator==(const ScanStats&) const = default;
};

/// Wall-clock timing of one decoded segment within a profiled scan.
/// Timestamps are obs::wall_micros_now() microseconds, so callers can
/// turn each row directly into a span.
struct SegmentScanProfile {
  std::size_t segment = 0;
  std::string file;
  std::int64_t start_us = 0;
  std::int64_t end_us = 0;
  /// Time inside SegmentReader::next_raw (decode) vs. id matching.
  std::int64_t decode_us = 0;
  std::int64_t match_us = 0;
  std::uint64_t entries = 0;
  std::uint64_t matched = 0;
};

/// Optional breakdown of a scan() call, filled only when requested — the
/// per-entry clock reads it needs are skipped entirely on unprofiled
/// scans, keeping the default path fast.
struct ScanProfile {
  /// The single pass that applies footer time-range + Bloom pruning.
  std::int64_t prune_start_us = 0;
  std::int64_t prune_end_us = 0;
  /// Decoded (not pruned) segments, in segment order.
  std::vector<SegmentScanProfile> segments;
};

/// Runs `query` over `store` on the store's scan pool, calling `visit` on
/// the calling thread for every matching entry, in segment order. Safe to
/// call from several threads over one store, also when the store has an
/// obs sink. Segments that fail to open are skipped through
/// TraceStore::skip_segment() and counted in segments_skipped; when the
/// store has an obs sink, each scan also adds its stats to the
/// `ipfsmon_tracestore_*` scan counters there. Pass a profile to collect
/// per-segment decode/match sub-timings (span tracing).
ScanStats scan(const TraceStore& store, const ScanQuery& query,
               const std::function<void(const trace::TraceEntry&)>& visit,
               ScanProfile* profile = nullptr);

}  // namespace ipfsmon::tracestore
