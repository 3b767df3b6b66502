#include "tracestore/rollup.hpp"

#include <cstdint>
#include <map>

#include "util/codec.hpp"
#include "util/file.hpp"

namespace ipfsmon::tracestore {

namespace {

constexpr std::uint32_t kRollupMagic = 0x54535255;  // "TSRU"
constexpr std::uint64_t kRollupVersion = 1;
// Smallest encoding of one bucket: seven one-byte varints.
constexpr std::size_t kMinBucketBytes = 7;

/// Bucket start for a timestamp: floor division, correct for negatives.
util::SimTime bucket_start_of(util::SimTime t, util::SimDuration width) {
  util::SimTime q = t / width;
  if (t % width != 0 && t < 0) --q;
  return q * width;
}

util::Bytes encode_rollup(const SegmentRollup& rollup) {
  util::Bytes out;
  util::varint_append(out, kRollupVersion);
  util::varint_append(out, static_cast<std::uint64_t>(rollup.bucket_width));
  util::varint_append(out, rollup.entry_count);
  util::varint_append(out, util::zigzag_encode(rollup.min_time));
  util::varint_append(out, util::zigzag_encode(rollup.max_time));
  util::varint_append(out, rollup.distinct_peers);
  util::varint_append(out, rollup.distinct_cids);
  util::varint_append(out, rollup.buckets.size());
  // Bucket starts are multiples of bucket_width in ascending order; store
  // them as deltas in units of the width so they stay 1-2 bytes each.
  util::SimTime prev = 0;
  bool first = true;
  for (const auto& b : rollup.buckets) {
    const std::int64_t delta_units =
        first ? b.start / rollup.bucket_width
              : (b.start - prev) / rollup.bucket_width;
    first = false;
    prev = b.start;
    util::varint_append(out, util::zigzag_encode(delta_units));
    util::varint_append(out, b.want_have);
    util::varint_append(out, b.want_block);
    util::varint_append(out, b.cancels);
    util::varint_append(out, b.duplicates);
    util::varint_append(out, b.rebroadcasts);
    util::varint_append(out, b.clean);
  }
  return out;
}

std::optional<SegmentRollup> decode_rollup(util::BytesView bytes) {
  util::ByteReader r(bytes);
  if (r.varint() != kRollupVersion) return std::nullopt;
  SegmentRollup rollup;
  const std::uint64_t width = r.varint();
  rollup.bucket_width = static_cast<util::SimDuration>(width);
  rollup.entry_count = r.varint();
  rollup.min_time = util::zigzag_decode(r.varint());
  rollup.max_time = util::zigzag_decode(r.varint());
  rollup.distinct_peers = r.varint();
  rollup.distinct_cids = r.varint();
  const std::uint64_t buckets = r.count(kMinBucketBytes);
  if (!r.ok() || width == 0 || width > INT64_MAX) return std::nullopt;
  rollup.buckets.reserve(buckets);
  // Starts are rebuilt in unsigned arithmetic: a hostile delta or width
  // wraps instead of overflowing, and fails the ascending check.
  std::uint64_t prev = 0;
  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < buckets; ++i) {
    const std::uint64_t delta = r.varint();
    RollupBucket bucket;
    bucket.want_have = r.varint();
    bucket.want_block = r.varint();
    bucket.cancels = r.varint();
    bucket.duplicates = r.varint();
    bucket.rebroadcasts = r.varint();
    bucket.clean = r.varint();
    const std::uint64_t start =
        prev + static_cast<std::uint64_t>(util::zigzag_decode(delta)) * width;
    bucket.start = static_cast<util::SimTime>(start);
    // Not ascending.
    if (i != 0 && bucket.start <= static_cast<util::SimTime>(prev)) {
      return std::nullopt;
    }
    prev = start;
    total += bucket.entries();
    rollup.buckets.push_back(bucket);
  }
  if (!r.ok() || total != rollup.entry_count) return std::nullopt;
  return rollup;
}

}  // namespace

std::string rollup_path_for(const std::string& segment_path) {
  return segment_path + ".rollup";
}

SegmentRollup build_rollup(const trace::Trace& entries,
                           const SegmentKeyCounts& keys,
                           util::SimDuration bucket_width) {
  SegmentRollup rollup;
  rollup.bucket_width = bucket_width;
  rollup.entry_count = entries.size();
  rollup.distinct_peers = keys.peers;
  rollup.distinct_cids = keys.cids;

  std::map<util::SimTime, RollupBucket> buckets;
  bool first = true;
  for (const auto& e : entries.entries()) {
    if (first || e.timestamp < rollup.min_time) rollup.min_time = e.timestamp;
    if (first || e.timestamp > rollup.max_time) rollup.max_time = e.timestamp;
    first = false;
    const util::SimTime start = bucket_start_of(e.timestamp, bucket_width);
    RollupBucket& b = buckets[start];
    b.start = start;
    switch (e.type) {
      case bitswap::WantType::WantHave: ++b.want_have; break;
      case bitswap::WantType::WantBlock: ++b.want_block; break;
      case bitswap::WantType::Cancel: ++b.cancels; break;
    }
    if (e.is_duplicate()) ++b.duplicates;
    if (e.is_rebroadcast()) ++b.rebroadcasts;
    if (e.is_clean()) ++b.clean;
  }
  rollup.buckets.reserve(buckets.size());
  for (auto& [start, bucket] : buckets) rollup.buckets.push_back(bucket);
  return rollup;
}

bool write_rollup_file(const std::string& path, const SegmentRollup& rollup,
                       std::string* error) {
  const util::Bytes payload = encode_rollup(rollup);
  return util::publish(path, {payload, util::seal(payload, kRollupMagic)},
                       error);
}

std::optional<SegmentRollup> read_rollup_file(const std::string& path,
                                              std::string* error) {
  util::Bytes data;
  if (!util::read_file(path, &data, error)) return std::nullopt;
  std::string why;
  const auto payload = util::open_sealed(data, kRollupMagic, &why);
  if (payload && payload->size() + util::kTrailerBytes != data.size()) {
    why = "payload length mismatch";
  }
  if (!why.empty()) {
    if (error != nullptr) *error = path + ": " + why;
    return std::nullopt;
  }
  auto rollup = decode_rollup(*payload);
  if (!rollup && error != nullptr) *error = path + ": malformed payload";
  return rollup;
}

std::optional<SegmentRollup> rollup_from_segment(
    const std::string& segment_path, util::SimDuration bucket_width,
    std::string* error) {
  auto reader = SegmentReader::open(segment_path, error);
  if (!reader) return std::nullopt;
  trace::Trace entries;
  trace::TraceEntry e;
  while (reader->next(e)) entries.append(e);
  if (entries.size() != reader->footer().entry_count) {
    if (error != nullptr) {
      *error = segment_path + ": segment decode stopped early";
    }
    return std::nullopt;
  }
  return build_rollup(entries,
                      {reader->peer_dictionary().size(),
                       reader->cid_key_count()},
                      bucket_width);
}

}  // namespace ipfsmon::tracestore
