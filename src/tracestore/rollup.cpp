#include "tracestore/rollup.hpp"

#include <map>
#include <unordered_set>

#include "tracestore/bloom.hpp"
#include "util/file.hpp"
#include "util/varint.hpp"

namespace ipfsmon::tracestore {

namespace {

constexpr std::uint32_t kRollupMagic = 0x54535255;  // "TSRU"
constexpr std::uint64_t kRollupVersion = 1;
constexpr std::size_t kTrailerBytes = 16;

void put_u32_le(util::Bytes& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64_le(util::Bytes& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint32_t get_u32_le(util::BytesView v) {
  std::uint32_t out = 0;
  for (int i = 3; i >= 0; --i) out = (out << 8) | v[static_cast<size_t>(i)];
  return out;
}

std::uint64_t get_u64_le(util::BytesView v) {
  std::uint64_t out = 0;
  for (int i = 7; i >= 0; --i) out = (out << 8) | v[static_cast<size_t>(i)];
  return out;
}

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

/// Cursor mirroring segment.cpp's Parser for varint-heavy payloads.
struct Parser {
  util::BytesView view;
  std::size_t pos = 0;

  std::optional<std::uint64_t> varint() {
    const auto v = util::varint_decode(view.subspan(pos));
    if (!v) return std::nullopt;
    pos += v->consumed;
    return v->value;
  }
};

std::optional<SegmentRollup> decode_rollup(util::BytesView bytes) {
  Parser p{bytes};
  const auto version = p.varint();
  if (!version || *version != kRollupVersion) return std::nullopt;
  SegmentRollup rollup;
  const auto width = p.varint();
  const auto count = p.varint();
  const auto min_time = p.varint();
  const auto max_time = p.varint();
  const auto peers = p.varint();
  const auto cids = p.varint();
  const auto buckets = p.varint();
  if (!width || *width == 0 || !count || !min_time || !max_time || !peers ||
      !cids || !buckets) {
    return std::nullopt;
  }
  rollup.bucket_width = static_cast<util::SimDuration>(*width);
  rollup.entry_count = *count;
  rollup.min_time = util::zigzag_decode(*min_time);
  rollup.max_time = util::zigzag_decode(*max_time);
  rollup.distinct_peers = *peers;
  rollup.distinct_cids = *cids;
  rollup.buckets.reserve(*buckets);
  util::SimTime prev = 0;
  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < *buckets; ++i) {
    const auto delta = p.varint();
    const auto wh = p.varint();
    const auto wb = p.varint();
    const auto ca = p.varint();
    const auto dup = p.varint();
    const auto reb = p.varint();
    const auto clean = p.varint();
    if (!delta || !wh || !wb || !ca || !dup || !reb || !clean) {
      return std::nullopt;
    }
    RollupBucket bucket;
    bucket.start = prev + util::zigzag_decode(*delta) * rollup.bucket_width;
    if (i != 0 && bucket.start <= prev) return std::nullopt;  // not ascending
    prev = bucket.start;
    bucket.want_have = *wh;
    bucket.want_block = *wb;
    bucket.cancels = *ca;
    bucket.duplicates = *dup;
    bucket.rebroadcasts = *reb;
    bucket.clean = *clean;
    total += bucket.entries();
    rollup.buckets.push_back(bucket);
  }
  if (total != rollup.entry_count) return std::nullopt;
  return rollup;
}

}  // namespace

std::string rollup_path_for(const std::string& segment_path) {
  return segment_path + ".rollup";
}

SegmentRollup build_rollup(const trace::Trace& entries,
                           util::SimDuration bucket_width) {
  SegmentRollup rollup;
  rollup.bucket_width = bucket_width;
  rollup.entry_count = entries.size();

  std::map<util::SimTime, RollupBucket> buckets;
  std::unordered_set<crypto::PeerId> peers;
  std::unordered_set<cid::Cid> cids;
  bool first = true;
  for (const auto& e : entries.entries()) {
    if (first || e.timestamp < rollup.min_time) rollup.min_time = e.timestamp;
    if (first || e.timestamp > rollup.max_time) rollup.max_time = e.timestamp;
    first = false;
    peers.insert(e.peer);
    cids.insert(e.cid);
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
  rollup.distinct_peers = peers.size();
  rollup.distinct_cids = cids.size();
  rollup.buckets.reserve(buckets.size());
  for (auto& [start, bucket] : buckets) rollup.buckets.push_back(bucket);
  return rollup;
}

bool write_rollup_file(const std::string& path, const SegmentRollup& rollup,
                       std::string* error) {
  const util::Bytes payload = encode_rollup(rollup);
  util::Bytes trailer;
  put_u32_le(trailer, static_cast<std::uint32_t>(payload.size()));
  put_u64_le(trailer, fnv1a64(payload, 0));
  put_u32_le(trailer, kRollupMagic);

  return util::publish(path, {payload, trailer}, error);
}

std::optional<SegmentRollup> read_rollup_file(const std::string& path,
                                              std::string* error) {
  std::string data;
  if (!util::read_file(path, &data, error)) return std::nullopt;
  if (data.size() < kTrailerBytes) {
    if (error != nullptr) *error = path + ": truncated (no trailer)";
    return std::nullopt;
  }
  const util::BytesView view(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size());
  const util::BytesView trailer = view.subspan(data.size() - kTrailerBytes);
  if (get_u32_le(trailer.subspan(12)) != kRollupMagic) {
    if (error != nullptr) *error = path + ": bad trailer magic";
    return std::nullopt;
  }
  const std::uint32_t payload_len = get_u32_le(trailer.subspan(0, 4));
  if (payload_len + kTrailerBytes != data.size()) {
    if (error != nullptr) *error = path + ": payload length mismatch";
    return std::nullopt;
  }
  const util::BytesView payload = view.subspan(0, payload_len);
  if (fnv1a64(payload, 0) != get_u64_le(trailer.subspan(4, 8))) {
    if (error != nullptr) *error = path + ": payload checksum mismatch";
    return std::nullopt;
  }
  auto rollup = decode_rollup(payload);
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
  return build_rollup(entries, bucket_width);
}

}  // namespace ipfsmon::tracestore
