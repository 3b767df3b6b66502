// One on-disk trace segment: the dictionary-compact "IPM2" trace encoding
// as the body, followed by a footer index and a fixed 16-byte trailer.
// Segments are the only on-disk trace format, and segment.cpp holds IPM2's
// one encoder and one decoder. The footer carries everything a scan needs
// to decide whether to read the body at all: entry count, time range, and
// Bloom filters over the segment's peer and CID sets. Both footer and body are
// checksummed (FNV-1a 64) so a partially written or corrupted segment is
// detected and skipped instead of poisoning a scan. Every byte is written
// and read through the one binary codec (util/codec): the footer is sealed
// by its checksummed trailer, and body, footer and trailer are decoded by
// the bounds-checked util::ByteReader, which refuses a dictionary count
// the remaining bytes cannot hold before anything is reserved for it.
//
// Layout:
//   [body: IPM2 compact trace bytes]
//   [footer: varint-packed SegmentFooter incl. Bloom bit arrays]
//   [trailer, 16 bytes LE: u32 footer_len | u64 footer_checksum | u32 magic]
//
// The read path is one sized read: SegmentReader takes the whole file with
// util::read_file (regular files only, exactly st_size bytes, so a FIFO or
// device planted under a segment's name is refused, never blocked on, and
// a file that shrinks mid-read is a short read, not a fault) and decodes
// entries out of that owned buffer. A ValidationCache keyed by the read's
// (path, mtime, size) lets repeat readers of sealed segments skip the
// body-checksum pass they already paid for.
#pragma once

#include <atomic>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "tracestore/bloom.hpp"
#include "trace/trace.hpp"
#include "util/file.hpp"

namespace ipfsmon::tracestore {

struct SegmentFooter {
  std::uint64_t entry_count = 0;
  util::SimTime min_time = 0;
  util::SimTime max_time = 0;
  std::uint64_t body_bytes = 0;
  std::uint64_t body_checksum = 0;
  BloomFilter peer_bloom;
  BloomFilter cid_bloom;

  /// True when [min_time, max_time] intersects [lo, hi].
  bool overlaps(util::SimTime lo, util::SimTime hi) const {
    return entry_count != 0 && min_time <= hi && lo <= max_time;
  }
};

/// Remembers which sealed segment files already passed body-checksum
/// validation, keyed by (path, mtime, size). Segments are immutable once
/// written (rewrites go through a rename, changing mtime), so an unchanged
/// signature means the expensive whole-body FNV pass can be skipped on
/// every open after the first. Thread-safe: scan workers share one cache.
class ValidationCache {
 public:
  bool contains(const std::string& path,
                const util::FileSignature& signature) const;
  void remember(const std::string& path, const util::FileSignature& signature);

  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::size_t entries() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, util::FileSignature> verified_;
  mutable std::atomic<std::uint64_t> hits_{0};
};

/// Distinct peers and CIDs of a segment: the sizes of its interned
/// dictionaries.
struct SegmentKeyCounts {
  std::uint64_t peers = 0;
  std::uint64_t cids = 0;
};

/// Serializes `entries` as a complete segment (body + footer with 10
/// bits/key Blooms + trailer) and publishes it at `path` atomically
/// (util::publish). Returns false and sets `error` on IO failure.
bool write_segment_file(const std::string& path, const trace::Trace& entries,
                        SegmentFooter* out_footer, std::string* error,
                        SegmentKeyCounts* out_keys = nullptr);

/// Reads and validates only the footer (trailer magic, footer checksum) —
/// the cheap open-time check; the body checksum is verified when the body
/// is actually read. Reads just the trailer + footer tail of the file
/// (two small util::read_file_tail reads, so regular files only), never
/// the body. Returns nullopt and sets `error` on any mismatch.
std::optional<SegmentFooter> read_segment_footer(const std::string& path,
                                                 std::string* error);

/// One entry decoded to dictionary references instead of materialized
/// keys: `peer`/`addr`/`cid` index into the segment's interned
/// dictionaries. The scan fast path matches on these integer ids and only
/// materializes entries that pass the predicate.
struct RawRecord {
  util::SimTime timestamp = 0;
  std::uint32_t peer = 0;
  std::uint32_t addr = 0;
  std::uint32_t cid = 0;
  bitswap::WantType type = bitswap::WantType::WantHave;
  trace::MonitorId monitor = 0;
  std::uint32_t flags = 0;
};

/// Streaming decoder over one segment. Reads the whole file, verifies both
/// checksums and the dictionaries up front (memory bounded by the segment,
/// not the trace), then yields entries one at a time from that buffer.
class SegmentReader {
 public:
  /// `validated`, when set, is consulted and filled so an unchanged file
  /// skips the body-checksum pass; null hashes the body on every open.
  /// Readers of a store pass TraceStore::validation_cache().
  static std::optional<SegmentReader> open(
      const std::string& path, std::string* error = nullptr,
      ValidationCache* validated = nullptr);

  const SegmentFooter& footer() const { return footer_; }

  /// Decodes the next entry into `out`; false at end-of-segment or on a
  /// malformed record (malformed bodies fail the checksum first in
  /// practice, but decode errors still terminate the stream).
  bool next(trace::TraceEntry& out);

  /// Like next(), but yields dictionary ids without materializing the
  /// peer/address/CID keys — the scan fast path.
  bool next_raw(RawRecord& out);

  /// Resolves a RawRecord's dictionary ids into a full entry.
  void materialize(const RawRecord& raw, trace::TraceEntry& out) const;

  /// The segment's interned peer dictionary, for resolving a query's key
  /// set to ids once per segment instead of hashing per entry.
  const std::vector<crypto::PeerId>& peer_dictionary() const { return peers_; }

  /// Number of interned CID keys in this segment.
  std::size_t cid_key_count() const { return cid_spans_.size(); }

  /// Decodes (and memoizes) one interned CID key. CIDs are variable-length
  /// heap values, so unlike the peer dictionary they are decoded lazily —
  /// a raw scan that matches nothing never pays for the CID dictionary at
  /// all. `id` must be < cid_key_count().
  const cid::Cid& cid_key(std::uint32_t id) const;

 private:
  SegmentReader() = default;
  /// Fails with an error naming `path`, like every other open error.
  bool parse_dictionaries(const std::string& path, std::string* error);
  util::BytesView body() const {
    return util::BytesView(bytes_).subspan(0, footer_.body_bytes);
  }

  /// Byte range of one interned CID inside the body.
  struct KeySpan {
    std::uint64_t offset = 0;
    std::uint32_t length = 0;
  };

  SegmentFooter footer_;
  util::Bytes bytes_;  // the whole file
  std::vector<crypto::PeerId> peers_;
  std::vector<net::Address> addrs_;
  std::vector<KeySpan> cid_spans_;
  mutable std::vector<cid::Cid> cids_;          // decoded on first touch
  mutable std::vector<std::uint8_t> cid_done_;  // per-id decode flag
  std::size_t pos_ = 0;
  std::uint64_t remaining_ = 0;
  util::SimTime prev_time_ = 0;
};

}  // namespace ipfsmon::tracestore
