// The monitor→coordinator replication wire protocol: length-prefixed,
// checksummed binary frames over TCP. A shipper opens one connection,
// introduces itself (HELLO: monitor id + vantage label), learns what the
// coordinator already holds for it (HELLO_ACK: landed segment watermarks),
// then streams sealed segment files + rollup sidecars (SEGMENT) and waits
// for per-segment acknowledgements (SEGMENT_ACK). Delivery is
// at-least-once; receives are idempotent because every segment is keyed by
// its body checksum — re-shipping an already-landed segment is answered
// with a duplicate ack and changes nothing on disk.
//
// Frame layout (all integers little-endian):
//   [u32 magic "FMON"][u16 version][u16 type]
//   [u64 payload_len][u64 payload_checksum (FNV-1a 64, seed 0)]
//   [payload bytes]
//
// The 24-byte header is validated before the payload is read; a checksum
// mismatch, an unknown version, or an oversized length terminates the
// connection instead of poisoning the store. Message payloads are
// varint-packed (same conventions as the segment footer encoding), so the
// protocol has no alignment or struct-layout dependency between builds.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "tracestore/segment.hpp"
#include "util/bytes.hpp"
#include "util/time.hpp"

namespace ipfsmon::federation {

constexpr std::uint32_t kFrameMagic = 0x4e4f4d46;  // "FMON"
constexpr std::uint16_t kProtocolVersion = 1;
/// Hard cap on one frame's payload; a segment comfortably fits (segments
/// roll at 2^18 entries), anything bigger is a corrupt or hostile length.
constexpr std::uint64_t kMaxFramePayload = 256ull * 1024 * 1024;

enum class FrameType : std::uint16_t {
  kHello = 1,
  kHelloAck = 2,
  kSegment = 3,
  kSegmentAck = 4,
};

/// Identity of one landed segment: its store-relative file name plus the
/// body checksum from its footer. The checksum is the idempotence key —
/// the same file name with a different checksum is a divergent monitor,
/// never a silent overwrite.
struct SegmentIdentity {
  std::string file;
  std::uint64_t checksum = 0;

  bool operator==(const SegmentIdentity&) const = default;
};

/// Shipper → coordinator, first frame on every connection.
struct HelloMsg {
  std::uint32_t monitor_id = 0;
  std::string vantage;  // [A-Za-z0-9_-]+, e.g. "us-east"
};

/// Coordinator → shipper: everything already landed for this monitor, so a
/// restarted shipper resumes from the coordinator's watermark instead of
/// re-shipping the whole store.
struct HelloAckMsg {
  std::vector<SegmentIdentity> landed;
};

/// Shipper → coordinator: one sealed segment file (raw bytes, shipped
/// verbatim — the coordinator re-verifies the embedded FNV checksums on
/// receipt) plus its rollup sidecar when one exists.
struct SegmentMsg {
  std::string file;
  std::uint64_t body_checksum = 0;
  std::uint64_t entry_count = 0;
  util::SimTime min_time = 0;
  util::SimTime max_time = 0;
  /// When the segment was sealed (file mtime), wall-clock microseconds;
  /// the coordinator's replication-lag watermark is land time minus this.
  std::int64_t sealed_wall_us = 0;
  util::Bytes segment_bytes;
  util::Bytes rollup_bytes;  // empty = no sidecar shipped
};

enum class AckStatus : std::uint8_t {
  kLanded = 0,     ///< verified and persisted
  kDuplicate = 1,  ///< already held with the same checksum (idempotent)
  kRejected = 2,   ///< failed verification; the shipper should not retry
};

std::string_view to_string(AckStatus status);

/// Coordinator → shipper, one per SEGMENT frame, in order.
struct SegmentAckMsg {
  SegmentIdentity segment;
  AckStatus status = AckStatus::kLanded;
};

/// True when `label` is a valid vantage label ([A-Za-z0-9_-]{1,64}).
bool valid_vantage(std::string_view label);

/// True when `name` looks like a store segment file ("seg-NNNNNN.seg") —
/// the only names a coordinator will write under a monitor directory.
bool valid_segment_name(std::string_view name);

// --- Message payload codecs -------------------------------------------------

util::Bytes encode(const HelloMsg& msg);
util::Bytes encode(const HelloAckMsg& msg);
util::Bytes encode(const SegmentMsg& msg);
util::Bytes encode(const SegmentAckMsg& msg);

std::optional<HelloMsg> decode_hello(util::BytesView payload);
std::optional<HelloAckMsg> decode_hello_ack(util::BytesView payload);
std::optional<SegmentMsg> decode_segment(util::BytesView payload);
std::optional<SegmentAckMsg> decode_segment_ack(util::BytesView payload);

// --- Socket framing ---------------------------------------------------------

/// One decoded frame: type + verified payload.
struct Frame {
  FrameType type = FrameType::kHello;
  util::Bytes payload;
};

/// Writes header + payload; false on any short/failed write.
bool write_frame(int fd, FrameType type, util::BytesView payload,
                 std::string* error = nullptr);

/// Reads and validates one frame (magic, version, length cap, payload
/// checksum). Returns nullopt on EOF, timeout, or any validation failure —
/// the caller must treat the connection as dead either way.
std::optional<Frame> read_frame(int fd, std::string* error = nullptr);


/// CLOCK_REALTIME microseconds — the one clock shipper and coordinator
/// processes share, so replication lag (land time minus segment mtime) is
/// meaningful across process boundaries. (obs::wall_micros_now() is
/// steady-clock and process-relative; it cannot cross processes.)
std::int64_t unix_micros_now();

/// A file's mtime in CLOCK_REALTIME microseconds (0 when unreadable).
std::int64_t file_mtime_unix_us(const std::string& path);

}  // namespace ipfsmon::federation
