#include "federation/protocol.hpp"

#include <time.h>

#include <cerrno>
#include <cstring>

#include "query/socket.hpp"
#include "util/codec.hpp"
#include "util/file.hpp"

namespace ipfsmon::federation {

namespace {

constexpr std::size_t kHeaderBytes = 24;

// Smallest encoding of one HELLO_ACK entry: an empty name (a one-byte
// length) and its u64 checksum.
constexpr std::size_t kMinLandedBytes = 1 + 8;
constexpr std::uint64_t kMaxNameBytes = 256;

void set_error(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

}  // namespace

std::string_view to_string(AckStatus status) {
  switch (status) {
    case AckStatus::kLanded: return "landed";
    case AckStatus::kDuplicate: return "duplicate";
    case AckStatus::kRejected: return "rejected";
  }
  return "unknown";
}

bool valid_vantage(std::string_view label) {
  if (label.empty() || label.size() > 64) return false;
  for (const char c : label) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

bool valid_segment_name(std::string_view name) {
  // "seg-NNNNNN.seg": the only shape SegmentWriter emits; anything else
  // (path separators above all) never reaches the filesystem.
  constexpr std::string_view prefix = "seg-";
  constexpr std::string_view suffix = ".seg";
  if (name.size() != prefix.size() + 6 + suffix.size()) return false;
  if (name.substr(0, prefix.size()) != prefix) return false;
  if (name.substr(name.size() - suffix.size()) != suffix) return false;
  for (std::size_t i = prefix.size(); i < prefix.size() + 6; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
  }
  return true;
}

// --- Message payload codecs -------------------------------------------------

util::Bytes encode(const HelloMsg& msg) {
  util::Bytes out;
  util::varint_append(out, msg.monitor_id);
  util::put_string(out, msg.vantage);
  return out;
}

util::Bytes encode(const HelloAckMsg& msg) {
  util::Bytes out;
  util::varint_append(out, msg.landed.size());
  for (const auto& segment : msg.landed) {
    util::put_string(out, segment.file);
    util::put_le(out, segment.checksum);
  }
  return out;
}

util::Bytes encode(const SegmentMsg& msg) {
  util::Bytes out;
  out.reserve(msg.segment_bytes.size() + msg.rollup_bytes.size() + 128);
  util::put_string(out, msg.file);
  util::put_le(out, msg.body_checksum);
  util::varint_append(out, msg.entry_count);
  util::put_le(out, static_cast<std::uint64_t>(msg.min_time));
  util::put_le(out, static_cast<std::uint64_t>(msg.max_time));
  util::put_le(out, static_cast<std::uint64_t>(msg.sealed_wall_us));
  util::put_blob(out, msg.segment_bytes);
  util::put_blob(out, msg.rollup_bytes);
  return out;
}

util::Bytes encode(const SegmentAckMsg& msg) {
  util::Bytes out;
  util::put_string(out, msg.segment.file);
  util::put_le(out, msg.segment.checksum);
  out.push_back(static_cast<std::uint8_t>(msg.status));
  return out;
}

std::optional<HelloMsg> decode_hello(util::BytesView payload) {
  util::ByteReader reader(payload);
  HelloMsg msg;
  const std::uint64_t id = reader.varint();
  msg.vantage = reader.string(64);
  if (!reader.done() || id > UINT32_MAX) return std::nullopt;
  msg.monitor_id = static_cast<std::uint32_t>(id);
  return msg;
}

std::optional<HelloAckMsg> decode_hello_ack(util::BytesView payload) {
  util::ByteReader reader(payload);
  HelloAckMsg msg;
  const std::uint64_t count = reader.count(kMinLandedBytes);
  msg.landed.reserve(count);
  for (std::uint64_t i = 0; i < count && reader.ok(); ++i) {
    SegmentIdentity segment;
    segment.file = reader.string(kMaxNameBytes);
    segment.checksum = reader.u64();
    msg.landed.push_back(std::move(segment));
  }
  if (!reader.done()) return std::nullopt;
  return msg;
}

std::optional<SegmentMsg> decode_segment(util::BytesView payload) {
  util::ByteReader reader(payload);
  SegmentMsg msg;
  msg.file = reader.string(kMaxNameBytes);
  msg.body_checksum = reader.u64();
  msg.entry_count = reader.varint();
  msg.min_time = static_cast<util::SimTime>(reader.u64());
  msg.max_time = static_cast<util::SimTime>(reader.u64());
  msg.sealed_wall_us = static_cast<std::int64_t>(reader.u64());
  const util::BytesView segment = reader.blob(kMaxFramePayload);
  const util::BytesView rollup = reader.blob(kMaxFramePayload);
  if (!reader.done()) return std::nullopt;
  msg.segment_bytes.assign(segment.begin(), segment.end());
  msg.rollup_bytes.assign(rollup.begin(), rollup.end());
  return msg;
}

std::optional<SegmentAckMsg> decode_segment_ack(util::BytesView payload) {
  util::ByteReader reader(payload);
  SegmentAckMsg msg;
  msg.segment.file = reader.string(kMaxNameBytes);
  msg.segment.checksum = reader.u64();
  const std::uint8_t status = reader.u8();
  if (!reader.done() || status > 2) return std::nullopt;
  msg.status = static_cast<AckStatus>(status);
  return msg;
}

// --- Socket framing ---------------------------------------------------------

bool write_frame(int fd, FrameType type, util::BytesView payload,
                 std::string* error) {
  util::Bytes header;
  header.reserve(kHeaderBytes);
  util::put_le(header, kFrameMagic);
  util::put_le(header, kProtocolVersion);
  util::put_le(header, static_cast<std::uint16_t>(type));
  util::put_le(header, static_cast<std::uint64_t>(payload.size()));
  util::put_le(header, util::fnv1a64(payload, 0));
  if (!query::send_all(fd, header.data(), header.size()) ||
      !query::send_all(fd, payload.data(), payload.size())) {
    set_error(error, std::string("frame write: ") + std::strerror(errno));
    return false;
  }
  return true;
}

std::optional<Frame> read_frame(int fd, std::string* error) {
  std::uint8_t raw[kHeaderBytes];
  if (!query::recv_all(fd, raw, sizeof(raw))) {
    set_error(error, "connection closed");
    return std::nullopt;
  }
  util::ByteReader header(util::BytesView(raw, sizeof(raw)));
  if (header.u32() != kFrameMagic) {
    set_error(error, "bad frame magic");
    return std::nullopt;
  }
  if (header.u16() != kProtocolVersion) {
    set_error(error, "unsupported protocol version");
    return std::nullopt;
  }
  const std::uint16_t type = header.u16();
  if (type < 1 || type > 4) {
    set_error(error, "unknown frame type");
    return std::nullopt;
  }
  const std::uint64_t payload_len = header.u64();
  const std::uint64_t checksum = header.u64();
  if (payload_len > kMaxFramePayload) {
    set_error(error, "frame payload exceeds cap");
    return std::nullopt;
  }
  Frame frame;
  frame.type = static_cast<FrameType>(type);
  frame.payload.resize(static_cast<std::size_t>(payload_len));
  if (payload_len > 0 &&
      !query::recv_all(fd, frame.payload.data(), frame.payload.size())) {
    set_error(error, "truncated frame payload");
    return std::nullopt;
  }
  if (util::fnv1a64(frame.payload, 0) != checksum) {
    set_error(error, "frame checksum mismatch");
    return std::nullopt;
  }
  return frame;
}

std::int64_t unix_micros_now() {
  timespec ts{};
  ::clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000 +
         ts.tv_nsec / 1000;
}

std::int64_t file_mtime_unix_us(const std::string& path) {
  const auto sig = util::file_signature(path);
  return sig ? sig->mtime_ns / 1000 : 0;
}

}  // namespace ipfsmon::federation
