#include "federation/protocol.hpp"

#include <time.h>

#include <cerrno>
#include <cstring>

#include "query/socket.hpp"
#include "tracestore/bloom.hpp"
#include "util/file.hpp"
#include "util/varint.hpp"

namespace ipfsmon::federation {

namespace {

constexpr std::size_t kHeaderBytes = 24;

void put_u16_le(util::Bytes& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

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

std::uint16_t get_u16_le(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32_le(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t get_u64_le(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

void put_string(util::Bytes& out, std::string_view s) {
  util::varint_append(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

void put_bytes(util::Bytes& out, util::BytesView b) {
  util::varint_append(out, b.size());
  out.insert(out.end(), b.begin(), b.end());
}

/// Streaming payload reader: varints, fixed-width ints, length-prefixed
/// strings/blobs; every method fails sticky on truncated input.
class PayloadReader {
 public:
  explicit PayloadReader(util::BytesView data) : data_(data) {}

  bool read_varint(std::uint64_t* out) {
    if (failed_) return false;
    const auto decoded = util::varint_decode(data_.subspan(pos_));
    if (!decoded) return fail();
    *out = decoded->value;
    pos_ += decoded->consumed;
    return true;
  }

  bool read_u64(std::uint64_t* out) {
    if (failed_ || data_.size() - pos_ < 8) return fail();
    *out = get_u64_le(data_.data() + pos_);
    pos_ += 8;
    return true;
  }

  bool read_u8(std::uint8_t* out) {
    if (failed_ || data_.size() - pos_ < 1) return fail();
    *out = data_[pos_++];
    return true;
  }

  bool read_string(std::string* out, std::size_t max_len) {
    std::uint64_t len = 0;
    if (!read_varint(&len)) return false;
    if (len > max_len || data_.size() - pos_ < len) return fail();
    out->assign(reinterpret_cast<const char*>(data_.data() + pos_),
                static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return true;
  }

  bool read_bytes(util::Bytes* out) {
    std::uint64_t len = 0;
    if (!read_varint(&len)) return false;
    if (len > kMaxFramePayload || data_.size() - pos_ < len) return fail();
    out->assign(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                data_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
    pos_ += static_cast<std::size_t>(len);
    return true;
  }

  bool done() const { return !failed_ && pos_ == data_.size(); }

 private:
  bool fail() {
    failed_ = true;
    return false;
  }

  util::BytesView data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

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
  put_string(out, msg.vantage);
  return out;
}

util::Bytes encode(const HelloAckMsg& msg) {
  util::Bytes out;
  util::varint_append(out, msg.landed.size());
  for (const auto& segment : msg.landed) {
    put_string(out, segment.file);
    put_u64_le(out, segment.checksum);
  }
  return out;
}

util::Bytes encode(const SegmentMsg& msg) {
  util::Bytes out;
  out.reserve(msg.segment_bytes.size() + msg.rollup_bytes.size() + 128);
  put_string(out, msg.file);
  put_u64_le(out, msg.body_checksum);
  util::varint_append(out, msg.entry_count);
  put_u64_le(out, static_cast<std::uint64_t>(msg.min_time));
  put_u64_le(out, static_cast<std::uint64_t>(msg.max_time));
  put_u64_le(out, static_cast<std::uint64_t>(msg.sealed_wall_us));
  put_bytes(out, msg.segment_bytes);
  put_bytes(out, msg.rollup_bytes);
  return out;
}

util::Bytes encode(const SegmentAckMsg& msg) {
  util::Bytes out;
  put_string(out, msg.segment.file);
  put_u64_le(out, msg.segment.checksum);
  out.push_back(static_cast<std::uint8_t>(msg.status));
  return out;
}

std::optional<HelloMsg> decode_hello(util::BytesView payload) {
  PayloadReader reader(payload);
  HelloMsg msg;
  std::uint64_t id = 0;
  if (!reader.read_varint(&id) || id > UINT32_MAX) return std::nullopt;
  msg.monitor_id = static_cast<std::uint32_t>(id);
  if (!reader.read_string(&msg.vantage, 64) || !reader.done()) {
    return std::nullopt;
  }
  return msg;
}

std::optional<HelloAckMsg> decode_hello_ack(util::BytesView payload) {
  PayloadReader reader(payload);
  HelloAckMsg msg;
  std::uint64_t count = 0;
  if (!reader.read_varint(&count) || count > 10'000'000) return std::nullopt;
  msg.landed.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    SegmentIdentity segment;
    if (!reader.read_string(&segment.file, 256) ||
        !reader.read_u64(&segment.checksum)) {
      return std::nullopt;
    }
    msg.landed.push_back(std::move(segment));
  }
  if (!reader.done()) return std::nullopt;
  return msg;
}

std::optional<SegmentMsg> decode_segment(util::BytesView payload) {
  PayloadReader reader(payload);
  SegmentMsg msg;
  std::uint64_t min_t = 0;
  std::uint64_t max_t = 0;
  std::uint64_t sealed = 0;
  if (!reader.read_string(&msg.file, 256) ||
      !reader.read_u64(&msg.body_checksum) ||
      !reader.read_varint(&msg.entry_count) || !reader.read_u64(&min_t) ||
      !reader.read_u64(&max_t) || !reader.read_u64(&sealed) ||
      !reader.read_bytes(&msg.segment_bytes) ||
      !reader.read_bytes(&msg.rollup_bytes) || !reader.done()) {
    return std::nullopt;
  }
  msg.min_time = static_cast<util::SimTime>(min_t);
  msg.max_time = static_cast<util::SimTime>(max_t);
  msg.sealed_wall_us = static_cast<std::int64_t>(sealed);
  return msg;
}

std::optional<SegmentAckMsg> decode_segment_ack(util::BytesView payload) {
  PayloadReader reader(payload);
  SegmentAckMsg msg;
  std::uint8_t status = 0;
  if (!reader.read_string(&msg.segment.file, 256) ||
      !reader.read_u64(&msg.segment.checksum) || !reader.read_u8(&status) ||
      !reader.done() || status > 2) {
    return std::nullopt;
  }
  msg.status = static_cast<AckStatus>(status);
  return msg;
}

// --- Socket framing ---------------------------------------------------------

bool write_frame(int fd, FrameType type, util::BytesView payload,
                 std::string* error) {
  util::Bytes header;
  header.reserve(kHeaderBytes);
  put_u32_le(header, kFrameMagic);
  put_u16_le(header, kProtocolVersion);
  put_u16_le(header, static_cast<std::uint16_t>(type));
  put_u64_le(header, payload.size());
  put_u64_le(header, tracestore::fnv1a64(payload, 0));
  if (!query::send_all(fd, header.data(), header.size()) ||
      !query::send_all(fd, payload.data(), payload.size())) {
    set_error(error, std::string("frame write: ") + std::strerror(errno));
    return false;
  }
  return true;
}

std::optional<Frame> read_frame(int fd, std::string* error) {
  std::uint8_t header[kHeaderBytes];
  if (!query::recv_all(fd, header, sizeof(header))) {
    set_error(error, "connection closed");
    return std::nullopt;
  }
  if (get_u32_le(header) != kFrameMagic) {
    set_error(error, "bad frame magic");
    return std::nullopt;
  }
  if (get_u16_le(header + 4) != kProtocolVersion) {
    set_error(error, "unsupported protocol version");
    return std::nullopt;
  }
  const std::uint16_t type = get_u16_le(header + 6);
  if (type < 1 || type > 4) {
    set_error(error, "unknown frame type");
    return std::nullopt;
  }
  const std::uint64_t payload_len = get_u64_le(header + 8);
  const std::uint64_t checksum = get_u64_le(header + 16);
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
  if (tracestore::fnv1a64(frame.payload, 0) != checksum) {
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
