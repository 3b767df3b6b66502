#include "util/codec.hpp"

namespace ipfsmon::util {

namespace {

bool fail(std::string* why, const char* message) {
  if (why != nullptr) *why = message;
  return false;
}

}  // namespace

std::uint64_t fnv1a64(BytesView data, std::uint64_t seed) {
  std::uint64_t h = kFnv1aOffset ^ seed;
  for (const std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t fnv1a64(std::string_view text, std::uint64_t seed) {
  return fnv1a64(
      BytesView(reinterpret_cast<const std::uint8_t*>(text.data()),
                text.size()),
      seed);
}

void put_blob(Bytes& out, BytesView data) {
  varint_append(out, data.size());
  out.insert(out.end(), data.begin(), data.end());
}

void put_string(Bytes& out, std::string_view text) {
  varint_append(out, text.size());
  out.insert(out.end(), text.begin(), text.end());
}

std::uint64_t ByteReader::varint_slow() {
  if (failed_) return 0;
  const auto decoded = varint_decode(data_.subspan(pos_));
  if (!decoded) {
    fail();
    return 0;
  }
  pos_ += decoded->consumed;
  return decoded->value;
}

BytesView ByteReader::bytes(std::uint64_t n) {
  if (failed_ || n > remaining()) {
    fail();
    return {};
  }
  const BytesView out = data_.subspan(pos_, static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return out;
}

std::uint64_t ByteReader::count(std::size_t min_item_bytes) {
  const std::uint64_t n = varint();
  if (failed_ || (min_item_bytes != 0 && n > remaining() / min_item_bytes)) {
    fail();
    return 0;
  }
  return n;
}

BytesView ByteReader::blob(std::uint64_t max_len) {
  const std::uint64_t len = varint();
  if (len > max_len) {
    fail();
    return {};
  }
  return bytes(len);
}

std::string ByteReader::string(std::uint64_t max_len) {
  const BytesView raw = blob(max_len);
  return std::string(raw.begin(), raw.end());
}

Bytes seal(BytesView payload, std::uint32_t magic) {
  Bytes trailer;
  trailer.reserve(kTrailerBytes);
  put_le(trailer, static_cast<std::uint32_t>(payload.size()));
  put_le(trailer, fnv1a64(payload, 0));
  put_le(trailer, magic);
  return trailer;
}

std::optional<std::size_t> sealed_length(BytesView data, std::uint32_t magic,
                                         std::string* why) {
  if (data.size() < kTrailerBytes) {
    fail(why, "truncated (no trailer)");
    return std::nullopt;
  }
  ByteReader trailer(data, data.size() - kTrailerBytes);
  const std::uint32_t length = trailer.u32();
  trailer.u64();
  if (trailer.u32() != magic) {
    fail(why, "bad trailer magic (truncated file?)");
    return std::nullopt;
  }
  return length;
}

std::optional<BytesView> open_sealed(BytesView data, std::uint32_t magic,
                                     std::string* why) {
  const auto length = sealed_length(data, magic, why);
  if (!length) return std::nullopt;
  if (*length > data.size() - kTrailerBytes) {
    fail(why, "sealed length exceeds the bytes before the trailer");
    return std::nullopt;
  }
  const std::size_t trailer_at = data.size() - kTrailerBytes;
  const BytesView payload = data.subspan(trailer_at - *length, *length);
  if (fnv1a64(payload, 0) != ByteReader(data, trailer_at + 4).u64()) {
    fail(why, "checksum mismatch");
    return std::nullopt;
  }
  return payload;
}

}  // namespace ipfsmon::util
