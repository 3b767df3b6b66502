// The one binary codec. The trace store's and the federation's binary
// formats (segment bodies, footers and trailers, rollup sidecars, FMON
// frames and payloads, checksum folds) and CID/multihash decoding write
// through the little-endian and length-prefix helpers here, hash with
// fnv1a64, and read through ByteReader: every
// read is bounds-checked, every failure sticks, and an element count is
// refused before anything is reserved for it when the bytes left cannot
// hold that many elements. Segments and rollups share one checksummed
// trailer, sealed by seal() and checked by open_sealed():
//
//   [payload][trailer, 16 bytes LE: u32 payload_len | u64 FNV-1a 64 | u32 magic]
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/bytes.hpp"
#include "util/varint.hpp"

namespace ipfsmon::util {

/// FNV-1a 64 offset basis: the hash of no bytes with seed 0.
constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ull;

/// 64-bit FNV-1a over `data`, with the offset basis XORed with `seed`
/// (distinct seeds give independent hash streams over the same bytes).
std::uint64_t fnv1a64(BytesView data, std::uint64_t seed);
std::uint64_t fnv1a64(std::string_view text, std::uint64_t seed);

/// Writes `value` little-endian into out[0, sizeof(T)).
template <std::unsigned_integral T>
constexpr void store_le(std::uint8_t* out, T value) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

/// Appends `value` little-endian to `out`.
template <std::unsigned_integral T>
void put_le(Bytes& out, T value) {
  std::uint8_t bytes[sizeof(T)];
  store_le(bytes, value);
  out.insert(out.end(), bytes, bytes + sizeof(T));
}

/// Appends a varint length, then the bytes.
void put_blob(Bytes& out, BytesView data);
void put_string(Bytes& out, std::string_view text);

/// Bounds-checked cursor over untrusted bytes. The first failed read marks
/// the reader failed; from then on every read fails and returns zero or
/// empty, so a decoder may read a whole record and check ok() once.
class ByteReader {
 public:
  explicit ByteReader(BytesView data, std::size_t pos = 0)
      : data_(data), pos_(pos <= data.size() ? pos : data.size()) {}

  /// Unsigned varint of at most 9 bytes (the multiformats cap, as
  /// varint_decode); a truncated or longer one fails.
  std::uint64_t varint() {
    // One-byte varints dominate segment bodies; skip the general decoder.
    if (!failed_ && pos_ < data_.size() && data_[pos_] < 0x80) {
      return data_[pos_++];
    }
    return varint_slow();
  }

  std::uint8_t u8() { return fixed<std::uint8_t>(); }
  std::uint16_t u16() { return fixed<std::uint16_t>(); }
  std::uint32_t u32() { return fixed<std::uint32_t>(); }
  std::uint64_t u64() { return fixed<std::uint64_t>(); }

  /// The next `n` bytes, as a view into the input.
  BytesView bytes(std::uint64_t n);

  /// A varint element count, refused when the bytes left cannot hold that
  /// many elements of at least `min_item_bytes` each. Reserving for the
  /// returned count is therefore bounded by the input size.
  std::uint64_t count(std::size_t min_item_bytes);

  /// A varint length of at most `max_len`, then that many bytes.
  BytesView blob(std::uint64_t max_len);
  std::string string(std::uint64_t max_len);

  bool ok() const { return !failed_; }
  /// True when no read failed and every byte was consumed.
  bool done() const { return !failed_ && pos_ == data_.size(); }
  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return data_.size() - pos_; }

  /// Marks the reader failed (a decoder's semantic check); returns false.
  bool fail() {
    failed_ = true;
    return false;
  }

 private:
  std::uint64_t varint_slow();

  template <std::unsigned_integral T>
  T fixed() {
    if (failed_ || remaining() < sizeof(T)) {
      fail();
      return 0;
    }
    T value = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      value |= static_cast<T>(static_cast<T>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    return value;
  }

  BytesView data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

/// Size of the checksummed trailer that ends a segment or rollup file.
constexpr std::size_t kTrailerBytes = 16;

/// The trailer sealing `payload` under `magic`.
Bytes seal(BytesView payload, std::uint32_t magic);

/// The payload length declared by the trailer at the end of `data`, once
/// its magic matches; nullopt with `why` set otherwise. Lets a reader that
/// holds only a file's tail learn how much more of it to read.
std::optional<std::size_t> sealed_length(BytesView data, std::uint32_t magic,
                                         std::string* why);

/// Checks the trailer at the end of `data` (magic, declared length within
/// `data`, FNV-1a of the payload) and returns the payload it seals: the
/// declared number of bytes just before the trailer. Nullopt with `why`
/// set on any mismatch.
std::optional<BytesView> open_sealed(BytesView data, std::uint32_t magic,
                                     std::string* why);

}  // namespace ipfsmon::util
