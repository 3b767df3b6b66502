// Unsigned varint (multiformats/unsigned-varint) encoding as used by
// multihash and CID binary representations.
#pragma once

#include <cstdint>
#include <optional>

#include "util/bytes.hpp"

namespace ipfsmon::util {

/// Appends the unsigned-varint encoding of `value` to `out`.
void varint_append(Bytes& out, std::uint64_t value);

/// Encodes `value` as a fresh buffer.
Bytes varint_encode(std::uint64_t value);

/// Result of a varint decode: the value and the number of bytes consumed.
struct VarintDecode {
  std::uint64_t value = 0;
  std::size_t consumed = 0;
};

/// Decodes a varint from the front of `data`. Returns nullopt on truncated
/// or over-long (more than 9 bytes, per the multiformats spec) input.
std::optional<VarintDecode> varint_decode(BytesView data);

/// Zig-zag maps signed values onto unsigned ones so small magnitudes of
/// either sign stay short as varints (0, -1, 1, -2, ... -> 0, 1, 2, 3, ...).
constexpr std::uint64_t zigzag_encode(std::int64_t value) {
  return (static_cast<std::uint64_t>(value) << 1) ^
         static_cast<std::uint64_t>(value >> 63);
}

constexpr std::int64_t zigzag_decode(std::uint64_t value) {
  return static_cast<std::int64_t>(value >> 1) ^
         -static_cast<std::int64_t>(value & 1);
}

}  // namespace ipfsmon::util
