// Hand-built hostile segment and rollup files for decoder tests. They are
// encoded here byte by byte, apart from the library's codec, so the tests
// check the decoders against an independent rendering of the formats:
// every checksum is valid, so the bytes reach the body and payload
// decoders, and only an element count is out of proportion.
#pragma once

#include <cstdint>
#include <initializer_list>

#include "tracestore/bloom.hpp"
#include "util/bytes.hpp"
#include "util/varint.hpp"

namespace ipfsmon::testing_helpers {

inline void append_le(util::Bytes& out, std::uint64_t value, int width) {
  for (int i = 0; i < width; ++i) {
    out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  }
}

/// `payload` followed by the 16-byte trailer that seals `sealed_len` bytes
/// ending at the payload's end: [u32 len | u64 FNV-1a | u32 magic].
inline util::Bytes with_trailer(util::Bytes payload, std::size_t sealed_len,
                                std::uint32_t magic) {
  const util::BytesView sealed(payload.data() + payload.size() - sealed_len,
                               sealed_len);
  const std::uint64_t checksum = tracestore::fnv1a64(sealed, 0);
  append_le(payload, sealed_len, 4);
  append_le(payload, checksum, 8);
  append_le(payload, magic, 4);
  return payload;
}

/// A segment with no entries whose body (after the IPM2 magic and the
/// entry count 0) is the varints `dictionary`, e.g. {2^40} for a peer
/// dictionary of 2^40 digests: 44 bytes. Footer and body checksums hold.
inline util::Bytes hostile_segment(std::initializer_list<std::uint64_t> dictionary) {
  util::Bytes body;
  util::varint_append(body, 0x49504d32);  // "IPM2"
  util::varint_append(body, 0);           // entries
  for (const std::uint64_t v : dictionary) util::varint_append(body, v);
  util::Bytes file = body;
  const std::size_t footer_at = file.size();
  for (const std::uint64_t v : {0, 0, 0}) util::varint_append(file, v);
  util::varint_append(file, body.size());
  append_le(file, tracestore::fnv1a64(body, 0), 8);
  for (int bloom = 0; bloom < 2; ++bloom) {
    util::varint_append(file, 0);  // bit count
    util::varint_append(file, 0);  // hash count
  }
  return with_trailer(file, file.size() - footer_at, 0x54535347);  // "TSSG"
}

/// A rollup with no entries, one-nanosecond buckets and a bucket count of
/// `buckets`: 29 bytes for 2^40. The trailer checksum holds.
inline util::Bytes hostile_rollup(std::uint64_t buckets) {
  util::Bytes payload;
  // version, width, entries, min, max, distinct peers, distinct CIDs
  for (const std::uint64_t v : {1, 1, 0, 0, 0, 0, 0}) {
    util::varint_append(payload, v);
  }
  util::varint_append(payload, buckets);
  return with_trailer(payload, payload.size(), 0x54535255);  // "TSRU"
}

}  // namespace ipfsmon::testing_helpers
