// Kademlia keyspace: 256-bit keys under the XOR metric. Node keys are the
// peer's digest; content keys are the CID's sha2-256 digest.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>

#include "cid/cid.hpp"
#include "crypto/keys.hpp"

namespace ipfsmon::dht {

using Key = std::array<std::uint8_t, 32>;

/// A node's position in the keyspace.
inline Key key_of(const crypto::PeerId& peer) { return peer.digest(); }

/// A content item's position in the keyspace.
Key key_of(const cid::Cid& cid);

/// XOR distance between two keys.
Key xor_distance(const Key& a, const Key& b);

namespace detail {
/// Bytes [8*word, 8*word + 8) of `k` as a big-endian integer, so integer
/// order is the keys' byte-wise (XOR-metric) order.
inline std::uint64_t key_word(const Key& k, std::size_t word) {
  std::uint64_t w = 0;
  std::memcpy(&w, k.data() + 8 * word, sizeof w);
  if constexpr (std::endian::native == std::endian::little) {
    w = __builtin_bswap64(w);
  }
  return w;
}
}  // namespace detail

/// True if distance(a, target) < distance(b, target). Inline and 8 bytes
/// at a time: routing-table sorts and lookup shortlists call it millions
/// of times per simulated minute.
inline bool closer(const Key& a, const Key& b, const Key& target) {
  for (std::size_t i = 0; i < 4; ++i) {
    const std::uint64_t t = detail::key_word(target, i);
    const std::uint64_t da = detail::key_word(a, i) ^ t;
    const std::uint64_t db = detail::key_word(b, i) ^ t;
    if (da != db) return da < db;
  }
  return false;
}

/// Number of leading zero bits of the XOR distance — i.e. the length of
/// the common prefix; determines the k-bucket index.
inline int common_prefix_length(const Key& a, const Key& b) {
  for (std::size_t i = 0; i < 4; ++i) {
    const std::uint64_t x = detail::key_word(a, i) ^ detail::key_word(b, i);
    if (x != 0) return static_cast<int>(i) * 64 + std::countl_zero(x);
  }
  return 256;
}

}  // namespace ipfsmon::dht
