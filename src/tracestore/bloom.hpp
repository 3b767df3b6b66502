// Bloom filters for segment footers: each segment records an approximate
// peer set and CID set so scans can skip segments that cannot possibly
// contain a queried key. Classic double hashing (Kirsch–Mitzenmacher):
// k probe positions derived from two 64-bit FNV-1a hashes (util/codec),
// so membership tests never rehash the key material.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "cid/cid.hpp"
#include "crypto/keys.hpp"
#include "util/bytes.hpp"
#include "util/codec.hpp"

namespace ipfsmon::tracestore {

using util::fnv1a64;

/// The (h1, h2) pair double hashing derives its k probes from.
struct BloomHash {
  std::uint64_t h1 = 0;
  std::uint64_t h2 = 0;
};

BloomHash bloom_hash(util::BytesView key);
BloomHash bloom_hash(const crypto::PeerId& peer);
BloomHash bloom_hash(const cid::Cid& cid);

class BloomFilter {
 public:
  /// Empty filter: contains nothing, might_contain() is always false.
  BloomFilter() = default;

  /// Sizes the filter for `expected_keys` at `bits_per_key` (default 10
  /// bits/key ≈ 1% false-positive rate with the derived k ≈ 7 probes).
  static BloomFilter with_capacity(std::size_t expected_keys,
                                   std::size_t bits_per_key = 10);

  /// Reconstructs a filter from serialized parts; nullopt when the byte
  /// count does not match `bit_count` or `hash_count` is implausible.
  static std::optional<BloomFilter> from_parts(std::uint64_t bit_count,
                                               std::uint32_t hash_count,
                                               util::Bytes bits);

  void insert(const BloomHash& h);
  bool might_contain(const BloomHash& h) const;

  std::uint64_t bit_count() const { return bit_count_; }
  std::uint32_t hash_count() const { return hash_count_; }
  const util::Bytes& bytes() const { return bits_; }
  bool empty() const { return bit_count_ == 0; }

 private:
  std::uint64_t bit_count_ = 0;
  std::uint32_t hash_count_ = 0;
  util::Bytes bits_;
};

}  // namespace ipfsmon::tracestore
