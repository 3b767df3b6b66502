#include "tracestore/bloom.hpp"

#include <cmath>

namespace ipfsmon::tracestore {

BloomHash bloom_hash(util::BytesView key) {
  return BloomHash{fnv1a64(key, 0), fnv1a64(key, 0x9e3779b97f4a7c15ull)};
}

BloomHash bloom_hash(const crypto::PeerId& peer) {
  return bloom_hash(util::BytesView(peer.digest().data(), peer.digest().size()));
}

BloomHash bloom_hash(const cid::Cid& cid) {
  const util::Bytes encoded = cid.encode();
  return bloom_hash(encoded);
}

BloomFilter BloomFilter::with_capacity(std::size_t expected_keys,
                                       std::size_t bits_per_key) {
  BloomFilter filter;
  const std::size_t bits =
      std::max<std::size_t>(64, expected_keys * bits_per_key);
  filter.bit_count_ = bits;
  // Optimal k = ln2 · bits/key, clamped to a sane range.
  const double k = 0.69 * static_cast<double>(bits_per_key);
  filter.hash_count_ =
      static_cast<std::uint32_t>(std::min(30.0, std::max(1.0, k)));
  filter.bits_.assign((bits + 7) / 8, 0);
  return filter;
}

std::optional<BloomFilter> BloomFilter::from_parts(std::uint64_t bit_count,
                                                   std::uint32_t hash_count,
                                                   util::Bytes bits) {
  if (bits.size() != bit_count / 8 + (bit_count % 8 != 0)) return std::nullopt;
  if (bit_count != 0 && (hash_count == 0 || hash_count > 30)) {
    return std::nullopt;
  }
  BloomFilter filter;
  filter.bit_count_ = bit_count;
  filter.hash_count_ = hash_count;
  filter.bits_ = std::move(bits);
  return filter;
}

void BloomFilter::insert(const BloomHash& h) {
  if (bit_count_ == 0) return;
  std::uint64_t probe = h.h1;
  for (std::uint32_t i = 0; i < hash_count_; ++i) {
    const std::uint64_t bit = probe % bit_count_;
    bits_[bit / 8] |= static_cast<std::uint8_t>(1u << (bit % 8));
    probe += h.h2;
  }
}

bool BloomFilter::might_contain(const BloomHash& h) const {
  if (bit_count_ == 0) return false;
  std::uint64_t probe = h.h1;
  for (std::uint32_t i = 0; i < hash_count_; ++i) {
    const std::uint64_t bit = probe % bit_count_;
    if ((bits_[bit / 8] & (1u << (bit % 8))) == 0) return false;
    probe += h.h2;
  }
  return true;
}

}  // namespace ipfsmon::tracestore
