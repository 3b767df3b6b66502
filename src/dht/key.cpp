#include "dht/key.hpp"

#include <algorithm>

namespace ipfsmon::dht {

Key key_of(const cid::Cid& cid) {
  const auto& digest = cid.hash().digest();
  if (digest.size() == 32) {
    Key key{};
    std::copy(digest.begin(), digest.end(), key.begin());
    return key;
  }
  // Non-32-byte digests (identity hashes) are re-hashed into the keyspace.
  return crypto::sha256(digest);
}

Key xor_distance(const Key& a, const Key& b) {
  Key out{};
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = a[i] ^ b[i];
  return out;
}

}  // namespace ipfsmon::dht
