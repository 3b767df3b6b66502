#include "cid/multihash.hpp"

#include "util/codec.hpp"

namespace ipfsmon::cid {

Multihash Multihash::sha256_of(util::BytesView data) {
  return wrap_sha256(crypto::sha256(data));
}

Multihash Multihash::wrap_sha256(const crypto::Sha256Digest& digest) {
  return Multihash(HashCode::Sha2_256,
                   util::Bytes(digest.begin(), digest.end()));
}

util::Bytes Multihash::encode() const {
  util::Bytes out;
  util::varint_append(out, static_cast<std::uint64_t>(code_));
  util::varint_append(out, digest_.size());
  out.insert(out.end(), digest_.begin(), digest_.end());
  return out;
}

std::optional<std::pair<Multihash, std::size_t>> Multihash::decode(
    util::BytesView data) {
  util::ByteReader reader(data);
  const std::uint64_t code = reader.varint();
  const util::BytesView digest = reader.blob(UINT64_MAX);
  if (!reader.ok() || (code != static_cast<std::uint64_t>(HashCode::Identity) &&
                       code != static_cast<std::uint64_t>(HashCode::Sha2_256))) {
    return std::nullopt;
  }
  return std::make_pair(
      Multihash(static_cast<HashCode>(code),
                util::Bytes(digest.begin(), digest.end())),
      reader.pos());
}

bool Multihash::verifies(util::BytesView data) const {
  switch (code_) {
    case HashCode::Identity:
      return digest_ == util::Bytes(data.begin(), data.end());
    case HashCode::Sha2_256: {
      const auto d = crypto::sha256(data);
      return digest_.size() == d.size() &&
             std::equal(digest_.begin(), digest_.end(), d.begin());
    }
  }
  return false;
}

}  // namespace ipfsmon::cid
