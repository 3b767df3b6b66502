#include "cid/cid.hpp"

#include "util/base32.hpp"
#include "util/base58.hpp"
#include "util/codec.hpp"

namespace ipfsmon::cid {

Cid::Cid(std::uint32_t version, Multicodec codec, Multihash hash)
    : version_(version), codec_(codec), hash_(std::move(hash)) {}

Cid Cid::of_data(Multicodec codec, util::BytesView data) {
  return Cid(1, codec, Multihash::sha256_of(data));
}

Cid Cid::v0_of_data(util::BytesView data) {
  return Cid(0, Multicodec::DagProtobuf, Multihash::sha256_of(data));
}

std::optional<Cid> Cid::from_string(std::string_view text) {
  if (text.size() >= 2 && text.substr(0, 2) == "Qm") {
    const auto bytes = util::base58_decode(text);
    if (!bytes) return std::nullopt;
    const auto mh = Multihash::decode(*bytes);
    if (!mh || mh->second != bytes->size()) return std::nullopt;
    return Cid(0, Multicodec::DagProtobuf, mh->first);
  }
  if (!text.empty() && text[0] == 'b') {
    const auto bytes = util::base32_decode(text.substr(1));
    if (!bytes) return std::nullopt;
    return decode(*bytes);
  }
  return std::nullopt;
}

std::optional<Cid> Cid::decode(util::BytesView data) {
  // CIDv0 binary form is a bare sha2-256 multihash (starts 0x12 0x20).
  if (data.size() == 34 && data[0] == 0x12 && data[1] == 0x20) {
    const auto mh = Multihash::decode(data);
    if (!mh) return std::nullopt;
    return Cid(0, Multicodec::DagProtobuf, mh->first);
  }
  util::ByteReader reader(data);
  const std::uint64_t version = reader.varint();
  const auto codec = multicodec_from_code(reader.varint());
  if (!reader.ok() || version != 1 || !codec) return std::nullopt;
  const util::BytesView rest = data.subspan(reader.pos());
  const auto mh = Multihash::decode(rest);
  if (!mh || mh->second != rest.size()) return std::nullopt;
  return Cid(1, *codec, mh->first);
}

util::Bytes Cid::encode() const {
  if (version_ == 0) return hash_.encode();
  util::Bytes out;
  util::varint_append(out, 1);
  util::varint_append(out, static_cast<std::uint64_t>(codec_));
  const auto mh = hash_.encode();
  out.insert(out.end(), mh.begin(), mh.end());
  return out;
}

std::string Cid::to_string() const {
  if (version_ == 0) return util::base58_encode(hash_.encode());
  // Multibase prefix 'b' (base32, lower case) in front of the encoding.
  std::string out = util::base32_encode(encode());
  out.insert(out.begin(), 'b');
  return out;
}

std::string Cid::short_hex() const {
  const auto& d = hash_.digest();
  const std::size_t n = d.size() < 6 ? d.size() : 6;
  return util::to_hex(util::BytesView(d.data(), n));
}

bool Cid::operator<(const Cid& other) const {
  if (codec_ != other.codec_) return codec_ < other.codec_;
  return util::lex_less(hash_.digest(), other.hash_.digest());
}

}  // namespace ipfsmon::cid
