#include "tracestore/segment.hpp"

#include <unordered_map>

#include "util/codec.hpp"

namespace ipfsmon::tracestore {

namespace {

constexpr std::uint32_t kTrailerMagic = 0x54535347;  // "TSSG"
constexpr std::uint32_t kCompactMagic = 0x49504d32;  // "IPM2", body magic
// Smallest encodings of one dictionary item: a peer digest, an address
// (two one-byte varints), a CID (a one-byte length, no bytes).
constexpr std::size_t kPeerBytes = 32;
constexpr std::size_t kMinAddrBytes = 2;
constexpr std::size_t kMinCidBytes = 1;

void append_bloom(util::Bytes& out, const BloomFilter& bloom) {
  util::varint_append(out, bloom.bit_count());
  util::varint_append(out, bloom.hash_count());
  out.insert(out.end(), bloom.bytes().begin(), bloom.bytes().end());
}

util::Bytes encode_footer(const SegmentFooter& footer) {
  util::Bytes out;
  util::varint_append(out, footer.entry_count);
  util::varint_append(out, util::zigzag_encode(footer.min_time));
  util::varint_append(out, util::zigzag_encode(footer.max_time));
  util::varint_append(out, footer.body_bytes);
  util::put_le(out, footer.body_checksum);
  append_bloom(out, footer.peer_bloom);
  append_bloom(out, footer.cid_bloom);
  return out;
}

std::optional<BloomFilter> parse_bloom(util::ByteReader& r) {
  const std::uint64_t bit_count = r.varint();
  const std::uint64_t hash_count = r.varint();
  const util::BytesView raw = r.bytes(bit_count / 8 + (bit_count % 8 != 0));
  if (!r.ok() || hash_count > 30) return std::nullopt;
  return BloomFilter::from_parts(bit_count,
                                 static_cast<std::uint32_t>(hash_count),
                                 util::Bytes(raw.begin(), raw.end()));
}

std::optional<SegmentFooter> decode_footer(util::BytesView bytes) {
  util::ByteReader r(bytes);
  SegmentFooter footer;
  footer.entry_count = r.varint();
  footer.min_time = util::zigzag_decode(r.varint());
  footer.max_time = util::zigzag_decode(r.varint());
  footer.body_bytes = r.varint();
  footer.body_checksum = r.u64();
  auto peer_bloom = parse_bloom(r);
  auto cid_bloom = parse_bloom(r);
  if (!peer_bloom || !cid_bloom) return std::nullopt;
  footer.peer_bloom = std::move(*peer_bloom);
  footer.cid_bloom = std::move(*cid_bloom);
  return footer;
}

bool fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

/// Checks the trailer at the end of `tail` (the last bytes of a
/// `file_size`-byte segment, or all of it) and decodes the footer it seals.
std::optional<SegmentFooter> footer_from_tail(const std::string& path,
                                              util::BytesView tail,
                                              std::uint64_t file_size,
                                              std::string* error) {
  std::string why;
  const auto sealed = util::open_sealed(tail, kTrailerMagic, &why);
  if (!sealed) {
    fail(error, path + ": footer " + why);
    return std::nullopt;
  }
  auto footer = decode_footer(*sealed);
  if (!footer) {
    fail(error, path + ": malformed footer");
    return std::nullopt;
  }
  if (footer->body_bytes != file_size - util::kTrailerBytes - sealed->size()) {
    fail(error, path + ": body length mismatch");
    return std::nullopt;
  }
  return footer;
}

}  // namespace

// --- ValidationCache --------------------------------------------------------

bool ValidationCache::contains(const std::string& path,
                               const util::FileSignature& signature) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = verified_.find(path);
  if (it == verified_.end() || it->second != signature) return false;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ValidationCache::remember(const std::string& path,
                               const util::FileSignature& signature) {
  std::lock_guard<std::mutex> lock(mu_);
  verified_[path] = signature;
}

std::size_t ValidationCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return verified_.size();
}

// --- Writing ----------------------------------------------------------------

namespace {

/// Distinct keys of one body, in first-appearance order, as the Bloom
/// hashes the footer filters take.
struct BodyKeys {
  std::vector<BloomHash> peers;
  std::vector<BloomHash> cids;
};

/// Hashes and compares CIDs through pointers into the trace being encoded,
/// so interning a CID never copies its heap digest.
struct CidRefHash {
  std::size_t operator()(const cid::Cid* c) const noexcept {
    return std::hash<cid::Cid>{}(*c);
  }
};
struct CidRefEqual {
  bool operator()(const cid::Cid* a, const cid::Cid* b) const noexcept {
    return *a == *b;
  }
};

/// Appends the IPM2 body of `entries` to `out`: peers, addresses and CIDs
/// are interned in order of first appearance into front-loaded
/// dictionaries, and each entry references them by index, with zig-zag
/// delta-coded timestamps. Long traces repeat the same few thousand
/// peers/CIDs constantly, so the dictionaries carry most of the savings.
BodyKeys encode_body(const trace::Trace& entries, util::Bytes& out) {
  // One interning pass keeps each entry's dictionary ids for the record
  // pass. A segment holds far fewer than 2^32 entries, so 32-bit ids fit.
  struct Refs {
    std::uint32_t peer;
    std::uint32_t addr;
    std::uint32_t cid;
  };
  std::vector<Refs> refs;
  refs.reserve(entries.size());
  std::vector<const crypto::PeerId*> peers;
  std::vector<const cid::Cid*> cids;
  std::unordered_map<crypto::PeerId, std::uint32_t> peer_index;
  std::unordered_map<net::Address, std::uint32_t> addr_index;
  std::vector<net::Address> addrs;
  std::unordered_map<const cid::Cid*, std::uint32_t, CidRefHash, CidRefEqual>
      cid_index;
  for (const auto& e : entries.entries()) {
    const auto [peer_it, new_peer] = peer_index.try_emplace(
        e.peer, static_cast<std::uint32_t>(peers.size()));
    if (new_peer) peers.push_back(&e.peer);
    const auto [addr_it, new_addr] = addr_index.try_emplace(
        e.address, static_cast<std::uint32_t>(addrs.size()));
    if (new_addr) addrs.push_back(e.address);
    const auto [cid_it, new_cid] = cid_index.try_emplace(
        &e.cid, static_cast<std::uint32_t>(cids.size()));
    if (new_cid) cids.push_back(&e.cid);
    refs.push_back(Refs{peer_it->second, addr_it->second, cid_it->second});
  }

  util::varint_append(out, kCompactMagic);
  util::varint_append(out, entries.size());
  BodyKeys keys;
  util::varint_append(out, peers.size());
  for (const auto* peer : peers) {
    out.insert(out.end(), peer->digest().begin(), peer->digest().end());
    keys.peers.push_back(bloom_hash(*peer));
  }
  util::varint_append(out, addrs.size());
  for (const auto& addr : addrs) {
    util::varint_append(out, addr.ip);
    util::varint_append(out, addr.port);
  }
  util::varint_append(out, cids.size());
  for (const auto* c : cids) {
    const util::Bytes encoded = c->encode();
    util::varint_append(out, encoded.size());
    out.insert(out.end(), encoded.begin(), encoded.end());
    keys.cids.push_back(bloom_hash(encoded));  // = bloom_hash(*c)
  }

  // Deltas wrap in unsigned arithmetic (the decoder wraps back), so any
  // pair of timestamps round-trips without signed overflow.
  std::uint64_t previous = 0;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    const trace::TraceEntry& e = entries.entries()[i];
    const auto timestamp = static_cast<std::uint64_t>(e.timestamp);
    const auto delta = static_cast<std::int64_t>(timestamp - previous);
    util::varint_append(out, util::zigzag_encode(delta));
    previous = timestamp;
    util::varint_append(out, refs[i].peer);
    util::varint_append(out, refs[i].addr);
    util::varint_append(out, refs[i].cid);
    // type (2 bits) | monitor (shifted) fit one varint; flags another.
    util::varint_append(out, static_cast<std::uint64_t>(e.type) |
                                 (static_cast<std::uint64_t>(e.monitor) << 2));
    util::varint_append(out, e.flags);
  }
  return keys;
}

}  // namespace

bool write_segment_file(const std::string& path, const trace::Trace& entries,
                        SegmentFooter* out_footer, std::string* error,
                        SegmentKeyCounts* out_keys) {
  util::Bytes body;
  const BodyKeys keys = encode_body(entries, body);

  SegmentFooter footer;
  footer.entry_count = entries.size();
  footer.body_bytes = body.size();
  footer.body_checksum = util::fnv1a64(body, 0);
  bool first = true;
  for (const auto& e : entries.entries()) {
    if (first || e.timestamp < footer.min_time) footer.min_time = e.timestamp;
    if (first || e.timestamp > footer.max_time) footer.max_time = e.timestamp;
    first = false;
  }
  footer.peer_bloom = BloomFilter::with_capacity(keys.peers.size());
  for (const auto& h : keys.peers) footer.peer_bloom.insert(h);
  footer.cid_bloom = BloomFilter::with_capacity(keys.cids.size());
  for (const auto& h : keys.cids) footer.cid_bloom.insert(h);

  const util::Bytes footer_bytes = encode_footer(footer);
  const util::Bytes trailer = util::seal(footer_bytes, kTrailerMagic);
  if (!util::publish(path, {body, footer_bytes, trailer}, error)) {
    return false;
  }
  if (out_footer != nullptr) *out_footer = footer;
  if (out_keys != nullptr) *out_keys = {keys.peers.size(), keys.cids.size()};
  return true;
}

// --- Footer-only read -------------------------------------------------------

std::optional<SegmentFooter> read_segment_footer(const std::string& path,
                                                 std::string* error) {
  // Called for every segment on store open and scan prune, so it must not
  // touch the body: two small tail reads, the trailer (which names the
  // footer's length), then footer and trailer together.
  util::Bytes tail;
  std::uint64_t file_size = 0;
  if (!util::read_file_tail(path, util::kTrailerBytes, &tail, &file_size,
                            error)) {
    return std::nullopt;
  }
  std::string why;
  const auto footer_len = util::sealed_length(tail, kTrailerMagic, &why);
  if (!footer_len) {
    fail(error, path + ": footer " + why);
    return std::nullopt;
  }
  if (!util::read_file_tail(path, *footer_len + util::kTrailerBytes, &tail,
                            &file_size, error)) {
    return std::nullopt;
  }
  return footer_from_tail(path, tail, file_size, error);
}

// --- SegmentReader ----------------------------------------------------------

std::optional<SegmentReader> SegmentReader::open(const std::string& path,
                                                 std::string* error,
                                                 ValidationCache* validated) {
  SegmentReader reader;
  util::FileSignature signature;
  if (!util::read_file(path, &reader.bytes_, error, &signature)) {
    return std::nullopt;
  }
  auto footer =
      footer_from_tail(path, reader.bytes_, reader.bytes_.size(), error);
  if (!footer) return std::nullopt;
  reader.footer_ = std::move(*footer);
  // A ValidationCache hit on (path, mtime, size) means this exact file
  // already passed the body checksum, so sealed segments are hashed once,
  // not per query.
  if (validated == nullptr || !validated->contains(path, signature)) {
    if (util::fnv1a64(reader.body(), 0) != reader.footer_.body_checksum) {
      fail(error, path + ": body checksum mismatch");
      return std::nullopt;
    }
    if (validated != nullptr) validated->remember(path, signature);
  }
  if (!reader.parse_dictionaries(path, error)) return std::nullopt;
  return reader;
}

bool SegmentReader::parse_dictionaries(const std::string& path,
                                       std::string* error) {
  util::ByteReader r(body());
  if (r.varint() != kCompactMagic || !r.ok()) {
    return fail(error, path + ": bad body magic");
  }
  if (r.varint() != footer_.entry_count || !r.ok()) {
    return fail(error, path + ": entry count disagrees with footer");
  }
  const std::uint64_t peer_count = r.count(kPeerBytes);
  peers_.reserve(peer_count);
  for (std::uint64_t i = 0; i < peer_count; ++i) {
    const util::BytesView raw = r.bytes(kPeerBytes);
    crypto::PeerId::Digest digest;
    std::copy(raw.begin(), raw.end(), digest.begin());
    peers_.emplace_back(digest);
  }
  if (!r.ok()) return fail(error, path + ": malformed peer dictionary");
  const std::uint64_t addr_count = r.count(kMinAddrBytes);
  addrs_.reserve(addr_count);
  for (std::uint64_t i = 0; i < addr_count && r.ok(); ++i) {
    const std::uint64_t ip = r.varint();
    const std::uint64_t port = r.varint();
    if (ip > UINT32_MAX || port > 65535) r.fail();
    addrs_.push_back(net::Address{static_cast<std::uint32_t>(ip),
                                  static_cast<std::uint16_t>(port)});
  }
  if (!r.ok()) return fail(error, path + ": malformed address dictionary");
  // CIDs are variable-length heap values and a raw scan may never touch
  // them, so only their byte ranges are indexed here; cid_key() decodes
  // on first use. The bytes are covered by the body checksum, so a
  // structurally valid span is all open-time validation requires.
  const std::uint64_t cid_count = r.count(kMinCidBytes);
  cid_spans_.reserve(cid_count);
  for (std::uint64_t i = 0; i < cid_count && r.ok(); ++i) {
    const std::uint64_t len = r.varint();
    const std::uint64_t at = r.pos();
    r.bytes(len);
    cid_spans_.push_back(KeySpan{at, static_cast<std::uint32_t>(len)});
  }
  if (!r.ok()) return fail(error, path + ": malformed CID dictionary");
  cids_.assign(cid_spans_.size(), cid::Cid());
  cid_done_.assign(cid_spans_.size(), 0);
  pos_ = r.pos();
  remaining_ = footer_.entry_count;
  return true;
}

bool SegmentReader::next_raw(RawRecord& out) {
  if (remaining_ == 0) return false;
  util::ByteReader r(body(), pos_);
  const std::uint64_t delta = r.varint();
  const std::uint64_t peer = r.varint();
  const std::uint64_t addr = r.varint();
  const std::uint64_t cid_ref = r.varint();
  const std::uint64_t type_monitor = r.varint();
  const std::uint64_t flags = r.varint();
  if (!r.ok() || peer >= peers_.size() || addr >= addrs_.size() ||
      cid_ref >= cid_spans_.size() || (type_monitor & 0x3) > 2) {
    remaining_ = 0;
    return false;
  }
  out.timestamp = static_cast<util::SimTime>(
      static_cast<std::uint64_t>(prev_time_) +
      static_cast<std::uint64_t>(util::zigzag_decode(delta)));
  prev_time_ = out.timestamp;
  out.peer = static_cast<std::uint32_t>(peer);
  out.addr = static_cast<std::uint32_t>(addr);
  out.cid = static_cast<std::uint32_t>(cid_ref);
  out.type = static_cast<bitswap::WantType>(type_monitor & 0x3);
  out.monitor = static_cast<trace::MonitorId>(type_monitor >> 2);
  out.flags = static_cast<std::uint32_t>(flags);
  pos_ = r.pos();
  --remaining_;
  return true;
}

const cid::Cid& SegmentReader::cid_key(std::uint32_t id) const {
  if (cid_done_[id] == 0) {
    const KeySpan span = cid_spans_[id];
    auto parsed = cid::Cid::decode(body().subspan(span.offset, span.length));
    // The span passed the body checksum, so a decode failure would take a
    // bug in our own writer; the id then maps to an empty CID rather than
    // poisoning the stream.
    if (parsed) cids_[id] = std::move(*parsed);
    cid_done_[id] = 1;
  }
  return cids_[id];
}

void SegmentReader::materialize(const RawRecord& raw,
                                trace::TraceEntry& out) const {
  out.timestamp = raw.timestamp;
  out.peer = peers_[raw.peer];
  out.address = addrs_[raw.addr];
  out.cid = cid_key(raw.cid);
  out.type = raw.type;
  out.monitor = raw.monitor;
  out.flags = raw.flags;
}

bool SegmentReader::next(trace::TraceEntry& out) {
  RawRecord raw;
  if (!next_raw(raw)) return false;
  materialize(raw, out);
  return true;
}

}  // namespace ipfsmon::tracestore
