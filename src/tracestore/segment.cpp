#include "tracestore/segment.hpp"

#include <cstdio>
#include <fstream>
#include <unordered_map>

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include "util/file.hpp"
#include "util/varint.hpp"

namespace ipfsmon::tracestore {

namespace {

constexpr std::uint32_t kTrailerMagic = 0x54535347;  // "TSSG"
constexpr std::size_t kTrailerBytes = 16;
constexpr std::uint32_t kCompactMagic = 0x49504d32;  // "IPM2", body magic

void put_u32_le(util::Bytes& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64_le(util::Bytes& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint32_t get_u32_le(util::BytesView v) {
  std::uint32_t out = 0;
  for (int i = 3; i >= 0; --i) out = (out << 8) | v[static_cast<size_t>(i)];
  return out;
}

std::uint64_t get_u64_le(util::BytesView v) {
  std::uint64_t out = 0;
  for (int i = 7; i >= 0; --i) out = (out << 8) | v[static_cast<size_t>(i)];
  return out;
}

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
  put_u64_le(out, footer.body_checksum);
  append_bloom(out, footer.peer_bloom);
  append_bloom(out, footer.cid_bloom);
  return out;
}

/// Cursor over a byte view for varint-heavy parsing.
struct Parser {
  util::BytesView view;
  std::size_t pos = 0;

  std::optional<std::uint64_t> varint() {
    const auto v = util::varint_decode(view.subspan(pos));
    if (!v) return std::nullopt;
    pos += v->consumed;
    return v->value;
  }

  std::optional<util::BytesView> take(std::size_t n) {
    if (pos + n > view.size()) return std::nullopt;
    const auto out = view.subspan(pos, n);
    pos += n;
    return out;
  }
};

std::optional<BloomFilter> parse_bloom(Parser& p) {
  const auto bit_count = p.varint();
  const auto hash_count = p.varint();
  if (!bit_count || !hash_count || *hash_count > 30) return std::nullopt;
  const auto raw = p.take((*bit_count + 7) / 8);
  if (!raw) return std::nullopt;
  return BloomFilter::from_parts(*bit_count,
                                 static_cast<std::uint32_t>(*hash_count),
                                 util::Bytes(raw->begin(), raw->end()));
}

std::optional<SegmentFooter> decode_footer(util::BytesView bytes) {
  Parser p{bytes};
  SegmentFooter footer;
  const auto count = p.varint();
  const auto min_time = p.varint();
  const auto max_time = p.varint();
  const auto body_bytes = p.varint();
  if (!count || !min_time || !max_time || !body_bytes) return std::nullopt;
  const auto checksum = p.take(8);
  if (!checksum) return std::nullopt;
  footer.entry_count = *count;
  footer.min_time = util::zigzag_decode(*min_time);
  footer.max_time = util::zigzag_decode(*max_time);
  footer.body_bytes = *body_bytes;
  footer.body_checksum = get_u64_le(*checksum);
  auto peer_bloom = parse_bloom(p);
  auto cid_bloom = parse_bloom(p);
  if (!peer_bloom || !cid_bloom) return std::nullopt;
  footer.peer_bloom = std::move(*peer_bloom);
  footer.cid_bloom = std::move(*cid_bloom);
  return footer;
}

bool fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

/// Validates trailer + footer over a whole-file view and decodes the
/// footer. Shared by the mapped reader and any in-memory validation.
bool parse_trailer_and_footer(const std::string& path, util::BytesView view,
                              SegmentFooter* out_footer, std::string* error) {
  if (view.size() < kTrailerBytes) {
    return fail(error, path + ": truncated (no trailer)");
  }
  const util::BytesView trailer = view.subspan(view.size() - kTrailerBytes);
  if (get_u32_le(trailer.subspan(12)) != kTrailerMagic) {
    return fail(error, path + ": bad trailer magic (truncated segment?)");
  }
  const std::uint32_t footer_len = get_u32_le(trailer.subspan(0, 4));
  if (footer_len + kTrailerBytes > view.size()) {
    return fail(error, path + ": footer length exceeds file size");
  }
  const util::BytesView footer_bytes =
      view.subspan(view.size() - kTrailerBytes - footer_len, footer_len);
  if (fnv1a64(footer_bytes, 0) != get_u64_le(trailer.subspan(4, 8))) {
    return fail(error, path + ": footer checksum mismatch");
  }
  auto footer = decode_footer(footer_bytes);
  if (!footer) return fail(error, path + ": malformed footer");
  if (footer->body_bytes + footer_len + kTrailerBytes != view.size()) {
    return fail(error, path + ": body length mismatch");
  }
  *out_footer = std::move(*footer);
  return true;
}

}  // namespace

std::string_view to_string(IoBackend backend) {
  switch (backend) {
    case IoBackend::kAuto: return "auto";
    case IoBackend::kMmap: return "mmap";
    case IoBackend::kBuffered: return "buffered";
  }
  return "unknown";
}

// --- SegmentMapping ---------------------------------------------------------

SegmentMapping& SegmentMapping::operator=(SegmentMapping&& other) noexcept {
  if (this == &other) return *this;
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
  }
  data_ = other.data_;
  size_ = other.size_;
  mapped_ = other.mapped_;
  mtime_ns_ = other.mtime_ns_;
  owned_ = std::move(other.owned_);
  if (!mapped_ && size_ != 0) data_ = owned_.data();
  other.data_ = nullptr;
  other.size_ = 0;
  other.mapped_ = false;
  return *this;
}

SegmentMapping::~SegmentMapping() {
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
  }
}

std::optional<SegmentMapping> SegmentMapping::open(const std::string& path,
                                                   IoBackend backend,
                                                   std::string* error) {
  SegmentMapping mapping;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    fail(error, path + ": cannot open");
    return std::nullopt;
  }
  const auto signature = util::file_signature(fd);
  if (!signature) {
    ::close(fd);
    fail(error, path + ": cannot stat");
    return std::nullopt;
  }
  mapping.size_ = static_cast<std::size_t>(signature->size);
  mapping.mtime_ns_ = signature->mtime_ns;
  if (mapping.size_ == 0) {
    // Empty files cannot be mapped; an empty view fails validation later
    // with a proper "truncated" error either way.
    ::close(fd);
    return mapping;
  }
  if (backend != IoBackend::kBuffered) {
    void* addr =
        ::mmap(nullptr, mapping.size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr != MAP_FAILED) {
      // Scans decode front to back; tell the kernel to read ahead
      // aggressively and not to keep pages behind us.
      ::madvise(addr, mapping.size_, MADV_SEQUENTIAL);
      ::close(fd);
      mapping.data_ = static_cast<const std::uint8_t*>(addr);
      mapping.mapped_ = true;
      return mapping;
    }
    if (backend == IoBackend::kMmap) {
      ::close(fd);
      fail(error, path + ": mmap failed");
      return std::nullopt;
    }
    // kAuto: fall through to the buffered read on map failure.
  }
  const bool read = util::read_file(fd, mapping.size_, &mapping.owned_);
  ::close(fd);
  if (!read) {
    fail(error, path + ": short read");
    return std::nullopt;
  }
  mapping.data_ = mapping.owned_.data();
  return mapping;
}

// --- ValidationCache --------------------------------------------------------

bool ValidationCache::contains(const std::string& path, std::int64_t mtime_ns,
                               std::uint64_t size) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = verified_.find(path);
  if (it == verified_.end() || it->second.mtime_ns != mtime_ns ||
      it->second.size != size) {
    return false;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ValidationCache::remember(const std::string& path, std::int64_t mtime_ns,
                               std::uint64_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  verified_[path] = Signature{mtime_ns, size};
}

std::size_t ValidationCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return verified_.size();
}

// --- Writing ----------------------------------------------------------------

namespace {

/// Distinct keys of one body, in first-appearance order.
struct BodyKeys {
  std::vector<const crypto::PeerId*> peers;
  std::vector<const cid::Cid*> cids;
};

/// Appends the IPM2 body of `entries` to `out`: peers, addresses and CIDs
/// are interned in order of first appearance into front-loaded
/// dictionaries, and each entry references them by index, with zig-zag
/// delta-coded timestamps. Long traces repeat the same few thousand
/// peers/CIDs constantly, so the dictionaries carry most of the savings.
BodyKeys encode_body(const trace::Trace& entries, util::Bytes& out) {
  BodyKeys keys;
  std::unordered_map<crypto::PeerId, std::uint64_t> peer_index;
  std::unordered_map<net::Address, std::uint64_t> addr_index;
  std::vector<net::Address> addrs;
  std::unordered_map<cid::Cid, std::uint64_t> cid_index;
  for (const auto& e : entries.entries()) {
    if (peer_index.emplace(e.peer, keys.peers.size()).second) {
      keys.peers.push_back(&e.peer);
    }
    if (addr_index.emplace(e.address, addrs.size()).second) {
      addrs.push_back(e.address);
    }
    if (cid_index.emplace(e.cid, keys.cids.size()).second) {
      keys.cids.push_back(&e.cid);
    }
  }

  util::varint_append(out, kCompactMagic);
  util::varint_append(out, entries.size());
  util::varint_append(out, keys.peers.size());
  for (const auto* peer : keys.peers) {
    out.insert(out.end(), peer->digest().begin(), peer->digest().end());
  }
  util::varint_append(out, addrs.size());
  for (const auto& addr : addrs) {
    util::varint_append(out, addr.ip);
    util::varint_append(out, addr.port);
  }
  util::varint_append(out, keys.cids.size());
  for (const auto* c : keys.cids) {
    const util::Bytes encoded = c->encode();
    util::varint_append(out, encoded.size());
    out.insert(out.end(), encoded.begin(), encoded.end());
  }

  // Deltas wrap in unsigned arithmetic (the decoder wraps back), so any
  // pair of timestamps round-trips without signed overflow.
  std::uint64_t previous = 0;
  for (const auto& e : entries.entries()) {
    const auto timestamp = static_cast<std::uint64_t>(e.timestamp);
    const auto delta = static_cast<std::int64_t>(timestamp - previous);
    util::varint_append(out, util::zigzag_encode(delta));
    previous = timestamp;
    util::varint_append(out, peer_index.at(e.peer));
    util::varint_append(out, addr_index.at(e.address));
    util::varint_append(out, cid_index.at(e.cid));
    // type (2 bits) | monitor (shifted) fit one varint; flags another.
    util::varint_append(out, static_cast<std::uint64_t>(e.type) |
                                 (static_cast<std::uint64_t>(e.monitor) << 2));
    util::varint_append(out, e.flags);
  }
  return keys;
}

}  // namespace

bool write_segment_file(const std::string& path, const trace::Trace& entries,
                        std::size_t bloom_bits_per_key,
                        SegmentFooter* out_footer, std::string* error) {
  util::Bytes body;
  const BodyKeys keys = encode_body(entries, body);

  SegmentFooter footer;
  footer.entry_count = entries.size();
  footer.body_bytes = body.size();
  footer.body_checksum = fnv1a64(body, 0);
  bool first = true;
  for (const auto& e : entries.entries()) {
    if (first || e.timestamp < footer.min_time) footer.min_time = e.timestamp;
    if (first || e.timestamp > footer.max_time) footer.max_time = e.timestamp;
    first = false;
  }
  footer.peer_bloom = BloomFilter::with_capacity(keys.peers.size(),
                                                 bloom_bits_per_key);
  for (const auto* p : keys.peers) footer.peer_bloom.insert(bloom_hash(*p));
  footer.cid_bloom = BloomFilter::with_capacity(keys.cids.size(),
                                                bloom_bits_per_key);
  for (const auto* c : keys.cids) footer.cid_bloom.insert(bloom_hash(*c));

  const util::Bytes footer_bytes = encode_footer(footer);
  util::Bytes trailer;
  put_u32_le(trailer, static_cast<std::uint32_t>(footer_bytes.size()));
  put_u64_le(trailer, fnv1a64(footer_bytes, 0));
  put_u32_le(trailer, kTrailerMagic);

  if (!util::publish(path, {body, footer_bytes, trailer}, error)) {
    return false;
  }
  if (out_footer != nullptr) *out_footer = footer;
  return true;
}

// --- Footer-only read -------------------------------------------------------

std::optional<SegmentFooter> read_segment_footer(const std::string& path,
                                                 std::string* error) {
  // Called for every segment on store open and scan prune, so it must not
  // touch the body: seek to EOF, read the fixed trailer, then read exactly
  // footer_len more bytes — two small tail reads regardless of file size.
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    fail(error, path + ": cannot open");
    return std::nullopt;
  }
  in.seekg(0, std::ios::end);
  const std::int64_t file_size = in.tellg();
  if (file_size < static_cast<std::int64_t>(kTrailerBytes)) {
    fail(error, path + ": truncated (no trailer)");
    return std::nullopt;
  }
  std::uint8_t trailer_raw[kTrailerBytes];
  in.seekg(file_size - static_cast<std::int64_t>(kTrailerBytes));
  in.read(reinterpret_cast<char*>(trailer_raw), kTrailerBytes);
  if (static_cast<std::size_t>(in.gcount()) != kTrailerBytes) {
    fail(error, path + ": short trailer read");
    return std::nullopt;
  }
  const util::BytesView trailer(trailer_raw, kTrailerBytes);
  if (get_u32_le(trailer.subspan(12)) != kTrailerMagic) {
    fail(error, path + ": bad trailer magic (truncated segment?)");
    return std::nullopt;
  }
  const std::uint32_t footer_len = get_u32_le(trailer.subspan(0, 4));
  if (footer_len + kTrailerBytes > static_cast<std::uint64_t>(file_size)) {
    fail(error, path + ": footer length exceeds file size");
    return std::nullopt;
  }
  util::Bytes footer_bytes(footer_len);
  in.seekg(file_size - static_cast<std::int64_t>(kTrailerBytes) -
           static_cast<std::int64_t>(footer_len));
  in.read(reinterpret_cast<char*>(footer_bytes.data()), footer_len);
  if (static_cast<std::size_t>(in.gcount()) != footer_len) {
    fail(error, path + ": short footer read");
    return std::nullopt;
  }
  if (fnv1a64(footer_bytes, 0) != get_u64_le(trailer.subspan(4, 8))) {
    fail(error, path + ": footer checksum mismatch");
    return std::nullopt;
  }
  auto footer = decode_footer(footer_bytes);
  if (!footer) {
    fail(error, path + ": malformed footer");
    return std::nullopt;
  }
  if (footer->body_bytes + footer_len + kTrailerBytes !=
      static_cast<std::uint64_t>(file_size)) {
    fail(error, path + ": body length mismatch");
    return std::nullopt;
  }
  return footer;
}

// --- SegmentReader ----------------------------------------------------------

std::optional<SegmentReader> SegmentReader::open(const std::string& path,
                                                 std::string* error) {
  return open(path, SegmentOpenOptions{}, error);
}

std::optional<SegmentReader> SegmentReader::open(
    const std::string& path, const SegmentOpenOptions& options,
    std::string* error) {
  auto mapping = SegmentMapping::open(path, options.backend, error);
  if (!mapping) return std::nullopt;

  SegmentReader reader;
  if (!parse_trailer_and_footer(path, mapping->view(), &reader.footer_,
                                error)) {
    return std::nullopt;
  }
  // Body checksum: a streaming pass over the mapping — no copy. A
  // ValidationCache hit on (path, mtime, size) means this exact file
  // already passed, so sealed segments are verified once, not per query.
  const bool already_verified =
      options.validated != nullptr &&
      options.validated->contains(path, mapping->mtime_ns(), mapping->size());
  if (!already_verified) {
    if (fnv1a64(mapping->view().subspan(0, reader.footer_.body_bytes), 0) !=
        reader.footer_.body_checksum) {
      fail(error, path + ": body checksum mismatch");
      return std::nullopt;
    }
    if (options.validated != nullptr) {
      options.validated->remember(path, mapping->mtime_ns(), mapping->size());
    }
  }
  reader.mapping_ = std::move(*mapping);
  if (!reader.parse_dictionaries(error)) return std::nullopt;
  return reader;
}

bool SegmentReader::parse_dictionaries(std::string* error) {
  Parser p{body()};
  const auto magic = p.varint();
  if (!magic || *magic != kCompactMagic) {
    return fail(error, "bad body magic");
  }
  const auto count = p.varint();
  if (!count || *count != footer_.entry_count) {
    return fail(error, "entry count disagrees with footer");
  }
  const auto peer_count = p.varint();
  if (!peer_count) return fail(error, "malformed peer dictionary");
  peers_.reserve(*peer_count);
  for (std::uint64_t i = 0; i < *peer_count; ++i) {
    const auto raw = p.take(32);
    if (!raw) return fail(error, "malformed peer dictionary");
    crypto::PeerId::Digest digest;
    std::copy(raw->begin(), raw->end(), digest.begin());
    peers_.emplace_back(digest);
  }
  const auto addr_count = p.varint();
  if (!addr_count) return fail(error, "malformed address dictionary");
  addrs_.reserve(*addr_count);
  for (std::uint64_t i = 0; i < *addr_count; ++i) {
    const auto ip = p.varint();
    const auto port = p.varint();
    if (!ip || !port || *port > 65535) {
      return fail(error, "malformed address dictionary");
    }
    addrs_.push_back(net::Address{static_cast<std::uint32_t>(*ip),
                                  static_cast<std::uint16_t>(*port)});
  }
  const auto cid_count = p.varint();
  if (!cid_count) return fail(error, "malformed CID dictionary");
  // CIDs are variable-length heap values and a raw scan may never touch
  // them, so only their byte ranges are indexed here; cid_key() decodes
  // on first use. The bytes are covered by the body checksum, so a
  // structurally valid span is all open-time validation requires.
  cid_spans_.reserve(*cid_count);
  for (std::uint64_t i = 0; i < *cid_count; ++i) {
    const auto len = p.varint();
    if (!len) return fail(error, "malformed CID dictionary");
    const std::uint64_t at = p.pos;
    const auto raw = p.take(*len);
    if (!raw) return fail(error, "malformed CID dictionary");
    cid_spans_.push_back(KeySpan{at, static_cast<std::uint32_t>(*len)});
  }
  cids_.assign(cid_spans_.size(), cid::Cid());
  cid_done_.assign(cid_spans_.size(), 0);
  pos_ = p.pos;
  remaining_ = footer_.entry_count;
  return true;
}

bool SegmentReader::next_raw(RawRecord& out) {
  if (remaining_ == 0) return false;
  Parser p{body(), pos_};
  const auto delta = p.varint();
  const auto peer = p.varint();
  const auto addr = p.varint();
  const auto cid_ref = p.varint();
  const auto type_monitor = p.varint();
  const auto flags = p.varint();
  if (!delta || !peer || !addr || !cid_ref || !type_monitor || !flags) {
    remaining_ = 0;
    return false;
  }
  if (*peer >= peers_.size() || *addr >= addrs_.size() ||
      *cid_ref >= cid_spans_.size() || (*type_monitor & 0x3) > 2) {
    remaining_ = 0;
    return false;
  }
  out.timestamp = static_cast<util::SimTime>(
      static_cast<std::uint64_t>(prev_time_) +
      static_cast<std::uint64_t>(util::zigzag_decode(*delta)));
  prev_time_ = out.timestamp;
  out.peer = static_cast<std::uint32_t>(*peer);
  out.addr = static_cast<std::uint32_t>(*addr);
  out.cid = static_cast<std::uint32_t>(*cid_ref);
  out.type = static_cast<bitswap::WantType>(*type_monitor & 0x3);
  out.monitor = static_cast<trace::MonitorId>(*type_monitor >> 2);
  out.flags = static_cast<std::uint32_t>(*flags);
  pos_ = p.pos;
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
