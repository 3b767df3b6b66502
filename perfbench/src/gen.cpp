// Seeded input generators. Every input a workload reads is produced here,
// in a separate process before any timing starts, from the workload seed
// alone: the same seed gives byte-identical files.
//
// Wants follow a monitor's view of Bitswap traffic. Every share of the
// stream either comes from the paper or from this repository's own
// reproduction of it, or is marked unverified; README.md ("Traffic shape")
// names the source of each. The generator also measures the shares it
// produced and records them in the input manifest, so every run prints
// them.
#include <filesystem>
#include <fstream>
#include <optional>
#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "bench.hpp"
#include "bitswap/message.hpp"
#include "cid/cid.hpp"
#include "crypto/keys.hpp"
#include "ingest/capture.hpp"
#include "ingest/replay.hpp"
#include "ingest/stream.hpp"
#include "query/engine.hpp"
#include "trace/preprocess.hpp"
#include "tracestore/merge.hpp"
#include "tracestore/store.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/walltime.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;

namespace perfbench {

namespace {

using namespace ipfsmon;

constexpr util::WallNanos kEpoch = 1650000000ll * 1000000000ll;  // 2022-04-15

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Shape of a generated want stream. README.md ("Traffic shape") gives the
/// source of every value.
struct StreamShape {
  /// Network size, ~10^4 nodes (paper Sec. V-C; arXiv 2002.07747).
  std::uint32_t peers = 10000;
  /// Gateways carry as many requests as all other nodes (Fig. 6) from a
  /// few node IDs, one operator running 13 of them (Sec. VI-B); 26 IDs and
  /// the operator's 55% are exp_gateway_probing / exp_fig6 measurements.
  std::uint32_t gateway_peers = 26;
  std::uint32_t operator_peers = 13;
  double gateway_share = 0.5;
  double operator_share = 0.55;
  /// Fresh wants for content nobody asked for before ("one-off unique
  /// content"); the rest draw from a popular catalog. Gives ~95% of CIDs a
  /// single requesting peer (Fig. 5: >80%; exp_fig5_popularity: 96%).
  double one_off_share = 0.7;
  std::uint32_t catalog_cids = 10000;  // unverified
  double catalog_skew = 1.0;           // unverified
  std::uint32_t vantages = 3;
  /// ~700 entries/s over all vantages: 2.78e10 entries in 15 months.
  double mean_gap_ns = 5.7e6;
  /// Share of fresh wants that also reach another vantage within 2 s; with
  /// the re-broadcasts below ~1/4 of entries are inter-monitor duplicates
  /// (exp_dedup_stats: 24-33% at 2 monitors).
  double duplicate_share = 1.0;
  /// An open want is re-broadcast every 30 s and stays open after each
  /// broadcast with this probability (mean 2.33 re-broadcasts), so ~1/2 of
  /// entries are re-broadcasts (Sec. IV-B: >50%; exp_dedup_stats: 0.49).
  double rebroadcast_continue = 0.7;
  /// Type mix of fresh wants, the rest CANCELs. Unverified beyond
  /// WANT_HAVE dominating after go-ipfs v0.5 (Fig. 4).
  double want_have_share = 0.6;
  double want_block_share = 0.25;
};

/// A requesting peer: a gateway node with the gateway share, otherwise a
/// uniformly drawn other node (uniform is unverified).
std::uint32_t draw_peer(util::RngStream& rng, const StreamShape& shape) {
  if (rng.bernoulli(shape.gateway_share)) {
    if (rng.bernoulli(shape.operator_share)) {
      return static_cast<std::uint32_t>(rng.uniform_index(shape.operator_peers));
    }
    return shape.operator_peers +
           static_cast<std::uint32_t>(rng.uniform_index(
               shape.gateway_peers - shape.operator_peers));
  }
  return shape.gateway_peers + static_cast<std::uint32_t>(rng.uniform_index(
                                   shape.peers - shape.gateway_peers));
}

/// One generated want: indices into the peer/CID tables.
struct Want {
  std::int64_t t = 0;  // ns since the stream start
  std::uint32_t peer = 0;
  std::uint32_t cid = 0;
  bitswap::WantType type = bitswap::WantType::WantHave;
  std::uint32_t vantage = 0;
  bool rebroadcast = false;
};

/// Deterministic time-ordered want stream (see file comment).
class WantStream {
 public:
  WantStream(std::uint64_t seed, std::string_view name, StreamShape shape)
      : shape_(shape), rng_(seed, name) {}

  Want next() {
    const auto gap = static_cast<std::int64_t>(
        rng_.exponential(shape_.mean_gap_ns)) + 1;
    const std::int64_t fresh_t = last_t_ + gap;
    Want out;
    if (!pending_.empty() && pending_.top().first.t <= fresh_t) {
      out = pending_.top().first;
      pending_.pop();
      if (out.rebroadcast && rng_.bernoulli(shape_.rebroadcast_continue)) {
        push_rebroadcast(out);
      }
    } else {
      out.t = fresh_t;
      out.peer = draw_peer(rng_, shape_);
      out.cid = rng_.bernoulli(shape_.one_off_share)
                    ? shape_.catalog_cids + one_offs_++
                    : static_cast<std::uint32_t>(rng_.zipf(
                          shape_.catalog_cids, shape_.catalog_skew) - 1);
      const double kind = rng_.uniform();
      out.type = kind < shape_.want_have_share ? bitswap::WantType::WantHave
                 : kind < shape_.want_have_share + shape_.want_block_share
                     ? bitswap::WantType::WantBlock
                     : bitswap::WantType::Cancel;
      out.vantage =
          static_cast<std::uint32_t>(rng_.uniform_index(shape_.vantages));
      if (shape_.vantages > 1 && rng_.bernoulli(shape_.duplicate_share)) {
        Want copy = out;
        copy.t += static_cast<std::int64_t>(rng_.uniform_index(2000000000)) + 1;
        copy.vantage = (out.vantage + 1 + static_cast<std::uint32_t>(
                            rng_.uniform_index(shape_.vantages - 1))) %
                       shape_.vantages;
        push(copy);
      }
      if (out.type != bitswap::WantType::Cancel &&
          rng_.bernoulli(shape_.rebroadcast_continue)) {
        push_rebroadcast(out);
      }
    }
    out.t = std::max(out.t, last_t_ + 1);  // strictly increasing times
    last_t_ = out.t;
    return out;
  }

 private:
  void push(const Want& want) { pending_.emplace(want, seq_++); }

  /// Bitswap's 30 s re-broadcast of an open want, at the same vantage.
  void push_rebroadcast(const Want& want) {
    Want again = want;
    again.t += 30000000000ll +
               static_cast<std::int64_t>(rng_.uniform_index(500000000));
    again.rebroadcast = true;
    push(again);
  }

  struct Later {
    bool operator()(const std::pair<Want, std::uint64_t>& a,
                    const std::pair<Want, std::uint64_t>& b) const {
      return a.first.t != b.first.t ? a.first.t > b.first.t
                                    : a.second > b.second;
    }
  };

  StreamShape shape_;
  util::RngStream rng_;
  std::int64_t last_t_ = 0;
  std::uint64_t seq_ = 0;
  std::uint32_t one_offs_ = 0;
  std::priority_queue<std::pair<Want, std::uint64_t>,
                      std::vector<std::pair<Want, std::uint64_t>>, Later>
      pending_;
};

/// Peer identities and their rendered forms, built on first use.
class PeerTable {
 public:
  PeerTable(std::uint64_t seed, std::uint64_t size)
      : seed_(seed), ids_(size), text_(size), address_text_(size) {}

  const crypto::PeerId& id(std::uint32_t i) {
    if (!ids_[i]) {
      crypto::PeerId::Digest digest{};
      for (std::size_t w = 0; w < 4; ++w) {
        const std::uint64_t v = splitmix64(seed_ * 0x100000001b3ull +
                                           (std::uint64_t{i} << 2) + w);
        for (std::size_t b = 0; b < 8; ++b) {
          digest[w * 8 + b] = static_cast<std::uint8_t>(v >> (8 * b));
        }
      }
      ids_[i] = crypto::PeerId(digest);
    }
    return *ids_[i];
  }
  static net::Address address(std::uint32_t i) {
    return net::Address{0x0a000000u + i, 4001};
  }
  const std::string& text(std::uint32_t i) {
    if (text_[i].empty()) text_[i] = id(i).to_base58();
    return text_[i];
  }
  const std::string& address_text(std::uint32_t i) {
    if (address_text_[i].empty()) address_text_[i] = address(i).to_string();
    return address_text_[i];
  }

 private:
  std::uint64_t seed_;
  std::vector<std::optional<crypto::PeerId>> ids_;
  std::vector<std::string> text_;
  std::vector<std::string> address_text_;
};

/// Content identifiers and their string forms, built on first use. The
/// table grows with the stream's one-off CIDs.
class CidTable {
 public:
  explicit CidTable(std::uint64_t seed) : seed_(seed) {}

  const cid::Cid& cid(std::uint32_t i) {
    if (i >= cids_.size()) {
      cids_.resize(i + 1);
      text_.resize(i + 1);
    }
    if (!cids_[i]) {
      cids_[i] = cid::Cid::of_data(
          cid::Multicodec::Raw,
          util::bytes_of("perfbench " + std::to_string(seed_) + " block " +
                         std::to_string(i)));
    }
    return *cids_[i];
  }
  const std::string& text(std::uint32_t i) {
    cid(i);
    if (text_[i].empty()) text_[i] = cids_[i]->to_string();
    return text_[i];
  }

 private:
  std::uint64_t seed_;
  std::vector<std::optional<cid::Cid>> cids_;
  std::vector<std::string> text_;
};

const char* const kVantages[] = {"us", "de", "sg", "jp"};

trace::TraceEntry to_entry(const Want& want, PeerTable& peers, CidTable& cids) {
  trace::TraceEntry entry;
  entry.timestamp = want.t;
  entry.peer = peers.id(want.peer);
  entry.address = PeerTable::address(want.peer);
  entry.type = want.type;
  entry.cid = cids.cid(want.cid);
  entry.monitor = want.vantage;
  return entry;
}

/// Measured properties of a stream: repeat shares (the fraction of wants
/// whose peer or CID was already seen earlier in the stream) and the share
/// of CIDs wanted by exactly one peer (the paper's URP = 1).
struct StreamProperties {
  std::unordered_set<std::uint32_t> peers;
  std::unordered_map<std::uint32_t, std::uint32_t> first_peer;  // CID -> peer
  std::unordered_set<std::uint32_t> shared_cids;  // wanted by >1 peer
  std::uint64_t n = 0;
  void add(const Want& want) {
    peers.insert(want.peer);
    const auto [it, fresh] = first_peer.emplace(want.cid, want.peer);
    if (!fresh && it->second != want.peer) shared_cids.insert(want.cid);
    ++n;
  }
  void store(Manifest* manifest) const {
    const double total = static_cast<double>(n);
    const double cids = static_cast<double>(first_peer.size());
    manifest->set("peer_repeat_share",
                  1.0 - static_cast<double>(peers.size()) / total);
    manifest->set("cid_repeat_share", 1.0 - cids / total);
    manifest->set("urp1_share",
                  1.0 - static_cast<double>(shared_cids.size()) / cids);
    manifest->set_u64("distinct_peers", peers.size());
    manifest->set_u64("distinct_cids", first_peer.size());
  }
};

/// Entries by the flags trace::mark_flags gave them.
struct FlagCounts {
  std::uint64_t entries = 0;
  std::uint64_t flagged = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t rebroadcasts = 0;
  void add(const trace::TraceEntry& entry) {
    ++entries;
    flagged += !entry.is_clean();
    duplicates += entry.is_duplicate();
    rebroadcasts += entry.is_rebroadcast();
  }
  void store(Manifest* manifest) const {
    const double total = static_cast<double>(entries);
    manifest->set("flagged_share", static_cast<double>(flagged) / total);
    manifest->set("duplicate_share", static_cast<double>(duplicates) / total);
    manifest->set("rebroadcast_share",
                  static_cast<double>(rebroadcasts) / total);
  }
};

// --- ingest ------------------------------------------------------------------

/// Replay checksum of `entries` as ingest_capture must store them: SimTime
/// from the first record, flags from an in-memory trace::mark_flags pass.
std::uint64_t reference_checksum(trace::Trace& reference, FlagCounts* flags) {
  const util::SimTime origin = reference.entries().front().timestamp;
  for (auto& entry : reference.entries()) entry.timestamp -= origin;
  trace::mark_flags(reference);
  std::uint64_t checksum = 0;
  for (const auto& entry : reference.entries()) {
    checksum = ingest::fold_entry_checksum(checksum, entry);
    flags->add(entry);
  }
  return checksum;
}

/// A plain NDJSON capture of kIngestLines wants, rotated into
/// kIngestFiles consecutive files the way a monitor rotates its log, plus
/// for each file the replay checksum of an in-memory trace::mark_flags
/// reference built from the same records.
bool generate_ingest(std::uint64_t seed, const std::string& dir,
                     Manifest* manifest) {
  const StreamShape shape;
  WantStream stream(seed, "perfbench-ingest", shape);
  PeerTable peers(seed, shape.peers);
  CidTable cids(seed);
  StreamProperties properties;
  FlagCounts flags;
  const std::uint64_t per_file = kIngestLines / kIngestFiles;
  std::uint64_t bytes = 0;
  std::string line;
  for (std::uint64_t file = 0; file < kIngestFiles; ++file) {
    const std::string path = ingest_capture_path(dir, file);
    auto writer = ingest::LineWriter::open(path, false);
    if (writer == nullptr) return false;
    trace::Trace reference;
    reference.entries().reserve(per_file);
    // ingest_capture numbers vantages in order of first appearance.
    std::vector<std::uint32_t> monitor_of_vantage(shape.vantages, ~0u);
    std::uint32_t next_monitor = 0;
    for (std::uint64_t i = 0; i < per_file; ++i) {
      const Want want = stream.next();
      properties.add(want);
      const util::WallNanos wall = kEpoch + want.t;
      // Same layout as ingest::format_ndjson_record, from cached key text.
      line = "{\"timestamp\":\"";
      line += util::format_wall_time(wall);
      line += "\",\"peer\":\"";
      line += peers.text(want.peer);
      line += "\",\"address\":\"";
      line += peers.address_text(want.peer);
      line += "\",\"type\":\"";
      line += bitswap::want_type_name(want.type);
      line += "\",\"cid\":\"";
      line += cids.text(want.cid);
      line += "\",\"monitor\":\"";
      line += kVantages[want.vantage];
      line += "\"}";
      trace::TraceEntry entry = to_entry(want, peers, cids);
      if (file == 0 && i < 64) {
        ingest::CaptureRecord record;
        record.wall_ns = wall;
        record.peer = entry.peer;
        record.address = entry.address;
        record.type = entry.type;
        record.cid = entry.cid;
        record.vantage = kVantages[want.vantage];
        if (ingest::format_ndjson_record(record) != line) {
          std::fprintf(stderr, "gen: capture line layout drifted\n");
          return false;
        }
      }
      if (!writer->write(line)) return false;
      if (file == 0 && i == 0) {
        // A one-line capture: ingesting it costs only ingest's fixed set-up.
        auto head = ingest::LineWriter::open(
            (fs::path(dir) / "capture-head.ndjson").string(), false);
        if (head == nullptr || !head->write(line) || !head->close()) {
          return false;
        }
      }
      if (monitor_of_vantage[want.vantage] == ~0u) {
        monitor_of_vantage[want.vantage] = next_monitor++;
      }
      entry.monitor = monitor_of_vantage[want.vantage];
      reference.append(std::move(entry));
    }
    if (!writer->close()) return false;
    bytes += fs::file_size(path);
    manifest->set("expected_checksum_" + std::to_string(file),
                  hex64(reference_checksum(reference, &flags)));
  }
  manifest->set_u64("lines", kIngestLines);
  manifest->set_u64("bytes", bytes);
  flags.store(manifest);
  properties.store(manifest);
  return true;
}

// --- serve -------------------------------------------------------------------

/// Writes `count` wants of `stream` as a flagged multi-segment store.
bool write_flagged_store(WantStream& stream, PeerTable& peers, CidTable& cids,
                         std::uint64_t count, const std::string& dir,
                         std::uint64_t segment_entries,
                         StreamProperties* properties, FlagCounts* flags) {
  tracestore::StoreOptions options;
  options.max_entries_per_segment = segment_entries;
  auto writer = tracestore::SegmentWriter::create(dir, options);
  if (writer == nullptr) return false;
  tracestore::StreamingFlagger flagger;
  for (std::uint64_t i = 0; i < count; ++i) {
    const Want want = stream.next();
    properties->add(want);
    trace::TraceEntry entry = to_entry(want, peers, cids);
    flagger.mark(entry);
    flags->add(entry);
    writer->append(entry);
  }
  return writer->finalize();
}

/// The serve store plus the request script the closed-loop clients replay:
/// one "<class> <target>" line per request.
bool generate_serve(std::uint64_t seed, const std::string& dir,
                    Manifest* manifest) {
  const StreamShape shape;
  WantStream stream(seed, "perfbench-serve", shape);
  PeerTable peers(seed, shape.peers);
  CidTable cids(seed);
  StreamProperties properties;
  FlagCounts flags;
  const std::string store_dir = (fs::path(dir) / "store").string();
  if (!write_flagged_store(stream, peers, cids, kServeEntries, store_dir,
                           kServeSegmentEntries, &properties, &flags)) {
    return false;
  }
  auto store = tracestore::TraceStore::open(store_dir);
  if (!store) return false;
  const util::SimTime lo = store->min_time();
  const util::SimTime hi = store->max_time();
  const util::SimTime span = hi - lo + 1;

  util::RngStream rng(seed, "perfbench-serve-requests");
  const auto window = [&](util::SimTime width) {
    const util::SimTime a =
        lo + static_cast<util::SimTime>(rng.uniform_index(
                 static_cast<std::uint64_t>(span - width)));
    return util::format("min_t=%lld&max_t=%lld", static_cast<long long>(a),
                        static_cast<long long>(a + width));
  };
  const auto stats_target = [&] {
    util::SimTime a = lo + static_cast<util::SimTime>(
                               rng.uniform_index(static_cast<std::uint64_t>(span)));
    util::SimTime b = lo + static_cast<util::SimTime>(
                               rng.uniform_index(static_cast<std::uint64_t>(span)));
    if (a > b) std::swap(a, b);
    return util::format("/v1/stats?min_t=%lld&max_t=%lld",
                        static_cast<long long>(a), static_cast<long long>(b));
  };
  const auto peer_target = [&](std::uint32_t peer, const std::string& range) {
    return "/v1/peers/" + peers.text(peer) + "/wants?limit=100&" + range;
  };
  const auto popularity_target = [&](const std::string& range) {
    return "/v1/popularity?k=10&" + range;
  };

  // The hot set: a few fixed questions every analyst asks again and again;
  // 16 keys fit the engine's 128-entry LRU next to the unique requests.
  std::vector<std::string> hot;
  for (int i = 0; i < 6; ++i) hot.push_back(stats_target());
  for (std::uint32_t p = 0; p < 6; ++p) {
    hot.push_back(peer_target(p, window(span / 16)));
  }
  for (int i = 0; i < 4; ++i) hot.push_back(popularity_target(window(span / 128)));

  // The endpoint mix is unverified (README.md, "Traffic shape"). Peers are
  // asked about in proportion to their share of the traffic.
  std::ofstream out(fs::path(dir) / "requests.txt");
  std::uint64_t hot_count = 0;
  for (std::uint64_t i = 0; i < kServeScriptRequests; ++i) {
    const double pick = rng.uniform();
    if (pick < 0.35) {
      out << "stats " << stats_target() << '\n';
    } else if (pick < 0.55) {
      const std::uint32_t peer = draw_peer(rng, shape);
      out << "peer_wants " << peer_target(peer, window(span / 16)) << '\n';
    } else if (pick < 0.70) {
      out << "popularity " << popularity_target(window(span / 128)) << '\n';
    } else {
      out << "hot " << hot[rng.uniform_index(hot.size())] << '\n';
      ++hot_count;
    }
  }
  std::ofstream hot_out(fs::path(dir) / "hot.txt");
  for (const auto& target : hot) hot_out << "hot " << target << '\n';
  if (!out || !hot_out) return false;

  manifest->set_u64("entries", store->total_entries());
  manifest->set_u64("segments", store->segments().size());
  manifest->set_u64("store_bytes", store->total_bytes());
  manifest->set("script_hot_share", static_cast<double>(hot_count) /
                                        static_cast<double>(kServeScriptRequests));
  flags.store(manifest);
  properties.store(manifest);
  return true;
}

// --- serve's federation pass ------------------------------------------------

/// Four per-monitor spill stores cut from one want stream (each vantage is
/// one monitor), plus the /v1/stats body of a single-store unify of the
/// same stores: the answer the federated service must reproduce.
bool generate_federate(std::uint64_t seed, const std::string& dir,
                       Manifest* manifest) {
  StreamShape shape;
  shape.vantages = kFederateMonitors;
  WantStream stream(seed, "perfbench-federate", shape);
  PeerTable peers(seed, shape.peers);
  CidTable cids(seed);

  tracestore::StoreOptions options;
  options.max_entries_per_segment = kFederateSegmentEntries;
  std::vector<std::unique_ptr<tracestore::SegmentWriter>> writers;
  std::vector<std::string> dirs;
  for (std::uint32_t m = 0; m < kFederateMonitors; ++m) {
    dirs.push_back((fs::path(dir) / ("m-" + std::to_string(m))).string());
    writers.push_back(tracestore::SegmentWriter::create(dirs.back(), options));
    if (writers.back() == nullptr) return false;
  }
  for (std::uint64_t i = 0; i < kFederateEntries; ++i) {
    const Want want = stream.next();
    writers[want.vantage]->append(to_entry(want, peers, cids));
  }
  for (auto& writer : writers) {
    if (!writer->finalize()) return false;
  }

  std::vector<tracestore::TraceStore> stores;
  std::vector<const tracestore::TraceStore*> inputs;
  std::uint64_t segments = 0;
  std::uint64_t bytes = 0;
  for (const auto& d : dirs) {
    auto store = tracestore::TraceStore::open(d);
    if (!store) return false;
    segments += store->segments().size();
    bytes += store->total_bytes();
    stores.push_back(std::move(*store));
  }
  for (const auto& s : stores) inputs.push_back(&s);
  const std::string truth_dir = (fs::path(dir) / "truth").string();
  {
    auto writer = tracestore::SegmentWriter::create(truth_dir);
    if (writer == nullptr) return false;
    tracestore::unify_to_store(inputs, *writer);
    if (!writer->finalize()) return false;
  }
  auto truth = query::QueryService::open(truth_dir);
  if (truth == nullptr) return false;
  const util::SimTime hi = truth->store().max_time();
  const std::string target =
      "/v1/stats?min_t=0&max_t=" + std::to_string(hi);
  query::HttpRequest request;
  request.method = "GET";
  request.target = target;
  request.path = "/v1/stats";
  request.params = {{"min_t", "0"}, {"max_t", std::to_string(hi)}};
  const auto response = truth->handle(request);
  if (response.status != 200) return false;
  manifest->set("truth_target", target);
  manifest->set("truth_body", response.body);
  manifest->set_u64("unified_entries", truth->store().total_entries());
  manifest->set_u64("entries", kFederateEntries);
  manifest->set_u64("segments", segments);
  manifest->set_u64("store_bytes", bytes);
  truth.reset();
  fs::remove_all(truth_dir);  // only the answer is an input
  return true;
}

}  // namespace

bool generate_inputs(const std::string& workload, std::uint64_t seed,
                     const std::string& dir) {
  reset_dir(dir);
  Manifest manifest;
  manifest.set("workload", workload);
  manifest.set_u64("seed", seed);
  bool ok = false;
  if (workload == "study") {
    // The study's input is its configuration; see wl_study.cpp.
    manifest.set("config", study_config_text(seed));
    ok = true;
  } else if (workload == "ingest") {
    ok = generate_ingest(seed, dir, &manifest);
  } else if (workload == "serve") {
    // The federation pass's stores get their own manifest (hashed with
    // every other file) so their keys cannot clash with the serve store's.
    const std::string federate_dir = (fs::path(dir) / kFederateDir).string();
    Manifest federate;
    ok = generate_serve(seed, dir, &manifest) &&
         generate_federate(seed, federate_dir, &federate) &&
         federate.write((fs::path(federate_dir) / kFederateManifest).string());
  }
  if (!ok) return false;
  // The content hash covers every generated file (and, for the study, the
  // configuration text); `perfbench run` recomputes and compares it.
  manifest.set("content_hash",
               hex64(hash_tree(dir) ^ fnv_text(manifest.get("config"))));
  return manifest.write((fs::path(dir) / "INPUT").string());
}

}  // namespace perfbench
