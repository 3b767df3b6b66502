// Federation subsystem (src/federation): FMON protocol codecs and frame
// corruption handling, end-to-end segment shipping into a coordinator,
// idempotent receives (duplicate + divergent delivery), resumable shipping
// via HELLO_ACK watermarks, coordinator restart recovery over torn
// segments, the unified-store byte-identity property (including a shipper
// crash mid-replication), clock skew beyond the inter-monitor window, the
// federated query endpoints, validation-cache reuse, coordinator
// connection-thread reaping, and the queryd SIGHUP reload path as a
// subprocess.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "federation/coordinator.hpp"
#include "federation/federated.hpp"
#include "federation/protocol.hpp"
#include "federation/shipper.hpp"
#include "query/client.hpp"
#include "query/engine.hpp"
#include "query/socket.hpp"
#include "tracestore/merge.hpp"
#include "tracestore/rollup.hpp"
#include "tracestore/store.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace ipfsmon::federation {
namespace {

namespace fs = std::filesystem;
using util::kSecond;

crypto::PeerId peer_n(int n) {
  crypto::PeerId::Digest digest{};
  digest[0] = static_cast<std::uint8_t>(n);
  digest[1] = static_cast<std::uint8_t>(n >> 8);
  digest[31] = 0x3e;
  return crypto::PeerId(digest);
}

cid::Cid cid_n(int n) {
  return cid::Cid::of_data(cid::Multicodec::Raw,
                           util::bytes_of("fed cid " + std::to_string(n)));
}

trace::TraceEntry entry(util::SimTime t, int peer, int cid,
                        trace::MonitorId monitor) {
  trace::TraceEntry e;
  e.timestamp = t;
  e.peer = peer_n(peer);
  e.address =
      net::Address{0x0a000001u + static_cast<std::uint32_t>(peer), 4001};
  e.type = bitswap::WantType::WantHave;
  e.cid = cid_n(cid);
  e.monitor = monitor;
  return e;
}

/// A time-sorted random per-monitor trace (monitors record in time order).
trace::Trace make_monitor_trace(std::size_t n, trace::MonitorId monitor,
                                std::uint64_t seed) {
  util::RngStream rng(seed, "federation-test");
  trace::Trace t;
  util::SimTime ts = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ts += rng.uniform_index(15 * kSecond);
    auto e = entry(ts, static_cast<int>(rng.uniform_index(20)),
                   static_cast<int>(rng.uniform_index(30)), monitor);
    const auto roll = rng.uniform_index(4);
    e.type = roll == 0   ? bitswap::WantType::Cancel
             : roll == 1 ? bitswap::WantType::WantBlock
                         : bitswap::WantType::WantHave;
    t.append(std::move(e));
  }
  return t;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/federation_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Writes `t` into a store at `dir`; small segments force several files.
void build_store(const std::string& dir, const trace::Trace& t,
                 tracestore::StoreOptions options = {}) {
  if (options.max_entries_per_segment == (1u << 18)) {
    options.max_entries_per_segment = 64;
  }
  auto writer = tracestore::SegmentWriter::create(dir, options);
  ASSERT_NE(writer, nullptr);
  for (const auto& e : t.entries()) writer->append(e);
  ASSERT_TRUE(writer->finalize());
}

util::Bytes read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  util::Bytes out((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  return out;
}

/// Sends HELLO on `fd` and returns the coordinator's HELLO_ACK.
HelloAckMsg do_hello(int fd, std::uint32_t id, const std::string& vantage) {
  HelloMsg hello;
  hello.monitor_id = id;
  hello.vantage = vantage;
  EXPECT_TRUE(write_frame(fd, FrameType::kHello, encode(hello)));
  const auto frame = read_frame(fd);
  EXPECT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::kHelloAck);
  auto ack = decode_hello_ack(frame->payload);
  EXPECT_TRUE(ack.has_value());
  return std::move(*ack);
}

/// Builds a SEGMENT message from an on-disk store segment, the same way
/// the shipper does.
SegmentMsg segment_msg_for(const std::string& store_dir,
                           const std::string& file) {
  const std::string path = (fs::path(store_dir) / file).string();
  SegmentMsg msg;
  msg.file = file;
  msg.sealed_wall_us = file_mtime_unix_us(path);
  msg.segment_bytes = read_file_bytes(path);
  std::string footer_error;
  const auto footer = tracestore::read_segment_footer(path, &footer_error);
  EXPECT_TRUE(footer.has_value()) << path;
  msg.body_checksum = footer->body_checksum;
  msg.entry_count = footer->entry_count;
  msg.min_time = footer->min_time;
  msg.max_time = footer->max_time;
  std::ifstream rollup(tracestore::rollup_path_for(path), std::ios::binary);
  if (rollup) {
    msg.rollup_bytes.assign(std::istreambuf_iterator<char>(rollup),
                            std::istreambuf_iterator<char>());
  }
  return msg;
}

/// Ships one SEGMENT frame on `fd` and returns the ack status.
AckStatus ship_raw(int fd, const SegmentMsg& msg) {
  EXPECT_TRUE(write_frame(fd, FrameType::kSegment, encode(msg)));
  const auto frame = read_frame(fd);
  EXPECT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::kSegmentAck);
  const auto ack = decode_segment_ack(frame->payload);
  EXPECT_TRUE(ack.has_value());
  EXPECT_EQ(ack->segment.file, msg.file);
  return ack->status;
}

const std::string* find_header(const query::HttpResponse& response,
                               const std::string& name) {
  for (const auto& [key, value] : response.headers) {
    if (key == name) return &value;
  }
  return nullptr;
}

ShipperOptions shipper_options(std::uint16_t port, std::uint32_t id,
                               const std::string& vantage) {
  ShipperOptions options;
  options.port = port;
  options.monitor_id = id;
  options.vantage = vantage;
  options.reconnect.initial_delay_ms = 10;
  options.reconnect.max_delay_ms = 50;
  return options;
}

// --- Protocol ---------------------------------------------------------------

TEST(Protocol, MessagesRoundTrip) {
  HelloMsg hello{42, "us-east"};
  const auto hello_back = decode_hello(encode(hello));
  ASSERT_TRUE(hello_back.has_value());
  EXPECT_EQ(hello_back->monitor_id, 42u);
  EXPECT_EQ(hello_back->vantage, "us-east");

  HelloAckMsg ack;
  ack.landed = {{"seg-000000.seg", 0xdeadbeefull}, {"seg-000001.seg", 7}};
  const auto ack_back = decode_hello_ack(encode(ack));
  ASSERT_TRUE(ack_back.has_value());
  EXPECT_EQ(ack_back->landed, ack.landed);

  SegmentMsg segment;
  segment.file = "seg-000002.seg";
  segment.body_checksum = 0x1122334455667788ull;
  segment.entry_count = 99;
  segment.min_time = 5 * kSecond;
  segment.max_time = 6 * kSecond;
  segment.sealed_wall_us = 1'700'000'000'000'000ll;
  segment.segment_bytes = util::bytes_of("segment body");
  segment.rollup_bytes = util::bytes_of("rollup body");
  const auto segment_back = decode_segment(encode(segment));
  ASSERT_TRUE(segment_back.has_value());
  EXPECT_EQ(segment_back->file, segment.file);
  EXPECT_EQ(segment_back->body_checksum, segment.body_checksum);
  EXPECT_EQ(segment_back->entry_count, segment.entry_count);
  EXPECT_EQ(segment_back->min_time, segment.min_time);
  EXPECT_EQ(segment_back->max_time, segment.max_time);
  EXPECT_EQ(segment_back->sealed_wall_us, segment.sealed_wall_us);
  EXPECT_EQ(segment_back->segment_bytes, segment.segment_bytes);
  EXPECT_EQ(segment_back->rollup_bytes, segment.rollup_bytes);

  SegmentAckMsg segment_ack{{"seg-000002.seg", 3}, AckStatus::kDuplicate};
  const auto segment_ack_back = decode_segment_ack(encode(segment_ack));
  ASSERT_TRUE(segment_ack_back.has_value());
  EXPECT_EQ(segment_ack_back->segment, segment_ack.segment);
  EXPECT_EQ(segment_ack_back->status, AckStatus::kDuplicate);

  // Truncated payloads decode to nullopt, never to garbage.
  const util::Bytes full = encode(segment);
  for (const std::size_t cut : {std::size_t{0}, std::size_t{1}, full.size() / 2}) {
    util::BytesView view(full.data(), cut);
    EXPECT_FALSE(decode_segment(view).has_value()) << cut;
  }
}

TEST(Protocol, FrameRoundTripOverSocket) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const util::Bytes payload = util::bytes_of("hello federation");
  ASSERT_TRUE(write_frame(fds[0], FrameType::kHello, payload));
  const auto frame = read_frame(fds[1]);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::kHello);
  EXPECT_EQ(frame->payload, payload);
  // EOF: the peer closing reads as nullopt, not a hang.
  ::close(fds[0]);
  EXPECT_FALSE(read_frame(fds[1]).has_value());
  ::close(fds[1]);
}

TEST(Protocol, CorruptFramesAreRejected) {
  const util::Bytes payload = util::bytes_of("payload");
  // A valid frame, captured raw so each corruption starts from real bytes.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(write_frame(fds[0], FrameType::kSegment, payload));
  ::close(fds[0]);
  util::Bytes raw(64);
  const ssize_t n = ::recv(fds[1], raw.data(), raw.size(), 0);
  ::close(fds[1]);
  ASSERT_GT(n, 24);
  raw.resize(static_cast<std::size_t>(n));

  auto expect_rejected = [](util::Bytes frame_bytes, const char* what) {
    int pair[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
    ASSERT_EQ(::send(pair[0], frame_bytes.data(), frame_bytes.size(), 0),
              static_cast<ssize_t>(frame_bytes.size()));
    ::close(pair[0]);
    std::string error;
    EXPECT_FALSE(read_frame(pair[1], &error).has_value()) << what;
    EXPECT_FALSE(error.empty()) << what;
    ::close(pair[1]);
  };

  util::Bytes bad_magic = raw;
  bad_magic[0] ^= 0xff;
  expect_rejected(std::move(bad_magic), "bad magic");

  util::Bytes bad_version = raw;
  bad_version[4] ^= 0xff;
  expect_rejected(std::move(bad_version), "bad version");

  util::Bytes bad_length = raw;
  bad_length[8 + 7] = 0xff;  // payload_len high byte > kMaxFramePayload
  expect_rejected(std::move(bad_length), "oversized length");

  util::Bytes bad_payload = raw;
  bad_payload.back() ^= 0xff;  // payload no longer matches the checksum
  expect_rejected(std::move(bad_payload), "payload checksum");
}

TEST(Protocol, Validators) {
  EXPECT_TRUE(valid_vantage("us-east"));
  EXPECT_TRUE(valid_vantage("DE_fra_01"));
  EXPECT_FALSE(valid_vantage(""));
  EXPECT_FALSE(valid_vantage("bad label"));
  EXPECT_FALSE(valid_vantage("a/../b"));
  EXPECT_FALSE(valid_vantage(std::string(65, 'a')));

  EXPECT_TRUE(valid_segment_name("seg-000000.seg"));
  EXPECT_TRUE(valid_segment_name("seg-012345.seg"));
  EXPECT_FALSE(valid_segment_name("seg-000000.seg.tmp"));
  EXPECT_FALSE(valid_segment_name("seg-000000.torn"));
  EXPECT_FALSE(valid_segment_name("../../etc/passwd"));
  EXPECT_FALSE(valid_segment_name("MANIFEST"));
}

// --- End-to-end shipping ----------------------------------------------------

TEST(Federation, ShipPendingLandsEverySegmentByteIdentically) {
  const std::string store_dir = fresh_dir("ship_src");
  build_store(store_dir, make_monitor_trace(300, 0, 11));

  const std::string root = fresh_dir("ship_root");
  std::string error;
  auto coordinator = Coordinator::start(root, {}, &error);
  ASSERT_NE(coordinator, nullptr) << error;

  Shipper shipper(store_dir, shipper_options(coordinator->port(), 1, "us-east"));
  ASSERT_TRUE(shipper.ship_pending(&error)) << error;

  auto source = tracestore::TraceStore::open(store_dir);
  ASSERT_TRUE(source.has_value());
  const std::size_t segment_count = source->segments().size();
  ASSERT_GE(segment_count, 4u);

  const ShipperStats stats = shipper.stats();
  EXPECT_EQ(stats.segments_shipped, segment_count);
  EXPECT_EQ(stats.segments_landed, segment_count);
  EXPECT_EQ(stats.duplicates, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.connects, 1u);
  EXPECT_GT(stats.bytes_shipped, 0u);
  EXPECT_GT(stats.last_ack_wall_us, 0);
  EXPECT_EQ(shipper.drain_lag_samples().size(), segment_count);

  const auto monitors = coordinator->monitors();
  ASSERT_EQ(monitors.size(), 1u);
  EXPECT_EQ(monitors[0].id, 1u);
  EXPECT_EQ(monitors[0].vantage, "us-east");
  EXPECT_EQ(monitors[0].segments, segment_count);
  EXPECT_EQ(monitors[0].entries, 300u);
  EXPECT_GT(monitors[0].last_ship_wall_us, 0);

  // Landed segment + rollup files are byte-identical to the source store.
  for (const auto& seg : source->segments()) {
    const std::string src = (fs::path(store_dir) / seg.file).string();
    const std::string dst = (fs::path(root) / "m-1" / seg.file).string();
    EXPECT_EQ(read_file_bytes(src), read_file_bytes(dst)) << seg.file;
    EXPECT_EQ(read_file_bytes(tracestore::rollup_path_for(src)),
              read_file_bytes(tracestore::rollup_path_for(dst)))
        << seg.file;
  }
  // The landed store opens as a normal TraceStore with a valid manifest.
  auto landed = tracestore::TraceStore::open((fs::path(root) / "m-1").string());
  ASSERT_TRUE(landed.has_value());
  EXPECT_EQ(landed->segments().size(), segment_count);
  EXPECT_TRUE(fs::exists(fs::path(root) / "FEDERATION"));
  EXPECT_EQ(coordinator->generation(), segment_count);
}

TEST(Federation, CoordinatorReapsFinishedConnectionThreads) {
  const std::string store_dir = fresh_dir("reap_src");
  build_store(store_dir, make_monitor_trace(100, 0, 21));
  const std::string root = fresh_dir("reap_root");
  std::string error;
  auto coordinator = Coordinator::start(root, {}, &error);
  ASSERT_NE(coordinator, nullptr) << error;

  // Every pass dials, handshakes and closes: one connection thread each.
  Shipper shipper(store_dir, shipper_options(coordinator->port(), 1, "us"));
  for (int pass = 0; pass < 50; ++pass) {
    ASSERT_TRUE(shipper.ship_pending(&error)) << "pass " << pass << ": "
                                              << error;
  }
  EXPECT_EQ(shipper.stats().connects, 50u);
  // Each accept reaps the threads whose connections already ended; only
  // the last few passes can still be unjoined.
  EXPECT_LE(coordinator->connection_threads(), 4u);
}

TEST(Federation, DuplicateAndDivergentDeliveries) {
  const std::string store_dir = fresh_dir("dup_src");
  build_store(store_dir, make_monitor_trace(150, 0, 21));
  const std::string other_dir = fresh_dir("dup_other");
  build_store(other_dir, make_monitor_trace(150, 1, 22));

  const std::string root = fresh_dir("dup_root");
  std::string error;
  auto coordinator = Coordinator::start(root, {}, &error);
  ASSERT_NE(coordinator, nullptr) << error;

  Shipper shipper(store_dir, shipper_options(coordinator->port(), 7, "eu-west"));
  ASSERT_TRUE(shipper.ship_pending(&error)) << error;

  const int fd =
      query::tcp_connect("127.0.0.1", coordinator->port(), 5000, &error);
  ASSERT_GE(fd, 0) << error;
  const HelloAckMsg ack = do_hello(fd, 7, "eu-west");
  EXPECT_EQ(ack.landed.size(),
            tracestore::TraceStore::open(store_dir)->segments().size());

  // Re-shipping an already-landed segment is an idempotent duplicate.
  const SegmentMsg dup = segment_msg_for(store_dir, "seg-000000.seg");
  EXPECT_EQ(ship_raw(fd, dup), AckStatus::kDuplicate);

  // The same file name with different (valid) content is a divergent
  // monitor, rejected permanently — never a silent overwrite.
  const SegmentMsg divergent = segment_msg_for(other_dir, "seg-000000.seg");
  ASSERT_NE(divergent.body_checksum, dup.body_checksum);
  EXPECT_EQ(ship_raw(fd, divergent), AckStatus::kRejected);

  // Bytes corrupted in flight fail the coordinator-side re-verification
  // even when the claimed checksum matches the (original) footer.
  SegmentMsg corrupt = segment_msg_for(store_dir, "seg-000001.seg");
  corrupt.file = "seg-000099.seg";  // fresh name, so it is not a duplicate
  corrupt.segment_bytes[corrupt.segment_bytes.size() / 2] ^= 0xff;
  EXPECT_EQ(ship_raw(fd, corrupt), AckStatus::kRejected);
  EXPECT_FALSE(fs::exists(fs::path(root) / "m-7" / "seg-000099.seg"));
  // No tmp litter either: verify-then-publish cleans up after a rejection.
  std::size_t tmp_files = 0;
  for (const auto& e : fs::directory_iterator(fs::path(root) / "m-7")) {
    if (e.path().extension() == ".tmp") ++tmp_files;
  }
  EXPECT_EQ(tmp_files, 0u);
  ::close(fd);

  // On-disk state is unchanged: the original segment still verifies.
  const std::string metrics = coordinator->metrics_text();
  EXPECT_NE(metrics.find("ipfsmon_federation_duplicate_segments_total"),
            std::string::npos);
  EXPECT_NE(metrics.find("ipfsmon_federation_rejected_segments_total"),
            std::string::npos);
  auto landed = tracestore::TraceStore::open((fs::path(root) / "m-7").string());
  ASSERT_TRUE(landed.has_value());
  EXPECT_EQ(read_file_bytes((fs::path(root) / "m-7" / "seg-000000.seg").string()),
            read_file_bytes((fs::path(store_dir) / "seg-000000.seg").string()));
}

TEST(Federation, HelloRejectsInvalidMonikers) {
  const std::string root = fresh_dir("hello_root");
  std::string error;
  auto coordinator = Coordinator::start(root, {}, &error);
  ASSERT_NE(coordinator, nullptr) << error;

  // Monitor id 0 is invalid; the coordinator hangs up instead of acking.
  int fd =
      query::tcp_connect("127.0.0.1", coordinator->port(), 5000, &error);
  ASSERT_GE(fd, 0) << error;
  HelloMsg bad;
  bad.monitor_id = 0;
  bad.vantage = "ok";
  ASSERT_TRUE(write_frame(fd, FrameType::kHello, encode(bad)));
  EXPECT_FALSE(read_frame(fd).has_value());
  ::close(fd);
  EXPECT_TRUE(coordinator->monitors().empty());
}

TEST(Federation, ResumeShipsOnlyTheGap) {
  const std::string store_dir = fresh_dir("resume_src");
  build_store(store_dir, make_monitor_trace(200, 0, 31));

  const std::string root = fresh_dir("resume_root");
  std::string error;
  auto coordinator = Coordinator::start(root, {}, &error);
  ASSERT_NE(coordinator, nullptr) << error;

  {
    Shipper first(store_dir, shipper_options(coordinator->port(), 3, "ap-se"));
    ASSERT_TRUE(first.ship_pending(&error)) << error;
  }
  const std::size_t before =
      tracestore::TraceStore::open(store_dir)->segments().size();

  // The monitor keeps recording: more sealed segments appear.
  tracestore::StoreOptions options;
  options.max_entries_per_segment = 64;
  auto writer = tracestore::SegmentWriter::resume(store_dir, options, nullptr,
                                                  &error);
  ASSERT_NE(writer, nullptr) << error;
  const trace::Trace more = make_monitor_trace(150, 0, 32);
  const util::SimTime base =
      tracestore::TraceStore::open(store_dir)->max_time() + kSecond;
  for (auto e : more.entries()) {
    e.timestamp += base;
    writer->append(e);
  }
  ASSERT_TRUE(writer->finalize());
  const std::size_t after =
      tracestore::TraceStore::open(store_dir)->segments().size();
  ASSERT_GT(after, before);

  // A brand-new shipper (fresh process, no in-memory watermarks) learns
  // what already landed from HELLO_ACK and ships only the gap.
  Shipper second(store_dir, shipper_options(coordinator->port(), 3, "ap-se"));
  ASSERT_TRUE(second.ship_pending(&error)) << error;
  const ShipperStats stats = second.stats();
  EXPECT_EQ(stats.segments_shipped, after - before);
  EXPECT_EQ(stats.segments_landed, after - before);
  EXPECT_EQ(stats.duplicates, 0u);
  const auto monitors = coordinator->monitors();
  ASSERT_EQ(monitors.size(), 1u);
  EXPECT_EQ(monitors[0].segments, after);
}

TEST(Federation, CoordinatorRestartRecoversTornLanding) {
  const std::string store_dir = fresh_dir("restart_src");
  build_store(store_dir, make_monitor_trace(250, 0, 41));

  const std::string root = fresh_dir("restart_root");
  std::string error;
  {
    auto coordinator = Coordinator::start(root, {}, &error);
    ASSERT_NE(coordinator, nullptr) << error;
    Shipper shipper(store_dir,
                    shipper_options(coordinator->port(), 5, "sa-east"));
    ASSERT_TRUE(shipper.ship_pending(&error)) << error;
    coordinator->stop();
  }

  // Simulate a crash mid-land: one segment torn (truncated), one write
  // that never finished (tmp file).
  const fs::path monitor_dir = fs::path(root) / "m-5";
  const auto segment_count =
      tracestore::TraceStore::open(store_dir)->segments().size();
  ASSERT_GE(segment_count, 3u);
  const std::string torn = (monitor_dir / "seg-000001.seg").string();
  const auto full = read_file_bytes(torn);
  {
    std::ofstream out(torn, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(full.data()),
              static_cast<std::streamsize>(full.size() / 2));
  }
  { std::ofstream out((monitor_dir / "seg-000009.seg.tmp").string()); }

  auto restarted = Coordinator::start(root, {}, &error);
  ASSERT_NE(restarted, nullptr) << error;
  EXPECT_FALSE(restarted->recovery_notes().empty());
  EXPECT_FALSE(fs::exists(monitor_dir / "seg-000009.seg.tmp"));
  EXPECT_TRUE(fs::exists(monitor_dir / "seg-000001.seg.torn"));
  const auto monitors = restarted->monitors();
  ASSERT_EQ(monitors.size(), 1u);
  EXPECT_EQ(monitors[0].vantage, "sa-east");  // from the FEDERATION manifest
  EXPECT_EQ(monitors[0].segments, segment_count - 1);

  // The shipper's next pass re-ships exactly the lost segment.
  Shipper shipper(store_dir, shipper_options(restarted->port(), 5, "sa-east"));
  ASSERT_TRUE(shipper.ship_pending(&error)) << error;
  const ShipperStats stats = shipper.stats();
  EXPECT_EQ(stats.segments_shipped, 1u);
  EXPECT_EQ(stats.segments_landed, 1u);
  EXPECT_EQ(restarted->monitors()[0].segments, segment_count);
  EXPECT_EQ(read_file_bytes(torn), full);
}

// --- Unified-store byte identity --------------------------------------------

/// The property the whole subsystem hangs on: unify over the coordinator's
/// landed per-monitor stores must be byte-identical to unify over the
/// monitors' local stores — even when a shipper crashed mid-replication
/// and a fresh one finished the job.
TEST(Federation, UnifiedStoreIsByteIdenticalToSingleStoreRun) {
  constexpr int kMonitors = 3;
  std::vector<std::string> local_dirs;
  for (int m = 0; m < kMonitors; ++m) {
    const std::string dir = fresh_dir("ident_src_" + std::to_string(m));
    build_store(dir, make_monitor_trace(220, static_cast<trace::MonitorId>(m),
                                        51 + static_cast<std::uint64_t>(m)));
    local_dirs.push_back(dir);
  }

  // Ground truth: one unify pass over the local stores, in monitor order.
  const std::string truth_dir = fresh_dir("ident_truth");
  {
    std::vector<tracestore::TraceStore> stores;
    std::vector<const tracestore::TraceStore*> inputs;
    for (const auto& dir : local_dirs) {
      stores.push_back(std::move(*tracestore::TraceStore::open(dir)));
    }
    for (const auto& s : stores) inputs.push_back(&s);
    auto writer = tracestore::SegmentWriter::create(truth_dir);
    ASSERT_NE(writer, nullptr);
    tracestore::unify_to_store(inputs, *writer);
    ASSERT_TRUE(writer->finalize());
  }

  const std::string root = fresh_dir("ident_root");
  std::string error;
  auto coordinator = Coordinator::start(root, {}, &error);
  ASSERT_NE(coordinator, nullptr) << error;

  // Monitor 1 "crashes" mid-replication: a raw connection ships only the
  // first two segments and then drops without so much as a goodbye.
  {
    const int fd =
      query::tcp_connect("127.0.0.1", coordinator->port(), 5000, &error);
    ASSERT_GE(fd, 0) << error;
    do_hello(fd, 2, "crashy");
    EXPECT_EQ(ship_raw(fd, segment_msg_for(local_dirs[1], "seg-000000.seg")),
              AckStatus::kLanded);
    EXPECT_EQ(ship_raw(fd, segment_msg_for(local_dirs[1], "seg-000001.seg")),
              AckStatus::kLanded);
    ::close(fd);
  }

  // Fresh shippers (monitor ids 1..3) replicate everything that is left.
  for (int m = 0; m < kMonitors; ++m) {
    Shipper shipper(local_dirs[static_cast<std::size_t>(m)],
                    shipper_options(coordinator->port(),
                                    static_cast<std::uint32_t>(m + 1),
                                    "v" + std::to_string(m)));
    ASSERT_TRUE(shipper.ship_pending(&error)) << error;
  }

  // Unify the landed per-monitor stores exactly as FederatedService does.
  const std::string fed_dir = fresh_dir("ident_fed");
  {
    std::vector<tracestore::TraceStore> stores;
    std::vector<const tracestore::TraceStore*> inputs;
    for (const auto& dir : coordinator->store_dirs()) {
      auto store = tracestore::TraceStore::open(dir, {}, &error);
      ASSERT_TRUE(store.has_value()) << dir << ": " << error;
      stores.push_back(std::move(*store));
    }
    ASSERT_EQ(stores.size(), static_cast<std::size_t>(kMonitors));
    for (const auto& s : stores) inputs.push_back(&s);
    auto writer = tracestore::SegmentWriter::create(fed_dir);
    ASSERT_NE(writer, nullptr);
    tracestore::unify_to_store(inputs, *writer);
    ASSERT_TRUE(writer->finalize());
  }

  auto truth = tracestore::TraceStore::open(truth_dir);
  auto fed = tracestore::TraceStore::open(fed_dir);
  ASSERT_TRUE(truth.has_value());
  ASSERT_TRUE(fed.has_value());
  ASSERT_EQ(truth->segments().size(), fed->segments().size());
  for (std::size_t i = 0; i < truth->segments().size(); ++i) {
    EXPECT_EQ(truth->segments()[i].file, fed->segments()[i].file);
    EXPECT_EQ(read_file_bytes(truth->segment_path(i)),
              read_file_bytes(fed->segment_path(i)))
        << truth->segments()[i].file;
  }
  EXPECT_EQ(read_file_bytes(truth_dir + "/MANIFEST"),
            read_file_bytes(fed_dir + "/MANIFEST"));
}

TEST(Federation, ClockSkewBeyondWindowIsNotDeduplicated) {
  // The same (peer, type, CID) broadcast seen by two monitors: 4 s apart is
  // within the paper's 5 s inter-monitor window (duplicate), 6 s apart —
  // e.g. a skewed vantage clock — is not.
  auto run = [](util::SimTime skew) {
    trace::Trace a, b;
    a.append(entry(10 * kSecond, 1, 1, 0));
    b.append(entry(10 * kSecond + skew, 1, 1, 1));
    const std::string dir_a = fresh_dir("skew_a"), dir_b = fresh_dir("skew_b");
    build_store(dir_a, a);
    build_store(dir_b, b);
    auto sa = tracestore::TraceStore::open(dir_a);
    auto sb = tracestore::TraceStore::open(dir_b);
    std::size_t total = 0, duplicates = 0;
    tracestore::unify_stores({&*sa, &*sb}, [&](const trace::TraceEntry& e) {
      ++total;
      if (e.flags & trace::kInterMonitorDuplicate) ++duplicates;
    });
    EXPECT_EQ(total, 2u);
    return duplicates;
  };
  EXPECT_EQ(run(4 * kSecond), 1u);  // inside the window: flagged
  EXPECT_EQ(run(6 * kSecond), 0u);  // beyond the window: two real requests
}

// --- Federated serving -------------------------------------------------------

TEST(Federation, FederatedServiceServesUnifiedAnswersWithProvenance) {
  std::vector<std::string> local_dirs;
  for (int m = 0; m < 2; ++m) {
    const std::string dir = fresh_dir("serve_src_" + std::to_string(m));
    build_store(dir, make_monitor_trace(180, static_cast<trace::MonitorId>(m),
                                        61 + static_cast<std::uint64_t>(m)));
    local_dirs.push_back(dir);
  }

  const std::string root = fresh_dir("serve_root");
  std::string error;
  auto service = FederatedService::start(root, {}, &error);
  ASSERT_NE(service, nullptr) << error;

  const std::vector<std::string> vantages = {"us-east", "eu-west"};
  for (std::size_t m = 0; m < local_dirs.size(); ++m) {
    Shipper shipper(local_dirs[m],
                    shipper_options(service->coordinator().port(),
                                    static_cast<std::uint32_t>(m + 1),
                                    vantages[m]));
    ASSERT_TRUE(shipper.ship_pending(&error)) << error;
  }
  ASSERT_TRUE(service->refresh(&error)) << error;

  // Ground truth: a plain QueryService over one local unify of the inputs.
  const std::string truth_dir = fresh_dir("serve_truth");
  {
    std::vector<tracestore::TraceStore> stores;
    std::vector<const tracestore::TraceStore*> inputs;
    for (const auto& dir : local_dirs) {
      stores.push_back(std::move(*tracestore::TraceStore::open(dir)));
    }
    for (const auto& s : stores) inputs.push_back(&s);
    auto writer = tracestore::SegmentWriter::create(truth_dir);
    tracestore::unify_to_store(inputs, *writer);
    ASSERT_TRUE(writer->finalize());
  }
  auto truth = query::QueryService::open(truth_dir, {}, &error);
  ASSERT_NE(truth, nullptr) << error;

  auto get = [&](const std::string& target) {
    query::HttpRequest request;
    request.method = "GET";
    request.target = target;
    const auto question = target.find('?');
    request.path = question == std::string::npos ? target
                                                 : target.substr(0, question);
    if (question != std::string::npos) {
      // Tiny query-string split; the tests only use k=v&k=v targets.
      std::string rest = target.substr(question + 1);
      while (!rest.empty()) {
        const auto amp = rest.find('&');
        const std::string pair =
            amp == std::string::npos ? rest : rest.substr(0, amp);
        rest = amp == std::string::npos ? std::string() : rest.substr(amp + 1);
        const auto eq = pair.find('=');
        if (eq != std::string::npos) {
          request.params[pair.substr(0, eq)] = pair.substr(eq + 1);
        }
      }
    }
    return service->query().handle(request);
  };

  // Unified answers equal the single-store ground truth.
  const util::SimTime hi = truth->store().max_time();
  const query::RangeStats unified = service->query().stats_between(0, hi);
  const query::RangeStats expected = truth->stats_between(0, hi);
  EXPECT_EQ(unified, expected);
  EXPECT_GT(expected.total, 0u);

  // /v1/monitors reports both vantage points.
  const auto monitors_response = get("/v1/monitors");
  EXPECT_EQ(monitors_response.status, 200);
  EXPECT_NE(monitors_response.body.find("\"us-east\""), std::string::npos);
  EXPECT_NE(monitors_response.body.find("\"eu-west\""), std::string::npos);
  EXPECT_NE(monitors_response.body.find("\"last_lag_us\""), std::string::npos);

  // /v1/segments carries provenance sources tying data to vantage points.
  const auto segments_response = get("/v1/segments");
  EXPECT_EQ(segments_response.status, 200);
  EXPECT_NE(segments_response.body.find("\"federated\":true"),
            std::string::npos);
  EXPECT_NE(segments_response.body.find("\"sources\""), std::string::npos);
  EXPECT_NE(segments_response.body.find("\"monitor\":1"), std::string::npos);
  EXPECT_NE(segments_response.body.find("\"monitor\":2"), std::string::npos);

  // /metrics includes the coordinator's federation section, and the
  // unified build reused the coordinator's validation cache (segments were
  // verified once at landing, not again at serving).
  const auto metrics_response = get("/metrics");
  EXPECT_EQ(metrics_response.status, 200);
  EXPECT_NE(metrics_response.body.find("ipfsmon_federation_segments_landed"),
            std::string::npos);
  EXPECT_NE(metrics_response.body.find("ipfsmon_federation_monitors 2"),
            std::string::npos);
  const auto hits_pos =
      metrics_response.body.find("ipfsmon_federation_validation_cache_hits_total");
  ASSERT_NE(hits_pos, std::string::npos);
  EXPECT_GT(service->coordinator().validation_cache().hits(), 0u);

  // Cached answers roll over when new segments land and refresh() runs.
  const auto first = get("/v1/stats?min_t=0");
  const auto second = get("/v1/stats?min_t=0");
  ASSERT_NE(find_header(second, "X-Cache"), nullptr);
  EXPECT_EQ(*find_header(second, "X-Cache"), "hit");
  {
    tracestore::StoreOptions options;
    options.max_entries_per_segment = 64;
    auto writer = tracestore::SegmentWriter::resume(local_dirs[0], options);
    ASSERT_NE(writer, nullptr);
    const util::SimTime base = truth->store().max_time() + kSecond;
    for (int i = 0; i < 80; ++i) {
      writer->append(entry(base + i * kSecond, i % 5, i % 9, 0));
    }
    ASSERT_TRUE(writer->finalize());
  }
  Shipper shipper(local_dirs[0],
                  shipper_options(service->coordinator().port(), 1, "us-east"));
  ASSERT_TRUE(shipper.ship_pending(&error)) << error;
  ASSERT_TRUE(service->refresh(&error)) << error;
  const auto third = get("/v1/stats?min_t=0");
  ASSERT_NE(find_header(third, "X-Cache"), nullptr);
  EXPECT_EQ(*find_header(third, "X-Cache"), "miss");
  EXPECT_NE(third.body, first.body);

  // A federated restart over the same root reuses the unified store
  // (UNIFIED_SOURCE fingerprint) instead of rebuilding it.
  const std::uint64_t fingerprint = service->query().fingerprint();
  service.reset();
  auto reopened = FederatedService::start(root, {}, &error);
  ASSERT_NE(reopened, nullptr) << error;
  EXPECT_EQ(reopened->query().fingerprint(), fingerprint);
}

TEST(Federation, NonFederatedServiceHasNoMonitorsEndpoint) {
  const std::string dir = fresh_dir("plain_store");
  build_store(dir, make_monitor_trace(100, 0, 71));
  std::string error;
  auto service = query::QueryService::open(dir, {}, &error);
  ASSERT_NE(service, nullptr) << error;
  query::HttpRequest request;
  request.method = "GET";
  request.target = "/v1/monitors";
  request.path = "/v1/monitors";
  EXPECT_EQ(service->handle(request).status, 404);
}

// --- queryd SIGHUP reload (subprocess) ---------------------------------------

#ifdef IPFSMON_QUERYD_BIN
/// Starts queryd over `store_dir` with stdout piped; returns pid + the
/// parsed HTTP port (from the "listening on http://...:PORT" line).
std::pair<pid_t, std::uint16_t> spawn_queryd(const std::string& store_dir) {
  int out_pipe[2];
  EXPECT_EQ(::pipe(out_pipe), 0);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    ::execl(IPFSMON_QUERYD_BIN, IPFSMON_QUERYD_BIN, "--store",
            store_dir.c_str(), "--port", "0", "--workers", "2",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(out_pipe[1]);
  // Read stdout until the listening line appears (or the pipe closes).
  std::string seen;
  std::uint16_t port = 0;
  char buffer[256];
  while (port == 0) {
    const ssize_t n = ::read(out_pipe[0], buffer, sizeof(buffer));
    if (n <= 0) break;
    seen.append(buffer, static_cast<std::size_t>(n));
    const auto pos = seen.find("listening on http://");
    if (pos == std::string::npos) continue;
    const auto colon = seen.find(':', pos + std::strlen("listening on http://"));
    if (colon == std::string::npos) continue;
    const auto end = seen.find_first_not_of("0123456789", colon + 1);
    if (end == std::string::npos) continue;
    port = static_cast<std::uint16_t>(
        std::atoi(seen.substr(colon + 1, end - colon - 1).c_str()));
  }
  // Keep draining in the background so the daemon never blocks on stdout.
  std::thread([fd = out_pipe[0]] {
    char sink[256];
    while (::read(fd, sink, sizeof(sink)) > 0) {
    }
    ::close(fd);
  }).detach();
  EXPECT_NE(port, 0) << "queryd never reported a listening port:\n" << seen;
  return {pid, port};
}

TEST(Federation, QuerydSighupReloadInvalidatesCachedAnswers) {
  const std::string dir = fresh_dir("sighup_store");
  build_store(dir, make_monitor_trace(150, 0, 81));

  const auto [pid, port] = spawn_queryd(dir);
  ASSERT_GT(pid, 0);
  ASSERT_NE(port, 0);

  // http_get_retry covers the daemon's startup race (satellite: client
  // retry discipline) — no sleep-and-hope.
  query::HttpRetryPolicy retry;
  retry.initial_delay_ms = 50;
  std::string error;
  const auto first =
      query::http_get_retry("127.0.0.1", port, "/v1/stats?min_t=0", retry,
                            5000, &error);
  ASSERT_TRUE(first.has_value()) << error;
  EXPECT_EQ(first->status, 200);
  ASSERT_NE(find_header(*first, "x-cache"), nullptr);
  EXPECT_EQ(*find_header(*first, "x-cache"), "miss");
  const auto second =
      query::http_get("127.0.0.1", port, "/v1/stats?min_t=0", 5000, &error);
  ASSERT_TRUE(second.has_value()) << error;
  EXPECT_EQ(*find_header(*second, "x-cache"), "hit");

  // New segments appear; SIGHUP re-opens the store and the cached answer
  // must roll over (the cache is keyed by the manifest fingerprint).
  {
    tracestore::StoreOptions options;
    options.max_entries_per_segment = 64;
    auto writer = tracestore::SegmentWriter::resume(dir, options);
    ASSERT_NE(writer, nullptr);
    for (int i = 0; i < 100; ++i) {
      writer->append(entry((1000 + i) * kSecond, i % 7, i % 11, 0));
    }
    ASSERT_TRUE(writer->finalize());
  }
  ASSERT_EQ(::kill(pid, SIGHUP), 0);

  // The reload is asynchronous; retry until the fingerprint rolled.
  std::optional<query::HttpResponse> reloaded;
  for (int attempt = 0; attempt < 100; ++attempt) {
    reloaded = query::http_get("127.0.0.1", port, "/v1/stats?min_t=0", 5000);
    if (reloaded && reloaded->body != first->body) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_NE(reloaded->body, first->body);
  ASSERT_NE(find_header(*reloaded, "x-cache"), nullptr);
  EXPECT_EQ(*find_header(*reloaded, "x-cache"), "miss");

  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}
#endif  // IPFSMON_QUERYD_BIN

}  // namespace
}  // namespace ipfsmon::federation
