// Out-of-core trace store (src/tracestore): Bloom filters, segment
// round-trips, crash detection and hostile dictionary counts, the
// segmented store directory format (a FIFO in place of a segment included),
// streaming unify equivalence with the in-memory path, and the
// Bloom-pruned parallel scan on the store's pool (its bounded read-ahead
// and concurrent scans over one store included).
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include <atomic>
#include <chrono>
#include <map>
#include <thread>
#include <tuple>
#include <unordered_set>

#include "scenario/study.hpp"
#include "trace/preprocess.hpp"
#include "tracestore/bloom.hpp"
#include "tracestore/hotset.hpp"
#include "tracestore/merge.hpp"
#include "tracestore/pool.hpp"
#include "tracestore/rollup.hpp"
#include "tracestore/scan.hpp"
#include "tracestore/store.hpp"
#include "util/codec.hpp"
#include "util/file.hpp"

#include "hostile_bytes.hpp"
#include "publish_check.hpp"
#include "test_helpers.hpp"

namespace ipfsmon::tracestore {
namespace {

using testing_helpers::unified_trace;
using util::kHour;
using util::kSecond;

crypto::PeerId peer_n(int n) {
  crypto::PeerId::Digest digest{};
  digest[0] = static_cast<std::uint8_t>(n);
  digest[1] = static_cast<std::uint8_t>(n >> 8);
  digest[31] = 0x5a;
  return crypto::PeerId(digest);
}

cid::Cid cid_n(int n) {
  return cid::Cid::of_data(cid::Multicodec::Raw,
                           util::bytes_of("store cid " + std::to_string(n)));
}

trace::TraceEntry entry(util::SimTime t, int peer, int cid,
                        trace::MonitorId monitor,
                        bitswap::WantType type = bitswap::WantType::WantHave) {
  trace::TraceEntry e;
  e.timestamp = t;
  e.peer = peer_n(peer);
  e.address =
      net::Address{0x0a000001u + static_cast<std::uint32_t>(peer), 4001};
  e.type = type;
  e.cid = cid_n(cid);
  e.monitor = monitor;
  return e;
}

bool entries_equal(const trace::TraceEntry& a, const trace::TraceEntry& b) {
  return a.timestamp == b.timestamp && a.peer == b.peer &&
         a.address == b.address && a.type == b.type && a.cid == b.cid &&
         a.monitor == b.monitor && a.flags == b.flags;
}

/// A time-sorted random per-monitor trace (monitors record in time order).
trace::Trace make_monitor_trace(std::size_t n, trace::MonitorId monitor,
                                std::uint64_t seed) {
  util::RngStream rng(seed, "tracestore-test");
  trace::Trace t;
  util::SimTime ts = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ts += rng.uniform_index(20 * kSecond);
    auto e = entry(ts, static_cast<int>(rng.uniform_index(25)),
                   static_cast<int>(rng.uniform_index(40)), monitor);
    const auto roll = rng.uniform_index(4);
    e.type = roll == 0 ? bitswap::WantType::Cancel
             : roll == 1 ? bitswap::WantType::WantBlock
                         : bitswap::WantType::WantHave;
    t.append(std::move(e));
  }
  return t;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/tracestore_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Reads a whole store back through the streaming cursor.
trace::Trace drain(const TraceStore& store) {
  StoreCursor cursor(store);
  trace::Trace out;
  trace::TraceEntry e;
  while (cursor.next(e)) out.append(e);
  return out;
}

// --- Bloom filters --------------------------------------------------------------

TEST(Bloom, NoFalseNegatives) {
  BloomFilter filter = BloomFilter::with_capacity(500);
  for (int i = 0; i < 500; ++i) filter.insert(bloom_hash(peer_n(i)));
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(filter.might_contain(bloom_hash(peer_n(i)))) << i;
  }
}

TEST(Bloom, FalsePositiveRateIsLow) {
  BloomFilter filter = BloomFilter::with_capacity(500);
  for (int i = 0; i < 500; ++i) filter.insert(bloom_hash(cid_n(i)));
  int false_positives = 0;
  for (int i = 500; i < 2500; ++i) {
    if (filter.might_contain(bloom_hash(cid_n(i)))) ++false_positives;
  }
  // 10 bits/key targets ~1%; allow generous slack against hash unluck.
  EXPECT_LT(false_positives, 100);
}

TEST(Bloom, EmptyFilterContainsNothing) {
  const BloomFilter filter;
  EXPECT_TRUE(filter.empty());
  EXPECT_FALSE(filter.might_contain(bloom_hash(peer_n(1))));
}

TEST(Bloom, FromPartsRejectsMismatchedSizes) {
  BloomFilter filter = BloomFilter::with_capacity(10);
  EXPECT_TRUE(BloomFilter::from_parts(filter.bit_count(), filter.hash_count(),
                                      filter.bytes())
                  .has_value());
  util::Bytes wrong = filter.bytes();
  wrong.push_back(0);
  EXPECT_FALSE(BloomFilter::from_parts(filter.bit_count(), filter.hash_count(),
                                       std::move(wrong))
                   .has_value());
}

// --- Segments -------------------------------------------------------------------

TEST(Segment, WriteReadRoundTrip) {
  const std::string dir = fresh_dir("segment_rt");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/seg-000000.seg";
  const trace::Trace t = make_monitor_trace(300, 0, 1);

  SegmentFooter footer;
  std::string error;
  ASSERT_TRUE(write_segment_file(path, t, &footer, &error)) << error;
  EXPECT_EQ(footer.entry_count, 300u);
  EXPECT_EQ(footer.min_time, t.entries().front().timestamp);
  EXPECT_EQ(footer.max_time, t.entries().back().timestamp);
  EXPECT_GT(footer.body_bytes, 0u);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  const auto reread = read_segment_footer(path, &error);
  ASSERT_TRUE(reread.has_value()) << error;
  EXPECT_EQ(reread->entry_count, footer.entry_count);
  EXPECT_EQ(reread->body_checksum, footer.body_checksum);

  auto reader = SegmentReader::open(path, &error);
  ASSERT_TRUE(reader.has_value()) << error;
  trace::TraceEntry e;
  std::size_t i = 0;
  while (reader->next(e)) {
    ASSERT_LT(i, t.size());
    EXPECT_TRUE(entries_equal(e, t.entries()[i])) << i;
    ++i;
  }
  EXPECT_EQ(i, t.size());
}

/// A fixed, seeded trace with every field varied: repeated and one-off
/// peers, addresses and CIDs (v0 and v1 under several codecs), all want
/// types, five monitors, flags, equal and backwards timestamps.
trace::Trace pinned_trace() {
  util::RngStream rng(7, "segment-pin");
  const cid::Multicodec codecs[] = {cid::Multicodec::Raw,
                                    cid::Multicodec::DagProtobuf,
                                    cid::Multicodec::DagCBOR};
  trace::Trace t;
  util::SimTime ts = 1000;
  for (int i = 0; i < 3000; ++i) {
    const auto step = rng.uniform_index(8);
    if (step == 0) {
      ts -= static_cast<util::SimTime>(rng.uniform_index(kSecond));
    } else if (step > 1) {
      ts += static_cast<util::SimTime>(rng.uniform_index(3 * kSecond));
    }
    const bool one_off = rng.bernoulli(0.3);
    const int peer = static_cast<int>(rng.uniform_index(one_off ? 5000 : 40));
    const int key = static_cast<int>(rng.uniform_index(one_off ? 100000 : 60));
    auto e = entry(ts, peer, key,
                   static_cast<trace::MonitorId>(rng.uniform_index(5)));
    e.address = net::Address{0x0a000001u + static_cast<std::uint32_t>(
                                               rng.uniform_index(90)),
                             static_cast<std::uint16_t>(4001 + key % 3)};
    const std::string seed = "pin " + std::to_string(key);
    e.cid = key % 4 == 0
                ? cid::Cid::v0_of_data(util::bytes_of(seed))
                : cid::Cid::of_data(codecs[key % 3], util::bytes_of(seed));
    const auto roll = rng.uniform_index(3);
    e.type = roll == 0 ? bitswap::WantType::Cancel
             : roll == 1 ? bitswap::WantType::WantBlock
                         : bitswap::WantType::WantHave;
    e.flags = static_cast<std::uint32_t>(rng.uniform_index(4));
    t.append(std::move(e));
  }
  return t;
}

TEST(Segment, EncodedBytesArePinned) {
  // The whole .seg file (body, footer Blooms, trailer) must hash to the
  // same constant whatever the encoder's internals, so the format cannot
  // drift silently.
  const std::string dir = fresh_dir("segment_pin");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/seg-000000.seg";
  ASSERT_TRUE(write_segment_file(path, pinned_trace(), nullptr, nullptr));
  util::Bytes bytes;
  ASSERT_TRUE(util::read_file(path, &bytes));
  EXPECT_EQ(bytes.size(), 97275u);
  EXPECT_EQ(util::fnv1a64(bytes, 0), 0x7ba6b977714f8501ull);
}

TEST(Segment, RollupBytesArePinned) {
  // The rollup sidecar a writer seals beside the pinned segment (buckets,
  // distinct peer and CID counts, trailer) is pinned the same way.
  const std::string dir = fresh_dir("rollup_pin");
  auto writer = SegmentWriter::create(dir, {});
  ASSERT_NE(writer, nullptr);
  const trace::Trace t = pinned_trace();
  for (const auto& e : t.entries()) writer->append(e);
  ASSERT_TRUE(writer->finalize()) << writer->error();
  util::Bytes bytes;
  ASSERT_TRUE(util::read_file(dir + "/seg-000000.seg", &bytes));
  EXPECT_EQ(bytes.size(), 97275u);
  EXPECT_EQ(util::fnv1a64(bytes, 0), 0x7ba6b977714f8501ull);
  ASSERT_TRUE(util::read_file(dir + "/seg-000000.seg.rollup", &bytes));
  EXPECT_EQ(bytes.size(), 427u);
  EXPECT_EQ(util::fnv1a64(bytes, 0), 0x89d91a75c16b0710ull);
}

TEST(Segment, FooterBloomCoversSegmentKeys) {
  const std::string dir = fresh_dir("segment_bloom");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/seg.seg";
  trace::Trace t;
  for (int i = 0; i < 50; ++i) t.append(entry(i * kSecond, i, i + 100, 0));
  SegmentFooter footer;
  ASSERT_TRUE(write_segment_file(path, t, &footer, nullptr));
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(footer.peer_bloom.might_contain(bloom_hash(peer_n(i))));
    EXPECT_TRUE(footer.cid_bloom.might_contain(bloom_hash(cid_n(i + 100))));
  }
}

TEST(Segment, TruncationIsDetected) {
  const std::string dir = fresh_dir("segment_trunc");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/seg.seg";
  ASSERT_TRUE(
      write_segment_file(path, make_monitor_trace(100, 0, 2), nullptr,
                         nullptr));
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  std::string error;
  EXPECT_FALSE(read_segment_footer(path, &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(SegmentReader::open(path).has_value());
}

TEST(Segment, BodyCorruptionFailsChecksum) {
  const std::string dir = fresh_dir("segment_flip");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/seg.seg";
  ASSERT_TRUE(
      write_segment_file(path, make_monitor_trace(100, 0, 3), nullptr,
                         nullptr));
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(20);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(20);
    byte = static_cast<char>(byte ^ 0xff);
    f.write(&byte, 1);
  }
  // The footer (at the tail) is intact, so the cheap open-time check still
  // passes — the body checksum catches the damage when reading.
  EXPECT_TRUE(read_segment_footer(path, nullptr).has_value());
  EXPECT_FALSE(SegmentReader::open(path).has_value());
}

TEST(Segment, HostileDictionaryCountsAreRefused) {
  // Valid checksums, absurd counts: each must be an error, not a reserve()
  // of 2^40 (or 2^63 - 1) dictionary slots that aborts the process.
  const std::string dir = fresh_dir("segment_hostile");
  std::filesystem::create_directories(dir);
  constexpr std::uint64_t kHuge = 1ull << 40;
  constexpr std::uint64_t kMax = (1ull << 63) - 1;
  const struct {
    const char* what;
    util::Bytes bytes;
  } cases[] = {
      {"peers 2^40", testing_helpers::hostile_segment({kHuge})},
      {"peers 2^63-1", testing_helpers::hostile_segment({kMax})},
      {"addresses 2^40", testing_helpers::hostile_segment({0, kHuge})},
      {"addresses 2^63-1", testing_helpers::hostile_segment({0, kMax})},
      {"CIDs 2^40", testing_helpers::hostile_segment({0, 0, kHuge})},
      {"CIDs 2^63-1", testing_helpers::hostile_segment({0, 0, kMax})},
  };
  EXPECT_EQ(cases[0].bytes.size(), 44u);
  const std::string path = dir + "/seg-000000.seg";
  for (const auto& c : cases) {
    ASSERT_TRUE(util::publish(path, {c.bytes}));
    std::string error;
    EXPECT_TRUE(read_segment_footer(path, &error).has_value())
        << c.what << ": " << error;
    error.clear();
    EXPECT_FALSE(SegmentReader::open(path, &error).has_value()) << c.what;
    EXPECT_NE(error.find("dictionary"), std::string::npos)
        << c.what << ": " << error;
    EXPECT_EQ(error.rfind(path + ": ", 0), 0u) << c.what << ": " << error;
  }
}

TEST(Store, FifoNamedLikeASegmentStallsNeitherOpenNorRecovery) {
  const std::string dir = fresh_dir("fifo");
  StoreOptions options;
  options.max_entries_per_segment = 50;
  auto writer = SegmentWriter::create(dir, options);
  const trace::Trace t = make_monitor_trace(100, 0, 8);
  for (const auto& e : t.entries()) writer->append(e);
  ASSERT_TRUE(writer->finalize());
  // The second segment is replaced by a FIFO nobody writes to: opening it
  // for reading without O_NONBLOCK would block forever.
  const std::string fifo = (std::filesystem::path(dir) / "seg-000001.seg").string();
  std::filesystem::remove(fifo);
  std::filesystem::remove(rollup_path_for(fifo));
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);

  std::string error;
  EXPECT_FALSE(read_segment_footer(fifo, &error).has_value());
  EXPECT_NE(error.find("not a regular file"), std::string::npos) << error;
  auto store = TraceStore::open(dir);
  ASSERT_TRUE(store.has_value());
  EXPECT_EQ(store->segments().size(), 1u);

  const auto report = recover_store_dir(dir, options, &error);
  ASSERT_TRUE(report.has_value()) << error;
  EXPECT_EQ(report->segments_kept, 1u);
  EXPECT_EQ(report->segments_dropped, 1u);
  EXPECT_FALSE(std::filesystem::exists(fifo));
}

// --- Store directory format -----------------------------------------------------

TEST(Store, WriterRollsByEntryCount) {
  const std::string dir = fresh_dir("roll_count");
  StoreOptions options;
  options.max_entries_per_segment = 64;
  auto writer = SegmentWriter::create(dir, options);
  ASSERT_NE(writer, nullptr);
  const trace::Trace t = make_monitor_trace(300, 0, 4);
  for (const auto& e : t.entries()) writer->append(e);
  ASSERT_TRUE(writer->finalize());
  EXPECT_GE(writer->segments_written(), 300u / 64u);

  auto store = TraceStore::open(dir);
  ASSERT_TRUE(store.has_value());
  EXPECT_GE(store->segments().size(), 4u);
  EXPECT_EQ(store->total_entries(), 300u);
  for (const auto& seg : store->segments()) {
    EXPECT_LE(seg.footer.entry_count, 64u);
  }
  const trace::Trace back = drain(*store);
  ASSERT_EQ(back.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_TRUE(entries_equal(back.entries()[i], t.entries()[i])) << i;
  }
}

TEST(Store, WriterRollsByTimeSpan) {
  const std::string dir = fresh_dir("roll_span");
  StoreOptions options;
  options.max_segment_span = 1 * kHour;
  auto writer = SegmentWriter::create(dir, options);
  ASSERT_NE(writer, nullptr);
  for (int i = 0; i < 10; ++i) {
    writer->append(entry(i * kHour, 1, 1, 0));  // each hour apart
  }
  ASSERT_TRUE(writer->finalize());
  auto store = TraceStore::open(dir);
  ASSERT_TRUE(store.has_value());
  EXPECT_GE(store->segments().size(), 5u);
  for (const auto& seg : store->segments()) {
    EXPECT_LE(seg.footer.max_time - seg.footer.min_time, 1 * kHour);
  }
}

TEST(Store, FinalizeIsIdempotentAndCreateWipes) {
  const std::string dir = fresh_dir("finalize");
  {
    auto writer = SegmentWriter::create(dir);
    writer->append(entry(0, 1, 1, 0));
    EXPECT_TRUE(writer->finalize());
    EXPECT_TRUE(writer->finalize());
  }
  {
    auto store = TraceStore::open(dir);
    ASSERT_TRUE(store.has_value());
    EXPECT_EQ(store->total_entries(), 1u);
  }
  // create() starts clean: the old segment must not leak into the new
  // store.
  auto writer = SegmentWriter::create(dir);
  ASSERT_NE(writer, nullptr);
  writer->append(entry(0, 2, 2, 0));
  writer->append(entry(1, 3, 3, 0));
  ASSERT_TRUE(writer->finalize());
  auto store = TraceStore::open(dir);
  ASSERT_TRUE(store.has_value());
  EXPECT_EQ(store->total_entries(), 2u);
}

TEST(Store, UnfinalizedStoreHasNoManifest) {
  const std::string dir = fresh_dir("unfinalized");
  {
    auto writer = SegmentWriter::create(dir);
    writer->append(entry(0, 1, 1, 0));
    ASSERT_TRUE(writer->finalize());
  }
  // A crash before the manifest publish leaves segments but no manifest:
  // the store must refuse to open rather than guess at the contents.
  std::filesystem::remove(dir + "/MANIFEST");
  std::string error;
  EXPECT_FALSE(TraceStore::open(dir, {}, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(Store, WriteManifestIsAllOrNothing) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const std::string dir = fresh_dir("publish");
  std::filesystem::create_directories(dir);
  SegmentFooter footer;
  footer.entry_count = 3;
  footer.min_time = -5;
  footer.max_time = 7;
  const std::vector<std::pair<std::string, SegmentFooter>> rows = {
      {"seg-000000.seg", footer}};
  testing_helpers::expect_publish_all_or_nothing(
      dir, "MANIFEST", "ipfsmon-tracestore v1\nseg-000000.seg 3 -5 7\n", [&] {
        std::string error;
        const bool ok = write_manifest(dir, rows, &error);
        EXPECT_EQ(ok, error.empty()) << error;
        return ok;
      });
}

TEST(Store, OpenRefusesAManifestThatIsNotARegularFile) {
  if (!std::filesystem::exists("/dev/zero")) GTEST_SKIP() << "no /dev/zero";
  const std::string dir = fresh_dir("devzero");
  {
    auto writer = SegmentWriter::create(dir);
    writer->append(entry(0, 1, 1, 0));
    ASSERT_TRUE(writer->finalize());
  }
  // An endless device must be refused, not read until memory runs out.
  std::filesystem::remove(dir + "/MANIFEST");
  std::filesystem::create_symlink("/dev/zero", dir + "/MANIFEST");
  std::string error;
  EXPECT_FALSE(TraceStore::open(dir, {}, &error).has_value());
  EXPECT_NE(error.find("not a regular file"), std::string::npos) << error;
}

TEST(Store, ResumeSweepsTempsOfInterruptedPublishes) {
  const std::string dir = fresh_dir("temps");
  StoreOptions options;
  options.max_entries_per_segment = 4;
  {
    auto writer = SegmentWriter::create(dir, options);
    for (int i = 0; i < 10; ++i) writer->append(entry(i * kSecond, i, i, 0));
    ASSERT_TRUE(writer->finalize());
  }
  // A crash mid-publish leaves the temp of a segment and of the MANIFEST.
  { std::ofstream(dir + "/seg-000001.seg.tmp") << "torn bytes"; }
  { std::ofstream(dir + "/MANIFEST.tmp") << "ipfsmon-tracestore v1\n"; }
  RecoveryReport report;
  std::string error;
  auto writer = SegmentWriter::resume(dir, options, &report, &error);
  ASSERT_NE(writer, nullptr) << error;
  EXPECT_FALSE(std::filesystem::exists(dir + "/seg-000001.seg.tmp"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/MANIFEST.tmp"));
  EXPECT_EQ(report.segments_kept, 3u);
  EXPECT_EQ(report.entries_recovered, 10u);
  std::size_t temp_notes = 0;
  for (const auto& note : report.notes) {
    if (note.find("seg-000001.seg.tmp") != std::string::npos ||
        note.find("MANIFEST.tmp") != std::string::npos) {
      ++temp_notes;
    }
  }
  EXPECT_EQ(temp_notes, 2u);
  ASSERT_TRUE(writer->finalize());
  auto store = TraceStore::open(dir);
  ASSERT_TRUE(store.has_value());
  EXPECT_EQ(store->total_entries(), 10u);
}

TEST(Store, TruncatedSegmentSkippedWithWarning) {
  const std::string dir = fresh_dir("crash");
  StoreOptions options;
  options.max_entries_per_segment = 50;
  auto writer = SegmentWriter::create(dir, options);
  const trace::Trace t = make_monitor_trace(150, 0, 5);
  for (const auto& e : t.entries()) writer->append(e);
  ASSERT_TRUE(writer->finalize());

  auto before = TraceStore::open(dir);
  ASSERT_TRUE(before.has_value());
  const std::size_t total_segments = before->segments().size();
  ASSERT_GE(total_segments, 3u);

  // Simulate a torn write on the middle segment.
  const std::string victim = before->segment_path(1);
  std::filesystem::resize_file(victim,
                               std::filesystem::file_size(victim) - 7);

  auto store = TraceStore::open(dir);
  ASSERT_TRUE(store.has_value());
  EXPECT_EQ(store->segments().size(), total_segments - 1);
  ASSERT_FALSE(store->warnings().empty());
  EXPECT_NE(store->warnings()[0].find("seg-000001"), std::string::npos);
  // The surviving segments still stream fine.
  EXPECT_EQ(drain(*store).size(), store->total_entries());
}

TEST(Store, PruneBeforeDropsWholeSegments) {
  const std::string dir = fresh_dir("prune");
  StoreOptions options;
  options.max_entries_per_segment = 25;
  auto writer = SegmentWriter::create(dir, options);
  for (int i = 0; i < 100; ++i) writer->append(entry(i * kSecond, 1, 1, 0));
  ASSERT_TRUE(writer->finalize());

  auto store = TraceStore::open(dir);
  ASSERT_TRUE(store.has_value());
  const std::size_t before = store->segments().size();
  ASSERT_GE(before, 4u);
  const std::size_t removed = store->prune_before(50 * kSecond);
  EXPECT_GE(removed, 1u);
  EXPECT_EQ(store->segments().size(), before - removed);
  for (const auto& seg : store->segments()) {
    EXPECT_GE(seg.footer.max_time, 50 * kSecond);
  }
  // The rewritten manifest reflects the prune on reopen.
  auto reopened = TraceStore::open(dir);
  ASSERT_TRUE(reopened.has_value());
  EXPECT_EQ(reopened->segments().size(), before - removed);
}

// --- Out-of-core unify ----------------------------------------------------------

TEST(Unify, MatchesInMemoryUnifyExactly) {
  std::vector<trace::Trace> traces;
  for (std::uint64_t m = 0; m < 3; ++m) {
    traces.push_back(
        make_monitor_trace(400, static_cast<trace::MonitorId>(m), 10 + m));
  }

  std::vector<TraceStore> stores;
  StoreOptions options;
  options.max_entries_per_segment = 64;  // force several segments each
  for (std::size_t m = 0; m < traces.size(); ++m) {
    const std::string dir = fresh_dir("unify_in_" + std::to_string(m));
    auto writer = SegmentWriter::create(dir, options);
    for (const auto& e : traces[m].entries()) writer->append(e);
    ASSERT_TRUE(writer->finalize());
    auto store = TraceStore::open(dir, options);
    ASSERT_TRUE(store.has_value());
    stores.push_back(std::move(*store));
  }

  std::vector<const trace::Trace*> mem_inputs;
  for (const auto& t : traces) mem_inputs.push_back(&t);
  const trace::Trace expected = trace::unify(mem_inputs);

  std::vector<const TraceStore*> store_inputs;
  for (const auto& s : stores) store_inputs.push_back(&s);
  trace::Trace streamed;
  const UnifyStats stats = unify_stores(
      store_inputs,
      [&streamed](const trace::TraceEntry& e) { streamed.append(e); });

  EXPECT_EQ(stats.entries, expected.size());
  ASSERT_EQ(streamed.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(entries_equal(streamed.entries()[i], expected.entries()[i]))
        << i;
  }
  // The whole point: window state stays tiny relative to the trace.
  EXPECT_GT(stats.peak_window_keys, 0u);
  EXPECT_LT(stats.peak_window_keys, expected.size() / 2);
}

TEST(StreamingFlagger, MatchesMarkFlagsOnSeededStreams) {
  // Few keys, six monitors, and steps that are often zero or exactly a
  // window long: equal timestamps, sightings exactly 5 s and 31 s apart,
  // and keys that fall out of the window and come back into a recycled
  // slot. Each edge case is counted so the streams provably contain it.
  const util::SimDuration steps[] = {0,
                                     0,
                                     1,
                                     trace::kInterMonitorWindow,
                                     trace::kInterMonitorWindow + 1,
                                     trace::kRebroadcastWindow,
                                     trace::kRebroadcastWindow + 1,
                                     3 * trace::kRebroadcastWindow};
  std::size_t equal_times = 0, inter_edges = 0, rebroadcast_edges = 0,
              returns = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    util::RngStream rng(seed, "flagger-property");
    trace::Trace stream;
    util::SimTime ts = 0;
    for (int i = 0; i < 4000; ++i) {
      ts += rng.bernoulli(0.5)
                ? steps[rng.uniform_index(std::size(steps))]
                : static_cast<util::SimTime>(rng.uniform_index(2 * kSecond));
      const auto roll = rng.uniform_index(3);
      stream.append(entry(ts, static_cast<int>(rng.uniform_index(3)),
                          static_cast<int>(rng.uniform_index(4)),
                          static_cast<trace::MonitorId>(rng.uniform_index(6)),
                          roll == 0   ? bitswap::WantType::Cancel
                          : roll == 1 ? bitswap::WantType::WantBlock
                                      : bitswap::WantType::WantHave));
    }
    trace::Trace expected = stream;
    trace::mark_flags(expected);

    // Tally the edge cases: per key, when each monitor last saw it.
    std::map<std::tuple<crypto::PeerId, bitswap::WantType, cid::Cid>,
             std::map<trace::MonitorId, util::SimTime>>
        last;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const auto& e = stream.entries()[i];
      if (i > 0 && e.timestamp == stream.entries()[i - 1].timestamp) {
        ++equal_times;
      }
      auto& seen = last[{e.peer, e.type, e.cid}];
      util::SimTime latest = INT64_MIN;
      for (const auto& [monitor, when] : seen) {
        latest = std::max(latest, when);
        const util::SimDuration delta = e.timestamp - when;
        if (monitor != e.monitor && delta == trace::kInterMonitorWindow) {
          ++inter_edges;
        }
        if (monitor == e.monitor && delta == trace::kRebroadcastWindow) {
          ++rebroadcast_edges;
        }
      }
      if (!seen.empty() &&
          e.timestamp - latest > StreamingFlagger::kWidestWindow) {
        ++returns;
      }
      seen[e.monitor] = e.timestamp;
    }

    StreamingFlagger flagger;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      trace::TraceEntry e = stream.entries()[i];
      e.flags = 0xff;  // mark() must overwrite, not OR into, the flags
      flagger.mark(e);
      ASSERT_EQ(e.flags, expected.entries()[i].flags)
          << "seed " << seed << " entry " << i;
    }
    EXPECT_LE(flagger.peak_keys(), 3u * 3u * 4u);
  }
  EXPECT_GT(equal_times, 0u);
  EXPECT_GT(inter_edges, 0u);
  EXPECT_GT(rebroadcast_edges, 0u);
  EXPECT_GT(returns, 0u);
}

TEST(Unify, ToStoreRoundTrips) {
  const trace::Trace a = make_monitor_trace(200, 0, 20);
  const trace::Trace b = make_monitor_trace(200, 1, 21);
  StoreOptions options;
  options.max_entries_per_segment = 64;

  std::vector<TraceStore> stores;
  std::size_t idx = 0;
  for (const auto* t : {&a, &b}) {
    const std::string dir = fresh_dir("unify_store_in_" + std::to_string(idx++));
    auto writer = SegmentWriter::create(dir, options);
    for (const auto& e : t->entries()) writer->append(e);
    ASSERT_TRUE(writer->finalize());
    stores.push_back(std::move(*TraceStore::open(dir, options)));
  }

  const std::string out_dir = fresh_dir("unify_store_out");
  auto out = SegmentWriter::create(out_dir, options);
  const UnifyStats stats = unify_to_store({&stores[0], &stores[1]}, *out);
  ASSERT_TRUE(out->finalize());
  EXPECT_EQ(stats.entries, 400u);

  auto unified_store = TraceStore::open(out_dir);
  ASSERT_TRUE(unified_store.has_value());
  const trace::Trace expected = trace::unify({&a, &b});
  const trace::Trace back = drain(*unified_store);
  ASSERT_EQ(back.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(entries_equal(back.entries()[i], expected.entries()[i])) << i;
  }
}

// --- Scan ------------------------------------------------------------------------

class ScanFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    // Four time-disjoint segments with disjoint peer/CID ranges, so both
    // pruning axes have something to bite on. The dir carries the test
    // name: ctest -j runs each TEST_F as its own process, so a shared
    // path would be wiped mid-run by a sibling's SetUp.
    const std::string dir = fresh_dir(
        std::string("scan_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    StoreOptions options;
    options.max_entries_per_segment = 100;
    auto writer = SegmentWriter::create(dir, options);
    for (int seg = 0; seg < 4; ++seg) {
      for (int i = 0; i < 100; ++i) {
        full_.append(entry((seg * 1000 + i) * kSecond, seg * 100 + i,
                           seg * 100 + i, 0));
      }
    }
    for (const auto& e : full_.entries()) writer->append(e);
    ASSERT_TRUE(writer->finalize());
    store_.emplace(std::move(*TraceStore::open(dir, options)));
    ASSERT_EQ(store_->segments().size(), 4u);
  }

  trace::Trace run(const ScanQuery& query, ScanStats* stats = nullptr) {
    trace::Trace out;
    const ScanStats s = scan(
        *store_, query,
        [&out](const trace::TraceEntry& e) { out.append(e); });
    if (stats != nullptr) *stats = s;
    return out;
  }

  trace::Trace full_;
  std::optional<TraceStore> store_;
};

TEST_F(ScanFixture, FullScanReturnsEverythingInOrder) {
  ScanStats stats;
  const trace::Trace got = run(ScanQuery{}, &stats);
  ASSERT_EQ(got.size(), full_.size());
  for (std::size_t i = 0; i < full_.size(); ++i) {
    EXPECT_TRUE(entries_equal(got.entries()[i], full_.entries()[i])) << i;
  }
  EXPECT_EQ(stats.segments_total, 4u);
  EXPECT_EQ(stats.segments_scanned, 4u);
  EXPECT_EQ(stats.entries_matched, full_.size());
}

TEST_F(ScanFixture, TimeRangePrunesSegments) {
  ScanQuery query;
  query.min_time = 1000 * kSecond;
  query.max_time = 1099 * kSecond;
  ScanStats stats;
  const trace::Trace got = run(query, &stats);
  const trace::Trace expected =
      full_.filter([&](const trace::TraceEntry& e) { return query.matches(e); });
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(entries_equal(got.entries()[i], expected.entries()[i])) << i;
  }
  EXPECT_GE(stats.segments_pruned_time, 2u);
  EXPECT_LE(stats.segments_scanned, 2u);
}

TEST_F(ScanFixture, PeerQueryUsesBloomPruning) {
  ScanQuery query;
  query.peers = {peer_n(105)};  // lives in segment 1 only
  ScanStats stats;
  const trace::Trace got = run(query, &stats);
  const trace::Trace expected =
      full_.filter([&](const trace::TraceEntry& e) { return query.matches(e); });
  ASSERT_EQ(got.size(), expected.size());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_TRUE(entries_equal(got.entries()[0], expected.entries()[0]));
  EXPECT_GE(stats.segments_pruned_bloom, 1u);
}

TEST_F(ScanFixture, CidQueryUsesBloomPruning) {
  ScanQuery query;
  query.cids = {cid_n(210), cid_n(211)};  // segment 2 only
  ScanStats stats;
  const trace::Trace got = run(query, &stats);
  EXPECT_EQ(got.size(), 2u);
  EXPECT_GE(stats.segments_pruned_bloom, 1u);
  for (const auto& e : got.entries()) {
    EXPECT_TRUE(query.matches(e));
  }
}

TEST_F(ScanFixture, AbsentKeyMatchesNothing) {
  ScanQuery query;
  query.peers = {peer_n(9999)};
  ScanStats stats;
  const trace::Trace got = run(query, &stats);
  EXPECT_EQ(got.size(), 0u);
  // Bloom pruning should kill (almost) every segment outright.
  EXPECT_GE(stats.segments_pruned_bloom, 3u);
}

TEST_F(ScanFixture, OpenEndedRangeMatchesFilterInOrder) {
  ScanQuery query;
  query.min_time = 500 * kSecond;
  const trace::Trace got = run(query);
  const trace::Trace expected =
      full_.filter([&](const trace::TraceEntry& e) { return query.matches(e); });
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(entries_equal(got.entries()[i], expected.entries()[i])) << i;
  }
}

TEST(Scan, CorruptSegmentSkippedWithWarning) {
  const std::string dir = fresh_dir("scan_corrupt");
  StoreOptions options;
  options.max_entries_per_segment = 50;
  auto writer = SegmentWriter::create(dir, options);
  for (int i = 0; i < 150; ++i) writer->append(entry(i * kSecond, i, i, 0));
  ASSERT_TRUE(writer->finalize());

  auto probe = TraceStore::open(dir, options);
  ASSERT_TRUE(probe.has_value());
  // Flip a body byte: the footer stays valid (so open() keeps the
  // segment), but the decode-time body checksum fails during the scan.
  const std::string victim = probe->segment_path(1);
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(10);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(10);
    byte = static_cast<char>(byte ^ 0x55);
    f.write(&byte, 1);
  }

  auto store = TraceStore::open(dir, options);
  ASSERT_TRUE(store.has_value());
  ASSERT_EQ(store->segments().size(), 3u);
  trace::Trace got;
  const ScanStats stats =
      scan(*store, ScanQuery{},
           [&got](const trace::TraceEntry& e) { got.append(e); });
  ASSERT_EQ(got.size(), 100u);  // the two intact segments, in order
  for (std::size_t i = 0; i < got.size(); ++i) {
    const int n = static_cast<int>(i < 50 ? i : i + 50);
    EXPECT_TRUE(entries_equal(got.entries()[i], entry(n * kSecond, n, n, 0)))
        << i;
  }
  EXPECT_EQ(stats.segments_total, 3u);
  EXPECT_EQ(stats.segments_scanned, 2u);
  EXPECT_EQ(stats.entries_matched, 100u);
  EXPECT_EQ(stats.entries_decoded, 100u);
  ASSERT_EQ(store->warnings().size(), 1u);
  EXPECT_NE(store->warnings()[0].find("body checksum mismatch"),
            std::string::npos)
      << store->warnings()[0];
}

TEST(Scan, SegmentSwappedForAFifoIsSkippedNotWaitedOn) {
  const std::string dir = fresh_dir("scan_fifo");
  StoreOptions options;
  options.max_entries_per_segment = 50;
  auto writer = SegmentWriter::create(dir, options);
  for (int i = 0; i < 150; ++i) writer->append(entry(i * kSecond, i, i, 0));
  ASSERT_TRUE(writer->finalize());
  auto store = TraceStore::open(dir, options);
  ASSERT_TRUE(store.has_value());
  ASSERT_EQ(store->segments().size(), 3u);

  // Swapped after the store is open, so only the scan's segment read meets
  // the FIFO. The write end held here keeps a read that blocks on a FIFO
  // from hanging the test: such a read sees an empty file instead.
  const std::string fifo = store->segment_path(1);
  ASSERT_EQ(std::filesystem::path(fifo).filename(), "seg-000001.seg");
  std::filesystem::remove(fifo);
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  const int write_end = ::open(fifo.c_str(), O_RDWR);
  ASSERT_GE(write_end, 0);
  trace::Trace got;
  const ScanStats stats =
      scan(*store, ScanQuery{},
           [&got](const trace::TraceEntry& e) { got.append(e); });
  ::close(write_end);

  EXPECT_EQ(got.size(), 100u);
  EXPECT_EQ(stats.segments_scanned, 2u);
  ASSERT_EQ(store->warnings().size(), 1u);
  EXPECT_NE(store->warnings()[0].find("not a regular file"), std::string::npos)
      << store->warnings()[0];
}

TEST(Scan, ConcurrentScansEachSkipACorruptSegmentOnce) {
  const std::string dir = fresh_dir("scan_concurrent_corrupt");
  StoreOptions options;
  options.max_entries_per_segment = 50;
  auto writer = SegmentWriter::create(dir, options);
  for (int i = 0; i < 300; ++i) writer->append(entry(i * kSecond, i, i, 0));
  ASSERT_TRUE(writer->finalize());
  {
    auto store = TraceStore::open(dir, options);
    ASSERT_TRUE(store.has_value());
    ASSERT_EQ(store->segments().size(), 6u);
    // A flipped body byte: open() keeps the segment, every scan skips it.
    std::fstream f(store->segment_path(2),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(10);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(10);
    byte = static_cast<char>(byte ^ 0x55);
    f.write(&byte, 1);
  }

  // The same store without and with an obs sink: with one, every scanning
  // thread counts into the one registry as well.
  for (const bool with_sink : {false, true}) {
    SCOPED_TRACE(with_sink ? "obs sink" : "no sink");
    obs::Obs sink;
    StoreOptions open_options = options;
    if (with_sink) open_options.obs = &sink;
    auto store = TraceStore::open(dir, open_options);
    ASSERT_TRUE(store.has_value());
    ASSERT_EQ(store->segments().size(), 6u);

    // Scans on several threads at once, each recording its skip into the
    // one warnings vector; a reader polls warnings() meanwhile.
    constexpr int kThreads = 4;
    constexpr int kScansPerThread = 5;
    std::atomic<int> bad_scans{0};
    std::atomic<std::uint64_t> scanned{0};
    std::atomic<bool> done{false};
    std::thread reader([&] {
      while (!done.load()) {
        for (const auto& warning : store->warnings()) {
          if (warning.find("body checksum mismatch") == std::string::npos) {
            bad_scans.fetch_add(1);
          }
        }
        std::this_thread::yield();
      }
    });
    std::vector<std::thread> scanners;
    for (int t = 0; t < kThreads; ++t) {
      scanners.emplace_back([&] {
        for (int k = 0; k < kScansPerThread; ++k) {
          std::uint64_t visited = 0;
          const ScanStats stats = scan(
              *store, ScanQuery{}, [&visited](const trace::TraceEntry&) {
                ++visited;
              });
          scanned.fetch_add(stats.segments_scanned);
          if (stats.segments_skipped != 1 || stats.segments_scanned != 5 ||
              visited != 250) {
            bad_scans.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : scanners) t.join();
    done.store(true);
    reader.join();
    EXPECT_EQ(bad_scans.load(), 0);
    EXPECT_EQ(store->warnings().size(),
              static_cast<std::size_t>(kThreads * kScansPerThread));
    if (with_sink) {
      const auto counter = [&sink](const char* name) -> std::uint64_t {
        const obs::InstrumentInfo* info = sink.metrics.find(name);
        return info == nullptr ? 0 : sink.metrics.counter_at(info->slot).value();
      };
      EXPECT_EQ(counter("ipfsmon_tracestore_segments_skipped_total"),
                static_cast<std::uint64_t>(kThreads * kScansPerThread));
      EXPECT_EQ(counter("ipfsmon_tracestore_segments_scanned_total"),
                scanned.load());
    }
  }
}

TEST(Scan, ReadAheadStaysWithinTwicePoolSize) {
  const std::string dir = fresh_dir("scan_read_ahead");
  // Enough segments that an unbounded read-ahead would open far more than
  // the window before the visitor finishes its first entry.
  const std::size_t pool_threads =
      std::max(1u, std::thread::hardware_concurrency());
  const int segments = static_cast<int>(4 * pool_threads + 8);
  StoreOptions options;
  options.max_entries_per_segment = 16;
  auto writer = SegmentWriter::create(dir, options);
  for (int i = 0; i < segments * 16; ++i) {
    writer->append(entry(i * kSecond, i % 40, i % 50, 0));
  }
  ASSERT_TRUE(writer->finalize());
  auto store = TraceStore::open(dir, options);
  ASSERT_TRUE(store.has_value());
  ASSERT_EQ(store->segments().size(), static_cast<std::size_t>(segments));
  const std::size_t window = 2 * store->scan_pool().size();
  ASSERT_LT(window, store->segments().size());

  // Every opened segment is remembered once in the store's own validation
  // cache, so its size counts the segments the scan has opened so far.
  std::size_t opened_while_paused = 0;
  std::uint64_t visited = 0;
  const ScanStats stats =
      scan(*store, ScanQuery{}, [&](const trace::TraceEntry&) {
        if (visited++ == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(200));
          opened_while_paused = store->validation_cache()->entries();
        }
      });
  EXPECT_GT(opened_while_paused, 0u);
  EXPECT_LE(opened_while_paused, window);
  EXPECT_EQ(visited, static_cast<std::uint64_t>(segments) * 16);
  EXPECT_EQ(stats.segments_scanned, store->segments().size());
  EXPECT_EQ(store->validation_cache()->entries(), store->segments().size());
}

// --- HotSet and ScanPool --------------------------------------------------------

TEST(HotSet, AgreesWithUnorderedSetMembership) {
  util::RngStream rng(77, "hotset-test");
  std::unordered_set<crypto::PeerId> reference;
  for (int i = 0; i < 300; ++i) {
    reference.insert(peer_n(static_cast<int>(rng.uniform_index(1000))));
  }
  const HotSet<crypto::PeerId> hot(reference);
  EXPECT_EQ(hot.size(), reference.size());
  // Power-of-two capacity at most half full.
  EXPECT_EQ(hot.capacity() & (hot.capacity() - 1), 0u);
  EXPECT_GE(hot.capacity(), hot.size() * 2);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(hot.contains(peer_n(i)), reference.count(peer_n(i)) != 0) << i;
  }
}

TEST(HotSet, EmptySetContainsNothing) {
  const HotSet<cid::Cid> hot;
  EXPECT_TRUE(hot.empty());
  EXPECT_FALSE(hot.contains(cid_n(1)));
}

TEST(ScanPool, ParallelForRunsEveryIndexExactlyOnce) {
  ScanPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ScanPool, TicketWaitSeesEveryTaskFinished) {
  ScanPool pool(2);
  std::atomic<int> done{0};
  ScanPool::Ticket ticket = pool.run(64, [&](std::size_t) {
    done.fetch_add(1, std::memory_order_relaxed);
  });
  ticket.wait();
  EXPECT_EQ(done.load(), 64);
  ticket.wait();  // idempotent
  EXPECT_FALSE(ScanPool::Ticket{});  // empty tickets are inert
}

TEST(ScanPool, SubmitRunsSingleTask) {
  ScanPool pool(1);
  std::atomic<bool> ran{false};
  auto ticket = pool.submit([&] { ran.store(true); });
  ticket.wait();
  EXPECT_TRUE(ran.load());
}

TEST(ScanPool, BatchesQueuedBackToBackAllComplete) {
  ScanPool pool(2);
  std::atomic<int> total{0};
  std::vector<ScanPool::Ticket> tickets;
  for (int b = 0; b < 8; ++b) {
    tickets.push_back(pool.run(16, [&](std::size_t) { total.fetch_add(1); }));
  }
  for (auto& t : tickets) t.wait();
  EXPECT_EQ(total.load(), 8 * 16);
}

// --- Segment reads over one store ------------------------------------------------

class SegmentFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fresh_dir(
        std::string("segment_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    StoreOptions options;
    options.max_entries_per_segment = 100;
    auto writer = SegmentWriter::create(dir_, options);
    full_ = make_monitor_trace(450, 0, 42);
    for (const auto& e : full_.entries()) writer->append(e);
    ASSERT_TRUE(writer->finalize());
  }

  std::string dir_;
  trace::Trace full_;
};

TEST_F(SegmentFixture, ScanMatchesTheQueryPredicate) {
  auto store = TraceStore::open(dir_);
  ASSERT_TRUE(store.has_value());
  std::vector<ScanQuery> queries(4);
  queries[1].min_time = full_.entries()[100].timestamp;
  queries[1].max_time = full_.entries()[300].timestamp;
  queries[2].peers = {peer_n(3), peer_n(7), peer_n(11)};
  queries[3].cids = {cid_n(5), cid_n(17)};
  queries[3].min_time = full_.entries()[50].timestamp;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    trace::Trace got;
    const ScanStats stats =
        scan(*store, queries[q],
             [&got](const trace::TraceEntry& e) { got.append(e); });
    // The dictionary fast path agrees with the query predicate, in order.
    const trace::Trace expected = full_.filter(
        [&](const trace::TraceEntry& e) { return queries[q].matches(e); });
    ASSERT_EQ(got.size(), expected.size()) << "query " << q;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_TRUE(entries_equal(got.entries()[i], expected.entries()[i]))
          << "query " << q << " entry " << i;
    }
    EXPECT_EQ(stats.entries_matched, expected.size()) << "query " << q;
    EXPECT_EQ(stats.segments_total, store->segments().size());
  }
  EXPECT_TRUE(store->warnings().empty());
}

TEST_F(SegmentFixture, CorruptSegmentSkippedWithExactStats) {
  {
    auto probe = TraceStore::open(dir_);
    ASSERT_TRUE(probe.has_value());
    ASSERT_EQ(probe->segments().size(), 5u);
    const std::string victim = probe->segment_path(1);
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(12);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(12);
    byte = static_cast<char>(byte ^ 0x80);
    f.write(&byte, 1);
  }
  auto store = TraceStore::open(dir_);
  ASSERT_TRUE(store.has_value());
  trace::Trace got;
  const ScanStats stats =
      scan(*store, ScanQuery{},
           [&got](const trace::TraceEntry& e) { got.append(e); });
  // Every entry but those of segment 1 (entries 100..199), in order.
  ASSERT_EQ(got.size(), full_.size() - 100);
  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::size_t n = i < 100 ? i : i + 100;
    EXPECT_TRUE(entries_equal(got.entries()[i], full_.entries()[n])) << i;
  }
  EXPECT_EQ(stats.segments_total, 5u);
  EXPECT_EQ(stats.segments_scanned, 4u);
  EXPECT_EQ(stats.entries_matched, got.size());
  EXPECT_EQ(stats.entries_decoded, got.size());
  ASSERT_EQ(store->warnings().size(), 1u);
  EXPECT_NE(store->warnings()[0].find("body checksum mismatch"),
            std::string::npos)
      << store->warnings()[0];
}

TEST_F(SegmentFixture, TornTailQuarantineUnchangedByTailOnlyFooterRead) {
  {
    StoreOptions options;
    options.max_entries_per_segment = 100;
    auto probe = TraceStore::open(dir_, options);
    ASSERT_TRUE(probe.has_value());
    // Tear the last segment mid-write and drop the manifest — the crash
    // shape recover_store_dir() repairs.
    const std::string tail =
        probe->segment_path(probe->segments().size() - 1);
    std::filesystem::resize_file(tail, std::filesystem::file_size(tail) / 3);
    std::filesystem::remove(dir_ + "/MANIFEST");
  }
  const auto report = recover_store_dir(dir_);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->segments_dropped, 1u);
  EXPECT_GE(report->segments_kept, 3u);
  bool saw_torn = false;
  for (const auto& f :
       std::filesystem::directory_iterator(dir_)) {
    if (f.path().extension() == ".torn") saw_torn = true;
  }
  EXPECT_TRUE(saw_torn);
}

TEST_F(SegmentFixture, RawRecordMaterializeMatchesNext) {
  StoreOptions options;
  options.max_entries_per_segment = 100;
  auto store = TraceStore::open(dir_, options);
  ASSERT_TRUE(store.has_value());
  std::string error;
  auto a = SegmentReader::open(store->segment_path(0), &error);
  auto b = SegmentReader::open(store->segment_path(0), &error,
                               store->validation_cache());
  ASSERT_TRUE(a.has_value() && b.has_value()) << error;
  trace::TraceEntry direct, via_raw;
  RawRecord raw;
  std::size_t count = 0;
  while (a->next(direct)) {
    ASSERT_TRUE(b->next_raw(raw));
    b->materialize(raw, via_raw);
    EXPECT_TRUE(entries_equal(direct, via_raw)) << count;
    EXPECT_EQ(raw.timestamp, direct.timestamp);
    ++count;
  }
  EXPECT_FALSE(b->next_raw(raw));
  EXPECT_EQ(count, 100u);
}

// --- Validation cache -----------------------------------------------------------

TEST_F(SegmentFixture, RepeatScansHitTheValidationCache) {
  StoreOptions options;
  options.max_entries_per_segment = 100;
  auto store = TraceStore::open(dir_, options);
  ASSERT_TRUE(store.has_value());
  ASSERT_NE(store->validation_cache(), nullptr);
  const auto count_all = [&] {
    std::size_t n = 0;
    scan(*store, ScanQuery{}, [&n](const trace::TraceEntry&) { ++n; });
    return n;
  };
  const std::size_t first = count_all();
  EXPECT_EQ(store->validation_cache()->hits(), 0u);
  EXPECT_EQ(store->validation_cache()->entries(), store->segments().size());
  const std::size_t second = count_all();
  EXPECT_EQ(first, second);
  // Every segment open on the second scan skipped the body-checksum pass.
  EXPECT_EQ(store->validation_cache()->hits(), store->segments().size());
}

TEST(ValidationCache, SignatureChangeInvalidates) {
  ValidationCache cache;
  cache.remember("seg-0", {.size = 4096, .mtime_ns = 100});
  EXPECT_TRUE(cache.contains("seg-0", {.size = 4096, .mtime_ns = 100}));
  // Rewritten (mtime), a different size, a different file.
  EXPECT_FALSE(cache.contains("seg-0", {.size = 4096, .mtime_ns = 101}));
  EXPECT_FALSE(cache.contains("seg-0", {.size = 4097, .mtime_ns = 100}));
  EXPECT_FALSE(cache.contains("seg-1", {.size = 4096, .mtime_ns = 100}));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST_F(SegmentFixture, ScanStatsReportDecodedVolume) {
  StoreOptions options;
  options.max_entries_per_segment = 100;
  auto store = TraceStore::open(dir_, options);
  ASSERT_TRUE(store.has_value());
  const ScanStats stats =
      scan(*store, ScanQuery{}, [](const trace::TraceEntry&) {});
  EXPECT_EQ(stats.entries_decoded, full_.size());
  EXPECT_EQ(stats.entries_matched, full_.size());
  std::uint64_t body_bytes = 0;
  for (const auto& seg : store->segments()) {
    body_bytes += seg.footer.body_bytes;
  }
  EXPECT_EQ(stats.bytes_scanned, body_bytes);
}

// --- Monitor spill integration --------------------------------------------------

TEST(StudySpill, MonitorsSpillAndUnifyOutOfCore) {
  const std::string root = fresh_dir("study_spill");
  scenario::StudyConfig config;
  config.population.node_count = 60;
  config.catalog.item_count = 120;
  config.warmup = 1 * kHour;
  config.duration = 2 * kHour;
  config.collect_metrics = false;
  config.monitor_spill_dir = root;

  scenario::MonitoringStudy study(config);
  study.run();
  ASSERT_TRUE(study.finalize_monitor_spill());

  const std::vector<std::string> dirs = study.monitor_store_dirs();
  ASSERT_EQ(dirs.size(), config.monitor_count);
  // Every monitor's store sits under the named root.
  for (std::size_t i = 0; i < dirs.size(); ++i) {
    EXPECT_EQ(dirs[i], root + "/monitor-" + std::to_string(i));
  }

  std::vector<TraceStore> stores;
  std::uint64_t total = 0;
  for (const auto& dir : dirs) {
    auto store = TraceStore::open(dir);
    ASSERT_TRUE(store.has_value()) << dir;
    EXPECT_TRUE(store->warnings().empty());
    total += store->total_entries();
    stores.push_back(std::move(*store));
  }
  EXPECT_GT(total, 0u);

  std::vector<const TraceStore*> inputs;
  for (const auto& s : stores) inputs.push_back(&s);
  std::uint64_t streamed = 0;
  util::SimTime prev = 0;
  const UnifyStats stats = unify_stores(
      inputs, [&](const trace::TraceEntry& e) {
        EXPECT_GE(e.timestamp, prev);  // time-ordered output
        prev = e.timestamp;
        ++streamed;
      });
  EXPECT_EQ(streamed, total);
  EXPECT_EQ(stats.entries, total);
  // The study's own reader sees the same stores after finalize.
  EXPECT_EQ(unified_trace(study).size(), total);
}

}  // namespace
}  // namespace ipfsmon::tracestore
