// Ingest subsystem tests: wall-time parsing, the flat-JSON scanner, the
// NDJSON/CSV record parsers (table-driven over malformed inputs), gzip
// line streams, strict/lenient ingest, checkpoint/resume, capture export,
// and deterministic replay.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "ingest/capture.hpp"
#include "ingest/export.hpp"
#include "ingest/ingest.hpp"
#include "ingest/replay.hpp"
#include "ingest/stream.hpp"
#include "tracestore/merge.hpp"
#include "trace/preprocess.hpp"
#include "util/walltime.hpp"

namespace ipfsmon {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test, removed on teardown.
class IngestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = (fs::temp_directory_path() /
             (std::string("ipfsmon_ingest_") + info->name()))
                .string();
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  std::string path(const std::string& name) const {
    return (fs::path(root_) / name).string();
  }

  std::string root_;
};

crypto::PeerId test_peer(unsigned index) {
  crypto::PeerId::Digest digest{};
  digest[0] = static_cast<std::uint8_t>(index);
  digest[1] = static_cast<std::uint8_t>(index >> 8);
  digest[31] = 0x5a;
  return crypto::PeerId(digest);
}

cid::Cid test_cid(unsigned index) {
  const std::string seed = "block-" + std::to_string(index);
  return cid::Cid::v0_of_data(util::BytesView(
      reinterpret_cast<const std::uint8_t*>(seed.data()), seed.size()));
}

net::Address test_address(unsigned index) {
  return net::Address{0x0a000000u + index, 4001};
}

constexpr util::WallNanos kEpoch = 1650000000ll * 1000000000ll;  // 2022-04-15

/// A synthetic two-vantage capture: interleaved entries from "us" and
/// "de", including same-(peer,type,cid) repeats that must earn duplicate
/// and re-broadcast flags.
std::vector<ingest::CaptureRecord> synthetic_capture(std::size_t count) {
  std::vector<ingest::CaptureRecord> records;
  for (std::size_t i = 0; i < count; ++i) {
    ingest::CaptureRecord record;
    record.wall_ns = kEpoch + static_cast<util::WallNanos>(i) * 700000000ll;
    record.peer = test_peer(static_cast<unsigned>(i % 7));
    record.address = test_address(static_cast<unsigned>(i % 7));
    record.type = i % 11 == 0 ? bitswap::WantType::Cancel
                  : i % 3 == 0 ? bitswap::WantType::WantBlock
                               : bitswap::WantType::WantHave;
    record.cid = test_cid(static_cast<unsigned>(i % 5));
    record.vantage = i % 2 == 0 ? "us" : "de";
    // Repeat an earlier (peer, type, cid) key close enough to earn flags:
    // from the other vantage 0.7 s back (inter-monitor duplicate, 5 s
    // window) or the same vantage 1.4 s back (re-broadcast, 31 s window).
    if (i % 5 == 3 && i >= 1) {
      record.peer = records[i - 1].peer;
      record.type = records[i - 1].type;
      record.cid = records[i - 1].cid;
    } else if (i % 5 == 4 && i >= 2) {
      record.peer = records[i - 2].peer;
      record.type = records[i - 2].type;
      record.cid = records[i - 2].cid;
    }
    records.push_back(std::move(record));
  }
  return records;
}

void write_capture(const std::string& path,
                   const std::vector<ingest::CaptureRecord>& records,
                   ingest::CaptureFormat format = ingest::CaptureFormat::kNdjson,
                   bool gzip = false) {
  auto writer = ingest::LineWriter::open(path, gzip);
  ASSERT_NE(writer, nullptr);
  if (format == ingest::CaptureFormat::kCsv) {
    ASSERT_TRUE(writer->write(ingest::csv_capture_header()));
  }
  for (const auto& record : records) {
    ASSERT_TRUE(writer->write(format == ingest::CaptureFormat::kCsv
                                  ? ingest::format_csv_record(record)
                                  : ingest::format_ndjson_record(record)));
  }
  ASSERT_TRUE(writer->close());
}

/// What ingest should produce: the same records on the SimTime axis with
/// trace::mark_flags flags (ingest's streaming flagger matches it exactly).
trace::Trace expected_trace(const std::vector<ingest::CaptureRecord>& records,
                            util::WallNanos epoch) {
  trace::Trace expected;
  for (const auto& record : records) {
    trace::TraceEntry entry;
    entry.timestamp = record.wall_ns - epoch;
    entry.peer = record.peer;
    entry.address = record.address;
    entry.type = record.type;
    entry.cid = record.cid;
    entry.monitor = record.vantage == "us" ? 0u : 1u;
    expected.append(entry);
  }
  trace::mark_flags(expected);
  return expected;
}

std::vector<trace::TraceEntry> scan_all(const tracestore::TraceStore& store) {
  std::vector<trace::TraceEntry> out;
  tracestore::StoreCursor cursor(store);
  trace::TraceEntry entry;
  while (cursor.next(entry)) out.push_back(entry);
  return out;
}

ingest::IngestOptions two_vantage_options() {
  ingest::IngestOptions options;
  options.monitors = {{"us", 0u}, {"de", 1u}};
  return options;
}

// --- Wall time --------------------------------------------------------------

TEST(WallTime, ParsesIsoAndNumericForms) {
  const auto iso = util::parse_wall_time("2022-04-15T06:40:00Z");
  ASSERT_TRUE(iso.has_value());
  EXPECT_EQ(*iso, 1650004800ll * 1000000000ll);
  // Naive (no suffix), explicit zero offset, space separator, fraction.
  EXPECT_EQ(util::parse_wall_time("2022-04-15T06:40:00"), *iso);
  EXPECT_EQ(util::parse_wall_time("2022-04-15T06:40:00+00:00"), *iso);
  EXPECT_EQ(util::parse_wall_time("2022-04-15 06:40:00Z"), *iso);
  EXPECT_EQ(util::parse_wall_time("2022-04-15T06:40:00.25Z"),
            *iso + 250000000ll);
  // Unit autodetection: seconds, millis, micros, nanos, decimal seconds.
  EXPECT_EQ(util::parse_wall_time("1650004800"), *iso);
  EXPECT_EQ(util::parse_wall_time("1650004800000"), *iso);
  EXPECT_EQ(util::parse_wall_time("1650004800000000"), *iso);
  EXPECT_EQ(util::parse_wall_time("1650004800000000000"), *iso);
  EXPECT_EQ(util::parse_wall_time("1650004800.5"), *iso + 500000000ll);
}

TEST(WallTime, RejectsMalformedForms) {
  for (const char* bad :
       {"", "yesterday", "2022-13-01T00:00:00Z", "2022-04-15T25:00:00Z",
        "2022-04-15T06:40:00+02:00", "12.", "12.5.3", "--5"}) {
    EXPECT_FALSE(util::parse_wall_time(bad).has_value()) << bad;
  }
}

TEST(WallTime, FormatRoundTripsThroughParse) {
  const util::WallNanos cases[] = {kEpoch, kEpoch + 1500000000ll,
                                   kEpoch + 123456789ll, 0ll};
  for (const util::WallNanos ns : cases) {
    const std::string text = util::format_wall_time(ns);
    const auto parsed = util::parse_wall_time(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    EXPECT_EQ(*parsed, ns) << text;
  }
}

// --- Record parsers ---------------------------------------------------------

TEST(NdjsonRecord, ParsesCanonicalAndAliasedFields) {
  const auto peer = test_peer(1);
  const auto cid = test_cid(1);
  ingest::CaptureRecord record;
  std::string error;
  const std::string canonical =
      "{\"timestamp\":\"2022-04-15T06:40:00Z\",\"peer\":\"" +
      peer.to_base58() + "\",\"address\":\"/ip4/10.0.0.1/tcp/4001\"," +
      "\"type\":\"WANT_BLOCK\",\"cid\":\"" + cid.to_string() +
      "\",\"monitor\":\"us\"}";
  ASSERT_TRUE(ingest::parse_ndjson_record(canonical, &record, &error))
      << error;
  EXPECT_EQ(record.peer, peer);
  EXPECT_EQ(record.cid, cid);
  EXPECT_EQ(record.type, bitswap::WantType::WantBlock);
  EXPECT_EQ(record.vantage, "us");
  EXPECT_EQ(record.address.to_string(), "/ip4/10.0.0.1/tcp/4001");

  // metric-exporter style: ts alias, numeric want_type + cancel flag,
  // dag-json cid link, no address, vantage alias.
  const std::string exporter =
      "{\"ts\":1650004800,\"peer_id\":\"" + peer.to_base58() +
      "\",\"want_type\":1,\"cancel\":false,\"cid\":{\"/\":\"" +
      cid.to_string() + "\"},\"vantage\":\"de\"}";
  ASSERT_TRUE(ingest::parse_ndjson_record(exporter, &record, &error))
      << error;
  EXPECT_EQ(record.type, bitswap::WantType::WantHave);
  EXPECT_EQ(record.wall_ns, 1650004800ll * 1000000000ll);
  EXPECT_EQ(record.vantage, "de");
  EXPECT_EQ(record.address, net::Address{});

  // cancel=true overrides the want type.
  const std::string cancel =
      "{\"ts\":1650004800,\"peer\":\"" + peer.to_base58() +
      "\",\"want_type\":0,\"cancel\":true,\"cid\":\"" + cid.to_string() +
      "\"}";
  ASSERT_TRUE(ingest::parse_ndjson_record(cancel, &record, &error)) << error;
  EXPECT_EQ(record.type, bitswap::WantType::Cancel);
}

TEST(NdjsonRecord, TableOfMalformedLines) {
  const std::string peer = test_peer(1).to_base58();
  const std::string cid = test_cid(1).to_string();
  // The first line of tests/data/capture_small.ndjson, and the same line
  // with its peer id unquoted.
  const std::string fixture_line =
      R"({"timestamp":"2022-04-15T05:20:00.001912702Z",)"
      R"("peer":"Qmb8MwXWwQU1Xbf62kQzZUUsTZV7yiD36RAY2H4ajk5o6P",)"
      R"("address":"/ip4/10.0.2.191/tcp/4001","type":"CANCEL",)"
      R"("cid":"bafkreicviyi6am54dyfxqfkx7eiffrj3f4gjij26jcoprfhdbrfpf6jpri",)"
      R"("monitor":"de"})";
  std::string unquoted_peer = fixture_line;
  unquoted_peer.erase(unquoted_peer.find("Qmb8") - 1, 1);
  unquoted_peer.erase(unquoted_peer.find("\",\"address"), 1);
  {
    ingest::CaptureRecord record;
    std::string error;
    ASSERT_TRUE(ingest::parse_ndjson_record(fixture_line, &record, &error))
        << error;
  }
  const struct {
    std::string line;
    const char* why;
  } cases[] = {
      {"", "malformed json"},
      {"{\"peer\":\"" + peer + "\",\"type\":\"WANT_HAVE\",\"cid\":\"" + cid +
           "\"}",
       "missing timestamp"},
      {"{\"ts\":\"not-a-time\",\"peer\":\"" + peer +
           "\",\"type\":\"WANT_HAVE\",\"cid\":\"" + cid + "\"}",
       "bad timestamp"},
      {"{\"ts\":1,\"type\":\"WANT_HAVE\",\"cid\":\"" + cid + "\"}",
       "missing peer"},
      {"{\"ts\":1,\"peer\":\"QmInvalid!!!\",\"type\":\"WANT_HAVE\","
       "\"cid\":\"" + cid + "\"}",
       "bad peer id"},
      {"{\"ts\":1,\"peer\":\"" + peer + "\",\"type\":\"WANT_HAVE\"}",
       "missing cid"},
      {"{\"ts\":1,\"peer\":\"" + peer +
           "\",\"type\":\"WANT_HAVE\",\"cid\":\"notacid\"}",
       "bad cid"},
      {"{\"ts\":1,\"peer\":\"" + peer + "\",\"cid\":\"" + cid + "\"}",
       "missing type"},
      {"{\"ts\":1,\"peer\":\"" + peer + "\",\"type\":\"WANT_MAYBE\","
       "\"cid\":\"" + cid + "\"}",
       "bad want type"},
      {"{\"ts\":1,\"peer\":\"" + peer + "\",\"type\":\"WANT_HAVE\","
       "\"cid\":\"" + cid + "\",\"addr\":\"localhost\"}",
       "bad address"},
      {"{\"ts\":1,\"peer\":\"" + peer + "\",\"type\":\"WANT_HAVE\","
       "\"cid\":\"" + cid + "\",\"cancel\":\"maybe\"}",
       "bad cancel flag"},
      {"{\"ts\":1,\"peer\":\"" + peer + "\",\"type\":\"WANT_HAVE\","
       "\"cid\":\"" + cid + "\"",  // truncated line
       "malformed json"},
      // Strict JSON: an unquoted peer id is not a bare token, a skipped
      // value must close the bracket it opened, strings hold no raw
      // control characters, and hostile nesting is rejected, not recursed.
      {unquoted_peer, "malformed json"},
      {fixture_line.substr(0, fixture_line.size() - 1) + ",\"extra\":[1,2}}",
       "malformed json"},
      {"{\"ts\":1,\"peer\":\"" + peer + "\",\"type\":\"WANT_HAVE\","
       "\"cid\":\"" + cid + "\",\"cancel\":tru}",
       "malformed json"},
      {"{\"ts\":1,\"peer\":\"" + peer + "\",\"type\":\"WANT_HAVE\","
       "\"cid\":\"" + cid + "\",\"monitor\":\"u\ts\"}",
       "malformed json"},
      {std::string(100000, '['), "malformed json"},
  };
  for (const auto& c : cases) {
    ingest::CaptureRecord record;
    std::string error;
    const std::string shown = c.line.substr(0, 200);
    EXPECT_FALSE(ingest::parse_ndjson_record(c.line, &record, &error))
        << shown;
    EXPECT_NE(error.find(c.why), std::string::npos)
        << "line: " << shown << "\n  error: " << error
        << "\n  expected to mention: " << c.why;
  }
}

TEST(CsvRecord, HeaderMappingWithAliasesAndExtras) {
  std::string error;
  const auto layout = ingest::CsvLayout::from_header(
      "extra,time,peer_id,want_type,cancel,cid,vantage", &error);
  ASSERT_TRUE(layout.has_value()) << error;
  ingest::CaptureRecord record;
  ASSERT_TRUE(layout->parse("ignored,1650004800,fake,0,false,fake,us",
                            &record, &error) == false);  // bad peer/cid
  const std::string line = "x,1650004800," + test_peer(2).to_base58() +
                           ",0,false," + test_cid(2).to_string() + ",us";
  ASSERT_TRUE(layout->parse(line, &record, &error)) << error;
  EXPECT_EQ(record.type, bitswap::WantType::WantBlock);  // numeric 0
  EXPECT_EQ(record.vantage, "us");

  // Wrong column count is rejected with both counts named.
  EXPECT_FALSE(layout->parse("a,b", &record, &error));
  EXPECT_NE(error.find("expected 7"), std::string::npos) << error;

  // Required columns must exist.
  EXPECT_FALSE(
      ingest::CsvLayout::from_header("peer,type,cid", &error).has_value());
  EXPECT_NE(error.find("timestamp"), std::string::npos) << error;
}

// --- Line streams -----------------------------------------------------------

TEST_F(IngestTest, PlainLineReaderTracksOffsets) {
  {
    std::ofstream out(path("plain.txt"), std::ios::binary);
    out << "one\ntwo\n\nlast-no-newline";
  }
  auto reader = ingest::LineReader::open(path("plain.txt"));
  ASSERT_NE(reader, nullptr);
  EXPECT_FALSE(reader->compressed());
  std::string line;
  ASSERT_TRUE(reader->next(&line));
  EXPECT_EQ(line, "one");
  EXPECT_EQ(reader->offset(), 4u);
  ASSERT_TRUE(reader->next(&line));
  EXPECT_EQ(line, "two");
  ASSERT_TRUE(reader->next(&line));
  EXPECT_EQ(line, "");
  ASSERT_TRUE(reader->next(&line));
  EXPECT_EQ(line, "last-no-newline");
  EXPECT_FALSE(reader->next(&line));
  EXPECT_TRUE(reader->error().empty());

  // skip_to resumes mid-file on the uncompressed axis.
  reader = ingest::LineReader::open(path("plain.txt"));
  ASSERT_TRUE(reader->skip_to(4));
  ASSERT_TRUE(reader->next(&line));
  EXPECT_EQ(line, "two");
}

TEST_F(IngestTest, GzipRoundTripAndMultiMember) {
  if (!ingest::gzip_supported()) GTEST_SKIP() << "no zlib in this build";
  // Two concatenated gzip members, as produced by rotated captures.
  {
    auto writer = ingest::LineWriter::open(path("a.gz"), true);
    ASSERT_NE(writer, nullptr);
    ASSERT_TRUE(writer->write("first"));
    ASSERT_TRUE(writer->close());
    auto writer2 = ingest::LineWriter::open(path("b.gz"), true);
    ASSERT_TRUE(writer2->write("second"));
    ASSERT_TRUE(writer2->close());
    std::ofstream cat(path("cat.gz"), std::ios::binary);
    for (const char* part : {"a.gz", "b.gz"}) {
      std::ifstream in(path(part), std::ios::binary);
      cat << in.rdbuf();
    }
  }
  auto reader = ingest::LineReader::open(path("cat.gz"));
  ASSERT_NE(reader, nullptr);
  EXPECT_TRUE(reader->compressed());
  std::string line;
  ASSERT_TRUE(reader->next(&line));
  EXPECT_EQ(line, "first");
  EXPECT_EQ(reader->offset(), 6u);  // uncompressed axis
  ASSERT_TRUE(reader->next(&line));
  EXPECT_EQ(line, "second");
  EXPECT_FALSE(reader->next(&line));
  EXPECT_TRUE(reader->error().empty());
}

TEST_F(IngestTest, TruncatedGzipReportsError) {
  if (!ingest::gzip_supported()) GTEST_SKIP() << "no zlib in this build";
  {
    auto writer = ingest::LineWriter::open(path("whole.gz"), true);
    ASSERT_NE(writer, nullptr);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_TRUE(writer->write("line " + std::to_string(i)));
    }
    ASSERT_TRUE(writer->close());
  }
  const auto size = fs::file_size(path("whole.gz"));
  fs::copy_file(path("whole.gz"), path("cut.gz"));
  fs::resize_file(path("cut.gz"), size / 2);
  auto reader = ingest::LineReader::open(path("cut.gz"));
  ASSERT_NE(reader, nullptr);
  std::string line;
  while (reader->next(&line)) {
  }
  EXPECT_FALSE(reader->error().empty());
}

// --- Ingest -----------------------------------------------------------------

TEST_F(IngestTest, NdjsonIngestRoundTripsExactly) {
  const auto records = synthetic_capture(200);
  write_capture(path("cap.ndjson"), records);
  std::string error;
  const auto stats = ingest::ingest_capture(path("cap.ndjson"), path("store"),
                                            two_vantage_options(), &error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->entries, records.size());
  EXPECT_EQ(stats->rejected, 0u);
  EXPECT_EQ(stats->format, ingest::CaptureFormat::kNdjson);
  EXPECT_EQ(stats->wall_epoch_ns, kEpoch);
  ASSERT_EQ(stats->monitors.size(), 2u);
  EXPECT_EQ(stats->monitors[0].first, "us");
  EXPECT_EQ(stats->monitors[1].first, "de");

  auto store = tracestore::TraceStore::open(path("store"), {}, &error);
  ASSERT_TRUE(store.has_value()) << error;
  ASSERT_TRUE(store->meta().has_value());
  EXPECT_EQ(store->meta()->wall_epoch_ns, kEpoch);
  EXPECT_EQ(store->meta()->source, "cap.ndjson");
  EXPECT_EQ(store->meta()->format, "ndjson");

  // Byte-identical to the in-memory pipeline, flags included.
  const trace::Trace expected = expected_trace(records, kEpoch);
  const auto scanned = scan_all(*store);
  ASSERT_EQ(scanned.size(), expected.size());
  for (std::size_t i = 0; i < scanned.size(); ++i) {
    const auto& want = expected.entries()[i];
    EXPECT_EQ(scanned[i].timestamp, want.timestamp) << i;
    EXPECT_EQ(scanned[i].peer, want.peer) << i;
    EXPECT_EQ(scanned[i].address, want.address) << i;
    EXPECT_EQ(scanned[i].type, want.type) << i;
    EXPECT_EQ(scanned[i].cid, want.cid) << i;
    EXPECT_EQ(scanned[i].monitor, want.monitor) << i;
    EXPECT_EQ(scanned[i].flags, want.flags) << i;
  }
  // The synthetic capture is built to exercise both flag kinds.
  trace::StatsAccumulator accumulator;
  for (const auto& e : expected.entries()) accumulator.add(e);
  const auto stats_expected = accumulator.stats();
  EXPECT_GT(stats_expected.rebroadcasts, 0u);
  EXPECT_GT(stats_expected.inter_monitor_duplicates, 0u);
}

TEST_F(IngestTest, CsvIngestMatchesNdjsonIngest) {
  const auto records = synthetic_capture(120);
  write_capture(path("cap.ndjson"), records);
  write_capture(path("cap.csv"), records, ingest::CaptureFormat::kCsv);
  std::string error;
  const auto a = ingest::ingest_capture(path("cap.ndjson"), path("sa"),
                                        two_vantage_options(), &error);
  ASSERT_TRUE(a.has_value()) << error;
  const auto b = ingest::ingest_capture(path("cap.csv"), path("sb"),
                                        two_vantage_options(), &error);
  ASSERT_TRUE(b.has_value()) << error;
  EXPECT_EQ(b->format, ingest::CaptureFormat::kCsv);
  auto sa = tracestore::TraceStore::open(path("sa"));
  auto sb = tracestore::TraceStore::open(path("sb"));
  ASSERT_TRUE(sa && sb);
  const auto ra = ingest::replay_store(*sa, nullptr);
  const auto rb = ingest::replay_store(*sb, nullptr);
  EXPECT_EQ(ra.entries, records.size());
  EXPECT_EQ(ra.checksum, rb.checksum);
}

TEST_F(IngestTest, GzipIngestMatchesPlainIngest) {
  if (!ingest::gzip_supported()) GTEST_SKIP() << "no zlib in this build";
  const auto records = synthetic_capture(150);
  write_capture(path("cap.ndjson"), records);
  write_capture(path("cap.ndjson.gz"), records, ingest::CaptureFormat::kNdjson,
                /*gzip=*/true);
  std::string error;
  const auto a = ingest::ingest_capture(path("cap.ndjson"), path("sa"),
                                        two_vantage_options(), &error);
  ASSERT_TRUE(a.has_value()) << error;
  const auto b = ingest::ingest_capture(path("cap.ndjson.gz"), path("sb"),
                                        two_vantage_options(), &error);
  ASSERT_TRUE(b.has_value()) << error;
  EXPECT_EQ(a->bytes, b->bytes);  // both report the uncompressed axis
  auto sa = tracestore::TraceStore::open(path("sa"));
  auto sb = tracestore::TraceStore::open(path("sb"));
  ASSERT_TRUE(sa && sb);
  EXPECT_EQ(ingest::replay_store(*sa, nullptr).checksum,
            ingest::replay_store(*sb, nullptr).checksum);
}

/// `record` as an NDJSON line whose "monitor" value is the JSON string
/// literal body `json_vantage`, spelled out by hand so the line does not
/// depend on format_ndjson_record's escaping.
std::string line_with_vantage(ingest::CaptureRecord record,
                              const std::string& json_vantage) {
  record.vantage.clear();
  std::string line = ingest::format_ndjson_record(record);
  line.insert(line.size() - 1, ",\"monitor\":\"" + json_vantage + "\"");
  return line;
}

/// A vantage label that smuggles a newline: written to STOREMETA verbatim,
/// it would forge a "source=" line.
const std::string kForgedVantage = "d\\nsource=forged";

TEST_F(IngestTest, StrictModeAbortsOnMalformedLineWithLineNumber) {
  const auto records = synthetic_capture(10);
  const std::string bad_lines[] = {
      "{\"broken\":", line_with_vantage(records[4], kForgedVantage)};
  for (const auto& bad : bad_lines) {
    SCOPED_TRACE(bad);
    {
      auto writer = ingest::LineWriter::open(path("cap.ndjson"), false);
      for (std::size_t i = 0; i < records.size(); ++i) {
        if (i == 4) {
          ASSERT_TRUE(writer->write(bad));
        }
        ASSERT_TRUE(writer->write(ingest::format_ndjson_record(records[i])));
      }
      ASSERT_TRUE(writer->close());
    }
    std::string error;
    const auto stats = ingest::ingest_capture(path("cap.ndjson"),
                                              path("store"), {}, &error);
    EXPECT_FALSE(stats.has_value());
    EXPECT_NE(error.find("line 5"), std::string::npos) << error;
  }
}

TEST_F(IngestTest, LenientModeQuarantinesAndCounts) {
  const auto records = synthetic_capture(20);
  {
    auto writer = ingest::LineWriter::open(path("cap.ndjson"), false);
    for (std::size_t i = 0; i < records.size(); ++i) {
      ASSERT_TRUE(writer->write(ingest::format_ndjson_record(records[i])));
      if (i % 6 == 0) {
        ASSERT_TRUE(writer->write("not json at all"));
      }
      if (i == 9) {
        ASSERT_TRUE(
            writer->write(line_with_vantage(records[i], kForgedVantage)));
      }
    }
    ASSERT_TRUE(writer->close());
  }
  obs::Obs obs;
  auto options = two_vantage_options();
  options.lenient = true;
  options.obs = &obs;
  std::string error;
  const auto stats = ingest::ingest_capture(path("cap.ndjson"), path("store"),
                                            options, &error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->entries, records.size());
  EXPECT_EQ(stats->rejected, 5u);
  EXPECT_EQ(obs.metrics
                .counter("ipfsmon_ingest_rejected_lines_total", "")
                .value(),
            5u);
  const auto meta = tracestore::read_store_meta(path("store"));
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->source, "cap.ndjson");
  EXPECT_EQ(meta->monitors, options.monitors);
  // The quarantine sidecar holds each offending line verbatim.
  std::ifstream rejects(ingest::rejects_path(path("store")));
  ASSERT_TRUE(rejects.is_open());
  std::string content((std::istreambuf_iterator<char>(rejects)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("not json at all"), std::string::npos);
  EXPECT_NE(content.find("malformed json"), std::string::npos);
  EXPECT_NE(content.find("control character in vantage"), std::string::npos);
}

TEST_F(IngestTest, OutOfOrderStrictRejectsLenientClamps) {
  auto records = synthetic_capture(10);
  std::swap(records[4].wall_ns, records[5].wall_ns);  // one inversion
  write_capture(path("cap.ndjson"), records);
  std::string error;
  EXPECT_FALSE(ingest::ingest_capture(path("cap.ndjson"), path("s1"), {},
                                      &error)
                   .has_value());
  EXPECT_NE(error.find("backwards"), std::string::npos) << error;

  obs::Obs obs;
  auto options = two_vantage_options();
  options.lenient = true;
  options.obs = &obs;
  const auto stats =
      ingest::ingest_capture(path("cap.ndjson"), path("s2"), options, &error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->unordered, 1u);
  EXPECT_EQ(stats->entries, records.size());
  EXPECT_EQ(obs.metrics.counter("ipfsmon_ingest_unordered_total", "").value(),
            1u);
  // The produced store is still monotonic: no unordered appends leaked.
  auto store = tracestore::TraceStore::open(path("s2"));
  ASSERT_TRUE(store.has_value());
  const auto scanned = scan_all(*store);
  for (std::size_t i = 1; i < scanned.size(); ++i) {
    EXPECT_GE(scanned[i].timestamp, scanned[i - 1].timestamp) << i;
  }
}

TEST_F(IngestTest, CheckpointResumeMatchesOneShotIngest) {
  const auto records = synthetic_capture(300);
  write_capture(path("cap.ndjson"), records);
  std::string error;

  // One-shot reference.
  auto reference = two_vantage_options();
  const auto whole = ingest::ingest_capture(path("cap.ndjson"), path("ref"),
                                            reference, &error);
  ASSERT_TRUE(whole.has_value()) << error;

  // Interrupted: stop resumable after 110 entries (checkpoints every 50).
  auto options = two_vantage_options();
  options.checkpoint_every = 50;
  options.max_entries = 110;
  // Tight caps so the interruption leaves several sealed segments behind.
  options.store.max_entries_per_segment = 64;
  const auto partial = ingest::ingest_capture(path("cap.ndjson"),
                                              path("store"), options, &error);
  ASSERT_TRUE(partial.has_value()) << error;
  EXPECT_TRUE(partial->truncated);
  EXPECT_EQ(partial->entries, 110u);
  EXPECT_GE(partial->checkpoints, 2u);

  // Resume to completion.
  options.max_entries = 0;
  options.resume = true;
  const auto finished = ingest::ingest_capture(path("cap.ndjson"),
                                               path("store"), options, &error);
  ASSERT_TRUE(finished.has_value()) << error;
  EXPECT_TRUE(finished->resumed);
  EXPECT_EQ(finished->resumed_entries, 110u);
  EXPECT_EQ(finished->entries, records.size());

  // Byte-identical to the one-shot ingest, flags included.
  auto ref = tracestore::TraceStore::open(path("ref"));
  auto store = tracestore::TraceStore::open(path("store"));
  ASSERT_TRUE(ref && store);
  EXPECT_EQ(ingest::replay_store(*ref, nullptr).checksum,
            ingest::replay_store(*store, nullptr).checksum);
  // The checkpoint is cleaned up after a completed ingest.
  EXPECT_FALSE(fs::exists(fs::path(path("store")) / "INGEST.ckpt"));
}

TEST_F(IngestTest, CsvCheckpointResumeMatchesOneShotIngest) {
  // The capture above, ingested and exported to CSV: a resumed ingest
  // must take the header from the capture's first line, not from the
  // first line after the checkpoint offset.
  write_capture(path("cap.ndjson"), synthetic_capture(300));
  std::string error;
  ASSERT_TRUE(ingest::ingest_capture(path("cap.ndjson"), path("src"),
                                     two_vantage_options(), &error))
      << error;
  auto src = tracestore::TraceStore::open(path("src"));
  ASSERT_TRUE(src.has_value());
  ingest::ExportOptions csv;
  csv.format = ingest::CaptureFormat::kCsv;
  ASSERT_TRUE(ingest::export_capture(*src, path("cap.csv"), csv, &error))
      << error;

  const auto whole = ingest::ingest_capture(path("cap.csv"), path("ref"),
                                            two_vantage_options(), &error);
  ASSERT_TRUE(whole.has_value()) << error;

  auto options = two_vantage_options();
  options.checkpoint_every = 50;
  options.max_entries = 110;
  options.store.max_entries_per_segment = 64;
  const auto partial = ingest::ingest_capture(path("cap.csv"), path("store"),
                                              options, &error);
  ASSERT_TRUE(partial.has_value()) << error;
  EXPECT_TRUE(partial->truncated);
  EXPECT_EQ(partial->entries, 110u);

  options.max_entries = 0;
  options.resume = true;
  const auto finished = ingest::ingest_capture(path("cap.csv"), path("store"),
                                               options, &error);
  ASSERT_TRUE(finished.has_value()) << error;
  EXPECT_TRUE(finished->resumed);
  EXPECT_EQ(finished->format, ingest::CaptureFormat::kCsv);
  EXPECT_EQ(finished->lines, whole->lines);
  EXPECT_EQ(finished->entries, 300u);

  auto ref = tracestore::TraceStore::open(path("ref"));
  auto store = tracestore::TraceStore::open(path("store"));
  ASSERT_TRUE(ref && store);
  const std::uint64_t want = ingest::replay_store(*src, nullptr).checksum;
  EXPECT_EQ(ingest::replay_store(*ref, nullptr).checksum, want);
  EXPECT_EQ(ingest::replay_store(*store, nullptr).checksum, want);
}

TEST_F(IngestTest, CorruptRecoveredTailSegmentRestartsTheIngest) {
  const auto records = synthetic_capture(300);
  write_capture(path("cap.ndjson"), records);
  std::string error;
  ASSERT_TRUE(ingest::ingest_capture(path("cap.ndjson"), path("ref"),
                                     two_vantage_options(), &error)
                  .has_value())
      << error;

  auto options = two_vantage_options();
  options.checkpoint_every = 50;
  options.max_entries = 110;
  options.store.max_entries_per_segment = 64;
  ASSERT_TRUE(ingest::ingest_capture(path("cap.ndjson"), path("store"),
                                     options, &error)
                  .has_value())
      << error;

  // Flip a body byte of the last sealed segment. Its footer stays valid,
  // so recovery keeps it and the checkpoint's entry count still matches;
  // only reading the body back finds the damage.
  {
    auto store = tracestore::TraceStore::open(path("store"));
    ASSERT_TRUE(store && !store->segments().empty());
    const std::string victim =
        store->segment_path(store->segments().size() - 1);
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(10);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(10);
    byte = static_cast<char>(byte ^ 0x55);
    f.write(&byte, 1);
  }

  options.max_entries = 0;
  options.resume = true;
  const auto finished = ingest::ingest_capture(path("cap.ndjson"),
                                               path("store"), options, &error);
  ASSERT_TRUE(finished.has_value()) << error;
  EXPECT_FALSE(finished->resumed);  // restarted from scratch
  EXPECT_EQ(finished->entries, records.size());

  auto ref = tracestore::TraceStore::open(path("ref"));
  auto store = tracestore::TraceStore::open(path("store"));
  ASSERT_TRUE(ref && store);
  EXPECT_EQ(ingest::replay_store(*ref, nullptr).checksum,
            ingest::replay_store(*store, nullptr).checksum);
  EXPECT_TRUE(store->warnings().empty());
}

TEST_F(IngestTest, StaleCheckpointIsIgnored) {
  const auto records = synthetic_capture(50);
  write_capture(path("cap.ndjson"), records);
  std::string error;
  auto options = two_vantage_options();
  options.max_entries = 20;
  options.checkpoint_every = 10;
  ASSERT_TRUE(ingest::ingest_capture(path("cap.ndjson"), path("store"),
                                     options, &error)
                  .has_value())
      << error;
  // A different capture must not resume from this store's checkpoint.
  write_capture(path("other.ndjson"), synthetic_capture(30));
  options.max_entries = 0;
  options.resume = true;
  const auto stats = ingest::ingest_capture(path("other.ndjson"),
                                            path("store"), options, &error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_FALSE(stats->resumed);  // restarted from scratch
  EXPECT_EQ(stats->entries, 30u);

  // A checkpoint with a lax integer field is rejected as a whole (the run
  // restarts from scratch) rather than read as some other number: "-1"
  // must not wrap to 2^64-1, "+20" and " 20" are not digits, and a
  // monitor id must fit 32 bits.
  const std::string ckpt = (fs::path(path("store")) / "INGEST.ckpt").string();
  for (const auto& [key, hostile] :
       std::vector<std::pair<std::string, std::string>>{
           {"offset=", "offset=-1"},
           {"entries=", "entries=+20"},
           {"entries=", "entries= 20"},
           {"last_sim=", "last_sim=--1"},
           {"monitor=", "monitor=4294967296:us"}}) {
    options.max_entries = 20;
    options.resume = false;
    ASSERT_TRUE(ingest::ingest_capture(path("cap.ndjson"), path("store"),
                                       options, &error)
                    .has_value())
        << error;
    std::ifstream in(ckpt);
    std::string text, line;
    while (std::getline(in, line)) {
      text += (line.rfind(key, 0) == 0 ? hostile : line) + '\n';
    }
    in.close();
    ASSERT_NE(text.find(hostile), std::string::npos) << hostile;
    std::ofstream(ckpt, std::ios::trunc) << text;
    options.max_entries = 0;
    options.resume = true;
    const auto rerun = ingest::ingest_capture(path("cap.ndjson"),
                                              path("store"), options, &error);
    ASSERT_TRUE(rerun.has_value()) << hostile << ": " << error;
    EXPECT_FALSE(rerun->resumed) << hostile;
    EXPECT_EQ(rerun->entries, records.size()) << hostile;
  }
}

// --- Export -----------------------------------------------------------------

TEST_F(IngestTest, ExportIngestExportIsIdempotent) {
  const auto records = synthetic_capture(100);
  write_capture(path("cap.ndjson"), records);
  std::string error;
  ASSERT_TRUE(ingest::ingest_capture(path("cap.ndjson"), path("s1"),
                                     two_vantage_options(), &error)
                  .has_value())
      << error;
  auto s1 = tracestore::TraceStore::open(path("s1"));
  ASSERT_TRUE(s1.has_value());
  ASSERT_TRUE(
      ingest::export_capture(*s1, path("out1.ndjson"), {}, &error).has_value())
      << error;
  // Re-ingest the export; the second export must be byte-identical.
  ASSERT_TRUE(ingest::ingest_capture(path("out1.ndjson"), path("s2"),
                                     two_vantage_options(), &error)
                  .has_value())
      << error;
  auto s2 = tracestore::TraceStore::open(path("s2"));
  ASSERT_TRUE(s2.has_value());
  ASSERT_TRUE(
      ingest::export_capture(*s2, path("out2.ndjson"), {}, &error).has_value())
      << error;
  std::ifstream f1(path("out1.ndjson")), f2(path("out2.ndjson"));
  const std::string c1((std::istreambuf_iterator<char>(f1)),
                       std::istreambuf_iterator<char>());
  const std::string c2((std::istreambuf_iterator<char>(f2)),
                       std::istreambuf_iterator<char>());
  EXPECT_FALSE(c1.empty());
  EXPECT_EQ(c1, c2);
}

TEST_F(IngestTest, ExportThenIngestKeepsQuotedVantage) {
  // A vantage label with JSON metacharacters must survive export and a
  // strict re-ingest: the export escapes it, the parser unescapes it.
  const auto records = synthetic_capture(60);
  {
    auto writer = ingest::LineWriter::open(path("cap.ndjson"), false);
    for (const auto& record : records) {
      ASSERT_TRUE(writer->write(record.vantage == "de"
                                    ? line_with_vantage(record, "d\\\"e\\\\")
                                    : ingest::format_ndjson_record(record)));
    }
    ASSERT_TRUE(writer->close());
  }
  std::string error;
  ASSERT_TRUE(ingest::ingest_capture(path("cap.ndjson"), path("s1"), {}, &error)
                  .has_value())
      << error;
  auto s1 = tracestore::TraceStore::open(path("s1"));
  ASSERT_TRUE(s1.has_value());
  ASSERT_TRUE(s1->meta().has_value());
  ASSERT_EQ(s1->meta()->monitors.size(), 2u);
  EXPECT_EQ(s1->meta()->monitors[1].first, "d\"e\\");
  ASSERT_TRUE(
      ingest::export_capture(*s1, path("out.ndjson"), {}, &error).has_value())
      << error;
  ASSERT_TRUE(
      ingest::ingest_capture(path("out.ndjson"), path("s2"), {}, &error)
          .has_value())
      << error;
  auto s2 = tracestore::TraceStore::open(path("s2"));
  ASSERT_TRUE(s2.has_value());
  ASSERT_TRUE(s2->meta().has_value());
  EXPECT_EQ(s2->meta()->monitors, s1->meta()->monitors);
  EXPECT_EQ(s2->total_entries(), records.size());
  EXPECT_EQ(ingest::replay_store(*s1, nullptr).checksum,
            ingest::replay_store(*s2, nullptr).checksum);
}

// --- Replay -----------------------------------------------------------------

TEST_F(IngestTest, ReplayIsDeterministicAndPacingChangesNothing) {
  const auto records = synthetic_capture(200);
  write_capture(path("cap.ndjson"), records);
  std::string error;
  ASSERT_TRUE(ingest::ingest_capture(path("cap.ndjson"), path("store"),
                                     two_vantage_options(), &error)
                  .has_value())
      << error;
  auto store = tracestore::TraceStore::open(path("store"));
  ASSERT_TRUE(store.has_value());

  const auto a = ingest::replay_store(*store, nullptr);
  const auto b = ingest::replay_store(*store, nullptr);
  EXPECT_TRUE(a.done);
  EXPECT_EQ(a.entries, records.size());
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.batches, b.batches);

  // Pacing (sim range is ~140 s; speedup 2000 keeps this instant) must
  // reproduce the exact same stream.
  ingest::ReplayOptions paced;
  paced.speedup = 2000.0;
  const auto c = ingest::replay_store(*store, nullptr, paced);
  EXPECT_EQ(c.checksum, a.checksum);
  EXPECT_EQ(c.entries, a.entries);
}

TEST_F(IngestTest, ReplayDeliversAtEntryTimestamps) {
  const auto records = synthetic_capture(50);
  write_capture(path("cap.ndjson"), records);
  std::string error;
  ASSERT_TRUE(ingest::ingest_capture(path("cap.ndjson"), path("store"),
                                     two_vantage_options(), &error)
                  .has_value())
      << error;
  auto store = tracestore::TraceStore::open(path("store"));
  ASSERT_TRUE(store.has_value());

  sim::Scheduler scheduler;
  ingest::ReplayDriver driver(scheduler, *store, {});
  std::uint64_t delivered = 0;
  driver.start([&](const trace::TraceEntry& entry) {
    EXPECT_EQ(scheduler.now(), entry.timestamp);
    ++delivered;
  });
  // A prefix run delivers only entries inside the window...
  scheduler.run_until(10 * util::kSecond);
  EXPECT_GT(delivered, 0u);
  EXPECT_LT(delivered, records.size());
  EXPECT_FALSE(driver.stats().done);
  // ...and the rest arrives when the clock catches up.
  scheduler.run_all();
  EXPECT_EQ(delivered, records.size());
  EXPECT_TRUE(driver.stats().done);
}

TEST_F(IngestTest, ReplayWindowAndRemarkFlags) {
  const auto records = synthetic_capture(100);
  write_capture(path("cap.ndjson"), records);
  std::string error;
  ASSERT_TRUE(ingest::ingest_capture(path("cap.ndjson"), path("store"),
                                     two_vantage_options(), &error)
                  .has_value())
      << error;
  auto store = tracestore::TraceStore::open(path("store"));
  ASSERT_TRUE(store.has_value());

  ingest::ReplayOptions window;
  window.start = 20 * util::kSecond;
  window.stop = 40 * util::kSecond;
  std::uint64_t seen = 0;
  const auto stats = ingest::replay_store(
      *store,
      [&](const trace::TraceEntry& entry) {
        EXPECT_GE(entry.timestamp, window.start);
        EXPECT_LT(entry.timestamp, *window.stop);
        ++seen;
      },
      window);
  EXPECT_EQ(stats.entries, seen);
  EXPECT_GT(seen, 0u);
  EXPECT_LT(seen, records.size());

  // remark_flags reproduces the stored flags for a full replay (the store
  // was flagged by the same streaming algorithm).
  ingest::ReplayOptions remark;
  remark.remark_flags = true;
  EXPECT_EQ(ingest::replay_store(*store, nullptr, remark).checksum,
            ingest::replay_store(*store, nullptr).checksum);
}

// --- Store metadata + writer interplay --------------------------------------

TEST_F(IngestTest, StoreMetaRoundTripsAndCreateCleansIt) {
  tracestore::StoreMeta meta;
  meta.wall_epoch_ns = kEpoch;
  meta.source = "cap.ndjson.gz";
  meta.format = "ndjson";
  meta.monitors = {{"us", 0u}, {"de", 1u}};
  std::string error;
  ASSERT_TRUE(tracestore::write_store_meta(root_, meta, &error)) << error;
  const auto read = tracestore::read_store_meta(root_);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->wall_epoch_ns, kEpoch);
  EXPECT_EQ(read->source, "cap.ndjson.gz");
  EXPECT_EQ(read->format, "ndjson");
  ASSERT_EQ(read->monitors.size(), 2u);
  EXPECT_EQ(read->monitors[1].first, "de");
  EXPECT_EQ(read->monitors[1].second, 1u);

  // Integer fields are strict: digits only (one leading '-' for the
  // epoch), in range. 4294967297 must not wrap to monitor 1.
  for (const char* hostile :
       {"monitor=4294967297:us", "monitor=-1:us", "monitor=+1:us",
        "monitor= 1:us", "wall_epoch_ns=+5", "wall_epoch_ns= 5",
        "wall_epoch_ns=5x", "wall_epoch_ns=99999999999999999999"}) {
    std::ofstream(root_ + "/STOREMETA", std::ios::trunc)
        << "ipfsmon-storemeta v1\n"
        << hostile << '\n';
    EXPECT_FALSE(tracestore::read_store_meta(root_).has_value()) << hostile;
  }

  // A fresh writer wipes stale metadata along with old segments.
  auto writer = tracestore::SegmentWriter::create(root_, {}, &error);
  ASSERT_NE(writer, nullptr) << error;
  EXPECT_FALSE(tracestore::read_store_meta(root_).has_value());
}

TEST_F(IngestTest, SegmentWriterCountsUnorderedAppends) {
  obs::Obs obs;
  tracestore::StoreOptions options;
  options.obs = &obs;
  std::string error;
  auto writer = tracestore::SegmentWriter::create(root_ + "/w", options,
                                                  &error);
  ASSERT_NE(writer, nullptr) << error;
  trace::TraceEntry entry;
  entry.timestamp = 10;
  writer->append(entry);
  entry.timestamp = 5;  // backwards
  writer->append(entry);
  entry.timestamp = 10;
  writer->append(entry);
  EXPECT_EQ(writer->unordered_appends(), 1u);
  EXPECT_EQ(obs.metrics
                .counter("ipfsmon_tracestore_unordered_appends_total", "")
                .value(),
            1u);
  EXPECT_TRUE(writer->finalize());
}

TEST_F(IngestTest, CheckpointKeepsWriterAppendable) {
  std::string error;
  auto writer = tracestore::SegmentWriter::create(root_ + "/w", {}, &error);
  ASSERT_NE(writer, nullptr) << error;
  trace::TraceEntry entry;
  for (int i = 0; i < 10; ++i) {
    entry.timestamp = i * util::kSecond;
    writer->append(entry);
  }
  ASSERT_TRUE(writer->checkpoint());
  // The manifest is published: the store is readable mid-write.
  auto store = tracestore::TraceStore::open(root_ + "/w", {}, &error);
  ASSERT_TRUE(store.has_value()) << error;
  EXPECT_EQ(store->total_entries(), 10u);
  // And the writer keeps going.
  entry.timestamp = 11 * util::kSecond;
  writer->append(entry);
  ASSERT_TRUE(writer->finalize());
  store = tracestore::TraceStore::open(root_ + "/w", {}, &error);
  ASSERT_TRUE(store.has_value());
  EXPECT_EQ(store->total_entries(), 11u);
}

// --- Pipelined parse: captures spanning several parse batches ---------------

constexpr std::size_t kBatch = ingest::kParseBatchLines;
/// Three full parse batches plus a partial one.
constexpr std::size_t kMultiBatchRecords = 3 * kBatch + kBatch / 3;

void write_lines(const std::string& path,
                 const std::vector<std::string>& lines) {
  auto writer = ingest::LineWriter::open(path, false);
  ASSERT_NE(writer, nullptr);
  for (const auto& line : lines) ASSERT_TRUE(writer->write(line));
  ASSERT_TRUE(writer->close());
}

std::vector<std::string> ndjson_lines(
    const std::vector<ingest::CaptureRecord>& records) {
  std::vector<std::string> lines;
  for (const auto& record : records) {
    lines.push_back(ingest::format_ndjson_record(record));
  }
  return lines;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::uint64_t replay_checksum(const std::string& dir) {
  auto store = tracestore::TraceStore::open(dir);
  EXPECT_TRUE(store.has_value()) << dir;
  return store ? ingest::replay_store(*store, nullptr).checksum : 0;
}

TEST_F(IngestTest, StrictBadLineInALaterBatchKeepsItsLineNumber) {
  const auto lines = ndjson_lines(synthetic_capture(kMultiBatchRecords));
  // First, middle and last line of the second batch, and one line of the
  // partial last batch.
  for (const std::size_t at :
       {kBatch, kBatch + 777, 2 * kBatch - 1, 3 * kBatch + 5}) {
    SCOPED_TRACE(at);
    auto with_bad = lines;
    with_bad[at] = "{\"broken\":";
    write_lines(path("cap.ndjson"), with_bad);
    std::string error;
    EXPECT_FALSE(ingest::ingest_capture(path("cap.ndjson"), path("store"), {},
                                        &error)
                     .has_value());
    EXPECT_NE(error.find("cap.ndjson line " + std::to_string(at + 1) +
                         ": malformed json"),
              std::string::npos)
        << error;
  }
}

TEST_F(IngestTest, LenientRejectsKeepCaptureOrderAcrossBatches) {
  const auto records = synthetic_capture(kMultiBatchRecords);
  std::vector<std::string> lines;
  std::string expected_rejects;
  for (std::size_t i = 0; i < records.size(); ++i) {
    // Bad lines open and close batches and fall inside them (but not on
    // the first line, which decides the capture format).
    const std::size_t in_batch = lines.size() % kBatch;
    if ((in_batch == 0 && i > 0) || in_batch == kBatch - 1 || i % 613 == 7) {
      const std::string bad =
          i % 2 == 0 ? "not json " + std::to_string(i)
                     : line_with_vantage(records[i], kForgedVantage);
      lines.push_back(bad);
      ingest::CaptureRecord ignored;
      std::string why;
      EXPECT_FALSE(ingest::parse_ndjson_record(bad, &ignored, &why));
      expected_rejects += "# line " + std::to_string(lines.size()) + ": " +
                          why + "\n" + bad + "\n";
    }
    lines.push_back(ingest::format_ndjson_record(records[i]));
  }
  write_lines(path("cap.ndjson"), lines);

  auto options = two_vantage_options();
  options.lenient = true;
  std::string error;
  const auto stats = ingest::ingest_capture(path("cap.ndjson"), path("store"),
                                            options, &error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->lines, lines.size());
  EXPECT_EQ(stats->entries, records.size());
  EXPECT_EQ(stats->rejected, lines.size() - records.size());
  // Quarantined in capture order, each under its own line number.
  EXPECT_EQ(read_text(ingest::rejects_path(path("store"))), expected_rejects);

  auto store = tracestore::TraceStore::open(path("store"));
  ASSERT_TRUE(store.has_value());
  const auto scanned = scan_all(*store);
  const trace::Trace expected = expected_trace(records, kEpoch);
  ASSERT_EQ(scanned.size(), expected.size());
  for (std::size_t i = 0; i < scanned.size(); ++i) {
    EXPECT_EQ(scanned[i].timestamp, expected.entries()[i].timestamp) << i;
    EXPECT_EQ(scanned[i].flags, expected.entries()[i].flags) << i;
  }
}

TEST_F(IngestTest, MidBatchCheckpointsMatchALineByLineIngest) {
  const auto records = synthetic_capture(kMultiBatchRecords);
  const auto lines = ndjson_lines(records);
  write_lines(path("cap.ndjson"), lines);
  std::string error;
  ASSERT_TRUE(ingest::ingest_capture(path("cap.ndjson"), path("ref"),
                                     two_vantage_options(), &error)
                  .has_value())
      << error;

  // Neither the checkpoints nor the stop land on a batch boundary.
  auto options = two_vantage_options();
  options.checkpoint_every = kBatch / 2 + 77;
  options.max_entries = 2 * kBatch + 333;
  const auto partial = ingest::ingest_capture(path("cap.ndjson"),
                                              path("store"), options, &error);
  ASSERT_TRUE(partial.has_value()) << error;
  EXPECT_TRUE(partial->truncated);
  EXPECT_EQ(partial->entries, options.max_entries);
  EXPECT_EQ(partial->checkpoints,
            options.max_entries / options.checkpoint_every + 1);

  // The checkpoint is the one a line-by-line loop writes: it stops just
  // past the last ingested line, not where the read-ahead got to.
  const std::size_t n = options.max_entries;
  std::uint64_t offset = 0;
  for (std::size_t i = 0; i < n; ++i) offset += lines[i].size() + 1;
  EXPECT_EQ(partial->bytes, offset);
  EXPECT_EQ(read_text(path("store") + "/INGEST.ckpt"),
            "ipfsmon-ingest-ckpt v1\nsource=cap.ndjson\noffset=" +
                std::to_string(offset) + "\nlines=" + std::to_string(n) +
                "\nentries=" + std::to_string(n) +
                "\nrejected=0\nunordered=0\nepoch=" +
                std::to_string(kEpoch) + "\nlast_sim=" +
                std::to_string(records[n - 1].wall_ns - kEpoch) +
                "\nmonitor=0:us\nmonitor=1:de\n");

  options.max_entries = 0;
  options.resume = true;
  const auto finished = ingest::ingest_capture(path("cap.ndjson"),
                                               path("store"), options, &error);
  ASSERT_TRUE(finished.has_value()) << error;
  EXPECT_TRUE(finished->resumed);
  EXPECT_EQ(finished->resumed_entries, n);
  EXPECT_EQ(finished->entries, records.size());
  EXPECT_EQ(finished->lines, lines.size());
  EXPECT_EQ(replay_checksum(path("store")), replay_checksum(path("ref")));
}

TEST_F(IngestTest, CsvHeaderAndBlankLinesInsideBatches) {
  const auto records = synthetic_capture(kMultiBatchRecords);
  write_capture(path("cap.ndjson"), records);
  std::vector<std::string> lines = {ingest::csv_capture_header()};
  std::vector<std::uint64_t> record_end;  // offset just past each record
  std::uint64_t offset = lines[0].size() + 1;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::size_t blanks = (i % 97 == 0 ? 1 : 0) + (i % 1001 == 0 ? 1 : 0);
    for (std::size_t b = 0; b < blanks; ++b) {
      lines.emplace_back();
      offset += 1;
    }
    lines.push_back(ingest::format_csv_record(records[i]));
    offset += lines.back().size() + 1;
    record_end.push_back(offset);
  }
  lines.emplace_back();
  write_lines(path("cap.csv"), lines);

  std::string error;
  const auto stats = ingest::ingest_capture(path("cap.csv"), path("csv"),
                                            two_vantage_options(), &error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->format, ingest::CaptureFormat::kCsv);
  EXPECT_EQ(stats->lines, records.size() + 1);  // the header counts
  EXPECT_EQ(stats->entries, records.size());
  EXPECT_EQ(stats->bytes, fs::file_size(path("cap.csv")));
  ASSERT_TRUE(ingest::ingest_capture(path("cap.ndjson"), path("ndjson"),
                                     two_vantage_options(), &error)
                  .has_value())
      << error;
  EXPECT_EQ(replay_checksum(path("csv")), replay_checksum(path("ndjson")));

  // A stop mid-batch consumes the blank lines before its last line only.
  auto options = two_vantage_options();
  options.max_entries = kBatch + 5;
  const auto partial =
      ingest::ingest_capture(path("cap.csv"), path("part"), options, &error);
  ASSERT_TRUE(partial.has_value()) << error;
  EXPECT_EQ(partial->bytes, record_end[options.max_entries - 1]);
}

}  // namespace
}  // namespace ipfsmon
