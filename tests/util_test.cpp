// Unit and property tests for the util module: hex, varint, base58,
// base32, deterministic RNG, string helpers, the binary codec (ByteReader
// on hostile bytes, the sealed trailer) and the file layer.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <cstring>
#include <set>

#include "util/base32.hpp"
#include "util/base58.hpp"
#include "util/bytes.hpp"
#include "util/codec.hpp"
#include "util/file.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/time.hpp"
#include "util/varint.hpp"

// read_smoke_floor and TempDir are header-only bench helpers.
#include "../bench/bench_common.hpp"
#include "publish_check.hpp"

namespace ipfsmon::util {
namespace {

// --- hex ---------------------------------------------------------------

TEST(Hex, EncodesKnownBytes) {
  EXPECT_EQ(to_hex(Bytes{0xde, 0xad, 0xbe, 0xef}), "deadbeef");
  EXPECT_EQ(to_hex(Bytes{0x00}), "00");
  EXPECT_EQ(to_hex(Bytes{}), "");
}

TEST(Hex, DecodesKnownStrings) {
  EXPECT_EQ(from_hex("deadbeef"), (Bytes{0xde, 0xad, 0xbe, 0xef}));
  EXPECT_EQ(from_hex("DEADBEEF"), (Bytes{0xde, 0xad, 0xbe, 0xef}));
  EXPECT_EQ(from_hex(""), Bytes{});
}

TEST(Hex, RejectsMalformedInput) {
  EXPECT_FALSE(from_hex("abc").has_value());   // odd length
  EXPECT_FALSE(from_hex("zz").has_value());    // non-hex chars
  EXPECT_FALSE(from_hex("0g").has_value());
}

TEST(Hex, RoundTripsRandomBuffers) {
  RngStream rng(1, "hex");
  for (int i = 0; i < 50; ++i) {
    Bytes data(rng.uniform_index(64));
    rng.fill_bytes(data.data(), data.size());
    const auto decoded = from_hex(to_hex(data));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, data);
  }
}

TEST(Bytes, LexLessOrdersCorrectly) {
  EXPECT_TRUE(lex_less(Bytes{1, 2}, Bytes{1, 3}));
  EXPECT_TRUE(lex_less(Bytes{1}, Bytes{1, 0}));  // prefix is smaller
  EXPECT_FALSE(lex_less(Bytes{2}, Bytes{1, 9}));
  EXPECT_FALSE(lex_less(Bytes{}, Bytes{}));
}

TEST(Bytes, StringRoundTrip) {
  EXPECT_EQ(string_of(bytes_of("hello")), "hello");
  EXPECT_EQ(bytes_of("").size(), 0u);
}

// --- varint ------------------------------------------------------------

TEST(Varint, EncodesSpecExamples) {
  EXPECT_EQ(varint_encode(0), (Bytes{0x00}));
  EXPECT_EQ(varint_encode(1), (Bytes{0x01}));
  EXPECT_EQ(varint_encode(127), (Bytes{0x7f}));
  EXPECT_EQ(varint_encode(128), (Bytes{0x80, 0x01}));
  EXPECT_EQ(varint_encode(255), (Bytes{0xff, 0x01}));
  EXPECT_EQ(varint_encode(300), (Bytes{0xac, 0x02}));
  EXPECT_EQ(varint_encode(16384), (Bytes{0x80, 0x80, 0x01}));
}

TEST(Varint, DecodeReportsConsumedBytes) {
  const Bytes data{0xac, 0x02, 0xff};
  const auto result = varint_decode(data);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->value, 300u);
  EXPECT_EQ(result->consumed, 2u);
}

TEST(Varint, RejectsTruncatedInput) {
  EXPECT_FALSE(varint_decode(Bytes{0x80}).has_value());
  EXPECT_FALSE(varint_decode(Bytes{}).has_value());
}

TEST(Varint, RejectsOverlongInput) {
  const Bytes overlong(10, 0x80);
  EXPECT_FALSE(varint_decode(overlong).has_value());
}

class VarintRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VarintRoundTrip, EncodeDecodeIsIdentity) {
  const std::uint64_t value = GetParam();
  const Bytes encoded = varint_encode(value);
  const auto decoded = varint_decode(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->value, value);
  EXPECT_EQ(decoded->consumed, encoded.size());
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, VarintRoundTrip,
    ::testing::Values(0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull,
                      (1ull << 21) - 1, 1ull << 21, (1ull << 32) - 1,
                      1ull << 32, (1ull << 56) - 1, 1ull << 56,
                      (1ull << 63) - 1));

TEST(Varint, SpecCapsAtNineBytes) {
  // The multiformats spec limits varints to 9 bytes (63 bits); 2^64-1
  // would need 10 bytes, so its encoding must be rejected on decode.
  const Bytes encoded = varint_encode(~0ull);
  EXPECT_EQ(encoded.size(), 10u);
  EXPECT_FALSE(varint_decode(encoded).has_value());
}

// --- base58 ------------------------------------------------------------

TEST(Base58, EncodesKnownVectors) {
  // Standard test vectors from the Bitcoin base58 suite.
  EXPECT_EQ(base58_encode(bytes_of("hello world")), "StV1DL6CwTryKyV");
  EXPECT_EQ(base58_encode(Bytes{}), "");
  EXPECT_EQ(base58_encode(Bytes{0x00}), "1");
  EXPECT_EQ(base58_encode(Bytes{0x00, 0x00}), "11");
  // Bitcoin address payload including its 4-byte checksum.
  EXPECT_EQ(base58_encode(
                *from_hex("00010966776006953d5567439e5e39f86a0d273beed61967f6")),
            "16UwLL9Risc3QfPqBUvKofHmBQ7wMtjvM");
}

TEST(Base58, DecodesKnownVectors) {
  EXPECT_EQ(base58_decode("StV1DL6CwTryKyV"), bytes_of("hello world"));
  EXPECT_EQ(base58_decode(""), Bytes{});
  EXPECT_EQ(base58_decode("1"), (Bytes{0x00}));
}

TEST(Base58, RejectsInvalidAlphabet) {
  EXPECT_FALSE(base58_decode("0OIl").has_value());  // excluded characters
  EXPECT_FALSE(base58_decode("abc!").has_value());
}

TEST(Base58, RoundTripsRandomBuffers) {
  RngStream rng(2, "base58");
  for (int i = 0; i < 50; ++i) {
    Bytes data(rng.uniform_index(48));
    rng.fill_bytes(data.data(), data.size());
    // Leading zeros are the tricky part — force some.
    if (i % 3 == 0 && !data.empty()) data[0] = 0;
    const auto decoded = base58_decode(base58_encode(data));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, data);
  }
}

// --- base32 ------------------------------------------------------------

TEST(Base32, EncodesRfc4648Vectors) {
  // RFC 4648 vectors, lowercased and unpadded.
  EXPECT_EQ(base32_encode(bytes_of("")), "");
  EXPECT_EQ(base32_encode(bytes_of("f")), "my");
  EXPECT_EQ(base32_encode(bytes_of("fo")), "mzxq");
  EXPECT_EQ(base32_encode(bytes_of("foo")), "mzxw6");
  EXPECT_EQ(base32_encode(bytes_of("foob")), "mzxw6yq");
  EXPECT_EQ(base32_encode(bytes_of("fooba")), "mzxw6ytb");
  EXPECT_EQ(base32_encode(bytes_of("foobar")), "mzxw6ytboi");
}

TEST(Base32, DecodesBothCases) {
  EXPECT_EQ(base32_decode("mzxw6ytboi"), bytes_of("foobar"));
  EXPECT_EQ(base32_decode("MZXW6YTBOI"), bytes_of("foobar"));
}

TEST(Base32, RejectsInvalidInput) {
  EXPECT_FALSE(base32_decode("m1").has_value());   // '1' not in alphabet
  EXPECT_FALSE(base32_decode("m!").has_value());
  // Non-zero padding bits must be rejected.
  EXPECT_FALSE(base32_decode("mz").has_value() &&
               base32_decode("mz") != base32_decode("my"));
}

TEST(Base32, RoundTripsRandomBuffers) {
  RngStream rng(3, "base32");
  for (int i = 0; i < 50; ++i) {
    Bytes data(rng.uniform_index(48));
    rng.fill_bytes(data.data(), data.size());
    const auto decoded = base32_decode(base32_encode(data));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, data);
  }
}

// --- rng ---------------------------------------------------------------

TEST(Rng, SameSeedSameName_SameSequence) {
  RngStream a(42, "stream");
  RngStream b(42, "stream");
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentNames_DifferentSequences) {
  RngStream a(42, "alpha");
  RngStream b(42, "beta");
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformStaysInRange) {
  RngStream rng(7, "uniform");
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIndexCoversDomainWithoutBias) {
  RngStream rng(8, "index");
  std::vector<int> counts(10, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) {
    ++counts[rng.uniform_index(10)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, draws / 10, draws / 10 * 0.15);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  RngStream rng(9, "int");
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, ExponentialHasRequestedMean) {
  RngStream rng(10, "exp");
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.1);
}

TEST(Rng, NormalHasRequestedMoments) {
  RngStream rng(11, "normal");
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(5.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Rng, BernoulliMatchesProbability) {
  RngStream rng(12, "bern");
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ZipfProducesValidRangeAndSkew) {
  RngStream rng(13, "zipf");
  std::uint64_t ones = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t v = rng.zipf(100, 1.2);
    ASSERT_GE(v, 1u);
    ASSERT_LE(v, 100u);
    if (v == 1) ++ones;
  }
  // Rank 1 should dominate under Zipf.
  EXPECT_GT(ones, static_cast<std::uint64_t>(n) / 10);
}

class ZipfExponent : public ::testing::TestWithParam<double> {};

TEST_P(ZipfExponent, RankOneIsMostFrequent) {
  RngStream rng(14, "zipf-p");
  std::vector<int> counts(51, 0);
  for (int i = 0; i < 20000; ++i) {
    ++counts[rng.zipf(50, GetParam())];
  }
  for (int rank = 2; rank <= 50; ++rank) {
    EXPECT_GE(counts[1], counts[rank]) << "rank " << rank;
  }
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfExponent,
                         ::testing::Values(0.8, 1.0, 1.2, 2.0));

TEST(Rng, WeightedIndexFollowsWeights) {
  RngStream rng(15, "weighted");
  const std::vector<double> weights{1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.02);
}

TEST(Rng, WeightedIndexRejectsZeroTotal) {
  RngStream rng(16, "weighted-zero");
  EXPECT_THROW(rng.weighted_index({0.0, 0.0}), std::invalid_argument);
}

TEST(Rng, FillBytesIsDeterministicAndCovering) {
  RngStream a(17, "fill");
  RngStream b(17, "fill");
  std::uint8_t buf_a[37], buf_b[37];
  a.fill_bytes(buf_a, sizeof(buf_a));
  b.fill_bytes(buf_b, sizeof(buf_b));
  EXPECT_EQ(0, std::memcmp(buf_a, buf_b, sizeof(buf_a)));
}

TEST(Rng, ForkedStreamsAreIndependent) {
  RngStream parent(18, "parent");
  RngStream child1 = parent.fork("child");
  RngStream child2 = parent.fork("child");  // forked later: different state
  EXPECT_NE(child1.next_u64(), child2.next_u64());
}

// --- JSON codec --------------------------------------------------------------

TEST(JsonWriter, EscapesStringsAndFormatsNumbers) {
  const std::string hostile = "q\"b\\\x01\x7f\n\t";
  std::string out;
  json::Writer writer(out);
  writer.begin_object()
      .key("s").string(hostile)
      .key("i").i64(-3)
      .key("u").u64(18446744073709551615ull)
      .key("b").boolean(true)
      .key("n").null()
      .key("f").fixed(0.5, 3)
      .key("g").number(2.0)
      .key("h").number(0.1234567)
      .key("big").number(1e300)
      .key("nan").number(std::nan(""))
      .key("inf").fixed(INFINITY, 1)
      .key("a").begin_array()
      .u64(1).begin_object().end_object().begin_array().end_array()
      .end_array()
      .end_object();
  EXPECT_EQ(out,
            "{\"s\":\"q\\\"b\\\\\\u0001\x7f\\n\\t\",\"i\":-3,"
            "\"u\":18446744073709551615,\"b\":true,\"n\":null,"
            "\"f\":0.500,\"g\":2,\"h\":0.123457,\"big\":1e+300,"
            "\"nan\":null,\"inf\":null,\"a\":[1,{},[]]}");
  EXPECT_TRUE(json::valid(out));
  std::vector<json::Field> fields;
  ASSERT_TRUE(json::scan_object(out, &fields));
  ASSERT_EQ(fields.size(), 11u);  // the array is skipped
  EXPECT_EQ(fields[0].value, hostile);
}

TEST(JsonScan, ExtractsScalarsLinksAndSkipsCompounds) {
  std::vector<json::Field> fields;
  ASSERT_TRUE(json::scan_object(
      R"({"a": "x\n\"y\"", "n": -3.5, "b": true, "cid": {"/": "Qm1"},)"
      R"( "skip": {"deep": [1, {"x": "}"}]}, "arr": [1, 2], "z": null})",
      &fields));
  ASSERT_EQ(fields.size(), 5u);  // "skip" and "arr" are dropped
  EXPECT_EQ(fields[0].key, "a");
  EXPECT_EQ(fields[0].value, "x\n\"y\"");
  EXPECT_TRUE(fields[0].is_string);
  EXPECT_EQ(fields[1].value, "-3.5");
  EXPECT_FALSE(fields[1].is_string);
  EXPECT_EQ(fields[2].value, "true");
  EXPECT_EQ(fields[3].key, "cid");
  EXPECT_EQ(fields[3].value, "Qm1");  // dag-json link unwrapped
  EXPECT_EQ(fields[4].value, "null");
}

TEST(JsonScan, RejectsMalformedObjects) {
  std::vector<json::Field> fields;
  const std::string deep(100000, '[');
  for (const std::string& bad : std::vector<std::string>{
           "", "nope", "{", R"({"a")", R"({"a": })", R"({"a": "x)",
        R"({"a": "x"} trailing)", R"({"a": "\q"})", R"({'a': 1})",
        R"({"a": {"b": 1)",
        // Bare tokens are JSON numbers, true, false or null only.
        R"({"a":tru})", R"({"peer":Qmb8MwXWwQU1})", R"({"a":01})",
        R"({"a":1.})", R"({"a":-})", R"({"a":1e})",
        // Skipped values must close the bracket they opened.
        R"({"a":[1,2}})", R"({"a":{"b":1]})", R"({"a":[1,]})",
        // No raw control characters inside strings.
        "{\"a\":\"x\ty\"}", "{\"a\x01\":1}",
        // Hostile nesting is rejected without recursion.
        deep, "{\"a\":" + deep + "}"}) {
    EXPECT_FALSE(json::scan_object(bad, &fields)) << bad.substr(0, 40);
    EXPECT_FALSE(json::valid(bad)) << bad.substr(0, 40);
  }
}

TEST(SmokeFloor, CommentQuotingTheKeyDoesNotShadowIt) {
  util::TempDir dir("ipfsmon-floor");
  ASSERT_FALSE(dir.path().empty());
  const std::string path = dir.path() + "/floor.json";
  std::ofstream(path) << "{\n  \"comment\": \"fails below half of "
                         "\\\"rate\\\": 1 entry/s\",\n  \"rate\": 80000\n}\n";
  EXPECT_EQ(bench::read_smoke_floor(path, "rate"), 80000.0);
  EXPECT_EQ(bench::read_smoke_floor(path, "comment"), 0.0);
  EXPECT_EQ(bench::read_smoke_floor(path, "missing"), 0.0);
  EXPECT_EQ(bench::read_smoke_floor(dir.path() + "/absent.json", "rate"), 0.0);
}

// --- strings / time ------------------------------------------------------

TEST(Strings, SplitKeepsEmptyFields) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split(",a,", ','), (std::vector<std::string>{"", "a", ""}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Strings, JoinInvertsSplit) {
  const std::vector<std::string> parts{"x", "", "y"};
  EXPECT_EQ(join(parts, ","), "x,,y");
  EXPECT_EQ(split(join(parts, ","), ','), parts);
}

TEST(Strings, FormatWorksLikePrintf) {
  EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(format("%.2f", 3.14159), "3.14");
  EXPECT_EQ(format("empty"), "empty");
}

TEST(Strings, Padding) {
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_right("abcdef", 4), "abcd");
  EXPECT_EQ(pad_left("ab", 4), "  ab");
}

TEST(Time, ConstantsAreConsistent) {
  EXPECT_EQ(kSecond, 1000 * kMillisecond);
  EXPECT_EQ(kDay, 24 * kHour);
  EXPECT_EQ(seconds(1.5), kSecond + 500 * kMillisecond);
  EXPECT_DOUBLE_EQ(to_seconds(kMinute), 60.0);
  EXPECT_DOUBLE_EQ(to_days(36 * kHour), 1.5);
}

TEST(Time, FormatsDayHourMinuteSecond) {
  EXPECT_EQ(format_sim_time(0), "0:00:00:00");
  EXPECT_EQ(format_sim_time(kDay + 2 * kHour + 3 * kMinute + 4 * kSecond),
            "1:02:03:04");
}

// --- binary codec ---------------------------------------------------------

TEST(Codec, ByteReaderRefusesHostileBytes) {
  // Each case reads `bytes` with `read` and states whether every read
  // succeeded (ok) and whether the input was consumed exactly (done).
  const struct {
    const char* what;
    Bytes bytes;
    std::function<void(ByteReader&)> read;
    bool ok;
    bool done;
  } cases[] = {
      {"one-byte varint", {0x05}, [](ByteReader& r) { EXPECT_EQ(r.varint(), 5u); },
       true, true},
      {"truncated varint", {0x80, 0x80}, [](ByteReader& r) { r.varint(); },
       false, false},
      {"9-byte varint (2^63 - 1)",
       {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
       [](ByteReader& r) { EXPECT_EQ(r.varint(), (1ull << 63) - 1); }, true,
       true},
      {"10-byte varint",
       {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
       [](ByteReader& r) { r.varint(); }, false, false},
      {"count that fits", {0x02, 1, 2, 3, 4},
       [](ByteReader& r) { EXPECT_EQ(r.count(2), 2u); }, true, false},
      {"count past the bytes left", {0x03, 1, 2, 3, 4, 5},
       [](ByteReader& r) { EXPECT_EQ(r.count(2), 0u); }, false, false},
      {"count of 2^40 in six bytes", {0x80, 0x80, 0x80, 0x80, 0x80, 0x20},
       [](ByteReader& r) { EXPECT_EQ(r.count(1), 0u); }, false, false},
      {"length past the bytes left", {0x05, 'a', 'b', 'c', 'd'},
       [](ByteReader& r) { EXPECT_TRUE(r.blob(100).empty()); }, false, false},
      {"length past the cap", {0x03, 'a', 'b', 'c'},
       [](ByteReader& r) { EXPECT_EQ(r.string(2), ""); }, false, false},
      {"string within the cap", {0x03, 'a', 'b', 'c'},
       [](ByteReader& r) { EXPECT_EQ(r.string(3), "abc"); }, true, true},
      {"bytes past the end", {1, 2, 3},
       [](ByteReader& r) { EXPECT_TRUE(r.bytes(4).empty()); }, false, false},
      {"trailing bytes", {0x01, 0x02},
       [](ByteReader& r) { EXPECT_EQ(r.varint(), 1u); }, true, false},
      {"fixed width past the end", {1, 2, 3},
       [](ByteReader& r) { EXPECT_EQ(r.u32(), 0u); }, false, false},
      {"use after failure", {0x80, 0x07, 0x09},
       [](ByteReader& r) {
         r.u32();                     // fails: three bytes left
         EXPECT_EQ(r.u8(), 0u);       // a byte is there, but the failure sticks
         EXPECT_EQ(r.varint(), 0u);
         EXPECT_TRUE(r.bytes(1).empty());
         EXPECT_EQ(r.pos(), 0u);
       },
       false, false},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    ByteReader reader(c.bytes);
    c.read(reader);
    EXPECT_EQ(reader.ok(), c.ok);
    EXPECT_EQ(reader.done(), c.done);
  }
}

TEST(Codec, LittleEndianRoundTripAndFnvVectors) {
  Bytes out;
  put_le(out, std::uint8_t{0xab});
  put_le(out, std::uint16_t{0x1234});
  put_le(out, std::uint32_t{0xdeadbeef});
  put_le(out, std::uint64_t{0x0102030405060708});
  put_string(out, "vantage");
  put_blob(out, bytes_of("blob"));
  EXPECT_EQ(to_hex(BytesView(out.data(), 7)), "ab3412efbeadde");
  ByteReader reader(out);
  EXPECT_EQ(reader.u8(), 0xabu);
  EXPECT_EQ(reader.u16(), 0x1234u);
  EXPECT_EQ(reader.u32(), 0xdeadbeefu);
  EXPECT_EQ(reader.u64(), 0x0102030405060708u);
  EXPECT_EQ(reader.string(64), "vantage");
  EXPECT_EQ(string_of(reader.blob(64)), "blob");
  EXPECT_TRUE(reader.done());

  // Published FNV-1a 64 vectors; the seed XORs the offset basis.
  EXPECT_EQ(fnv1a64(std::string_view(""), 0), kFnv1aOffset);
  EXPECT_EQ(fnv1a64(std::string_view("a"), 0), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64(std::string_view("foobar"), 0), 0x85944171f73967e8ull);
  EXPECT_EQ(fnv1a64(bytes_of("a"), 0), fnv1a64(std::string_view("a"), 0));
  EXPECT_NE(fnv1a64(std::string_view("a"), 1), fnv1a64(std::string_view("a"), 0));
}

TEST(Codec, SealedTrailerDetectsEveryTamper) {
  constexpr std::uint32_t kMagic = 0x54535347;
  const Bytes payload = bytes_of("footer bytes");
  Bytes file = bytes_of("body|");
  file.insert(file.end(), payload.begin(), payload.end());
  const Bytes trailer = seal(payload, kMagic);
  ASSERT_EQ(trailer.size(), kTrailerBytes);
  file.insert(file.end(), trailer.begin(), trailer.end());

  std::string why;
  const auto opened = open_sealed(file, kMagic, &why);
  ASSERT_TRUE(opened.has_value()) << why;
  EXPECT_EQ(string_of(*opened), "footer bytes");
  EXPECT_EQ(sealed_length(trailer, kMagic, &why), payload.size());

  const struct {
    const char* what;
    std::size_t at;  // byte flipped, counted from the end
  } tampers[] = {{"magic", 1}, {"checksum", 9}, {"length", 13},
                 {"payload", kTrailerBytes + 1}};
  for (const auto& t : tampers) {
    Bytes bad = file;
    bad[bad.size() - t.at] ^= 0x40;
    why.clear();
    EXPECT_FALSE(open_sealed(bad, kMagic, &why).has_value()) << t.what;
    EXPECT_FALSE(why.empty()) << t.what;
  }
  EXPECT_FALSE(open_sealed(file, kMagic + 1, &why).has_value());
  EXPECT_FALSE(open_sealed(BytesView(file.data(), 15), kMagic, &why));
  EXPECT_NE(why.find("truncated"), std::string::npos) << why;
  // A length past the bytes before the trailer is refused, not read.
  Bytes long_claim = trailer;
  long_claim[3] = 0x7f;
  EXPECT_FALSE(open_sealed(long_claim, kMagic, &why).has_value());
}

// --- file layer -----------------------------------------------------------

namespace fs = std::filesystem;

std::string file_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/util_file_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(ParseInt, DigitsOnlyWithinRange) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("007"), 7u);
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(parse_u64("4294967295", UINT32_MAX), UINT32_MAX);
  for (const char* bad : {"", "+5", "-0", "-1", " 5", "5 ", "0x10", "1e3",
                          "18446744073709551616", "99999999999999999999"}) {
    EXPECT_FALSE(parse_u64(bad).has_value()) << bad;
  }
  EXPECT_FALSE(parse_u64("4294967296", UINT32_MAX).has_value());
  EXPECT_FALSE(parse_u64("4294967297", UINT32_MAX).has_value());

  EXPECT_EQ(parse_i64("-0"), 0);
  EXPECT_EQ(parse_i64("-42"), -42);
  EXPECT_EQ(parse_i64("9223372036854775807"), INT64_MAX);
  EXPECT_EQ(parse_i64("-9223372036854775808"), INT64_MIN);
  for (const char* bad : {"", "-", "+1", "--1", "- 1", " -1", "1-",
                          "9223372036854775808", "-9223372036854775809"}) {
    EXPECT_FALSE(parse_i64(bad).has_value()) << bad;
  }
}

// --- Flags ------------------------------------------------------------------

TEST(Flags, OneStrictGrammar) {
  // Each case parses `args` (after a program name) with `read`, which checks
  // the values it gets back; `ok` says whether the command line is valid.
  const struct {
    const char* what;
    std::vector<const char*> args;
    std::function<void(Flags&)> read;
    bool ok;
  } cases[] = {
      {"space form", {"--store", "dir"},
       [](Flags& f) { EXPECT_EQ(f.text("--store"), "dir"); }, true},
      {"= form", {"--store=dir"},
       [](Flags& f) { EXPECT_EQ(f.text("--store"), "dir"); }, true},
      {"absent flag takes the fallback", {},
       [](Flags& f) { EXPECT_EQ(f.u64("--port", 7878), 7878u); }, true},
      {"missing value at the end", {"--store"},
       [](Flags& f) { f.text("--store"); }, false},
      {"missing value before a flag", {"--store", "--lenient"},
       [](Flags& f) {
         EXPECT_EQ(f.text("--store", "none"), "none");
         EXPECT_TRUE(f.boolean("--lenient"));
       },
       false},
      {"boolean", {"--lenient"},
       [](Flags& f) { EXPECT_TRUE(f.boolean("--lenient")); }, true},
      {"= on a boolean", {"--smoke=0"}, [](Flags& f) { f.boolean("--smoke"); },
       false},
      {"unknown flag", {"--node=50"},
       [](Flags& f) { EXPECT_EQ(f.u64("--nodes", 500), 500u); }, false},
      {"a flag name is not a prefix", {"--trace-sample=1"},
       [](Flags& f) {
         EXPECT_FALSE(f.has("--trace"));
         EXPECT_FALSE(f.boolean("--trace"));
         EXPECT_EQ(f.u64("--trace-sample", 64), 1u);
       },
       true},
      {"repeated flag read once", {"--port", "1", "--port", "2"},
       [](Flags& f) { f.u64("--port", 0); }, false},
      {"repeated flag read in full", {"--monitor", "a=1", "--monitor=b=2"},
       [](Flags& f) {
         EXPECT_EQ(f.every("--monitor"),
                   (std::vector<std::string>{"a=1", "b=2"}));
       },
       true},
      {"positionals mixed with flags",
       {"a", "--store", "dir", "b", "--demo", "c"},
       [](Flags& f) {
         EXPECT_EQ(f.text("--store"), "dir");
         EXPECT_TRUE(f.boolean("--demo"));
         EXPECT_EQ(f.positionals(), (std::vector<std::string>{"a", "b", "c"}));
       },
       true},
      {"positionals by index", {"400", "1.5"},
       [](Flags& f) {
         EXPECT_EQ(f.u64_at(0, 0), 400u);
         EXPECT_EQ(f.f64_at(1, 0), 1.5);
         EXPECT_EQ(f.text_at(2, "dir"), "dir");
       },
       true},
      {"unclaimed positional", {"extra"}, [](Flags&) {}, false},
      {"malformed positional", {"abc"},
       [](Flags& f) { EXPECT_EQ(f.u64_at(0, 400), 400u); }, false},
      {"u64 at max", {"--port=65535"},
       [](Flags& f) { EXPECT_EQ(f.u64("--port", 0, UINT16_MAX), 65535u); },
       true},
      {"u64 past max", {"--port=65536"},
       [](Flags& f) { f.u64("--port", 0, UINT16_MAX); }, false},
      {"u64 past 2^64", {"--seed=18446744073709551616"},
       [](Flags& f) { f.u64("--seed", 0); }, false},
      {"u64 negative", {"--nodes=-5"}, [](Flags& f) { f.u64("--nodes", 0); },
       false},
      {"u64 1e4", {"--nodes=1e4"}, [](Flags& f) { f.u64("--nodes", 0); },
       false},
      {"u64 empty", {"--nodes="}, [](Flags& f) { f.u64("--nodes", 0); },
       false},
      {"i64 value beginning with -", {"--start", "-5"},
       [](Flags& f) { EXPECT_EQ(f.i64("--start", 0), -5); }, true},
      {"f64 value beginning with -", {"--x", "-2.5"},
       [](Flags& f) { EXPECT_EQ(f.f64("--x", 0), -2.5); }, true},
      {"f64 1e4", {"--hours=1e4"},
       [](Flags& f) { EXPECT_EQ(f.f64("--hours", 0), 1e4); }, true},
      {"f64 nan", {"--hours=nan"}, [](Flags& f) { f.f64("--hours", 0); },
       false},
      {"f64 inf", {"--hours=inf"}, [](Flags& f) { f.f64("--hours", 0); },
       false},
      {"f64 past the double range", {"--hours=1e999"},
       [](Flags& f) { f.f64("--hours", 0); }, false},
      {"f64 abc", {"--hours=abc"}, [](Flags& f) { f.f64("--hours", 0); },
       false},
      {"f64 with a plus sign", {"--hours=+1"},
       [](Flags& f) { f.f64("--hours", 0); }, false},
      {"f64 in hex", {"--hours=0x10"}, [](Flags& f) { f.f64("--hours", 0); },
       false},
      {"f64 with trailing text", {"--hours=1h"},
       [](Flags& f) { f.f64("--hours", 0); }, false},
      {"caller's own check", {"--poll-ms=0"},
       [](Flags& f) {
         if (f.u64("--poll-ms", 100) == 0) f.fail("--poll-ms must be >= 1");
       },
       false},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    std::vector<const char*> argv = {"prog"};
    argv.insert(argv.end(), c.args.begin(), c.args.end());
    Flags flags(static_cast<int>(argv.size()), argv.data());
    c.read(flags);
    EXPECT_EQ(flags.ok(), c.ok) << flags.error();
    EXPECT_EQ(flags.error().empty(), c.ok);
  }
}

TEST(Flags, UsagePrintsTheErrorThenEachSynopsisAndReturnsTwo) {
  const char* argv[] = {"prog", "--port=x"};
  Flags flags(2, argv);
  flags.u64("--port", 0);
  ASSERT_FALSE(flags.ok());
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(flags.usage("--port N\n--demo"), 2);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "prog: --port: 'x' is not a non-negative integer\n"
            "usage: prog --port N\n"
            "       prog --demo\n");
}

TEST(File, PublishIsAllOrNothing) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const std::string dir = file_dir("publish");
  const std::string head = "head|";
  const Bytes tail = bytes_of("tail");
  testing_helpers::expect_publish_all_or_nothing(
      dir, "target", "head|tail", [&] {
        std::string error;
        const bool ok = publish(dir + "/target", {head, tail}, &error);
        EXPECT_EQ(ok, error.empty()) << error;
        return ok;
      });
}

TEST(File, PublishReportsAShortWriteAndLeavesNoTemp) {
  // RLIMIT_FSIZE makes writes past 4 KiB fail with EFBIG (SIGXFSZ is
  // ignored for the duration), so the temp can only be written in part.
  const std::string dir = file_dir("short");
  const std::string target = dir + "/target";
  ASSERT_TRUE(publish(target, {std::string("old")}));
  struct rlimit saved {};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  struct rlimit small = saved;
  small.rlim_cur = 4096;
  const auto saved_handler = ::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &small), 0);
  std::string error;
  const bool ok = publish(target, {std::string(16384, 'x')}, &error);
  ::setrlimit(RLIMIT_FSIZE, &saved);
  ::signal(SIGXFSZ, saved_handler);
  EXPECT_FALSE(ok);
  EXPECT_NE(error.find("short write"), std::string::npos) << error;
  EXPECT_EQ(testing_helpers::read_text(target), "old");
  EXPECT_FALSE(fs::exists(target + ".tmp"));
}

TEST(File, PublishCheckVetoesTheRename) {
  const std::string dir = file_dir("check");
  const std::string target = dir + "/target";
  ASSERT_TRUE(publish(target, {std::string("old")}));
  std::string seen;
  std::string error;
  EXPECT_FALSE(publish(target, {std::string("new")}, &error,
                       [&](const std::string& temp) {
                         std::string text;
                         EXPECT_TRUE(read_file(temp, &text));
                         seen = text;
                         return false;
                       }));
  EXPECT_EQ(seen, "new");  // the check saw the written temp
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(testing_helpers::read_text(target), "old");
  EXPECT_FALSE(fs::exists(target + ".tmp"));
  EXPECT_TRUE(publish(target, {std::string("new")}, nullptr,
                      [](const std::string&) { return true; }));
  EXPECT_EQ(testing_helpers::read_text(target), "new");
}

TEST(File, ReadFileTakesRegularFilesOnly) {
  const std::string dir = file_dir("read");
  ASSERT_TRUE(publish(dir + "/plain", {std::string("abc\ndef")}));
  std::string text;
  ASSERT_TRUE(read_file(dir + "/plain", &text));
  EXPECT_EQ(text, "abc\ndef");
  Bytes bytes;
  ASSERT_TRUE(read_file(dir + "/plain", &bytes));
  EXPECT_EQ(bytes, bytes_of("abc\ndef"));
  std::uint64_t size = 0;
  ASSERT_TRUE(read_file_tail(dir + "/plain", 3, &bytes, &size));
  EXPECT_EQ(bytes, bytes_of("def"));
  EXPECT_EQ(size, 7u);
  ASSERT_TRUE(read_file_tail(dir + "/plain", 100, &bytes, &size));
  EXPECT_EQ(bytes, bytes_of("abc\ndef"));

  std::string error;
  EXPECT_FALSE(read_file(dir + "/missing", &text, &error));
  EXPECT_NE(error.find("missing"), std::string::npos) << error;
  EXPECT_FALSE(read_file(dir, &text, &error));  // a directory
  EXPECT_NE(error.find("not a regular file"), std::string::npos) << error;
  // A FIFO must be refused without blocking on the open.
  ASSERT_EQ(::mkfifo((dir + "/fifo").c_str(), 0600), 0);
  EXPECT_FALSE(read_file(dir + "/fifo", &text, &error));
  EXPECT_NE(error.find("not a regular file"), std::string::npos) << error;
  EXPECT_FALSE(read_file_tail(dir + "/fifo", 16, &bytes, &size, &error));
  EXPECT_NE(error.find("not a regular file"), std::string::npos) << error;
  // An endless device behind a link is refused, not read without bound.
  if (fs::exists("/dev/zero")) {
    fs::create_symlink("/dev/zero", dir + "/zero");
    EXPECT_FALSE(read_file(dir + "/zero", &text, &error));
    EXPECT_NE(error.find("not a regular file"), std::string::npos) << error;
  }
}

TEST(File, SignatureIsTheSameFromPathAndFd) {
  const std::string dir = file_dir("signature");
  const std::string path = dir + "/file";
  ASSERT_TRUE(publish(path, {std::string("12345")}));
  const auto by_path = file_signature(path);
  ASSERT_TRUE(by_path.has_value());
  EXPECT_EQ(by_path->size, 5u);
  // read_file's signature comes from an fstat on the fd it reads through.
  Bytes bytes;
  FileSignature by_fd;
  ASSERT_TRUE(read_file(path, &bytes, nullptr, &by_fd));
  EXPECT_EQ(bytes.size(), 5u);
  EXPECT_EQ(by_fd, *by_path);
  EXPECT_FALSE(file_signature(dir + "/missing").has_value());
}

}  // namespace
}  // namespace ipfsmon::util
