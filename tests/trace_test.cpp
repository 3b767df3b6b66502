// Trace model, preprocessing windows (5 s inter-monitor dedup, 31 s
// re-broadcast marking — paper Sec. IV-B), and IPM2 round trips through
// the trace store's segment codec.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>

#include "trace/preprocess.hpp"
#include "trace/trace.hpp"
#include "test_helpers.hpp"
#include "tracestore/segment.hpp"

namespace ipfsmon::trace {
namespace {

using testing_helpers::feed;
using util::kSecond;

crypto::PeerId peer_n(int n) {
  util::RngStream rng(static_cast<std::uint64_t>(n) + 1, "trace-peer");
  return crypto::KeyPair::generate(rng).peer_id();
}

cid::Cid cid_n(int n) {
  return cid::Cid::of_data(cid::Multicodec::Raw,
                           util::bytes_of("cid " + std::to_string(n)));
}

TraceEntry entry(util::SimTime t, int peer, int cid, MonitorId monitor,
                 bitswap::WantType type = bitswap::WantType::WantHave) {
  TraceEntry e;
  e.timestamp = t;
  e.peer = peer_n(peer);
  e.address = net::Address{0x0a000001u + static_cast<std::uint32_t>(peer), 4001};
  e.type = type;
  e.cid = cid_n(cid);
  e.monitor = monitor;
  return e;
}

// --- Trace basics -------------------------------------------------------------

TEST(Trace, SortIsStableByTimestamp) {
  Trace t;
  t.append(entry(5 * kSecond, 1, 1, 0));
  t.append(entry(1 * kSecond, 2, 2, 0));
  t.append(entry(5 * kSecond, 3, 3, 0));  // same ts as first: keeps order
  t.sort_by_time();
  EXPECT_EQ(t.entries()[0].peer, peer_n(2));
  EXPECT_EQ(t.entries()[1].peer, peer_n(1));
  EXPECT_EQ(t.entries()[2].peer, peer_n(3));
}

TEST(Trace, StatsCountCategories) {
  Trace t;
  t.append(entry(0, 1, 1, 0, bitswap::WantType::WantHave));
  t.append(entry(1, 1, 1, 0, bitswap::WantType::WantBlock));
  t.append(entry(2, 2, 1, 0, bitswap::WantType::Cancel));
  auto e = entry(3, 1, 2, 0);
  e.flags = kRebroadcast;
  t.append(e);
  const TraceStats stats = feed(StatsAccumulator(), t).stats();
  EXPECT_EQ(stats.total, 4u);
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.cancels, 1u);
  EXPECT_EQ(stats.rebroadcasts, 1u);
  EXPECT_EQ(stats.request_rebroadcasts, 1u);
  EXPECT_NEAR(stats.rebroadcast_share(), 1.0 / 3.0, 1e-12);
  EXPECT_EQ(stats.clean, 3u);
  EXPECT_EQ(stats.unique_peers, 2u);
  EXPECT_EQ(stats.unique_cids, 2u);
}

TEST(Trace, FilterAndDeduplicated) {
  Trace t;
  t.append(entry(0, 1, 1, 0));
  auto flagged = entry(1, 1, 1, 0);
  flagged.flags = kInterMonitorDuplicate;
  t.append(flagged);
  EXPECT_EQ(t.filter([](const TraceEntry& e) { return e.is_clean(); }).size(),
            1u);
  EXPECT_EQ(t.filter([](const TraceEntry& e) { return e.is_duplicate(); }).size(),
            1u);
}

// --- Preprocessing: inter-monitor duplicates ------------------------------------

TEST(Preprocess, MarksInterMonitorDuplicateWithinFiveSeconds) {
  Trace a, b;
  a.append(entry(100 * kSecond, 1, 1, 0));
  b.append(entry(103 * kSecond, 1, 1, 1));  // same want, 3 s later, monitor 1
  const Trace unified = unify({&a, &b});
  ASSERT_EQ(unified.size(), 2u);
  EXPECT_TRUE(unified.entries()[0].is_clean());
  EXPECT_TRUE(unified.entries()[1].is_duplicate());
  EXPECT_FALSE(unified.entries()[1].is_rebroadcast());
}

TEST(Preprocess, ExactWindowBoundaryIsDuplicate) {
  Trace a, b;
  a.append(entry(0, 1, 1, 0));
  b.append(entry(5 * kSecond, 1, 1, 1));  // exactly 5 s: ≤ window
  const Trace unified = unify({&a, &b});
  EXPECT_TRUE(unified.entries()[1].is_duplicate());
}

TEST(Preprocess, BeyondWindowIsNotDuplicate) {
  Trace a, b;
  a.append(entry(0, 1, 1, 0));
  b.append(entry(5 * kSecond + 1, 1, 1, 1));
  const Trace unified = unify({&a, &b});
  EXPECT_TRUE(unified.entries()[1].is_clean());
}

TEST(Preprocess, DifferentKeyNeverDuplicate) {
  Trace a, b;
  a.append(entry(0, 1, 1, 0));
  b.append(entry(1 * kSecond, 1, 2, 1));  // different CID
  b.append(entry(2 * kSecond, 2, 1, 1));  // different peer
  b.append(entry(3 * kSecond, 1, 1, 1, bitswap::WantType::WantBlock));  // type
  const Trace unified = unify({&a, &b});
  for (const auto& e : unified.entries()) {
    EXPECT_FALSE(e.is_duplicate());
  }
}

// --- Preprocessing: re-broadcasts -------------------------------------------------

TEST(Preprocess, MarksSameMonitorRepeatWithin31Seconds) {
  Trace a;
  a.append(entry(0, 1, 1, 0));
  a.append(entry(30 * kSecond, 1, 1, 0));  // the classic 30 s re-broadcast
  const Trace unified = unify({&a});
  EXPECT_TRUE(unified.entries()[0].is_clean());
  EXPECT_TRUE(unified.entries()[1].is_rebroadcast());
}

TEST(Preprocess, RebroadcastChainIsFullyMarked) {
  Trace a;
  for (int i = 0; i < 5; ++i) {
    a.append(entry(i * 30 * kSecond, 1, 1, 0));
  }
  const Trace unified = unify({&a});
  EXPECT_TRUE(unified.entries()[0].is_clean());
  for (std::size_t i = 1; i < 5; ++i) {
    EXPECT_TRUE(unified.entries()[i].is_rebroadcast()) << i;
  }
  EXPECT_NEAR(feed(StatsAccumulator(), unified).stats().rebroadcast_share(),
              0.8, 1e-9);
}

TEST(Preprocess, GapBeyond31SecondsStartsFresh) {
  Trace a;
  a.append(entry(0, 1, 1, 0));
  a.append(entry(60 * kSecond, 1, 1, 0));  // > 31 s: a genuinely new request
  const Trace unified = unify({&a});
  EXPECT_TRUE(unified.entries()[1].is_clean());
}

TEST(Preprocess, RebroadcastAndDuplicateFlagsCompose) {
  // Monitor 0 sees the want twice (re-broadcast); monitor 1 sees the second
  // occurrence 2 s later (inter-monitor duplicate of it).
  Trace a, b;
  a.append(entry(0, 1, 1, 0));
  a.append(entry(30 * kSecond, 1, 1, 0));
  b.append(entry(32 * kSecond, 1, 1, 1));
  const Trace unified = unify({&a, &b});
  ASSERT_EQ(unified.size(), 3u);
  EXPECT_TRUE(unified.entries()[1].is_rebroadcast());
  EXPECT_TRUE(unified.entries()[2].is_duplicate());
  // Monitor 1's entry is also within 31 s of monitor 0's — but the
  // re-broadcast window is per-monitor, so it is NOT a re-broadcast.
  EXPECT_FALSE(unified.entries()[2].is_rebroadcast());
}

TEST(Preprocess, CancelEntriesTrackedIndependentlyOfWants) {
  Trace a;
  a.append(entry(0, 1, 1, 0, bitswap::WantType::WantHave));
  a.append(entry(10 * kSecond, 1, 1, 0, bitswap::WantType::Cancel));
  const Trace unified = unify({&a});
  // Different type ⇒ different key ⇒ no flags.
  EXPECT_TRUE(unified.entries()[1].is_clean());
}

TEST(Preprocess, CustomWindows) {
  PreprocessOptions options;
  options.rebroadcast_window = 10 * kSecond;
  Trace a;
  a.append(entry(0, 1, 1, 0));
  a.append(entry(15 * kSecond, 1, 1, 0));
  const Trace unified = unify({&a}, options);
  EXPECT_TRUE(unified.entries()[1].is_clean());  // outside the 10 s window
}

TEST(Preprocess, UnifySortsAcrossMonitors) {
  Trace a, b;
  a.append(entry(10 * kSecond, 1, 1, 0));
  b.append(entry(5 * kSecond, 2, 2, 1));
  const Trace unified = unify({&a, &b});
  EXPECT_EQ(unified.entries()[0].monitor, 1u);
  EXPECT_EQ(unified.entries()[1].monitor, 0u);
}

class RebroadcastWindowBoundary
    : public ::testing::TestWithParam<std::pair<util::SimDuration, bool>> {};

TEST_P(RebroadcastWindowBoundary, FlagMatchesWindow) {
  const auto [delta, expect_flag] = GetParam();
  Trace a;
  a.append(entry(0, 1, 1, 0));
  a.append(entry(delta, 1, 1, 0));
  const Trace unified = unify({&a});
  EXPECT_EQ(unified.entries()[1].is_rebroadcast(), expect_flag);
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, RebroadcastWindowBoundary,
    ::testing::Values(std::pair{1 * kSecond, true},
                      std::pair{30 * kSecond, true},
                      std::pair{31 * kSecond, true},
                      std::pair{31 * kSecond + 1, false},
                      std::pair{60 * kSecond, false}));

class InterMonitorWindowBoundary
    : public ::testing::TestWithParam<std::pair<util::SimDuration, bool>> {};

TEST_P(InterMonitorWindowBoundary, FlagMatchesWindow) {
  const auto [delta, expect_flag] = GetParam();
  Trace a, b;
  a.append(entry(0, 1, 1, 0));
  b.append(entry(delta, 1, 1, 1));  // same want, different monitor
  const Trace unified = unify({&a, &b});
  EXPECT_EQ(unified.entries()[1].is_duplicate(), expect_flag);
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, InterMonitorWindowBoundary,
    ::testing::Values(std::pair{0 * kSecond, true},
                      std::pair{1 * kSecond, true},
                      std::pair{5 * kSecond - 1, true},
                      std::pair{5 * kSecond, true},  // exact edge: inclusive
                      std::pair{5 * kSecond + 1, false},
                      std::pair{31 * kSecond, false}));

// --- IPM2 round trips ------------------------------------------------------------
// IPM2 is the segment body encoding; write_segment_file and SegmentReader
// are its one encoder and one decoder.

Trace make_random_trace(std::size_t n, std::uint64_t seed) {
  util::RngStream rng(seed, "trace-io");
  Trace t;
  for (std::size_t i = 0; i < n; ++i) {
    TraceEntry e = entry(static_cast<util::SimTime>(rng.uniform_index(1000)) *
                             kSecond,
                         static_cast<int>(rng.uniform_index(10)),
                         static_cast<int>(rng.uniform_index(20)),
                         static_cast<MonitorId>(rng.uniform_index(2)));
    const auto roll = rng.uniform_index(3);
    e.type = roll == 0   ? bitswap::WantType::WantHave
             : roll == 1 ? bitswap::WantType::WantBlock
                         : bitswap::WantType::Cancel;
    e.flags = static_cast<std::uint32_t>(rng.uniform_index(4));
    t.append(std::move(e));
  }
  return t;
}

bool traces_equal(const Trace& a, const Trace& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a.entries()[i];
    const auto& y = b.entries()[i];
    if (x.timestamp != y.timestamp || x.peer != y.peer ||
        x.address != y.address || x.type != y.type || x.cid != y.cid ||
        x.monitor != y.monitor || x.flags != y.flags) {
      return false;
    }
  }
  return true;
}

std::string ipm2_path(const std::string& name) {
  return ::testing::TempDir() + "/trace_ipm2_" + name + ".seg";
}

void write_ipm2(const std::string& path, const Trace& t) {
  std::string error;
  ASSERT_TRUE(tracestore::write_segment_file(path, t, nullptr, &error))
      << error;
}

std::optional<Trace> read_ipm2(const std::string& path) {
  auto reader = tracestore::SegmentReader::open(path);
  if (!reader) return std::nullopt;
  Trace t;
  TraceEntry e;
  while (reader->next(e)) t.append(e);
  return t;
}

TEST(TraceIo, CompactBinaryRoundTrips) {
  const Trace original = make_random_trace(300, 6);
  const std::string path = ipm2_path("rt");
  write_ipm2(path, original);
  const auto loaded = read_ipm2(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(traces_equal(original, *loaded));
}

TEST(TraceIo, CompactBinaryHandlesEmptyTrace) {
  const std::string path = ipm2_path("empty");
  write_ipm2(path, Trace{});
  const auto loaded = read_ipm2(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 0u);
}

TEST(TraceIo, CompactBinaryRejectsCorruption) {
  const std::string path = ipm2_path("truncated");
  write_ipm2(path, make_random_trace(50, 8));
  std::filesystem::resize_file(path, std::filesystem::file_size(path) * 2 / 3);
  EXPECT_FALSE(read_ipm2(path).has_value());
  const std::string garbage = ipm2_path("garbage");
  std::ofstream(garbage, std::ios::binary) << "IPM2 but not really";
  EXPECT_FALSE(read_ipm2(garbage).has_value());
}

TEST(TraceIo, CompactBinaryPreservesUnsortedTimestamps) {
  // Delta coding must survive non-monotonic timestamps (zig-zag).
  Trace t;
  t.append(entry(100 * kSecond, 1, 1, 0));
  t.append(entry(10 * kSecond, 2, 2, 1));   // backwards jump
  t.append(entry(500 * kSecond, 1, 1, 0));
  const std::string path = ipm2_path("unsorted");
  write_ipm2(path, t);
  const auto loaded = read_ipm2(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(traces_equal(t, *loaded));
}

}  // namespace
}  // namespace ipfsmon::trace
