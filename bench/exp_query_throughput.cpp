// exp_query_throughput --smoke — the scan-path perf gate behind
// scripts/check.sh --perf-smoke.
//
// Writes a synthetic 60k-entry store in 16384-entry segments into a fresh
// temporary directory, warms the pages and the validation cache with one
// untimed 64-peer watchlist scan, then times two more. Fails (exit 1) when
// the warm entries/s drops below half the committed floor in
// bench/query_smoke_floor.json (a >2x scan-path regression), or when that
// floor is missing.
//
// Flags: --smoke (required; without it the binary prints usage and exits 2)
//        --floor=PATH (default bench/query_smoke_floor.json)
//
// Scan, rollup, cache and HTTP serving performance is measured end to end
// by perfbench's `serve` workload.
#include "bench_common.hpp"
#include "tracestore/scan.hpp"
#include "tracestore/store.hpp"
#include "util/rng.hpp"

using namespace ipfsmon;

namespace {

constexpr std::size_t kEntries = 60000;
constexpr std::uint64_t kSegmentEntries = 16384;
constexpr std::uint64_t kWatchlistPeers = 64;
constexpr int kTimedReps = 2;

crypto::PeerId bench_peer(std::uint64_t index) {
  crypto::PeerId::Digest digest{};
  digest[0] = static_cast<std::uint8_t>(index);
  digest[1] = static_cast<std::uint8_t>(index >> 8);
  return crypto::PeerId(digest);
}

trace::Trace make_trace(std::size_t n, std::uint64_t seed) {
  util::RngStream rng(seed, "query-bench");
  trace::Trace t;
  util::SimTime ts = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ts += rng.uniform_index(2 * util::kSecond);
    trace::TraceEntry e;
    e.timestamp = ts;
    const auto peer = rng.uniform_index(4000);
    e.peer = bench_peer(peer);
    e.address =
        net::Address{0x0a000001u + static_cast<std::uint32_t>(peer), 4001};
    e.cid = cid::Cid::of_data(
        cid::Multicodec::Raw,
        util::bytes_of("bench cid " +
                       std::to_string(rng.uniform_index(20000))));
    const auto type = rng.uniform_index(4);
    e.type = type == 0   ? bitswap::WantType::Cancel
             : type == 1 ? bitswap::WantType::WantBlock
                         : bitswap::WantType::WantHave;
    if (rng.uniform_index(4) == 0) e.flags |= trace::kRebroadcast;
    if (rng.uniform_index(6) == 0) e.flags |= trace::kInterMonitorDuplicate;
    t.append(std::move(e));
  }
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const bool smoke = flags.boolean("--smoke");
  const std::string floor_path =
      flags.text("--floor", "bench/query_smoke_floor.json");
  if (!flags.ok() || !smoke) return flags.usage("--smoke [--floor=PATH]");

  bench::print_header("exp_query_throughput",
                      "warm watchlist scan gate (infrastructure, no paper "
                      "figure)");
  const bench::Stopwatch total;
  const util::TempDir scratch("ipfsmon_query_smoke");
  if (scratch.path().empty()) {
    std::fprintf(stderr, "cannot create a temporary directory\n");
    return 1;
  }
  const std::string dir = scratch.path() + "/store";

  std::printf("building synthetic store: %zu entries -> %s\n", kEntries,
              dir.c_str());
  tracestore::StoreOptions options;
  // Many segments, so the pooled scan has parallelism to exploit.
  options.max_entries_per_segment = kSegmentEntries;
  {
    auto writer = tracestore::SegmentWriter::create(dir, options);
    if (writer == nullptr) {
      std::fprintf(stderr, "cannot create %s\n", dir.c_str());
      return 1;
    }
    const trace::Trace t = make_trace(kEntries, 7);
    for (const auto& e : t.entries()) writer->append(e);
    if (!writer->finalize()) return 1;
  }
  auto store = tracestore::TraceStore::open(dir, options);
  if (!store) {
    std::fprintf(stderr, "cannot open %s\n", dir.c_str());
    return 1;
  }

  tracestore::ScanQuery watchlist;
  for (std::uint64_t p = 0; p < kWatchlistPeers; ++p) {
    watchlist.peers.insert(bench_peer(p));
  }
  const auto ignore = [](const trace::TraceEntry&) {};
  // Warm the pages and the validation cache once, untimed, so the timed
  // reps measure steady state.
  tracestore::scan(*store, watchlist, ignore);
  std::uint64_t decoded = 0, bytes = 0, matched = 0;
  const bench::Stopwatch watch;
  for (int rep = 0; rep < kTimedReps; ++rep) {
    const tracestore::ScanStats stats =
        tracestore::scan(*store, watchlist, ignore);
    decoded += stats.entries_decoded;
    bytes += stats.bytes_scanned;
    matched += stats.entries_matched;
  }
  const double seconds = watch.seconds();
  const double entries_per_s = seconds > 0 ? decoded / seconds : 0;

  bench::print_section("warm watchlist scan (store -> visitor, no HTTP)");
  std::printf("  %zu segments, %d reps: %.1f MB/s, %.0f entries/s, "
              "%llu matched, %.3f s\n",
              store->segments().size(), kTimedReps,
              seconds > 0 ? bytes / seconds / 1e6 : 0, entries_per_s,
              static_cast<unsigned long long>(matched), seconds);

  bench::print_section("perf smoke gate");
  const bool ok = bench::passes_smoke_floor(
      floor_path,
      "warm_scan_entries_per_s", entries_per_s, "entries/s");
  bench::print_run_footer(total);
  return ok ? 0 : 1;
}
