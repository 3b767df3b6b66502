// trace_report — a standalone analysis CLI over saved traces.
//
// Opens one or more trace-store directories (as written by a spilling
// monitor, `ipfsmon_ingest` or a federation coordinator, see
// src/tracestore), unifies them out-of-core with the paper's 5 s / 31 s
// windows — k-way merged into a flagged on-disk store and analyzed by
// streaming, so the unified trace is never resident in memory — and prints
// the full analysis report: preprocessing stats, activity by
// type/codec/country, popularity (RRP/URP + power-law test), and the most
// active peers.
//
// Usage: trace_report <store-dir> [...]
//        trace_report --demo   (simulate a small study whose monitors spill
//                               to stores, then report on those)
//
// Scratch stores (the unified store, the --demo spill stores) live in fresh
// directories under $TMPDIR that are removed on exit, so concurrent runs
// never share or wipe one.
//
// Exit codes: 2 = a malformed command line (usage) or an input path does
// not exist, 3 = an input path is not a readable trace store, 1 = any other
// failure.
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>

#include "analysis/aggregate.hpp"
#include "analysis/popularity.hpp"
#include "analysis/powerlaw.hpp"
#include "scenario/study.hpp"
#include "tracestore/merge.hpp"
#include "tracestore/scan.hpp"
#include "util/file.hpp"
#include "util/flags.hpp"
#include "util/strings.hpp"

using namespace ipfsmon;

namespace {

/// Everything the report prints, fed one entry at a time by the streamed
/// scan of the unified store.
struct ReportAccumulators {
  explicit ReportAccumulators(const net::GeoDatabase& geo)
      : by_type([](const trace::TraceEntry& e) {
          return std::string(bitswap::want_type_name(e.type));
        }),
        by_country(analysis::ShareAccumulator::by_country(geo)) {}

  void add(const trace::TraceEntry& e) {
    stats.add(e);
    by_type.add(e);
    by_codec.add(e);
    if (e.is_clean()) by_country.add(e);
    popularity.add(e);
    per_peer.add(e);
  }

  trace::StatsAccumulator stats;
  analysis::ShareAccumulator by_type;
  analysis::ShareAccumulator by_codec = analysis::ShareAccumulator::by_codec();
  analysis::ShareAccumulator by_country;  // fed clean entries only
  analysis::PopularityAccumulator popularity;
  analysis::PeerRequestAccumulator per_peer;
};

void print_report(const ReportAccumulators& acc) {
  const trace::TraceStats stats = acc.stats.stats();
  std::printf("entries: %zu (%zu requests, %zu cancels)\n", stats.total,
              stats.requests, stats.cancels);
  std::printf("peers:   %zu unique   cids: %zu unique\n", stats.unique_peers,
              stats.unique_cids);
  std::printf("flags:   %zu re-broadcasts (%.1f%% of requests), "
              "%zu inter-monitor duplicates\n",
              stats.rebroadcasts, 100.0 * stats.rebroadcast_share(),
              stats.inter_monitor_duplicates);

  std::printf("\nrequests by type:\n");
  for (const auto& row : acc.by_type.rows()) {
    std::printf("  %-12s %10llu  %6.2f%%\n", row.label.c_str(),
                static_cast<unsigned long long>(row.count), row.share_percent);
  }

  std::printf("\nrequests by codec:\n");
  for (const auto& row : acc.by_codec.rows()) {
    std::printf("  %-14s %10llu  %6.2f%%\n", row.label.c_str(),
                static_cast<unsigned long long>(row.count), row.share_percent);
  }

  std::printf("\nrequests by country (deduplicated):\n");
  const auto by_country = acc.by_country.rows();
  for (std::size_t i = 0; i < by_country.size() && i < 8; ++i) {
    std::printf("  %-6s %10llu  %6.2f%%\n", by_country[i].label.c_str(),
                static_cast<unsigned long long>(by_country[i].count),
                by_country[i].share_percent);
  }

  const auto popularity = acc.popularity.scores();
  std::printf("\npopularity: %zu scored CIDs, %.1f%% requested by one peer\n",
              popularity.urp.size(),
              100.0 * popularity.single_requester_share());
  std::printf("top CIDs by unique requesters:\n");
  for (const auto& [cid, score] : popularity.top_urp(5)) {
    std::printf("  %-16s URP=%llu RRP=%llu\n", cid.short_hex().c_str(),
                static_cast<unsigned long long>(score),
                static_cast<unsigned long long>(popularity.rrp.at(cid)));
  }

  util::RngStream rng(1, "trace-report");
  const auto test = analysis::test_power_law(popularity.urp_values(), rng, 40);
  std::printf("\npower-law hypothesis on URP: alpha=%.2f xmin=%.0f p=%.3f "
              "-> %s\n", test.fit.alpha, test.fit.xmin, test.p_value,
              test.rejected() ? "REJECTED" : "not rejected");

  std::printf("\nmost active peers:\n");
  const auto per_peer = acc.per_peer.rows();
  for (std::size_t i = 0; i < per_peer.size() && i < 5; ++i) {
    std::printf("  %s  %llu requests\n", per_peer[i].first.short_hex().c_str(),
                static_cast<unsigned long long>(per_peer[i].second));
  }
}

constexpr int kExitMissingInput = 2;
constexpr int kExitCorruptInput = 3;

int report_stores(const std::vector<std::string>& dirs,
                  const net::GeoDatabase& geo) {
  std::vector<tracestore::TraceStore> stores;
  for (const auto& dir : dirs) {
    std::error_code ec;
    if (!std::filesystem::exists(dir, ec)) {
      std::fprintf(stderr, "error: no such store %s\n", dir.c_str());
      return kExitMissingInput;
    }
    std::string error;
    auto store = tracestore::TraceStore::open(dir, {}, &error);
    if (!store) {
      std::fprintf(stderr, "error: cannot open store %s: %s\n", dir.c_str(),
                   error.c_str());
      return kExitCorruptInput;
    }
    for (const auto& w : store->warnings()) {
      std::fprintf(stderr, "warning: %s\n", w.c_str());
    }
    std::printf("opened store %s: %llu entries in %zu segments (%.1f MiB)\n",
                dir.c_str(),
                static_cast<unsigned long long>(store->total_entries()),
                store->segments().size(),
                static_cast<double>(store->total_bytes()) / (1024.0 * 1024.0));
    if (const auto& meta = store->meta()) {
      // Ingested from a real capture: report the wall-clock anchoring.
      std::printf("  ingested from %s (%s), wall range %s .. %s\n",
                  meta->source.c_str(), meta->format.c_str(),
                  util::format_wall_time(meta->wall_epoch_ns +
                                         store->min_time())
                      .c_str(),
                  util::format_wall_time(meta->wall_epoch_ns +
                                         store->max_time())
                      .c_str());
    }
    stores.push_back(std::move(*store));
  }

  // Unify out-of-core: k-way merge + streaming flags into a scratch store,
  // so the unified trace never lives in memory.
  const util::TempDir scratch("ipfsmon_trace_report");
  if (scratch.path().empty()) {
    std::fprintf(stderr, "error: cannot create a scratch directory\n");
    return 1;
  }
  const std::string unified_dir = scratch.path() + "/unified";
  std::string error;
  auto writer = tracestore::SegmentWriter::create(unified_dir, {}, &error);
  if (writer == nullptr) {
    std::fprintf(stderr, "error: cannot create scratch store %s: %s\n",
                 unified_dir.c_str(), error.c_str());
    return 1;
  }
  std::vector<const tracestore::TraceStore*> inputs;
  for (const auto& s : stores) inputs.push_back(&s);
  const tracestore::UnifyStats unify_stats =
      tracestore::unify_to_store(inputs, *writer);
  if (!writer->finalize()) {
    std::fprintf(stderr, "error: failed to finalize %s: %s\n",
                 unified_dir.c_str(), writer->error().c_str());
    return 1;
  }
  // Ingested inputs carry a wall-clock epoch; propagate it to the unified
  // scratch store when it is unambiguous (all inputs agree).
  {
    const tracestore::StoreMeta* common = nullptr;
    bool consistent = true;
    for (const auto& s : stores) {
      if (!s.meta()) continue;
      if (common == nullptr) {
        common = &*s.meta();
      } else if (common->wall_epoch_ns != s.meta()->wall_epoch_ns) {
        consistent = false;
      }
    }
    if (common != nullptr && consistent) {
      tracestore::write_store_meta(unified_dir, *common);
    } else if (common != nullptr) {
      std::printf("note: input stores disagree on wall epoch; unified store "
                  "left unanchored\n");
    }
  }
  std::printf("unified out-of-core into %s: %llu entries, "
              "peak window state %zu keys\n",
              unified_dir.c_str(),
              static_cast<unsigned long long>(unify_stats.entries),
              unify_stats.peak_window_keys);

  auto unified = tracestore::TraceStore::open(unified_dir, {}, &error);
  if (!unified) {
    std::fprintf(stderr, "error: cannot reopen %s: %s\n", unified_dir.c_str(),
                 error.c_str());
    return 1;
  }

  std::printf("\n=== unified trace report (streamed) ===\n");
  ReportAccumulators acc(geo);
  const tracestore::ScanStats scan_stats = tracestore::scan(
      *unified, tracestore::ScanQuery{},
      [&acc](const trace::TraceEntry& e) { acc.add(e); });
  print_report(acc);
  std::printf("\nscan: %zu/%zu segments decoded on %zu pool workers\n",
              scan_stats.segments_scanned, scan_stats.segments_total,
              unified->scan_pool().size());
  for (const auto& w : unified->warnings()) {
    std::fprintf(stderr, "warning: %s\n", w.c_str());
  }
  return 0;
}

std::vector<std::string> make_demo_stores(const std::string& spill_dir) {
  std::printf("generating demo trace stores (monitors spill to disk)...\n");
  scenario::StudyConfig config;
  config.population.node_count = 150;
  config.catalog.item_count = 400;
  config.warmup = 2 * util::kHour;
  config.duration = 6 * util::kHour;
  config.monitor_spill_dir = spill_dir;
  scenario::MonitoringStudy study(config);
  study.run();
  if (!study.finalize_monitor_spill()) {
    std::fprintf(stderr, "error: finalizing monitor spill stores failed\n");
    return {};
  }
  const std::vector<std::string> dirs = study.monitor_store_dirs();
  for (const auto& d : dirs) std::printf("wrote store %s\n", d.c_str());
  std::printf("\n");
  return dirs;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const bool demo = flags.boolean("--demo");
  std::vector<std::string> dirs = flags.positionals();
  if (demo && !dirs.empty()) flags.fail("--demo takes no store directories");
  if (!flags.ok()) return flags.usage("<store-dir> [...]\n--demo");
  std::optional<util::TempDir> demo_dir;  // outlives the report
  if (dirs.empty()) {
    demo_dir.emplace("ipfsmon_demo_stores");
    if (demo_dir->path().empty()) {
      std::fprintf(stderr, "error: cannot create a scratch directory\n");
      return 1;
    }
    dirs = make_demo_stores(demo_dir->path());
    if (dirs.empty()) return 1;
  }
  return report_stores(dirs, net::GeoDatabase::standard());
}
