// The federation pass of serve's traced run: four pre-built monitor stores
// shipped concurrently with Shipper::ship_pending over FMON into a fresh
// FederatedService root, timed from the first connect through refresh() —
// landing verification plus re-unify — to the first unified /v1/stats
// answer over HTTP. It is the benchmark's only use of the federation layer
// and the coordinator's accept loop and connection threads. It reports
// per-layer metrics only: its end-to-end time is mostly small-file creates
// and renames, and on a shared 4-core VM it spread by 0.7 from run to run
// (README.md, "Dropped workload").
//
// Correctness: the unified /v1/stats body must equal the body a plain
// QueryService gives over a single-store unify of the same four stores
// (federated == single-store), and no segment may be rejected.
#include <cmath>
#include <filesystem>
#include <map>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "federation/federated.hpp"
#include "federation/shipper.hpp"
#include "query/client.hpp"
#include "query/server.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;

namespace perfbench {

namespace {

using namespace ipfsmon;

constexpr int kTimeoutMs = 60000;

struct FederateRep {
  double wall_s = 0;
  double ship_s = 0;
  double refresh_s = 0;
  double first_answer_ms = 0;
  bool ok = true;
  bool answer_matches = false;
  federation::ShipperStats shipped;  // summed over the shippers
  std::uint64_t unified_entries = 0;
  std::string land_histogram;        // coordinator Prometheus text
};

/// Percentile `q` of the ipfsmon_federation_land_micros histogram in a
/// Prometheus page, interpolated linearly inside the bucket, in ms.
double land_percentile_ms(const std::string& text, double q) {
  const std::string prefix = "ipfsmon_federation_land_micros_bucket{";
  std::map<double, double> cumulative;  // upper bound -> count
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    const auto le = line.find("le=\"");
    const auto close = line.find("\"}", le);
    if (le == std::string::npos || close == std::string::npos) continue;
    const std::string bound = line.substr(le + 4, close - le - 4);
    const double upper = bound == "+Inf" ? HUGE_VAL : std::strtod(bound.c_str(), nullptr);
    cumulative[upper] += std::strtod(line.c_str() + close + 2, nullptr);
  }
  if (cumulative.empty() || cumulative.rbegin()->second <= 0) return 0.0;
  const double want = q * cumulative.rbegin()->second;
  double lower = 0.0;
  double below = 0.0;
  for (const auto& [upper, count] : cumulative) {
    if (count >= want) {
      if (std::isinf(upper)) return lower / 1000.0;
      const double share = count > below ? (want - below) / (count - below) : 1.0;
      return (lower + share * (upper - lower)) / 1000.0;
    }
    lower = upper;
    below = count;
  }
  return lower / 1000.0;
}

/// One replication into a fresh coordinator-mode daemon (FederatedService
/// plus its HTTP front end) on an emptied `root`.
FederateRep run_once(const std::string& input_dir, const std::string& root,
                     const Manifest& manifest) {
  FederateRep rep;
  std::string error;
  reset_dir(root);
  auto service = federation::FederatedService::start(root);
  if (service == nullptr) {
    rep.ok = false;
    return rep;
  }
  query::HttpServer server(
      query::ServerOptions{},
      [svc = service.get()](const query::HttpRequest& request) {
        return svc->query().handle(request);
      });
  if (!server.start(&error)) {
    rep.ok = false;
    return rep;
  }

  const Stopwatch wall;
  std::vector<federation::ShipperStats> stats(kFederateMonitors);
  std::vector<char> shipped_ok(kFederateMonitors, 0);
  {
    std::vector<std::thread> threads;
    for (std::uint32_t m = 0; m < kFederateMonitors; ++m) {
      threads.emplace_back([&, m] {
        federation::ShipperOptions options;
        options.port = service->coordinator().port();
        options.monitor_id = m + 1;  // unify order = monitor id order
        options.vantage = "vp-" + std::to_string(m);
        options.io_timeout_ms = kTimeoutMs;
        options.reconnect.initial_delay_ms = 10;
        federation::Shipper shipper(
            (fs::path(input_dir) / ("m-" + std::to_string(m))).string(),
            options);
        shipped_ok[m] = shipper.ship_pending() ? 1 : 0;
        stats[m] = shipper.stats();
      });
    }
    for (auto& t : threads) t.join();
  }
  rep.ship_s = wall.seconds();
  rep.ok = service->refresh(&error);
  rep.refresh_s = wall.seconds() - rep.ship_s;
  const Stopwatch answer;
  const auto response = query::http_get(
      "127.0.0.1", server.port(), manifest.get("truth_target"), kTimeoutMs);
  rep.first_answer_ms = answer.millis();
  rep.wall_s = wall.seconds();

  for (std::uint32_t m = 0; m < kFederateMonitors; ++m) {
    rep.ok = rep.ok && shipped_ok[m] != 0;
    rep.shipped.segments_shipped += stats[m].segments_shipped;
    rep.shipped.segments_landed += stats[m].segments_landed;
    rep.shipped.duplicates += stats[m].duplicates;
    rep.shipped.rejected += stats[m].rejected;
    rep.shipped.bytes_shipped += stats[m].bytes_shipped;
  }
  rep.answer_matches = response && response->status == 200 &&
                       response->body == manifest.get("truth_body");
  rep.unified_entries = service->query().store().total_entries();
  rep.land_histogram = service->coordinator().metrics_text();
  server.stop();
  service.reset();
  std::error_code ec;
  fs::remove_all(root, ec);
  return rep;
}

}  // namespace

void measure_federation(const std::string& input_dir,
                        const std::string& work_dir, double budget_s,
                        Report* report) {
  Manifest manifest;
  report->fails().record(Manifest::read(
      (fs::path(input_dir) / kFederateManifest).string(), &manifest));
  std::vector<FederateRep> reps;
  repeat_for(budget_s, 2, [&](std::size_t) {
    reps.push_back(run_once(input_dir, (fs::path(work_dir) / "root").string(),
                            manifest));
  });

  std::vector<double> walls, ship, refresh, answer;
  std::string land_histograms;  // summed so the p99 has samples to spare
  for (const auto& rep : reps) {
    report->fails().record(rep.ok);
    report->fails().record(rep.answer_matches);
    report->fails().add(rep.shipped.segments_shipped, rep.shipped.rejected);
    walls.push_back(rep.wall_s);
    ship.push_back(rep.ship_s);
    refresh.push_back(rep.refresh_s);
    answer.push_back(rep.first_answer_ms);
    land_histograms += rep.land_histogram;
  }
  const FederateRep& first = reps.front();
  report->note(util::format(
      "federation: %llu segments, %.1f MiB in %u monitor stores; %llu "
      "entries unify to %llu; unified /v1/stats %s the single-store answer",
      static_cast<unsigned long long>(manifest.get_u64("segments")),
      manifest.get_double("store_bytes") / (1024.0 * 1024.0),
      kFederateMonitors,
      static_cast<unsigned long long>(manifest.get_u64("entries")),
      static_cast<unsigned long long>(first.unified_entries),
      first.answer_matches ? "equals" : "DIFFERS FROM"));
  report->note("federation " + describe_reps(walls));
  report->metric("federation.ship_s", steady_time(ship), "s");
  report->metric("federation.land_p50_ms",
                 land_percentile_ms(land_histograms, 0.50), "ms");
  report->metric("federation.land_p99_ms",
                 land_percentile_ms(land_histograms, 0.99), "ms");
  report->metric("federation.refresh_s", steady_time(refresh), "s");
  report->metric("federation.first_answer_ms", steady_time(answer), "ms");
  report->metric("federation.segments_landed",
                 static_cast<double>(first.shipped.segments_landed), "count");
  report->metric("federation.bytes",
                 static_cast<double>(first.shipped.bytes_shipped), "B");
  report->metric("federation.duplicates",
                 static_cast<double>(first.shipped.duplicates), "count");
  report->metric("federation.rejected",
                 static_cast<double>(first.shipped.rejected), "count");
}

}  // namespace perfbench
