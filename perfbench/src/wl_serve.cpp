// serve: a closed loop of analyst clients against an in-process
// QueryService + HttpServer over the generated ~2x10^6-entry store. Each
// client thread waits for every answer before sending its next request and
// replays its share of the generated request script: random-range
// /v1/stats (rollup or mixed path), heavy-tailed /v1/peers/<id>/wants
// (Bloom-pruned scan), windowed /v1/popularity (scan), and a small hot set
// that fits the engine's LRU. This is the trace-store read path plus
// query/http/cache, with no simulation and no parsing of captures.
//
// Correctness: every answer must be a 200, and a sample of the timed
// /v1/stats answers is asked again with force=scan after timing — the
// bodies must be byte-identical (rollup == scan).
//
// The traced run ends with the federation pass (wl_federate.cpp): monitor
// stores shipped to a coordinator, unified and queried, as analysts get a
// federated store to query.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>

#include "bench.hpp"
#include "query/client.hpp"
#include "query/engine.hpp"
#include "query/server.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;

namespace perfbench {

namespace {

using namespace ipfsmon;

constexpr std::size_t kSetupSamples = 15;
constexpr std::size_t kRoundRequests = 100;  // one analyst script
constexpr std::size_t kChecksPerClient = 4;  // stats answers re-asked by scan
constexpr std::size_t kDirectRequests = 200;
constexpr int kTimeoutMs = 20000;
constexpr double kRateWindowS = 2.0;
// Share of a traced run given to the federation pass; the two halves of
// the closed loop share the rest.
constexpr double kFederationShare = 0.2;

struct ScriptLine {
  std::string cls;  // stats | peer_wants | popularity | hot
  std::string target;
};

std::vector<ScriptLine> read_script(const std::string& path) {
  std::vector<ScriptLine> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const auto space = line.find(' ');
    if (space == std::string::npos) continue;
    out.push_back({line.substr(0, space), line.substr(space + 1)});
  }
  return out;
}

/// One timed request as the client saw it.
struct Sample {
  std::size_t cls = 0;  // index into kClasses
  double rtt_ms = 0;
  double handle_ms = -1;  // X-Duration-Micros; -1 when absent
  std::string source;     // X-Source
  bool cache_hit = false;
  bool ok = false;
  double done_s = 0;  // answer time, seconds since the loop started
};

const char* const kClasses[] = {"stats", "peer_wants", "popularity", "hot"};

std::size_t class_index(const std::string& cls) {
  for (std::size_t i = 0; i < 4; ++i) {
    if (cls == kClasses[i]) return i;
  }
  return 0;
}

const std::string* header(const query::HttpResponse& response,
                          std::string_view name) {
  for (const auto& [key, value] : response.headers) {
    if (std::equal(key.begin(), key.end(), name.begin(), name.end(),
                   [](char a, char b) {
                     return std::tolower(static_cast<unsigned char>(a)) == b;
                   })) {
      return &value;
    }
  }
  return nullptr;
}

/// Result of one closed-loop phase.
struct LoopResult {
  std::vector<Sample> samples;
  std::vector<double> round_s;
  double seconds = 0;
  /// (target, body) of sampled /v1/stats answers for the scan check.
  std::vector<std::pair<std::string, std::string>> stats_bodies;
};

/// Runs `clients` closed-loop clients for `budget_s` seconds. Client c
/// replays script lines c, c + clients, ... starting at `offset`.
LoopResult closed_loop(std::uint16_t port, const std::vector<ScriptLine>& script,
                       std::size_t clients, std::size_t offset,
                       double budget_s, bool traced) {
  std::vector<LoopResult> per_client(clients);
  const Stopwatch clock;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LoopResult& mine = per_client[c];
      std::size_t next = offset + c;
      Stopwatch round;
      std::size_t in_round = 0;
      while (clock.seconds() < budget_s) {
        const ScriptLine& line = script[next % script.size()];
        next += clients;
        Sample sample;
        sample.cls = class_index(line.cls);
        const Stopwatch rtt;
        const auto response =
            query::http_get("127.0.0.1", port, line.target, kTimeoutMs);
        sample.rtt_ms = rtt.millis();
        sample.done_s = clock.seconds();
        sample.ok = response && response->status == 200;
        if (response && traced) {
          if (const auto* d = header(*response, "x-duration-micros")) {
            sample.handle_ms = std::strtod(d->c_str(), nullptr) / 1000.0;
          }
          if (const auto* s = header(*response, "x-source")) sample.source = *s;
          if (const auto* h = header(*response, "x-cache")) {
            sample.cache_hit = *h == "hit";
          }
        }
        if (response && line.cls == "stats" &&
            mine.stats_bodies.size() < kChecksPerClient) {
          mine.stats_bodies.emplace_back(line.target, response->body);
        }
        mine.samples.push_back(std::move(sample));
        if (++in_round == kRoundRequests) {
          mine.round_s.push_back(round.seconds());
          round = Stopwatch();
          in_round = 0;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  LoopResult out;
  out.seconds = clock.seconds();
  for (auto& mine : per_client) {
    out.samples.insert(out.samples.end(), mine.samples.begin(),
                       mine.samples.end());
    out.round_s.insert(out.round_s.end(), mine.round_s.begin(),
                       mine.round_s.end());
    out.stats_bodies.insert(out.stats_bodies.end(), mine.stats_bodies.begin(),
                            mine.stats_bodies.end());
  }
  return out;
}

/// Requests per second in the busiest kRateWindowS-second window of a loop
/// (whole windows only; the whole loop's rate when it is shorter). Like
/// steady_time, it is the loop's least disturbed stretch.
double best_window_rps(const LoopResult& loop) {
  const auto windows = static_cast<std::size_t>(loop.seconds / kRateWindowS);
  if (windows == 0) {
    return static_cast<double>(loop.samples.size()) / loop.seconds;
  }
  std::vector<std::size_t> counts(windows, 0);
  for (const auto& sample : loop.samples) {
    const auto w = static_cast<std::size_t>(sample.done_s / kRateWindowS);
    if (w < windows) ++counts[w];
  }
  return static_cast<double>(*std::max_element(counts.begin(), counts.end())) /
         kRateWindowS;
}

query::HttpRequest make_request(const std::string& target) {
  const std::string raw = "GET " + target + " HTTP/1.1\r\nHost: bench\r\n\r\n";
  query::HttpRequest request;
  std::size_t consumed = 0;
  query::parse_request(raw, query::HttpLimits{}, &request, &consumed);
  return request;
}

/// Registry counters of the scan path, read between phases.
struct ScanCounters {
  double bytes = 0;
  double matched = 0;
  double scanned = 0;
  double pruned = 0;
  static ScanCounters read(query::QueryService& service) {
    const auto& registry = service.obs().metrics;
    return {registry_total(registry, "ipfsmon_tracestore_scan_bytes_total"),
            registry_total(registry, "ipfsmon_tracestore_scan_entries_total"),
            registry_total(registry, "ipfsmon_tracestore_segments_scanned_total"),
            registry_total(registry, "ipfsmon_tracestore_segments_pruned_total")};
  }
};

}  // namespace

void run_serve(const RunOptions& options, Report* report) {
  Manifest manifest;
  Manifest::read((fs::path(options.input_dir) / "INPUT").string(), &manifest);
  const std::string store_dir = (fs::path(options.input_dir) / "store").string();
  const auto script =
      read_script((fs::path(options.input_dir) / "requests.txt").string());
  const auto hot =
      read_script((fs::path(options.input_dir) / "hot.txt").string());
  const std::size_t clients = std::min<std::size_t>(
      kServeClients, std::max(1u, std::thread::hardware_concurrency()));
  report->fails().record(!script.empty());
  if (script.empty()) return;

  // Set-up: QueryService::open (manifest, footers, rollups) plus server
  // start, several times; the last instance serves the run.
  std::unique_ptr<query::QueryService> service;
  std::unique_ptr<query::HttpServer> server;
  std::vector<double> setups;
  for (std::size_t i = 0; i < kSetupSamples; ++i) {
    server.reset();
    service.reset();
    std::string error;
    const Stopwatch setup;
    service = query::QueryService::open(store_dir, {}, &error);
    if (service != nullptr) {
      server = std::make_unique<query::HttpServer>(
          query::ServerOptions{},
          [svc = service.get()](const query::HttpRequest& request) {
            return svc->handle(request);
          });
      if (!server->start(&error)) server.reset();
    }
    setups.push_back(setup.seconds());
    report->fails().record(server != nullptr);
    if (server == nullptr) {
      report->note("serve set-up failed: " + error);
      return;
    }
  }
  service->attach_server(server.get());
  const std::uint16_t port = server->port();

  // Warm pages, the validation cache and the hot set before timing.
  {
    const auto scan = query::http_get(
        "127.0.0.1", port, "/v1/stats?force=scan", kTimeoutMs);
    report->fails().record(scan && scan->status == 200);
    for (const auto& line : hot) {
      const auto response =
          query::http_get("127.0.0.1", port, line.target, kTimeoutMs);
      report->fails().record(response && response->status == 200);
    }
  }

  LoopResult plain;
  LoopResult traced;
  ScanCounters before;
  ScanCounters after;
  if (!options.trace) {
    plain = closed_loop(port, script, clients, 0, options.seconds, false);
  } else {
    const double loop_s = options.seconds * (1.0 - kFederationShare) / 2;
    plain = closed_loop(port, script, clients, 0, loop_s, false);
    before = ScanCounters::read(*service);
    traced = closed_loop(port, script, clients, plain.samples.size(), loop_s,
                         true);
    after = ScanCounters::read(*service);
  }

  // Correctness: status of every timed request, then rollup == scan.
  for (const LoopResult* loop : {&plain, &traced}) {
    for (const auto& sample : loop->samples) report->fails().record(sample.ok);
    for (const auto& [target, body] : loop->stats_bodies) {
      const auto scan =
          query::http_get("127.0.0.1", port, target + "&force=scan", kTimeoutMs);
      report->fails().record(scan && scan->status == 200 && scan->body == body);
    }
  }

  const LoopResult& main = options.trace ? traced : plain;
  std::vector<double> rtts;
  for (const auto& sample : main.samples) rtts.push_back(sample.rtt_ms);
  const double rps = static_cast<double>(main.samples.size()) / main.seconds;
  const Tail p50 = tail_percentile(rtts, 0.50);
  const Tail p99 = tail_percentile(rtts, 0.99);
  std::size_t hot_requests = 0;
  for (const auto& sample : main.samples) hot_requests += sample.cls == 3;
  const double hot_share = static_cast<double>(hot_requests) /
                           static_cast<double>(std::max<std::size_t>(
                               main.samples.size(), 1));
  report->note(util::format(
      "store %llu entries in %llu segments; %zu clients, closed loop",
      static_cast<unsigned long long>(manifest.get_u64("entries")),
      static_cast<unsigned long long>(manifest.get_u64("segments")), clients));
  report->note(util::format(
      "round trip p50 %.3f ms, p%.1f %.3f ms over %zu requests; %.1f req/s",
      p50.value, p99.level * 100.0, p99.value, p99.samples, rps));

  if (!options.trace) {
    report->note(util::format("property: hot-set share %.4f of requests",
                              hot_share));
    report->note(describe_setups(setups));
    report->metric("setup_s", median(setups), "s");
    report->note(util::format(
        "%zu rounds, fastest %.4g s; busiest %.0f s window %.1f req/s",
        main.round_s.size(), steady_time(main.round_s), kRateWindowS,
        best_window_rps(main)));
    report->metric("wall_s", steady_time(main.round_s), "s");
    report->metric("rps", best_window_rps(main), "1/s");
    report->metric("peak_rss_mib", peak_rss_mib(), "MiB");
    report->metric("store_bytes_per_entry",
                   manifest.get_double("store_bytes") /
                       manifest.get_double("entries"),
                   "B/entry");
    server->stop();
    return;
  }

  // Per-class latency and the serving-path mix, from the response headers.
  std::vector<std::vector<double>> by_class(4);
  std::vector<double> overhead;
  std::map<std::string, std::size_t> sources;
  std::size_t hits = 0;
  for (const auto& sample : main.samples) {
    by_class[sample.cls].push_back(sample.rtt_ms);
    if (sample.handle_ms >= 0) overhead.push_back(sample.rtt_ms - sample.handle_ms);
    if (!sample.source.empty()) ++sources[sample.source];
    hits += sample.cache_hit;
  }
  std::size_t sourced = 0;
  for (const auto& [name, count] : sources) sourced += count;
  const auto source_share = [&](const std::string& name) {
    return sourced == 0 ? 0.0
                        : static_cast<double>(sources[name]) /
                              static_cast<double>(sourced);
  };
  report->note(util::format(
      "property: hot-set share %.4f; X-Source rollup %.4f mixed %.4f scan %.4f",
      hot_share, source_share("rollup"), source_share("mixed"),
      source_share("scan")));

  // Direct handle() calls, no socket: the engine's own latency.
  std::vector<double> direct;
  for (std::size_t i = 0; i < kDirectRequests && i < script.size(); ++i) {
    const auto& line = script[script.size() - 1 - i];
    const auto request = make_request(line.target);
    const Stopwatch handle;
    const auto response = service->handle(request);
    direct.push_back(handle.millis());
    report->fails().record(response.status == 200);
  }
  const auto counters = server->counters();
  server->stop();

  const double requests = static_cast<double>(main.samples.size());
  // Segments are decoded whole, so decoded entries follow from decoded
  // bytes at the store's own entries-per-byte.
  const double entries_per_byte =
      manifest.get_double("entries") / manifest.get_double("store_bytes");
  const double decoded = (after.bytes - before.bytes) * entries_per_byte;
  const double segments = (after.scanned - before.scanned) +
                          (after.pruned - before.pruned);
  for (std::size_t i = 0; i < 4; ++i) {
    const std::string name = std::string("query.") + kClasses[i];
    report->metric(name + ".p50_ms", tail_percentile(by_class[i], 0.50).value,
                   "ms");
    report->metric(name + ".p99_ms", tail_percentile(by_class[i], 0.99).value,
                   "ms");
  }
  report->metric("query.rtt_p50_ms", p50.value, "ms");
  report->metric("query.rtt_p99_ms", p99.value, "ms");
  report->metric("query.requests", requests, "count");
  report->metric("query.handle_p50_ms", median(direct), "ms");
  report->metric("query.cache_hit_ratio",
                 static_cast<double>(hits) / std::max(requests, 1.0), "ratio");
  report->metric("query.source_rollup_share", source_share("rollup"), "ratio");
  report->metric("query.source_mixed_share", source_share("mixed"), "ratio");
  report->metric("query.source_scan_share", source_share("scan"), "ratio");
  report->metric("query.hot_share", hot_share, "ratio");
  report->metric("http.overhead_ms", median(overhead), "ms");
  report->metric("http.rejected",
                 static_cast<double>(counters.connections_rejected), "count");
  report->metric("http.timeouts", static_cast<double>(counters.timeouts),
                 "count");
  report->metric("tracestore.entries_decoded_per_req", decoded / requests,
                 "count");
  report->metric("tracestore.bytes_scanned_per_req",
                 (after.bytes - before.bytes) / requests, "B");
  report->metric("tracestore.prune_ratio",
                 segments > 0 ? (after.pruned - before.pruned) / segments : 0.0,
                 "ratio");
  report->metric("tracestore.match_ratio",
                 decoded > 0 ? (after.matched - before.matched) / decoded : 0.0,
                 "ratio");
  std::vector<double> plain_rtts;
  for (const auto& sample : plain.samples) plain_rtts.push_back(sample.rtt_ms);
  report->metric("bench.trace_overhead_s",
                 (p50.value - median(plain_rtts)) / 1000.0, "s");
  report->metric("bench.unattributed_s", median(overhead) / 1000.0, "s");

  measure_federation((fs::path(options.input_dir) / kFederateDir).string(),
                     (fs::path(options.work_dir) / kFederateDir).string(),
                     options.seconds * kFederationShare, report);
}

}  // namespace perfbench
