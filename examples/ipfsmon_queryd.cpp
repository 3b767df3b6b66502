// ipfsmon-queryd — the trace query daemon.
//
// Serves a trace-store directory (as written by spilling monitors or the
// preprocessing pipeline) over HTTP: health, Prometheus metrics, range
// statistics, content popularity, and per-peer want histories. Statistics
// are answered rollup-first from the per-segment sidecars; rendered
// results are LRU-cached keyed by the store's manifest fingerprint.
//
// Usage: ipfsmon_queryd --store <dir> [--port N] [--bind ADDR] [--cache N]
//                       [--reload-interval SEC]
//                       [--trace] [--trace-sample N] [--trace-export BASE]
//        ipfsmon_queryd --coordinator <root> [--fed-port N] [...]
//        ipfsmon_queryd --demo-store   (simulate, spill, unify, serve)
//
// --coordinator serves in federation-coordinator mode: an FMON listener
// (--fed-port, default 7979; 0 = ephemeral) lands segments shipped by
// ipfsmon_shipd into <root>/m-<id>/, and the HTTP side serves the unified
// store (<root>/unified) with /v1/monitors and provenance on /v1/segments.
// --bind applies to both listeners.
//
// SIGHUP re-opens the store (coordinator mode: re-unifies newly landed
// segments first), so a daemon over a live store serves new segments
// without restart; --reload-interval does the same on a timer. The cache
// is keyed by the manifest fingerprint, so a reload invalidates every
// cached answer implicitly.
//
// --trace enables request span tracing (served live on /debug/spans);
// --trace-sample N records every Nth request (default 64; implies --trace);
// --trace-export BASE writes BASE.spans.json (Perfetto/Chrome trace-event
// JSON) and BASE.spans.jsonl on shutdown.
//
// SIGINT/SIGTERM drain gracefully: requests already received finish, idle
// connections close, then the listener and connection threads shut down.
#include <poll.h>
#include <unistd.h>

#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>

#include "federation/federated.hpp"
#include "obs/span_export.hpp"
#include "query/engine.hpp"
#include "query/server.hpp"
#include "scenario/study.hpp"
#include "tracestore/merge.hpp"
#include "util/file.hpp"
#include "util/flags.hpp"

using namespace ipfsmon;

namespace {

int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
  const char byte = 's';
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

void on_sighup(int) {
  const char byte = 'h';
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

/// Runs a small monitoring study with spilling monitors under `scratch` and
/// unifies the per-monitor stores into one servable directory there.
std::string make_demo_store(const std::string& scratch) {
  std::printf("generating a demo trace store (small monitoring study)...\n");
  scenario::StudyConfig config;
  config.population.node_count = 150;
  config.catalog.item_count = 400;
  config.warmup = 2 * util::kHour;
  config.duration = 6 * util::kHour;
  config.monitor_spill_dir = scratch + "/monitors";
  scenario::MonitoringStudy study(config);
  study.run();
  if (!study.finalize_monitor_spill()) {
    std::fprintf(stderr, "error: finalizing monitor spill stores failed\n");
    return {};
  }

  std::vector<tracestore::TraceStore> stores;
  std::vector<const tracestore::TraceStore*> inputs;
  for (const auto& dir : study.monitor_store_dirs()) {
    std::string error;
    auto store = tracestore::TraceStore::open(dir, {}, &error);
    if (!store) {
      std::fprintf(stderr, "error: cannot open %s: %s\n", dir.c_str(),
                   error.c_str());
      return {};
    }
    stores.push_back(std::move(*store));
  }
  for (const auto& store : stores) inputs.push_back(&store);

  const std::string unified_dir = scratch + "/store";
  std::string error;
  auto writer = tracestore::SegmentWriter::create(unified_dir, {}, &error);
  if (writer == nullptr) {
    std::fprintf(stderr, "error: cannot create %s: %s\n", unified_dir.c_str(),
                 error.c_str());
    return {};
  }
  tracestore::unify_to_store(inputs, *writer);
  if (!writer->finalize()) {
    std::fprintf(stderr, "error: failed to finalize %s: %s\n",
                 unified_dir.c_str(), writer->error().c_str());
    return {};
  }
  std::printf("unified %zu monitor stores into %s\n\n", stores.size(),
              unified_dir.c_str());
  return unified_dir;
}

constexpr const char* kUsage =
    "--store <dir> [--port N] [--bind ADDR] [--cache N] "
    "[--reload-interval SEC] [--trace] [--trace-sample N] "
    "[--trace-export BASE]\n"
    "--coordinator <root> [--fed-port N] [...]\n"
    "--demo-store";

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  std::string store_dir = flags.text("--store");
  const std::string coordinator_root = flags.text("--coordinator");
  const bool demo = flags.boolean("--demo-store");
  const auto fed_port =
      static_cast<std::uint16_t>(flags.u64("--fed-port", 7979, UINT16_MAX));
  const int reload_interval_s =
      static_cast<int>(flags.u64("--reload-interval", 0, INT_MAX));
  query::ServerOptions server_options;
  server_options.port =
      static_cast<std::uint16_t>(flags.u64("--port", 7878, UINT16_MAX));
  server_options.bind_address =
      flags.text("--bind", server_options.bind_address);
  query::QueryOptions query_options;
  query_options.cache_capacity =
      flags.u64("--cache", query_options.cache_capacity, SIZE_MAX);
  auto& tracing = query_options.tracing;
  tracing.sample_every = flags.u64("--trace-sample", tracing.sample_every);
  if (tracing.sample_every == 0) {
    flags.fail("--trace-sample must be at least 1");
  }
  const std::string trace_export_base = flags.text("--trace-export");
  // --trace-sample and --trace-export imply --trace.
  tracing.enabled = flags.boolean("--trace") || flags.has("--trace-sample") ||
                    flags.has("--trace-export");
  if (!flags.ok()) return flags.usage(kUsage);
  // The demo stores live under $TMPDIR for as long as the daemon serves
  // them, and are removed on exit.
  std::optional<util::TempDir> demo_dir;
  if (demo) {
    demo_dir.emplace("ipfsmon_queryd_demo");
    if (demo_dir->path().empty()) {
      std::fprintf(stderr, "error: cannot create a scratch directory\n");
      return 1;
    }
    store_dir = make_demo_store(demo_dir->path());
    if (store_dir.empty()) return 1;
  }
  if (store_dir.empty() && coordinator_root.empty()) {
    return flags.usage(kUsage);
  }

  std::string error;
  std::unique_ptr<federation::FederatedService> federated;
  std::unique_ptr<query::QueryService> owned_service;
  query::QueryService* service = nullptr;
  if (!coordinator_root.empty()) {
    federation::FederatedOptions federated_options;
    federated_options.coordinator.bind_address = server_options.bind_address;
    federated_options.coordinator.port = fed_port;
    federated_options.query = query_options;
    federated = federation::FederatedService::start(coordinator_root,
                                                    federated_options, &error);
    if (federated == nullptr) {
      std::fprintf(stderr, "error: cannot start coordinator on %s: %s\n",
                   coordinator_root.c_str(), error.c_str());
      return 1;
    }
    service = &federated->query();
    store_dir = federated->unified_dir();
    for (const auto& note : federated->coordinator().recovery_notes()) {
      std::printf("recovery: %s\n", note.c_str());
    }
    std::printf("coordinator on %s:%u, %zu monitors, root %s\n",
                server_options.bind_address.c_str(),
                federated->coordinator().port(),
                federated->monitors().size(), coordinator_root.c_str());
  } else {
    owned_service = query::QueryService::open(store_dir, query_options,
                                              &error);
    if (owned_service == nullptr) {
      std::fprintf(stderr, "error: cannot open store %s: %s\n",
                   store_dir.c_str(), error.c_str());
      return 1;
    }
    service = owned_service.get();
  }
  std::printf("store %s: %zu segments, %llu entries, %zu/%zu rollups\n",
              store_dir.c_str(), service->store().segments().size(),
              static_cast<unsigned long long>(service->store().total_entries()),
              service->rollups_loaded(), service->store().segments().size());
  if (const auto& meta = service->store().meta()) {
    // Ingested from a real capture: anchor the SimTime axis for operators.
    std::printf("ingested from %s (%s), wall epoch %s, range %s .. %s\n",
                meta->source.c_str(), meta->format.c_str(),
                util::format_wall_time(meta->wall_epoch_ns).c_str(),
                util::format_wall_time(meta->wall_epoch_ns +
                                       service->store().min_time())
                    .c_str(),
                util::format_wall_time(meta->wall_epoch_ns +
                                       service->store().max_time())
                    .c_str());
  }

  query::HttpServer server(server_options,
                           [&service](const query::HttpRequest& request) {
                             return service->handle(request);
                           });
  if (!server.start(&error)) {
    std::fprintf(stderr, "error: cannot start server: %s\n", error.c_str());
    return 1;
  }
  service->attach_server(&server);

  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "error: pipe: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction action {};
  action.sa_handler = on_signal;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  struct sigaction hup_action {};
  hup_action.sa_handler = on_sighup;
  ::sigaction(SIGHUP, &hup_action, nullptr);

  const std::string base = "http://" + server_options.bind_address + ":" +
                           std::to_string(server.port());
  std::printf("listening on %s (up to %zu connections)\n", base.c_str(),
              server_options.max_connections);
  std::printf("  curl %s/healthz\n", base.c_str());
  std::printf("  curl %s/metrics\n", base.c_str());
  std::printf("  curl '%s/v1/stats?min_t=0'\n", base.c_str());
  std::printf("  curl '%s/v1/popularity?k=5'\n", base.c_str());
  std::printf("  curl %s/v1/segments\n", base.c_str());
  if (federated != nullptr) {
    std::printf("  curl %s/v1/monitors\n", base.c_str());
  }
  if (query_options.tracing.enabled) {
    std::printf("  curl %s/debug/spans   (tracing 1/%llu requests)\n",
                base.c_str(),
                static_cast<unsigned long long>(
                    query_options.tracing.sample_every));
  }
  std::fflush(stdout);

  // Re-open the store on SIGHUP or every --reload-interval seconds
  // (coordinator mode re-unifies newly landed segments first); the store
  // fingerprint rolls over, so cached answers invalidate implicitly.
  auto reload = [&]() {
    const std::uint64_t before = service->fingerprint();
    std::string reload_error;
    const bool ok = federated != nullptr ? federated->refresh(&reload_error)
                                         : service->reload(&reload_error);
    if (!ok) {
      std::fprintf(stderr, "error: reload failed: %s\n", reload_error.c_str());
      return;
    }
    // Periodic ticks mostly find nothing new; only log actual rollovers.
    if (service->fingerprint() == before) return;
    std::printf("reloaded: %zu segments, %llu entries\n",
                service->store().segments().size(),
                static_cast<unsigned long long>(
                    service->store().total_entries()));
    std::fflush(stdout);
  };
  for (;;) {
    pollfd pfd{g_signal_pipe[0], POLLIN, 0};
    const int timeout_ms =
        reload_interval_s > 0 ? reload_interval_s * 1000 : -1;
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) {
      reload();  // --reload-interval tick
      continue;
    }
    char byte = 0;
    if (::read(g_signal_pipe[0], &byte, 1) <= 0) break;
    if (byte == 'h') {
      reload();
      continue;
    }
    break;  // SIGINT/SIGTERM
  }
  std::printf("\nshutting down (draining %zu connections)...\n",
              server.live_connections());
  server.stop();
  if (!trace_export_base.empty()) {
    const auto spans = service->obs().tracer.snapshot();
    std::string export_error;
    const std::string json_path = trace_export_base + ".spans.json";
    const std::string jsonl_path = trace_export_base + ".spans.jsonl";
    const bool use_sim = obs::has_sim_times(spans);
    if (obs::write_perfetto_json(json_path, spans, use_sim, &export_error) &&
        obs::write_spans_jsonl(jsonl_path, spans, &export_error)) {
      std::printf("exported %zu spans to %s + %s\n", spans.size(),
                  json_path.c_str(), jsonl_path.c_str());
    } else {
      std::fprintf(stderr, "error: span export failed: %s\n",
                   export_error.c_str());
    }
  }
  const query::ServerCounters counters = server.counters();
  std::printf("served %llu requests on %llu connections\n",
              static_cast<unsigned long long>(counters.requests),
              static_cast<unsigned long long>(counters.connections_accepted));
  return 0;
}
