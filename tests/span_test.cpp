// Span tracing (src/obs/span*): deterministic IDs, head sampling, the
// bounded buffer, exporter output, and the two end-to-end invariants the
// design promises — a gateway request produces one connected trace across
// sim layers (gateway → DHT → Bitswap → monitor capture), a daemon query
// produces one connected trace across the serving path (HTTP → cache →
// scan → per-segment), tracing off is byte-identical to an untraced run
// (the churn-style inertness invariant), and no sampling rate changes a
// query answer.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "obs/span.hpp"
#include "obs/span_export.hpp"
#include "query/engine.hpp"
#include "test_helpers.hpp"
#include "tracestore/store.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace ipfsmon::obs {
namespace {

using testing_helpers::read_store;
using testing_helpers::SimFixture;
using util::kSecond;

TracerConfig enabled_config(std::uint64_t sample_every = 1,
                            std::uint64_t seed = 7) {
  TracerConfig config;
  config.enabled = true;
  config.seed = seed;
  config.sample_every = sample_every;
  return config;
}

// --- Determinism --------------------------------------------------------

TEST(SpanIds, SameSeedSameIds) {
  const auto run = [](std::uint64_t seed) {
    Tracer tracer(enabled_config(1, seed));
    for (int t = 0; t < 5; ++t) {
      Span root = tracer.start_trace("root");
      Span child = tracer.start_span("child", root.context());
      Span grandchild = tracer.start_span("leaf", child.context());
    }
    std::vector<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                           std::string>>
        ids;
    for (const auto& rec : tracer.snapshot()) {
      ids.emplace_back(rec.trace_id, rec.span_id, rec.parent_id, rec.name);
    }
    return ids;
  };
  const auto a = run(42);
  const auto b = run(42);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 15u);
  EXPECT_NE(a, run(43));  // different seed, different IDs
}

TEST(SpanIds, DeriveIsStableAndNonzero) {
  const std::uint64_t id = Tracer::derive_id(1, 2, 3);
  EXPECT_EQ(id, Tracer::derive_id(1, 2, 3));
  EXPECT_NE(id, Tracer::derive_id(1, 2, 4));
  EXPECT_NE(id, Tracer::derive_id(1, 3, 3));
  EXPECT_NE(id, Tracer::derive_id(2, 2, 3));
  for (std::uint64_t n = 0; n < 64; ++n) {
    EXPECT_NE(Tracer::derive_id(0, 0, n), 0u);
  }
}

TEST(SpanSampling, EveryNthTraceIsKept) {
  Tracer tracer(enabled_config(4));
  int sampled = 0;
  for (int i = 0; i < 12; ++i) {
    Span span = tracer.start_trace("t");
    if (span.active()) ++sampled;
    // Trace n is sampled iff n % 4 == 0.
    EXPECT_EQ(span.active(), i % 4 == 0) << "trace " << i;
  }
  EXPECT_EQ(sampled, 3);
  EXPECT_EQ(tracer.traces_started(), 12u);
  EXPECT_EQ(tracer.spans_recorded(), 3u);
}

TEST(SpanBuffer, DropsOldestWhenFull) {
  TracerConfig config = enabled_config(1);
  config.shards = 1;
  config.shard_capacity = 4;
  Tracer tracer(config);
  std::vector<std::uint64_t> seqs;
  for (int i = 0; i < 10; ++i) {
    Span span = tracer.start_trace("t" + std::to_string(i));
  }
  EXPECT_EQ(tracer.spans_recorded(), 10u);
  EXPECT_EQ(tracer.spans_buffered(), 4u);
  EXPECT_EQ(tracer.spans_dropped(), 6u);
  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans.front().name, "t6");  // most recent survive
  EXPECT_EQ(spans.back().name, "t9");
}

TEST(SpanTracer, DisabledIsInert) {
  Tracer tracer;  // default config: disabled
  Span span = tracer.start_trace("nope");
  EXPECT_FALSE(span.active());
  EXPECT_FALSE(span.context().valid());
  span.set_attr("k", "v");
  span.end();
  Span child = tracer.start_span("child", span.context());
  EXPECT_FALSE(child.active());
  EXPECT_FALSE(
      tracer.add_span("late", span.context(), 0, 0).valid());
  EXPECT_EQ(tracer.traces_started(), 0u);
  EXPECT_EQ(tracer.spans_recorded(), 0u);
  EXPECT_EQ(tracer.spans_buffered(), 0u);
}

TEST(SpanTracer, AttrsAndRetroactiveSpansLand) {
  Tracer tracer(enabled_config(1));
  {
    Span span = tracer.start_trace("op");
    span.set_attr("text", std::string("value"));
    span.set_attr("num", std::uint64_t{17});
    const SpanContext late =
        tracer.add_span("op.before", span.context(), 5, 9,
                        {{"k", "v"}}, 100, 200);
    EXPECT_TRUE(late.valid());
    EXPECT_EQ(late.trace_id, span.context().trace_id);
  }
  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "op.before");  // ended first
  EXPECT_EQ(spans[0].start_sim, 5);
  EXPECT_EQ(spans[0].end_sim, 9);
  EXPECT_EQ(spans[0].start_us, 100);
  EXPECT_EQ(spans[0].end_us, 200);
  ASSERT_EQ(spans[0].attrs.size(), 1u);
  EXPECT_EQ(spans[0].attrs[0].first, "k");
  EXPECT_EQ(spans[1].name, "op");
  ASSERT_EQ(spans[1].attrs.size(), 2u);
  EXPECT_EQ(spans[1].attrs[1].second, "17");
}

// --- Exporters ----------------------------------------------------------

std::vector<SpanRecord> sample_spans() {
  Tracer tracer(enabled_config(1));
  tracer.set_sim_clock([] { return util::SimTime{1000}; });
  Span root = tracer.start_trace("root");
  Span child = tracer.start_span("child \"quoted\"", root.context());
  child.set_attr("peer", "ab\\cd");
  child.end();
  root.end();
  return tracer.snapshot();
}

TEST(SpanExport, PerfettoJsonIsStructurallyValid) {
  const std::string json = to_perfetto_json(sample_spans(), true);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // process names
  EXPECT_NE(json.find("\"timebase\":\"sim\""), std::string::npos);
  // Escaping: the quoted name must not break out of its string.
  EXPECT_NE(json.find("child \\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("ab\\\\cd"), std::string::npos);
}

TEST(SpanExport, JsonlHasOneLinePerSpan) {
  const auto spans = sample_spans();
  const std::string jsonl = to_spans_jsonl(spans);
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(jsonl.begin(), jsonl.end(), '\n')),
            spans.size());
  std::istringstream lines(jsonl);
  std::string line;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"trace\":"), std::string::npos);
  }
}

TEST(SpanExport, SummariesAndFiles) {
  const auto spans = sample_spans();
  const auto summaries = summarize_traces(spans, true);
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_EQ(summaries[0].root_name, "root");
  EXPECT_EQ(summaries[0].span_count, 2u);
  EXPECT_EQ(span_id_hex(0x1234).size(), 16u);
  EXPECT_EQ(span_id_hex(0x1234), "0000000000001234");

  const std::string dir = ::testing::TempDir() + "/span_export";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::string error;
  EXPECT_TRUE(write_perfetto_json(dir + "/t.spans.json", spans, true, &error))
      << error;
  EXPECT_TRUE(write_spans_jsonl(dir + "/t.spans.jsonl", spans, &error))
      << error;
  EXPECT_GT(std::filesystem::file_size(dir + "/t.spans.json"), 0u);
  EXPECT_FALSE(write_perfetto_json(dir + "/no/such/dir/t.json", spans, true,
                                   &error));
  EXPECT_FALSE(error.empty());
}

// --- End-to-end: one gateway request, one connected trace ---------------

/// Provider holds the content but is only reachable via the DHT
/// (bootstrap); the monitor hangs off the gateway and sees its want
/// broadcast. One HTTP request should light up every layer.
struct GatewayScenario {
  explicit GatewayScenario(bool tracing) {
    if (tracing) fix.network.enable_tracing(enabled_config(1));
    // No ambient discovery: the gateway must find the provider via the
    // DHT, so the trace includes the lookup hops.
    node::NodeConfig quiet;
    quiet.discovery_dials = 0;
    monitor::MonitorConfig monitor_config;
    monitor_config.node = quiet;
    bootstrap = &fix.make_node(quiet);
    provider = &fix.make_node(quiet);
    gateway = &fix.make_gateway(quiet);
    monitor = &fix.make_monitor(monitor_config);
    bootstrap->go_online({});
    provider->go_online({bootstrap->id()});
    gateway->node().go_online({bootstrap->id()});
    monitor->go_online({gateway->id()});
    fix.run_for(30 * kSecond);
    content = provider->add_bytes(util::bytes_of("span test payload"));
    fix.run_for(30 * kSecond);

    // DHT traffic (bootstrap self-lookups, the provide announcement) dials
    // peers, so by now the tiny universe is fully meshed and a want
    // broadcast would reach the provider directly. Sever that link: the
    // gateway must rediscover the provider through a DHT lookup, which is
    // exactly the multi-layer path the trace should capture.
    if (const auto direct =
            fix.network.connection_between(gateway->id(), provider->id())) {
      fix.network.close(*direct);
    }
    fix.run_for(1 * kSecond);

    gateway->handle_http_request(content, [this](bool request_ok, bool) {
      ok = request_ok;
    });
    fix.run_for(60 * kSecond);
  }

  SimFixture fix{7};
  node::IpfsNode* bootstrap = nullptr;
  node::IpfsNode* provider = nullptr;
  node::GatewayNode* gateway = nullptr;
  monitor::PassiveMonitor* monitor = nullptr;
  cid::Cid content;
  bool ok = false;
};

TEST(SpanEndToEnd, GatewayRequestProducesOneConnectedTrace) {
  GatewayScenario scenario(/*tracing=*/true);
  ASSERT_TRUE(scenario.ok);

  const auto spans = scenario.fix.network.obs().tracer.snapshot();
  ASSERT_FALSE(spans.empty());

  // Every span belongs to the single gateway.request trace.
  std::uint64_t trace_id = 0;
  std::uint64_t root_span = 0;
  for (const auto& rec : spans) {
    if (rec.parent_id == 0) {
      EXPECT_EQ(rec.name, "gateway.request");
      EXPECT_EQ(trace_id, 0u) << "more than one root";
      trace_id = rec.trace_id;
      root_span = rec.span_id;
    }
  }
  ASSERT_NE(trace_id, 0u);
  std::set<std::string> names;
  std::unordered_map<std::uint64_t, std::uint64_t> parent_of;
  std::unordered_set<std::uint64_t> span_ids;
  for (const auto& rec : spans) {
    EXPECT_EQ(rec.trace_id, trace_id) << rec.name;
    names.insert(rec.name);
    span_ids.insert(rec.span_id);
    parent_of[rec.span_id] = rec.parent_id;
  }
  // The request descended through every layer...
  for (const char* expected :
       {"gateway.request", "bitswap.fetch", "bitswap.broadcast",
        "bitswap.provider_search", "dht.find_providers", "dht.rpc",
        "monitor.capture"}) {
    EXPECT_TRUE(names.count(expected)) << "missing span " << expected;
  }
  // ...and the tree is connected: every non-root parent is a known span.
  for (const auto& rec : spans) {
    if (rec.parent_id == 0) continue;
    EXPECT_TRUE(span_ids.count(rec.parent_id))
        << rec.name << " has dangling parent";
  }
  // Walking parents from any span reaches the gateway.request root.
  for (const auto& rec : spans) {
    std::uint64_t at = rec.span_id;
    int hops = 0;
    while (parent_of[at] != 0 && hops < 64) {
      at = parent_of[at];
      ++hops;
    }
    EXPECT_EQ(at, root_span) << rec.name << " not rooted";
  }
  // The exported trace loads as one process in Perfetto.
  const std::string json = to_perfetto_json(spans, has_sim_times(spans));
  EXPECT_NE(json.find("gateway.request"), std::string::npos);
  EXPECT_NE(json.find("monitor.capture"), std::string::npos);
}

TEST(SpanEndToEnd, TracingOffIsByteIdenticalToUntracedRun) {
  GatewayScenario untraced(/*tracing=*/false);
  GatewayScenario traced(/*tracing=*/true);
  ASSERT_TRUE(untraced.ok);
  ASSERT_TRUE(traced.ok);
  // Tracing does not perturb the simulation: same event count, same
  // monitor observations field-by-field.
  EXPECT_EQ(untraced.fix.scheduler.dispatched(),
            traced.fix.scheduler.dispatched());
  const trace::Trace trace_a = read_store(*untraced.monitor);
  const trace::Trace trace_b = read_store(*traced.monitor);
  const auto& a = trace_a.entries();
  const auto& b = trace_b.entries();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].timestamp, b[i].timestamp) << i;
    EXPECT_EQ(a[i].peer, b[i].peer) << i;
    EXPECT_EQ(a[i].cid, b[i].cid) << i;
    EXPECT_EQ(a[i].type, b[i].type) << i;
    EXPECT_EQ(a[i].flags, b[i].flags) << i;
    EXPECT_EQ(a[i].monitor, b[i].monitor) << i;
  }

  // And a fully disabled tracer allocated nothing.
  const auto& tracer = untraced.fix.network.obs().tracer;
  EXPECT_EQ(tracer.traces_started(), 0u);
  EXPECT_EQ(tracer.spans_buffered(), 0u);
}

// --- End-to-end: one daemon query, one connected trace ------------------

trace::Trace make_store_trace(std::size_t n) {
  util::RngStream rng(11, "span-test");
  trace::Trace t;
  util::SimTime ts = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ts += rng.uniform_index(25 * kSecond);
    trace::TraceEntry e;
    e.timestamp = ts;
    crypto::PeerId::Digest digest{};
    digest[0] = static_cast<std::uint8_t>(rng.uniform_index(20));
    e.peer = crypto::PeerId(digest);
    e.cid = cid::Cid::of_data(
        cid::Multicodec::Raw,
        util::bytes_of("span cid " +
                       std::to_string(rng.uniform_index(30))));
    e.type = bitswap::WantType::WantHave;
    t.append(std::move(e));
  }
  return t;
}

std::unique_ptr<query::QueryService> open_traced_service(
    const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/span_" + name;
  std::filesystem::remove_all(dir);
  tracestore::StoreOptions store_options;
  store_options.max_entries_per_segment = 256;  // several segments
  auto writer = tracestore::SegmentWriter::create(dir, store_options);
  if (writer == nullptr) return nullptr;
  const trace::Trace t = make_store_trace(2000);
  for (const auto& e : t.entries()) writer->append(e);
  if (!writer->finalize()) return nullptr;

  query::QueryOptions options;
  options.tracing = enabled_config(1);
  std::string error;
  auto service = query::QueryService::open(dir, options, &error);
  EXPECT_NE(service, nullptr) << error;
  return service;
}

query::HttpRequest get(const std::string& path,
                       std::map<std::string, std::string> params = {}) {
  query::HttpRequest request;
  request.method = "GET";
  request.path = path;
  request.version = "HTTP/1.1";
  request.params = std::move(params);
  return request;
}

const std::string* find_header(const query::HttpResponse& response,
                               const std::string& name) {
  for (const auto& [key, value] : response.headers) {
    if (key == name) return &value;
  }
  return nullptr;
}

TEST(SpanEndToEnd, DaemonQueryProducesOneConnectedTrace) {
  auto service = open_traced_service("daemon_trace");
  ASSERT_NE(service, nullptr);

  const auto response =
      service->handle(get("/v1/stats", {{"force", "scan"}}));
  EXPECT_EQ(response.status, 200);
  const std::string* duration = find_header(response, "X-Duration-Micros");
  ASSERT_NE(duration, nullptr);
  EXPECT_GE(std::stoll(*duration), 0);

  const auto spans = service->obs().tracer.snapshot();
  ASSERT_FALSE(spans.empty());
  std::uint64_t trace_id = 0;
  std::set<std::string> names;
  std::unordered_set<std::uint64_t> span_ids;
  std::size_t segment_spans = 0;
  for (const auto& rec : spans) {
    if (rec.parent_id == 0) {
      EXPECT_EQ(rec.name, "http.request");
      trace_id = rec.trace_id;
    }
    names.insert(rec.name);
    span_ids.insert(rec.span_id);
    if (rec.name == "scan.segment") ++segment_spans;
  }
  ASSERT_NE(trace_id, 0u);
  for (const char* expected : {"http.request", "query.cache", "query.render",
                               "query.stats_source", "query.scan",
                               "scan.prune", "scan.segment"}) {
    EXPECT_TRUE(names.count(expected)) << "missing span " << expected;
  }
  EXPECT_GT(segment_spans, 1u);  // several segments decoded
  for (const auto& rec : spans) {
    EXPECT_EQ(rec.trace_id, trace_id) << rec.name;
    if (rec.parent_id != 0) {
      EXPECT_TRUE(span_ids.count(rec.parent_id))
          << rec.name << " has dangling parent";
    }
  }
  // scan.segment spans carry the decode/match sub-timings.
  for (const auto& rec : spans) {
    if (rec.name != "scan.segment") continue;
    std::set<std::string> keys;
    for (const auto& [key, value] : rec.attrs) keys.insert(key);
    for (const char* attr : {"file", "decode_us", "match_us", "entries"}) {
      EXPECT_TRUE(keys.count(attr)) << "scan.segment missing " << attr;
    }
  }

  // The per-endpoint latency histogram landed on /metrics.
  const auto metrics = service->handle(get("/metrics"));
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("ipfsmon_query_http_duration_micros"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("endpoint=\"/v1/stats\""), std::string::npos);
}

TEST(SpanEndToEnd, DebugSpansEndpointServesAllFormats) {
  auto service = open_traced_service("debug_spans");
  ASSERT_NE(service, nullptr);
  EXPECT_EQ(service->handle(get("/v1/stats", {{"force", "scan"}})).status,
            200);

  const auto summary = service->handle(get("/debug/spans"));
  EXPECT_EQ(summary.status, 200);
  EXPECT_EQ(summary.content_type, "application/json");
  for (const char* key : {"\"enabled\":true", "\"recent\":[", "\"slowest\":[",
                          "\"spans_recorded\":"}) {
    EXPECT_NE(summary.body.find(key), std::string::npos) << key;
  }

  const auto perfetto =
      service->handle(get("/debug/spans", {{"format", "perfetto"}}));
  EXPECT_EQ(perfetto.status, 200);
  EXPECT_NE(perfetto.body.find("\"traceEvents\":["), std::string::npos);
  EXPECT_EQ(std::count(perfetto.body.begin(), perfetto.body.end(), '{'),
            std::count(perfetto.body.begin(), perfetto.body.end(), '}'));

  const auto jsonl =
      service->handle(get("/debug/spans", {{"format", "jsonl"}}));
  EXPECT_EQ(jsonl.status, 200);
  EXPECT_EQ(jsonl.content_type, "application/x-ndjson");
  EXPECT_GT(std::count(jsonl.body.begin(), jsonl.body.end(), '\n'), 0);

  EXPECT_EQ(
      service->handle(get("/debug/spans", {{"format", "bogus"}})).status,
      400);
}

TEST(SpanEndToEnd, UntracedServiceServesEmptyDebugSpans) {
  const std::string dir = ::testing::TempDir() + "/span_untraced";
  std::filesystem::remove_all(dir);
  auto writer = tracestore::SegmentWriter::create(dir);
  ASSERT_NE(writer, nullptr);
  const trace::Trace t = make_store_trace(100);
  for (const auto& e : t.entries()) writer->append(e);
  ASSERT_TRUE(writer->finalize());
  auto service = query::QueryService::open(dir, {});
  ASSERT_NE(service, nullptr);

  EXPECT_EQ(service->handle(get("/v1/stats")).status, 200);
  const auto response = service->handle(get("/debug/spans"));
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"enabled\":false"), std::string::npos);
  EXPECT_EQ(service->obs().tracer.spans_buffered(), 0u);
}

TEST(SpanEndToEnd, TracingDoesNotChangeQueryAnswers) {
  const std::string dir = ::testing::TempDir() + "/span_answers";
  std::filesystem::remove_all(dir);
  tracestore::StoreOptions store_options;
  store_options.max_entries_per_segment = 256;  // several segments
  auto writer = tracestore::SegmentWriter::create(dir, store_options);
  ASSERT_NE(writer, nullptr);
  const trace::Trace t = make_store_trace(2000);
  for (const auto& e : t.entries()) writer->append(e);
  ASSERT_TRUE(writer->finalize());
  const util::SimTime lo = t.entries().front().timestamp;
  const util::SimTime hi = t.entries().back().timestamp;

  // A seeded mix of scans over random ranges: forced-scan stats, one
  // peer's wants, and popularity.
  util::RngStream rng(5, "span-answers");
  std::vector<query::HttpRequest> requests;
  for (int i = 0; i < 96; ++i) {
    const auto span = static_cast<std::uint64_t>(hi - lo + 1);
    util::SimTime a = lo + static_cast<util::SimTime>(rng.uniform_index(span));
    util::SimTime b = lo + static_cast<util::SimTime>(rng.uniform_index(span));
    if (a > b) std::swap(a, b);
    std::map<std::string, std::string> range = {
        {"min_t", std::to_string(a)}, {"max_t", std::to_string(b)}};
    if (i % 3 == 0) {
      range["force"] = "scan";
      requests.push_back(get("/v1/stats", range));
    } else if (i % 3 == 1) {
      crypto::PeerId::Digest digest{};
      digest[0] = static_cast<std::uint8_t>(rng.uniform_index(20));
      requests.push_back(get(
          "/v1/peers/" + crypto::PeerId(digest).to_base58() + "/wants",
          range));
    } else {
      range["k"] = "5";
      requests.push_back(get("/v1/popularity", range));
    }
  }

  struct Answers {
    std::vector<std::string> bodies;
    std::uint64_t spans = 0;
  };
  const auto answer = [&](const TracerConfig& tracing) {
    query::QueryOptions options;
    options.cache_capacity = 0;  // every request runs its scan
    options.tracing = tracing;
    auto service = query::QueryService::open(dir, options);
    EXPECT_NE(service, nullptr);
    Answers answers;
    if (service == nullptr) return answers;
    for (const auto& request : requests) {
      const auto response = service->handle(request);
      EXPECT_EQ(response.status, 200) << request.path;
      answers.bodies.push_back(response.body);
    }
    answers.spans = service->obs().tracer.spans_recorded();
    return answers;
  };
  TracerConfig sampled;
  sampled.enabled = true;  // default sampling: 1 request in 64
  const Answers off = answer(TracerConfig{});
  const Answers one_in_64 = answer(sampled);
  const Answers every = answer(enabled_config(1));

  ASSERT_EQ(off.bodies.size(), requests.size());
  EXPECT_EQ(one_in_64.bodies, off.bodies);
  EXPECT_EQ(every.bodies, off.bodies);
  // The traced runs really traced, and the untraced one did not.
  EXPECT_EQ(off.spans, 0u);
  EXPECT_GT(one_in_64.spans, 0u);
  EXPECT_GT(every.spans, one_in_64.spans);
}

}  // namespace
}  // namespace ipfsmon::obs
