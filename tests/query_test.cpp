// Query service (src/query): HTTP parsing incl. table-driven malformed
// requests, the embedded server's limits and graceful shutdown, per-segment
// rollups, the rollup-first /v1/stats path (property-tested byte-identical
// to full scans), result caching with reload invalidation, the Prometheus
// endpoint, end-to-end agreement with the in-memory batch analyses,
// concurrent requests (answers across snapshot reloads, exact counters,
// span parentage), and trace_report's missing-vs-corrupt exit codes.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>
#include <unordered_map>

#include "analysis/popularity.hpp"
#include "ingest/capture.hpp"
#include "obs/collector.hpp"
#include "obs/exporters.hpp"
#include "obs/span_export.hpp"
#include "query/cache.hpp"
#include "query/client.hpp"
#include "query/engine.hpp"
#include "query/http.hpp"
#include "query/server.hpp"
#include "query/socket.hpp"
#include "tracestore/rollup.hpp"
#include "tracestore/scan.hpp"
#include "tracestore/store.hpp"
#include "util/file.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

// TempDir and write_bench_artifact are header-only bench helpers.
#include "../bench/bench_common.hpp"
#include "hostile_bytes.hpp"

namespace ipfsmon::query {
namespace {

using util::kMinute;
using util::kSecond;

crypto::PeerId peer_n(int n) {
  crypto::PeerId::Digest digest{};
  digest[0] = static_cast<std::uint8_t>(n);
  digest[1] = static_cast<std::uint8_t>(n >> 8);
  digest[31] = 0x7c;
  return crypto::PeerId(digest);
}

cid::Cid cid_n(int n) {
  return cid::Cid::of_data(cid::Multicodec::Raw,
                           util::bytes_of("query cid " + std::to_string(n)));
}

/// A time-sorted random trace with flags, types, peers and CIDs varied —
/// the shape preprocessing hands to the store.
trace::Trace make_trace(std::size_t n, std::uint64_t seed) {
  util::RngStream rng(seed, "query-test");
  trace::Trace t;
  util::SimTime ts = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ts += rng.uniform_index(25 * kSecond);
    trace::TraceEntry e;
    e.timestamp = ts;
    const int peer = static_cast<int>(rng.uniform_index(20));
    e.peer = peer_n(peer);
    e.address =
        net::Address{0x0a000001u + static_cast<std::uint32_t>(peer), 4001};
    e.cid = cid_n(static_cast<int>(rng.uniform_index(30)));
    e.monitor = static_cast<trace::MonitorId>(rng.uniform_index(3));
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

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/query_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Writes `t` into a store at `dir`; small segments force several files.
void build_store(const std::string& dir, const trace::Trace& t,
                 tracestore::StoreOptions options = {}) {
  if (options.max_entries_per_segment == (1u << 18)) {
    options.max_entries_per_segment = 256;
  }
  auto writer = tracestore::SegmentWriter::create(dir, options);
  ASSERT_NE(writer, nullptr);
  for (const auto& e : t.entries()) writer->append(e);
  ASSERT_TRUE(writer->finalize());
}

RangeStats batch_stats(const trace::Trace& t, util::SimTime min_t,
                       util::SimTime max_t) {
  RangeStats out;
  for (const auto& e : t.entries()) {
    if (e.timestamp < min_t || e.timestamp > max_t) continue;
    ++out.total;
    switch (e.type) {
      case bitswap::WantType::WantHave: ++out.want_have; break;
      case bitswap::WantType::WantBlock: ++out.want_block; break;
      case bitswap::WantType::Cancel: ++out.cancels; break;
    }
    if (e.is_duplicate()) ++out.duplicates;
    if (e.is_rebroadcast()) ++out.rebroadcasts;
    if (e.is_clean()) ++out.clean;
  }
  return out;
}

/// A started server around a service, torn down with the fixture.
struct Daemon {
  explicit Daemon(QueryService& service, ServerOptions options = {}) {
    server = std::make_unique<HttpServer>(
        options,
        [&service](const HttpRequest& request) {
          return service.handle(request);
        });
    std::string error;
    started = server->start(&error);
    EXPECT_TRUE(started) << error;
    if (started) service.attach_server(server.get());
  }

  std::optional<HttpResponse> get(const std::string& target) {
    return http_get("127.0.0.1", server->port(), target);
  }

  std::unique_ptr<HttpServer> server;
  bool started = false;
};

const std::string* find_header(const HttpResponse& response,
                               const std::string& name) {
  for (const auto& [key, value] : response.headers) {
    if (key == name) return &value;
  }
  return nullptr;
}

// --- HTTP parsing ---------------------------------------------------------

TEST(Http, ParsesRequestLineParamsAndBody) {
  const std::string raw =
      "GET /v1/stats?min_t=5&name=a%20b HTTP/1.1\r\n"
      "Host: x\r\nContent-Length: 4\r\n\r\nbodyEXTRA";
  HttpRequest request;
  std::size_t consumed = 0;
  ASSERT_EQ(parse_request(raw, HttpLimits{}, &request, &consumed),
            ParseStatus::kDone);
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.path, "/v1/stats");
  EXPECT_EQ(request.params.at("min_t"), "5");
  EXPECT_EQ(request.params.at("name"), "a b");
  EXPECT_EQ(request.body, "body");
  EXPECT_EQ(consumed, raw.size() - 5);  // "EXTRA" stays buffered
  EXPECT_TRUE(request.keep_alive());
}

TEST(Http, IncompleteRequestNeedsMore) {
  HttpRequest request;
  std::size_t consumed = 0;
  EXPECT_EQ(parse_request("GET / HTTP/1.1\r\nHost:", HttpLimits{}, &request,
                          &consumed),
            ParseStatus::kNeedMore);
  EXPECT_EQ(parse_request("GET / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc",
                          HttpLimits{}, &request, &consumed),
            ParseStatus::kNeedMore);
}

TEST(Http, MalformedRequestTable) {
  struct Case {
    const char* name;
    std::string raw;
    ParseStatus expected;
  };
  HttpLimits limits;
  limits.max_request_line = 128;
  limits.max_header_bytes = 256;
  limits.max_body_bytes = 64;
  const Case cases[] = {
      {"lowercase method", "get / HTTP/1.1\r\n\r\n", ParseStatus::kBadRequest},
      {"junk method", "GE?T / HTTP/1.1\r\n\r\n", ParseStatus::kBadRequest},
      {"missing target", "GET  HTTP/1.1\r\n\r\n", ParseStatus::kBadRequest},
      {"relative target", "GET stats HTTP/1.1\r\n\r\n",
       ParseStatus::kBadRequest},
      {"four fields", "GET / HTTP/1.1 x\r\n\r\n", ParseStatus::kBadRequest},
      {"bad version", "GET / HTTP/2.0\r\n\r\n", ParseStatus::kUnsupported},
      {"chunked body", "GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
       ParseStatus::kUnsupported},
      {"oversized request line",
       "GET /" + std::string(200, 'a') + " HTTP/1.1\r\n\r\n",
       ParseStatus::kTooLarge},
      {"oversized headers",
       "GET / HTTP/1.1\r\nX-Big: " + std::string(300, 'b') + "\r\n\r\n",
       ParseStatus::kTooLarge},
      {"oversized body",
       "GET / HTTP/1.1\r\nContent-Length: 100\r\n\r\n",
       ParseStatus::kTooLarge},
      {"bad content length", "GET / HTTP/1.1\r\nContent-Length: nan\r\n\r\n",
       ParseStatus::kBadRequest},
      // RFC 9110: Content-Length is digits only.
      {"signed content length",
       "GET / HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello",
       ParseStatus::kBadRequest},
      {"negative zero content length",
       "GET / HTTP/1.1\r\nContent-Length: -0\r\n\r\n",
       ParseStatus::kBadRequest},
      {"split content length",
       "GET / HTTP/1.1\r\nContent-Length: 1 2\r\n\r\n",
       ParseStatus::kBadRequest},
      {"header fold", "GET / HTTP/1.1\r\nA: b\r\n c\r\n\r\n",
       ParseStatus::kBadRequest},
      {"colonless header", "GET / HTTP/1.1\r\nOops\r\n\r\n",
       ParseStatus::kBadRequest},
  };
  for (const auto& c : cases) {
    HttpRequest request;
    std::size_t consumed = 0;
    EXPECT_EQ(parse_request(c.raw, limits, &request, &consumed), c.expected)
        << c.name;
  }
}

TEST(Http, PipelinedRequestsParseInOrder) {
  std::string raw =
      "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n";
  HttpRequest request;
  std::size_t consumed = 0;
  ASSERT_EQ(parse_request(raw, HttpLimits{}, &request, &consumed),
            ParseStatus::kDone);
  EXPECT_EQ(request.path, "/a");
  raw.erase(0, consumed);
  ASSERT_EQ(parse_request(raw, HttpLimits{}, &request, &consumed),
            ParseStatus::kDone);
  EXPECT_EQ(request.path, "/b");
  EXPECT_FALSE(request.keep_alive());
  EXPECT_EQ(consumed, raw.size());
}

TEST(Http, ResponseRoundTrip) {
  HttpResponse response;
  response.status = 200;
  response.body = "{\"x\":1}";
  response.headers.emplace_back("X-Source", "rollup");
  const auto parsed = parse_response(serialize_response(response, true));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->status, 200);
  EXPECT_EQ(parsed->body, response.body);
  ASSERT_NE(find_header(*parsed, "x-source"), nullptr);
  EXPECT_EQ(*find_header(*parsed, "x-source"), "rollup");

  // The client side reads Content-Length as strictly as the server.
  for (const char* hostile : {"+2", "-0", "2x"}) {
    EXPECT_FALSE(parse_response(std::string("HTTP/1.1 200 OK\r\n"
                                            "Content-Length: ") +
                                hostile + "\r\n\r\nok")
                     .has_value())
        << hostile;
  }
}

// --- LRU cache ------------------------------------------------------------

TEST(Cache, EvictsLeastRecentlyUsed) {
  LruCache cache(2);
  cache.put("a", {"A", "t", ""});
  cache.put("b", {"B", "t", ""});
  CachedResponse out;
  ASSERT_TRUE(cache.get("a", &out));  // refresh a; b is now LRU
  cache.put("c", {"C", "t", ""});
  EXPECT_FALSE(cache.get("b", &out));
  EXPECT_TRUE(cache.get("a", &out));
  EXPECT_TRUE(cache.get("c", &out));
  EXPECT_EQ(cache.size(), 2u);
}

// --- Rollups --------------------------------------------------------------

trace::TraceStats stats_of(const trace::Trace& t) {
  trace::StatsAccumulator accumulator;
  for (const auto& e : t.entries()) accumulator.add(e);
  return accumulator.stats();
}

/// A rollup of `t`, with the distinct counts a writer would pass.
tracestore::SegmentRollup rollup_of(const trace::Trace& t) {
  const trace::TraceStats stats = stats_of(t);
  return tracestore::build_rollup(t, {stats.unique_peers, stats.unique_cids},
                                  kMinute);
}

TEST(Rollup, RoundTripsThroughFile) {
  const trace::Trace t = make_trace(500, 11);
  const auto rollup = rollup_of(t);
  EXPECT_EQ(rollup.entry_count, t.size());

  const std::string path = fresh_dir("rollup_rt") + ".rollup";
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  ASSERT_TRUE(tracestore::write_rollup_file(path, rollup));
  const auto loaded = tracestore::read_rollup_file(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->entry_count, rollup.entry_count);
  EXPECT_EQ(loaded->bucket_width, rollup.bucket_width);
  EXPECT_EQ(loaded->distinct_peers, rollup.distinct_peers);
  EXPECT_EQ(loaded->distinct_cids, rollup.distinct_cids);
  ASSERT_EQ(loaded->buckets.size(), rollup.buckets.size());
  for (std::size_t i = 0; i < rollup.buckets.size(); ++i) {
    EXPECT_EQ(loaded->buckets[i].start, rollup.buckets[i].start);
    EXPECT_EQ(loaded->buckets[i].entries(), rollup.buckets[i].entries());
    EXPECT_EQ(loaded->buckets[i].clean, rollup.buckets[i].clean);
  }
}

TEST(Rollup, BucketTotalsMatchStatsAccumulator) {
  const trace::Trace t = make_trace(800, 12);
  const auto rollup = rollup_of(t);
  const trace::TraceStats stats = stats_of(t);

  std::uint64_t want_have = 0, want_block = 0, cancels = 0, duplicates = 0,
                rebroadcasts = 0, clean = 0, total = 0;
  for (const auto& b : rollup.buckets) {
    total += b.entries();
    want_have += b.want_have;
    want_block += b.want_block;
    cancels += b.cancels;
    duplicates += b.duplicates;
    rebroadcasts += b.rebroadcasts;
    clean += b.clean;
  }
  EXPECT_EQ(total, stats.total);
  EXPECT_EQ(want_have + want_block, stats.requests);
  EXPECT_EQ(cancels, stats.cancels);
  EXPECT_EQ(duplicates, stats.inter_monitor_duplicates);
  EXPECT_EQ(rebroadcasts, stats.rebroadcasts);
  EXPECT_EQ(clean, stats.clean);
  EXPECT_EQ(rollup.distinct_peers, stats.unique_peers);
  EXPECT_EQ(rollup.distinct_cids, stats.unique_cids);
}

TEST(Rollup, WriterEmitsSidecarsAndFallbackRebuildAgrees) {
  const std::string dir = fresh_dir("sidecars");
  build_store(dir, make_trace(1000, 13));
  auto store = tracestore::TraceStore::open(dir);
  ASSERT_TRUE(store.has_value());
  ASSERT_GT(store->segments().size(), 1u);
  for (std::size_t i = 0; i < store->segments().size(); ++i) {
    const std::string sidecar =
        tracestore::rollup_path_for(store->segment_path(i));
    ASSERT_TRUE(std::filesystem::exists(sidecar)) << sidecar;
    const auto loaded = tracestore::read_rollup_file(sidecar);
    ASSERT_TRUE(loaded.has_value());
    const auto rebuilt =
        tracestore::rollup_from_segment(store->segment_path(i));
    ASSERT_TRUE(rebuilt.has_value());
    EXPECT_EQ(loaded->entry_count, rebuilt->entry_count);
    // The writer's and the reader's dictionary sizes are the segment's
    // distinct peers and CIDs.
    auto reader = tracestore::SegmentReader::open(store->segment_path(i));
    ASSERT_TRUE(reader.has_value());
    trace::Trace entries;
    trace::TraceEntry e;
    while (reader->next(e)) entries.append(e);
    const trace::TraceStats stats = stats_of(entries);
    EXPECT_EQ(loaded->distinct_peers, stats.unique_peers);
    EXPECT_EQ(loaded->distinct_cids, stats.unique_cids);
    EXPECT_EQ(rebuilt->distinct_peers, stats.unique_peers);
    EXPECT_EQ(rebuilt->distinct_cids, stats.unique_cids);
    ASSERT_EQ(loaded->buckets.size(), rebuilt->buckets.size());
    for (std::size_t b = 0; b < loaded->buckets.size(); ++b) {
      EXPECT_EQ(loaded->buckets[b].entries(), rebuilt->buckets[b].entries());
    }
  }
}

TEST(Rollup, CorruptSidecarIsRejected) {
  const std::string dir = fresh_dir("corrupt_sidecar");
  build_store(dir, make_trace(300, 14));
  auto store = tracestore::TraceStore::open(dir);
  ASSERT_TRUE(store.has_value());
  const std::string sidecar =
      tracestore::rollup_path_for(store->segment_path(0));
  std::fstream f(sidecar, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(4);
  f.put('\xff');
  f.close();
  EXPECT_FALSE(tracestore::read_rollup_file(sidecar).has_value());
  // Valid checksums around a bucket count the payload cannot hold: an
  // error, not a reserve() of 2^40 buckets that aborts the process.
  for (const std::uint64_t buckets : {1ull << 40, (1ull << 63) - 1}) {
    const util::Bytes hostile = testing_helpers::hostile_rollup(buckets);
    ASSERT_TRUE(util::publish(sidecar, {hostile}));
    std::string error;
    EXPECT_FALSE(tracestore::read_rollup_file(sidecar, &error).has_value());
    EXPECT_NE(error.find("malformed payload"), std::string::npos) << error;
  }
  EXPECT_EQ(testing_helpers::hostile_rollup(1ull << 40).size(), 29u);
}

TEST(Rollup, MismatchedSidecarIsNotASkippedSegment) {
  const std::string dir = fresh_dir("mismatched_sidecar");
  build_store(dir, make_trace(300, 16));
  auto store = tracestore::TraceStore::open(dir);
  ASSERT_TRUE(store.has_value());
  // A well-formed sidecar of other entries: it passes its checksums but
  // disagrees with the segment footer's entry count.
  ASSERT_TRUE(tracestore::write_rollup_file(
      tracestore::rollup_path_for(store->segment_path(0)),
      rollup_of(make_trace(10, 17))));
  auto service = QueryService::open(dir);
  ASSERT_NE(service, nullptr);
  EXPECT_EQ(service->rollups_loaded(), store->segments().size() - 1);
  ASSERT_EQ(service->store().warnings().size(), 1u);
  EXPECT_NE(service->store().warnings()[0].find("rollup sidecar mismatch"),
            std::string::npos);
  // The segment is still served (by scan), so nothing was skipped.
  HttpRequest request;
  request.method = "GET";
  request.path = "/metrics";
  const HttpResponse response = service->handle(request);
  ASSERT_EQ(response.status, 200);
  const std::string& body = response.body;
  const std::string metric = "\nipfsmon_tracestore_segments_skipped_total ";
  const auto at = body.find(metric);
  if (at != std::string::npos) {
    EXPECT_EQ(body.substr(at + metric.size(), 2), "0\n") << body;
  }
}

TEST(Rollup, PruneRemovesSidecars) {
  const std::string dir = fresh_dir("prune_sidecar");
  build_store(dir, make_trace(1000, 15));
  auto store = tracestore::TraceStore::open(dir);
  ASSERT_TRUE(store.has_value());
  ASSERT_GT(store->segments().size(), 2u);
  const std::string first_sidecar =
      tracestore::rollup_path_for(store->segment_path(0));
  ASSERT_TRUE(std::filesystem::exists(first_sidecar));
  const util::SimTime cutoff = store->segments()[1].footer.min_time;
  ASSERT_GE(store->prune_before(cutoff), 1u);
  EXPECT_FALSE(std::filesystem::exists(first_sidecar));
}

// --- Server ---------------------------------------------------------------

TEST(Server, ServesRequestsAndCounts) {
  HttpServer server({}, [](const HttpRequest& request) {
    HttpResponse response;
    response.body = "{\"path\":\"" + request.path + "\"}";
    return response;
  });
  ASSERT_TRUE(server.start());
  ASSERT_NE(server.port(), 0);
  const auto response = http_get("127.0.0.1", server.port(), "/hello");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->body, "{\"path\":\"/hello\"}");
  server.stop();
  const ServerCounters counters = server.counters();
  EXPECT_EQ(counters.connections_accepted, 1u);
  EXPECT_EQ(counters.requests, 1u);
  EXPECT_GT(counters.bytes_read, 0u);
  EXPECT_GT(counters.bytes_written, 0u);
}

TEST(Server, MalformedRequestsOverTheWireTable) {
  ServerOptions options;
  options.limits.max_header_bytes = 512;
  options.io_timeout_ms = 300;  // keeps the truncated-body case quick
  HttpServer server(options, [](const HttpRequest&) {
    return HttpResponse{};
  });
  ASSERT_TRUE(server.start());

  struct Case {
    const char* name;
    std::string raw;
    const char* expected_status;  // substring of the first response line
  };
  const Case cases[] = {
      {"bad method", "ge!t / HTTP/1.1\r\n\r\n", " 400 "},
      {"bad version", "GET / HTTP/9.9\r\n\r\n", " 501 "},
      {"oversized header",
       "GET / HTTP/1.1\r\nX-Big: " + std::string(600, 'x') + "\r\n\r\n",
       " 431 "},
      {"truncated body",
       "GET / HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort", " 408 "},
      {"signed content length",
       "GET / HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello", " 400 "},
      {"negative zero content length",
       "GET / HTTP/1.1\r\nContent-Length: -0\r\n\r\n", " 400 "},
  };
  for (const auto& c : cases) {
    const auto raw = raw_exchange("127.0.0.1", server.port(), c.raw, 2000);
    ASSERT_TRUE(raw.has_value()) << c.name;
    EXPECT_NE(raw->find(c.expected_status), std::string::npos)
        << c.name << " got: " << raw->substr(0, 64);
  }

  // Early client disconnect mid-request: server must just drop it.
  const auto closed = raw_exchange("127.0.0.1", server.port(),
                                   "GET / HTTP/1.1\r\nConte", 2000,
                                   /*half_close=*/true);
  ASSERT_TRUE(closed.has_value());
  EXPECT_TRUE(closed->empty());

  // Two pipelined requests on one connection get two responses.
  const auto pipelined = raw_exchange(
      "127.0.0.1", server.port(),
      "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n",
      2000);
  ASSERT_TRUE(pipelined.has_value());
  std::size_t responses = 0;
  for (std::size_t pos = pipelined->find("HTTP/1.1 200");
       pos != std::string::npos;
       pos = pipelined->find("HTTP/1.1 200", pos + 1)) {
    ++responses;
  }
  EXPECT_EQ(responses, 2u);

  server.stop();
  EXPECT_GE(server.counters().parse_errors, 3u);
  EXPECT_GE(server.counters().timeouts, 1u);
}

TEST(Server, RejectsWith503WhenAcceptQueueFull) {
  ServerOptions options;
  options.max_connections = 0;  // everything is "over capacity"
  HttpServer server(options, [](const HttpRequest&) {
    return HttpResponse{};
  });
  ASSERT_TRUE(server.start());
  const auto response = http_get("127.0.0.1", server.port(), "/");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 503);
  server.stop();
  EXPECT_GE(server.counters().connections_rejected, 1u);
}

TEST(Server, StopIsPromptWithIdleKeepAliveClient) {
  // The default 5 s idle limit must not hold up stop(): an idle
  // keep-alive connection closes as soon as the drain starts.
  HttpServer server({}, [](const HttpRequest&) {
    HttpResponse response;
    response.body = "{}";
    return response;
  });
  ASSERT_TRUE(server.start());
  std::string error;
  const int fd = tcp_connect("127.0.0.1", server.port(), 2000, &error);
  ASSERT_GE(fd, 0) << error;
  ASSERT_TRUE(send_all(fd, std::string_view("GET / HTTP/1.1\r\n\r\n")));
  std::string response;
  char chunk[512];
  while (response.find("{}") == std::string::npos) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    ASSERT_GT(n, 0) << "connection closed before the first response";
    response.append(chunk, static_cast<std::size_t>(n));
  }
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_EQ(response.find("Connection: close"), std::string::npos);

  const auto started = std::chrono::steady_clock::now();
  server.stop();
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_LT(elapsed, std::chrono::seconds(1));
  // The server closed the idle connection rather than leaving it open.
  EXPECT_EQ(::recv(fd, chunk, sizeof(chunk), 0), 0);
  ::close(fd);
}

TEST(Server, ReapsFinishedConnectionThreads) {
  HttpServer server({}, [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.start());
  for (int i = 0; i < 200; ++i) {
    const auto response = http_get("127.0.0.1", server.port(), "/");
    ASSERT_TRUE(response.has_value()) << "request " << i;
  }
  // Each accept joins the threads whose connections already ended; only
  // the last few can still be unjoined.
  EXPECT_LE(server.live_connections(), 4u);
  server.stop();
  EXPECT_EQ(server.live_connections(), 0u);
  EXPECT_EQ(server.counters().connections_accepted, 200u);
}

TEST(Server, ConcurrentClientsAllSucceed) {
  std::atomic<int> handled{0};
  HttpServer server({}, [&handled](const HttpRequest&) {
    handled.fetch_add(1);
    HttpResponse response;
    response.body = "{}";
    return response;
  });
  ASSERT_TRUE(server.start());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 16;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    clients.emplace_back([&server, &ok] {
      for (int j = 0; j < kPerThread; ++j) {
        const auto response = http_get("127.0.0.1", server.port(), "/x");
        if (response && response->status == 200) ok.fetch_add(1);
      }
    });
  }
  for (auto& c : clients) c.join();
  server.stop();
  EXPECT_EQ(ok.load(), kThreads * kPerThread);
  EXPECT_EQ(handled.load(), kThreads * kPerThread);
}

// --- Query service --------------------------------------------------------

TEST(Engine, StatsRollupPathIsByteIdenticalToScans) {
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    const std::string dir =
        fresh_dir("prop_" + std::to_string(seed));
    const trace::Trace t = make_trace(1200, seed);
    build_store(dir, t);
    auto service = QueryService::open(dir);
    ASSERT_NE(service, nullptr);
    ASSERT_GT(service->rollups_loaded(), 1u);

    const util::SimTime lo = t.entries().front().timestamp;
    const util::SimTime hi = t.entries().back().timestamp;
    util::RngStream rng(seed, "query-prop");
    for (int round = 0; round < 20; ++round) {
      // Random ranges, deliberately not minute-aligned.
      util::SimTime a =
          lo + static_cast<util::SimTime>(rng.uniform_index(
                   static_cast<std::uint64_t>(hi - lo + 1)));
      util::SimTime b =
          lo + static_cast<util::SimTime>(rng.uniform_index(
                   static_cast<std::uint64_t>(hi - lo + 1)));
      if (a > b) std::swap(a, b);
      StatsSource source = StatsSource::kScan;
      const RangeStats rollup_stats = service->stats_between(a, b, &source);
      const RangeStats scan_stats = service->stats_by_scan(a, b);
      EXPECT_EQ(rollup_stats, scan_stats)
          << "seed " << seed << " round " << round << " [" << a << ", " << b
          << "] source " << to_string(source);
      EXPECT_EQ(rollup_stats, batch_stats(t, a, b));
    }
    // Whole-range query must come purely from rollups.
    StatsSource source = StatsSource::kScan;
    service->stats_between(lo, hi, &source);
    EXPECT_EQ(source, StatsSource::kRollup);
  }
}

TEST(Engine, MissingSidecarsFallBackToDecode) {
  const std::string dir = fresh_dir("no_sidecars");
  const trace::Trace t = make_trace(700, 31);
  build_store(dir, t);
  for (const auto& file : std::filesystem::directory_iterator(dir)) {
    if (file.path().string().ends_with(".rollup")) {
      std::filesystem::remove(file.path());
    }
  }
  auto service = QueryService::open(dir);
  ASSERT_NE(service, nullptr);
  EXPECT_EQ(service->rollups_loaded(), 0u);
  const util::SimTime lo = t.entries().front().timestamp;
  const util::SimTime hi = t.entries().back().timestamp;
  StatsSource source = StatsSource::kRollup;
  EXPECT_EQ(service->stats_between(lo, hi, &source), batch_stats(t, lo, hi));
  EXPECT_EQ(source, StatsSource::kScan);
}

TEST(Engine, UnreadableSegmentWarningCarriesTheReason) {
  const std::string dir = fresh_dir("unreadable_decode");
  const trace::Trace t = make_trace(700, 32);
  build_store(dir, t);
  for (const auto& file : std::filesystem::directory_iterator(dir)) {
    if (file.path().string().ends_with(".rollup")) {
      std::filesystem::remove(file.path());
    }
  }
  // A flipped body byte keeps the footer valid, so the store opens and only
  // decoding the segment finds the damage.
  {
    std::fstream f(dir + "/seg-000000.seg",
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(10);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(10);
    f.put(static_cast<char>(byte ^ 0x55));
  }
  auto service = QueryService::open(dir);
  ASSERT_NE(service, nullptr);
  service->stats_between(t.entries().front().timestamp,
                         t.entries().back().timestamp, nullptr);
  ASSERT_EQ(service->store().warnings().size(), 1u);
  const std::string warning = service->store().warnings()[0];
  EXPECT_EQ(warning.rfind("skipping unreadable segment seg-000000.seg: ", 0),
            0u)
      << warning;
  EXPECT_NE(warning.find("body checksum mismatch"), std::string::npos)
      << warning;
}

TEST(Engine, HttpStatsMatchesBatchAndRollupForcedScanBytesAgree) {
  const std::string dir = fresh_dir("http_stats");
  const trace::Trace t = make_trace(900, 41);
  build_store(dir, t);
  auto service = QueryService::open(dir);
  ASSERT_NE(service, nullptr);
  Daemon daemon(*service);
  ASSERT_TRUE(daemon.started);

  const util::SimTime lo = t.entries().front().timestamp;
  const util::SimTime hi = t.entries().back().timestamp;
  const util::SimTime mid_a = lo + (hi - lo) / 3 + 12345;
  const util::SimTime mid_b = lo + 2 * (hi - lo) / 3 + 6789;
  const std::string range = util::format(
      "?min_t=%lld&max_t=%lld", static_cast<long long>(mid_a),
      static_cast<long long>(mid_b));

  const auto rollup_served = daemon.get("/v1/stats" + range);
  const auto scan_served = daemon.get("/v1/stats" + range + "&force=scan");
  ASSERT_TRUE(rollup_served.has_value() && scan_served.has_value());
  EXPECT_EQ(rollup_served->status, 200);
  EXPECT_EQ(rollup_served->body, scan_served->body);  // byte-identical
  ASSERT_NE(find_header(*scan_served, "x-source"), nullptr);
  EXPECT_EQ(*find_header(*scan_served, "x-source"), "scan");

  // The body itself matches the in-memory batch computation, field by field.
  const RangeStats expected = batch_stats(t, mid_a, mid_b);
  const std::string expected_body = util::format(
      "{\"min_time\":%lld,\"max_time\":%lld,\"total\":%llu,"
      "\"requests\":%llu,\"want_have\":%llu,\"want_block\":%llu,"
      "\"cancels\":%llu,\"duplicates\":%llu,\"rebroadcasts\":%llu,"
      "\"clean\":%llu}",
      static_cast<long long>(mid_a), static_cast<long long>(mid_b),
      static_cast<unsigned long long>(expected.total),
      static_cast<unsigned long long>(expected.want_have +
                                      expected.want_block),
      static_cast<unsigned long long>(expected.want_have),
      static_cast<unsigned long long>(expected.want_block),
      static_cast<unsigned long long>(expected.cancels),
      static_cast<unsigned long long>(expected.duplicates),
      static_cast<unsigned long long>(expected.rebroadcasts),
      static_cast<unsigned long long>(expected.clean));
  EXPECT_EQ(rollup_served->body, expected_body);

  const auto bad = daemon.get("/v1/stats?min_t=nan");
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(bad->status, 400);
}

TEST(Engine, PopularityAndPeerWantsMatchBatch) {
  const std::string dir = fresh_dir("pop_wants");
  const trace::Trace t = make_trace(900, 51);
  build_store(dir, t);
  auto service = QueryService::open(dir);
  ASSERT_NE(service, nullptr);
  Daemon daemon(*service);
  ASSERT_TRUE(daemon.started);

  const auto popularity = daemon.get("/v1/popularity?k=3&clean_only=1");
  ASSERT_TRUE(popularity.has_value());
  EXPECT_EQ(popularity->status, 200);
  analysis::PopularityAccumulator accumulator(/*clean_only=*/true);
  for (const auto& e : t.entries()) accumulator.add(e);
  const analysis::PopularityScores scores = accumulator.scores();
  EXPECT_NE(
      popularity->body.find(util::format("\"cids\":%zu", scores.rrp.size())),
      std::string::npos)
      << popularity->body;
  const auto top = scores.top_rrp(3);
  ASSERT_FALSE(top.empty());
  EXPECT_NE(popularity->body.find(util::format(
                "{\"cid\":\"%s\",\"count\":%llu}",
                top[0].first.to_string().c_str(),
                static_cast<unsigned long long>(top[0].second))),
            std::string::npos)
      << popularity->body;

  // Per-peer wants: totals agree with a direct filter of the trace.
  const crypto::PeerId peer = t.entries().front().peer;
  std::uint64_t expected_wants = 0;
  for (const auto& e : t.entries()) {
    if (e.peer == peer) ++expected_wants;
  }
  const auto wants =
      daemon.get("/v1/peers/" + peer.to_base58() + "/wants?limit=10");
  ASSERT_TRUE(wants.has_value());
  EXPECT_EQ(wants->status, 200);
  EXPECT_NE(wants->body.find(util::format(
                "\"total\":%llu",
                static_cast<unsigned long long>(expected_wants))),
            std::string::npos)
      << wants->body;
  EXPECT_NE(wants->body.find("\"peer\":\"" + peer.to_base58() + "\""),
            std::string::npos);

  const auto bad_peer = daemon.get("/v1/peers/notapeer/wants");
  ASSERT_TRUE(bad_peer.has_value());
  EXPECT_EQ(bad_peer->status, 400);
}

/// Reads one unlabelled counter from the service's registry (0 if absent).
std::uint64_t counter_value(QueryService& service, const std::string& name) {
  const auto& registry = service.obs().metrics;
  const obs::InstrumentInfo* info = registry.find(name);
  return info == nullptr ? 0 : registry.counter_at(info->slot).value();
}

TEST(Engine, CacheHitsAndReloadInvalidates) {
  const std::string dir = fresh_dir("cache");
  const trace::Trace t = make_trace(400, 61);
  build_store(dir, t);
  auto service = QueryService::open(dir);
  ASSERT_NE(service, nullptr);
  Daemon daemon(*service);
  ASSERT_TRUE(daemon.started);

  const std::string target = "/v1/stats?min_t=0";
  const auto first = daemon.get(target);
  const auto second = daemon.get(target);
  ASSERT_TRUE(first.has_value() && second.has_value());
  ASSERT_NE(find_header(*first, "x-cache"), nullptr);
  EXPECT_EQ(*find_header(*first, "x-cache"), "miss");
  EXPECT_EQ(*find_header(*second, "x-cache"), "hit");
  EXPECT_EQ(first->body, second->body);
  EXPECT_GE(counter_value(*service, "ipfsmon_query_cache_hits_total"), 1u);

  // Rewriting the store changes the manifest fingerprint; after reload the
  // same query must be recomputed (and may answer differently).
  const std::uint64_t fingerprint_before = service->fingerprint();
  build_store(dir, make_trace(500, 62));
  ASSERT_TRUE(service->reload());
  EXPECT_NE(service->fingerprint(), fingerprint_before);
  const auto after = daemon.get(target);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(*find_header(*after, "x-cache"), "miss");
}

TEST(Engine, MetricsExposesServerAndScanCounters) {
  const std::string dir = fresh_dir("metrics");
  build_store(dir, make_trace(400, 71));
  auto service = QueryService::open(dir);
  ASSERT_NE(service, nullptr);
  Daemon daemon(*service);
  ASSERT_TRUE(daemon.started);

  ASSERT_TRUE(daemon.get("/healthz").has_value());
  ASSERT_TRUE(daemon.get("/v1/stats?force=scan").has_value());
  const auto metrics = daemon.get("/metrics");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(metrics->status, 200);
  EXPECT_NE(metrics->content_type.find("text/plain"), std::string::npos);

  // Prometheus text exposition: every non-comment line is "name[{labels}]
  // value" with a parseable float value.
  std::size_t samples = 0;
  for (const auto& line : util::split(metrics->body, '\n')) {
    if (line.empty() || line.front() == '#') continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    errno = 0;
    char* end = nullptr;
    std::strtod(line.c_str() + space + 1, &end);
    EXPECT_TRUE(errno == 0 && end != line.c_str() + space + 1) << line;
    ++samples;
  }
  EXPECT_GT(samples, 10u);
  EXPECT_NE(metrics->body.find("ipfsmon_query_server_requests_total"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("ipfsmon_query_server_connections_total"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("ipfsmon_tracestore_segments_scanned_total"),
            std::string::npos);

  // Counters survive into the next render monotonically.
  const auto again = daemon.get("/metrics");
  ASSERT_TRUE(again.has_value());
  EXPECT_NE(again->body.find("ipfsmon_query_cache_misses_total"),
            std::string::npos);
}

TEST(Engine, ConcurrentMixedQueriesAreConsistent) {
  const std::string dir = fresh_dir("concurrent");
  const trace::Trace t = make_trace(600, 81);
  build_store(dir, t);
  QueryOptions options;
  options.cache_capacity = 0;  // every request renders, so scans overlap
  options.tracing.enabled = true;
  options.tracing.sample_every = 1;
  auto service = QueryService::open(dir, options);
  ASSERT_NE(service, nullptr);
  Daemon daemon(*service);
  ASSERT_TRUE(daemon.started);

  const util::SimTime lo = t.entries().front().timestamp;
  const util::SimTime hi = t.entries().back().timestamp;
  const std::string range = util::format(
      "?min_t=%lld&max_t=%lld", static_cast<long long>(lo + 777),
      static_cast<long long>(hi - 777));
  const std::string peer = t.entries().front().peer.to_base58();
  // Answers that depend only on the store: each must equal its
  // single-threaded answer, whatever runs beside it.
  const std::vector<std::string> stable = {
      "/healthz",
      "/v1/stats" + range,
      "/v1/stats" + range + "&force=scan",
      "/v1/peers/" + peer + "/wants?limit=5",
      "/v1/popularity?k=3",
      "/v1/segments",
  };
  std::map<std::string, std::string> expected;
  for (const auto& target : stable) {
    const auto response = daemon.get(target);
    ASSERT_TRUE(response.has_value() && response->status == 200) << target;
    expected[target] = response->body;
  }
  // Answers that change with every request: well-formed, not equal.
  const std::vector<std::string> live = {"/metrics", "/debug/spans"};

  std::atomic<int> failures{0};
  std::atomic<bool> done{false};
  std::atomic<int> reloads{0};
  // Reloads swap the served snapshot under the clients' feet; the store
  // is unchanged, so every answer must stay the same.
  std::thread reloader([&] {
    while (!done.load()) {
      if (!service->reload()) failures.fetch_add(1);
      reloads.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  std::vector<std::thread> clients;
  for (int i = 0; i < 6; ++i) {
    clients.emplace_back([&, i] {
      const std::size_t kinds = stable.size() + live.size();
      for (std::size_t j = 0; j < 2 * kinds; ++j) {
        const std::size_t pick = (static_cast<std::size_t>(i) + j) % kinds;
        const bool is_live = pick >= stable.size();
        const std::string& target =
            is_live ? live[pick - stable.size()] : stable[pick];
        const auto response =
            http_get("127.0.0.1", daemon.server->port(), target);
        if (!response || response->status != 200) {
          failures.fetch_add(1);
          continue;
        }
        const bool ok =
            !is_live ? response->body == expected[target]
            : target == "/metrics"
                ? response->body.find("ipfsmon_query_http_requests_total") !=
                      std::string::npos
                : util::json::valid(response->body);
        if (!ok) failures.fetch_add(1);
      }
    });
  }
  for (auto& c : clients) c.join();
  done.store(true);
  reloader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(reloads.load(), 0);
}

TEST(Engine, ConcurrentRequestsAreCountedExactly) {
  const std::string dir = fresh_dir("concurrent_counters");
  const trace::Trace t = make_trace(900, 91);
  build_store(dir, t);
  QueryOptions options;
  options.cache_capacity = 0;  // every scan request really scans
  auto service = QueryService::open(dir, options);
  ASSERT_NE(service, nullptr);

  // Each request paired with the scan it runs; a single-threaded scan of
  // the same query over the same store gives the stats it must add.
  const util::SimTime lo = t.entries().front().timestamp;
  const util::SimTime span = t.entries().back().timestamp - lo;
  std::vector<HttpRequest> requests;
  std::vector<std::optional<tracestore::ScanQuery>> scans;
  for (int i = 0; i < 32; ++i) {
    const util::SimTime a = lo + span * (i % 8) / 16;
    const util::SimTime b = a + span * (1 + i % 5) / 8;
    const std::map<std::string, std::string> range = {
        {"min_t", std::to_string(a)}, {"max_t", std::to_string(b)}};
    tracestore::ScanQuery query;
    query.min_time = a;
    query.max_time = b;
    HttpRequest request;
    request.method = "GET";
    request.params = range;
    switch (i % 4) {
      case 0:
        request.path = "/v1/stats";
        request.params["force"] = "scan";
        break;
      case 1:
        request.path = "/v1/peers/" + peer_n(i % 20).to_base58() + "/wants";
        query.peers = {peer_n(i % 20)};
        break;
      case 2:
        request.path = "/v1/popularity";
        break;
      default:
        request.path = "/healthz";
        request.params.clear();
        break;
    }
    requests.push_back(request);
    scans.push_back(request.path == "/healthz"
                        ? std::nullopt
                        : std::optional<tracestore::ScanQuery>(query));
  }
  auto store = tracestore::TraceStore::open(dir);
  ASSERT_TRUE(store.has_value());
  std::uint64_t scanned = 0;
  std::uint64_t pruned = 0;
  std::uint64_t matched = 0;
  std::uint64_t bytes = 0;
  for (const auto& query : scans) {
    if (!query) continue;
    const auto stats =
        tracestore::scan(*store, *query, [](const trace::TraceEntry&) {});
    scanned += stats.segments_scanned;
    pruned += stats.segments_pruned_time + stats.segments_pruned_bloom +
              stats.segments_pruned_dictionary;
    matched += stats.entries_matched;
    bytes += stats.bytes_scanned;
  }

  constexpr std::size_t kThreads = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kThreads; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = c; i < requests.size(); i += kThreads) {
        if (service->handle(requests[i]).status != 200) failures.fetch_add(1);
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(counter_value(*service, "ipfsmon_query_http_requests_total"),
            requests.size());
  EXPECT_EQ(
      counter_value(*service, "ipfsmon_tracestore_segments_scanned_total"),
      scanned);
  EXPECT_EQ(counter_value(*service, "ipfsmon_tracestore_segments_pruned_total"),
            pruned);
  EXPECT_EQ(counter_value(*service, "ipfsmon_tracestore_scan_entries_total"),
            matched);
  EXPECT_EQ(counter_value(*service, "ipfsmon_tracestore_scan_bytes_total"),
            bytes);
  EXPECT_GT(scanned, 0u);
  EXPECT_GT(pruned, 0u);
}

TEST(Engine, ConcurrentTracedRequestsKeepSpansInTheirOwnTrace) {
  const std::string dir = fresh_dir("concurrent_spans");
  const trace::Trace t = make_trace(900, 95);
  build_store(dir, t);
  QueryOptions options;
  options.cache_capacity = 0;
  options.tracing.enabled = true;
  options.tracing.sample_every = 1;
  auto service = QueryService::open(dir, options);
  ASSERT_NE(service, nullptr);

  // Forced scans (query.scan) and rollup stats over ranges that cut
  // through minute buckets (segment.decode), interleaved on four threads.
  const util::SimTime lo = t.entries().front().timestamp;
  const util::SimTime span = t.entries().back().timestamp - lo;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kThreads; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerThread; ++i) {
        const util::SimTime a = lo + span * ((c + i) % 7) / 10 + 12345;
        HttpRequest request;
        request.method = "GET";
        request.path = "/v1/stats";
        request.params = {{"min_t", std::to_string(a)},
                          {"max_t", std::to_string(a + span / 4)}};
        if (i % 2 == 0) request.params["force"] = "scan";
        if (service->handle(request).status != 200) failures.fetch_add(1);
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);

  const auto spans = service->obs().tracer.snapshot();
  EXPECT_EQ(service->obs().tracer.spans_dropped(), 0u);
  std::unordered_map<std::uint64_t, const obs::SpanRecord*> by_id;
  std::size_t roots = 0;
  for (const auto& rec : spans) {
    by_id[rec.span_id] = &rec;
    if (rec.parent_id == 0) {
      EXPECT_EQ(rec.name, "http.request");
      ++roots;
    }
  }
  EXPECT_EQ(roots, static_cast<std::size_t>(kThreads * kPerThread));
  std::size_t checked_scan = 0;
  std::size_t checked_decode = 0;
  for (const auto& rec : spans) {
    if (rec.name != "query.scan" && rec.name != "segment.decode") continue;
    (rec.name == "query.scan" ? checked_scan : checked_decode) += 1;
    // Walk up to the root: every ancestor exists and shares the trace.
    const obs::SpanRecord* at = &rec;
    while (at->parent_id != 0) {
      const auto parent = by_id.find(at->parent_id);
      ASSERT_NE(parent, by_id.end()) << rec.name << " has a dangling parent";
      EXPECT_EQ(parent->second->trace_id, rec.trace_id) << rec.name;
      at = parent->second;
    }
    EXPECT_EQ(at->name, "http.request");
  }
  EXPECT_EQ(checked_scan, static_cast<std::size_t>(kThreads * kPerThread / 2));
  EXPECT_GT(checked_decode, 0u);
}

// --- every JSON emitter -------------------------------------------------------

/// Every byte class the writer must handle: a quote, a backslash, a
/// control character and DEL.
const std::string kHostile = "q\"b\\s\x01" "d\x7f";

/// A federation source whose provenance strings carry kHostile.
class HostileFederation : public FederationSource {
 public:
  std::vector<Monitor> monitors() override {
    Monitor monitor;
    monitor.id = 3;
    monitor.vantage = kHostile;
    monitor.segments = 2;
    monitor.last_ship_wall_us = -1;
    return {monitor};
  }
  std::vector<SegmentSource> segment_sources() override {
    SegmentSource source;
    source.monitor_id = 3;
    source.vantage = kHostile;
    source.file = "seg-" + kHostile;
    source.min_time = -5;
    source.checksum = 0xdeadbeef;
    return {source};
  }
  std::string metrics_text() override { return {}; }
};

HttpRequest get_request(const std::string& path,
                        std::map<std::string, std::string> params = {}) {
  HttpRequest request;
  request.method = "GET";
  request.path = path;
  request.params = std::move(params);
  return request;
}

void expect_json(const std::string& what, const std::string& text) {
  EXPECT_FALSE(text.empty()) << what;
  EXPECT_TRUE(util::json::valid(text)) << what << ": " << text;
}

void expect_json_lines(const std::string& what, const std::string& text) {
  EXPECT_FALSE(text.empty()) << what;
  for (const auto& line : util::split(text, '\n')) {
    if (!line.empty()) expect_json(what, line);
  }
}

TEST(JsonOutput, EveryEmitterWritesWellFormedJson) {
  // The store directory's own name is hostile: /v1/segments echoes it.
  const std::string dir = fresh_dir("json_" + kHostile);
  const trace::Trace t = make_trace(600, 17);
  build_store(dir, t);
  QueryOptions options;
  options.tracing.enabled = true;
  options.tracing.sample_every = 1;
  auto service = QueryService::open(dir, options);
  ASSERT_NE(service, nullptr);

  const auto expect_endpoint = [](QueryService& svc, const HttpRequest& req,
                                  int status) {
    const HttpResponse response = svc.handle(req);
    EXPECT_EQ(response.status, status) << req.path;
    if (response.content_type == "application/x-ndjson") {
      expect_json_lines(req.path, response.body);
    } else {
      expect_json(req.path, response.body);
    }
  };
  const std::string peer = peer_n(1).to_base58();
  expect_endpoint(*service, get_request("/healthz"), 200);
  expect_endpoint(*service, get_request("/v1/stats"), 200);
  expect_endpoint(*service, get_request("/v1/stats", {{"force", "scan"}}), 200);
  expect_endpoint(*service, get_request("/v1/popularity", {{"k", "3"}}), 200);
  expect_endpoint(*service, get_request("/v1/peers/" + peer + "/wants"), 200);
  expect_endpoint(*service, get_request("/v1/segments"), 200);
  expect_endpoint(*service, get_request("/v1/monitors"), 404);
  // Error bodies, one with a hostile path that also lands in a span attr.
  expect_endpoint(*service, get_request("/nope/" + kHostile), 404);
  expect_endpoint(*service, get_request("/v1/stats", {{"min_t", "x"}}), 400);
  HttpRequest post = get_request("/v1/stats");
  post.method = "POST";
  expect_endpoint(*service, post, 405);
  expect_endpoint(*service, get_request("/debug/spans"), 200);
  expect_endpoint(*service, get_request("/debug/spans", {{"format", "jsonl"}}),
                  200);
  expect_endpoint(*service,
                  get_request("/debug/spans", {{"format", "perfetto"}}), 200);

  HostileFederation federation;
  service->attach_federation(&federation);
  expect_endpoint(*service, get_request("/v1/segments"), 200);
  expect_endpoint(*service, get_request("/v1/monitors"), 200);
  service->attach_federation(nullptr);

  // An ingested store: STOREMETA adds wall-clock fields and vantage names.
  tracestore::StoreMeta meta;
  meta.wall_epoch_ns = 1650000000ll * 1000000000ll;
  meta.source = "capture-" + kHostile + ".ndjson";
  meta.format = "ndjson";
  meta.monitors = {{kHostile, 0}, {"us", 1}};
  ASSERT_TRUE(tracestore::write_store_meta(dir, meta));
  auto ingested = QueryService::open(dir);
  ASSERT_NE(ingested, nullptr);
  ASSERT_TRUE(ingested->store().meta().has_value());
  expect_endpoint(*ingested, get_request("/healthz"), 200);
  expect_endpoint(*ingested, get_request("/v1/stats"), 200);
  expect_endpoint(*ingested, get_request("/v1/monitors"), 200);

  // Span exporters on records carrying hostile names and attributes.
  obs::SpanRecord root;
  root.trace_id = 7;
  root.span_id = 1;
  root.name = "root " + kHostile;
  root.start_sim = 1000;
  root.end_sim = 5000;
  root.attrs = {{"file", kHostile}, {kHostile, "v"}};
  obs::SpanRecord child = root;
  child.span_id = 2;
  child.parent_id = 1;
  child.seq = 1;
  const std::vector<obs::SpanRecord> spans = {root, child};
  expect_json("perfetto sim", obs::to_perfetto_json(spans, true));
  expect_json("perfetto wall", obs::to_perfetto_json(spans, false));
  expect_json_lines("spans jsonl", obs::to_spans_jsonl(spans));

  // A metrics sidecar line, with a hostile label and a NaN gauge.
  sim::Scheduler scheduler;
  obs::MetricsRegistry registry;
  registry.counter("ipfsmon_test_total", "", "vantage=\"" + kHostile + "\"")
      .inc();
  registry.gauge("ipfsmon_test_nan").set(std::nan(""));
  registry.histogram("ipfsmon_test_seconds", {1.0}).observe(0.5);
  obs::Collector collector(scheduler, registry);
  collector.collect_now();
  expect_json("metrics jsonl",
              obs::to_jsonl_line(registry, collector.samples().front()));

  // A capture line; the reader gives the hostile vantage back verbatim.
  ingest::CaptureRecord record;
  record.wall_ns = meta.wall_epoch_ns;
  record.peer = peer_n(2);
  record.cid = cid_n(2);
  record.vantage = kHostile;
  const std::string line = ingest::format_ndjson_record(record);
  expect_json("ndjson record", line);
  std::vector<util::json::Field> fields;
  ASSERT_TRUE(util::json::scan_object(line, &fields));
  EXPECT_EQ(fields.back().value, kHostile);

  // The BENCH envelope, written where a bench writes it: the working
  // directory. A path that cannot be opened fails the write loudly.
  util::TempDir scratch("ipfsmon-json");
  ASSERT_FALSE(scratch.path().empty());
  const auto cwd = std::filesystem::current_path();
  std::filesystem::current_path(scratch.path());
  struct Row {
    std::string name;
    double rate = 0;
  };
  const std::vector<Row> rows = {{kHostile, 1.5}, {"nan", std::nan("")}};
  const auto summary = [](util::json::Writer& json) {
    json.key("label").string(kHostile).key("pass").boolean(true);
  };
  const auto row = [](util::json::Writer& json, const Row& r) {
    json.key("name").string(r.name).key("rate").fixed(r.rate, 2);
  };
  const bool written =
      bench::write_bench_artifact("json_test", rows, summary, row);
  std::ifstream in("BENCH_json_test.json");
  const std::string envelope((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  std::filesystem::create_directory("BENCH_blocked.json");
  const bool blocked =
      bench::write_bench_artifact("blocked", rows, summary, row);
  std::filesystem::current_path(cwd);
  EXPECT_TRUE(written);
  EXPECT_FALSE(blocked);
  expect_json("bench envelope", envelope);
  ASSERT_TRUE(util::json::scan_object(envelope, &fields));
  ASSERT_EQ(fields.size(), 2u);  // summary and rows are nested
  EXPECT_EQ(fields[0].key, "bench");
  EXPECT_EQ(fields[0].value, "json_test");
  EXPECT_EQ(fields[1].key, "cores");
}

// --- trace_report exit codes ----------------------------------------------

#ifdef IPFSMON_TRACE_REPORT_BIN
int run_trace_report(const std::string& argument) {
  const std::string command = std::string(IPFSMON_TRACE_REPORT_BIN) + " '" +
                              argument + "' >/dev/null 2>&1";
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(TraceReport, ExitsTwoForMissingInput) {
  EXPECT_EQ(run_trace_report(::testing::TempDir() + "/query_no_such_file.bin"),
            2);
}

TEST(TraceReport, ExitsThreeForCorruptInput) {
  const std::string path = ::testing::TempDir() + "/query_corrupt_trace.bin";
  std::ofstream out(path, std::ios::binary);
  out << "this is not any trace format at all, not even close";
  out.close();
  EXPECT_EQ(run_trace_report(path), 3);
}

/// `text` with every "<prefix>XXXXXX" (a mkdtemp name) cut to "<prefix>".
std::string strip_scratch_names(std::string text, const std::string& prefix) {
  for (std::size_t at = text.find(prefix); at != std::string::npos;
       at = text.find(prefix, at + prefix.size())) {
    text.erase(at + prefix.size(), 6);
  }
  return text;
}

TEST(TraceReport, ConcurrentRunsKeepTheirOwnScratchStores) {
  // Two runs at once over one store, with TMPDIR pointing at a fresh
  // directory: each unifies into its own scratch store, neither wipes the
  // other's, and both leave TMPDIR as they found it.
  const std::string root = fresh_dir("trace_report_concurrent");
  const std::string store = root + "/store";
  const std::string tmpdir = root + "/tmp";
  build_store(store, make_trace(400, 43));
  std::filesystem::create_directories(tmpdir);
  std::string command;
  for (const char* run : {"a", "b"}) {
    const std::string out = root + "/" + run;
    command += "(TMPDIR='" + tmpdir + "' " IPFSMON_TRACE_REPORT_BIN " '" +
               store + "' >'" + out + ".out' 2>/dev/null; echo $? >'" + out +
               ".status') & ";
  }
  command += "wait";
  ASSERT_EQ(std::system(command.c_str()), 0);

  std::string out[2];
  for (int i = 0; i < 2; ++i) {
    const std::string base = root + "/" + (i == 0 ? "a" : "b");
    std::string status;
    ASSERT_TRUE(util::read_file(base + ".status", &status));
    EXPECT_EQ(status, "0\n");
    ASSERT_TRUE(util::read_file(base + ".out", &out[i]));
    out[i] = strip_scratch_names(out[i], tmpdir + "/ipfsmon_trace_report-");
  }
  EXPECT_NE(out[0].find("unified out-of-core into " + tmpdir),
            std::string::npos);
  EXPECT_EQ(out[0], out[1]);
  EXPECT_TRUE(std::filesystem::is_empty(tmpdir));
}
#endif  // IPFSMON_TRACE_REPORT_BIN

}  // namespace
}  // namespace ipfsmon::query
