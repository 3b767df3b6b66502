// The query engine behind ipfsmon-queryd: routes HTTP requests over a
// tracestore::TraceStore and answers them rollup-first.
//
//  * GET /healthz                     liveness + store summary
//  * GET /metrics                     Prometheus text: the service's obs
//                                     registry (scan, cache and request
//                                     counters), then the attached server's
//                                     and coordinator's counters
//  * GET /v1/stats                    request-type/flag counts in a range
//  * GET /v1/popularity               top-K CIDs by RRP/URP + summary
//  * GET /v1/peers/<base58>/wants     one peer's want history (Bloom-pruned)
//  * GET /v1/segments                 per-segment metadata incl. rollup
//                                     distinct counts
//  * GET /debug/spans                 recent + slowest request traces
//                                     (?format=perfetto|jsonl for export);
//                                     uncached, empty unless tracing is on
//
// Serving strategy for /v1/stats: segments fully inside the requested range
// are answered from their rollup sidecar totals; partially covered segments
// sum their fully-covered minute buckets and decode entries only inside the
// boundary buckets; segments without a (valid) sidecar fall back to a full
// decode. The result is byte-identical to an entry-level scan — provenance
// is reported in the X-Source response header, never in the body.
//
// Results of the /v1/* endpoints are cached in an LRU keyed by
// (manifest fingerprint, canonical query), so reload() after the store
// changed invalidates every cached answer implicitly.
//
// Thread-safety: handle() runs requests concurrently. Each request copies
// one pointer to an immutable snapshot of the served store (store, rollups,
// fingerprint, the owner's keep-alive) and renders from it with no lock
// held; reload() builds a new snapshot and swaps the pointer, while
// in-flight requests keep the old one alive. The one mutex guards only
// that pointer. Metrics need no lock: obs instruments are thread-safe, the
// served store counts its own scans and skipped segments into the
// service's registry, and each count is made where its event happens
// (cache hits in cached(), requests in handle()). Span contexts are passed
// down each request's call chain explicitly, never through the tracer's
// implicit current().
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "query/cache.hpp"
#include "query/http.hpp"
#include "query/server.hpp"
#include "tracestore/rollup.hpp"
#include "tracestore/scan.hpp"
#include "tracestore/store.hpp"

namespace ipfsmon::query {

struct QueryOptions {
  /// Store open options; `store.obs` is replaced by the service's own obs,
  /// so the served store's scan counters and the serving metrics share one
  /// /metrics page.
  tracestore::StoreOptions store;
  /// Cached rendered responses (0 disables caching).
  std::size_t cache_capacity = 128;
  /// Span tracing for served requests (inert by default). When enabled,
  /// every sampled request produces an http.request trace with cache,
  /// rollup/scan, and per-segment child spans, served on /debug/spans.
  obs::TracerConfig tracing;
};

/// Request-type/flag counts over a time range — the /v1/stats payload.
/// Mirrors trace::TraceStats minus the distinct-peer/CID counts, which
/// cannot be combined across rollups exactly (they live in /v1/segments).
struct RangeStats {
  std::uint64_t total = 0;
  std::uint64_t want_have = 0;
  std::uint64_t want_block = 0;
  std::uint64_t cancels = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t rebroadcasts = 0;
  std::uint64_t clean = 0;

  bool operator==(const RangeStats&) const = default;
};

/// How an answer was produced (the X-Source header).
enum class StatsSource { kRollup, kMixed, kScan };
std::string_view to_string(StatsSource source);

/// What a federation coordinator exposes to the engine. Implemented by
/// src/federation (FederatedService); declared here so query never depends
/// on the federation layer. Methods are called from concurrent request
/// threads, with no engine lock held, and must be safe against each other
/// and against concurrent coordinator activity.
class FederationSource {
 public:
  /// One vantage-point monitor's provenance row (/v1/monitors).
  struct Monitor {
    std::uint32_t id = 0;
    std::string vantage;
    std::uint64_t segments = 0;
    std::uint64_t entries = 0;
    std::uint64_t bytes = 0;
    std::int64_t last_ship_wall_us = 0;  // ship/ack watermark (unix µs)
    std::int64_t last_lag_us = 0;        // latest replication lag (µs)
  };
  /// One landed per-monitor segment — the /v1/segments "sources" rows
  /// tying unified data back to the vantage point that shipped it.
  struct SegmentSource {
    std::uint32_t monitor_id = 0;
    std::string vantage;
    std::string file;
    std::uint64_t entries = 0;
    util::SimTime min_time = 0;
    util::SimTime max_time = 0;
    std::uint64_t checksum = 0;
  };

  virtual ~FederationSource() = default;
  virtual std::vector<Monitor> monitors() = 0;
  virtual std::vector<SegmentSource> segment_sources() = 0;
  /// Prometheus text appended to /metrics (the coordinator's own
  /// registry).
  virtual std::string metrics_text() = 0;
};

class QueryService {
 public:
  /// Serves the store in `dir` (see reload() for `keep_alive`). Returns
  /// nullptr when the store itself is unusable.
  static std::unique_ptr<QueryService> open(
      const std::string& dir, QueryOptions options = {},
      std::string* error = nullptr,
      std::shared_ptr<const void> keep_alive = nullptr);

  /// Routes one request; safe to call from concurrent connection threads.
  HttpResponse handle(const HttpRequest& request);

  /// Serves the store in `dir` from now on. The manifest fingerprint
  /// changes with the segment set, invalidating cached results. Requests
  /// already running finish on the snapshot they started with, which holds
  /// `keep_alive` until the last of them ends.
  bool reload(const std::string& dir,
              std::shared_ptr<const void> keep_alive = nullptr,
              std::string* error = nullptr);

  /// Rollup-first range stats; `source` reports the serving path taken.
  RangeStats stats_between(util::SimTime min_t, util::SimTime max_t,
                           StatsSource* source = nullptr);

  /// Ground truth: the same range answered by a full entry-level scan.
  RangeStats stats_by_scan(util::SimTime min_t, util::SimTime max_t);

  /// Append `server`'s counters to /metrics (optional; the daemon wires
  /// this after start()). `server` must outlive every later /metrics
  /// request.
  void attach_server(const HttpServer* server);

  /// Serve in federated mode: enables /v1/monitors, provenance sources on
  /// /v1/segments, and appends the coordinator's metrics to /metrics.
  /// `source` must outlive the service.
  void attach_federation(FederationSource* source);

  /// The served store; the reference stays valid until the next reload().
  const tracestore::TraceStore& store() const { return snapshot()->store; }
  /// Metrics and tracer, both safe to read while requests are in flight.
  obs::Obs& obs() { return obs_; }
  /// FNV-1a over the manifest's segment identities (file, count, range,
  /// checksum) — the cache-key prefix.
  std::uint64_t fingerprint() const { return snapshot()->fingerprint; }
  /// Segments whose rollup sidecar loaded and validated.
  std::size_t rollups_loaded() const { return snapshot()->rollups_loaded; }

 private:
  /// The served store as one immutable unit. Requests share it through a
  /// shared_ptr<const Snapshot>; reload() replaces it, never mutates it.
  struct Snapshot {
    Snapshot(std::shared_ptr<const void> keep_alive_in,
             tracestore::TraceStore store_in)
        : keep_alive(std::move(keep_alive_in)), store(std::move(store_in)) {}

    std::shared_ptr<const void> keep_alive;  // released last
    tracestore::TraceStore store;
    std::vector<std::optional<tracestore::SegmentRollup>> rollups;
    std::uint64_t fingerprint = 0;
    std::size_t rollups_loaded = 0;
  };
  using SnapshotPtr = std::shared_ptr<const Snapshot>;

  /// What one request renders from, copied when it starts.
  struct View {
    SnapshotPtr snapshot;
    FederationSource* federation = nullptr;
  };

  QueryService(QueryOptions options);

  /// Opens `dir` and loads its rollups and fingerprint; takes no lock.
  static SnapshotPtr load(const std::string& dir,
                          std::shared_ptr<const void> keep_alive,
                          const tracestore::StoreOptions& options,
                          std::string* error);
  /// Publishes `next` as the served snapshot and updates its gauges.
  void install(SnapshotPtr next);
  SnapshotPtr snapshot() const;

  RangeStats rollup_stats(const Snapshot& snap, const obs::SpanContext& parent,
                          util::SimTime min_t, util::SimTime max_t,
                          StatsSource* source);
  RangeStats scan_stats(const Snapshot& snap, const obs::SpanContext& parent,
                        util::SimTime min_t, util::SimTime max_t);

  HttpResponse route(const HttpRequest& request, const View& view,
                     const obs::SpanContext& span);
  HttpResponse handle_healthz(const Snapshot& snap);
  HttpResponse handle_metrics(const View& view);
  HttpResponse handle_stats(const HttpRequest& request, const Snapshot& snap,
                            const obs::SpanContext& span);
  HttpResponse handle_popularity(const HttpRequest& request,
                                 const Snapshot& snap,
                                 const obs::SpanContext& span);
  HttpResponse handle_peer_wants(const HttpRequest& request,
                                 const std::string& peer_text,
                                 const Snapshot& snap,
                                 const obs::SpanContext& span);
  HttpResponse handle_segments(const View& view);
  HttpResponse handle_monitors(const View& view);
  HttpResponse handle_debug_spans(const HttpRequest& request);

  /// Runs a scan under a "query.scan" span child of `parent`; when
  /// `parent` is sampled, collects a ScanProfile and emits scan.prune /
  /// scan.segment child spans with decode/match sub-timings.
  tracestore::ScanStats run_scan(
      const Snapshot& snap, const obs::SpanContext& parent,
      const tracestore::ScanQuery& query,
      const std::function<void(const trace::TraceEntry&)>& visit);

  /// Serves from cache or renders via `render` (handed the query.render
  /// span's context) and caches the result; counts the hit or miss.
  HttpResponse cached(
      const HttpRequest& request, const Snapshot& snap,
      const obs::SpanContext& span,
      const std::function<CachedResponse(const obs::SpanContext&)>& render);

  QueryOptions options_;
  obs::Obs obs_;
  LruCache cache_;
  // Resolved once; obs instruments are safe to bump from any thread.
  obs::Counter& http_requests_;
  obs::Counter& cache_hits_;
  obs::Counter& cache_misses_;
  obs::Counter& rollup_segments_;
  obs::Counter& decoded_segments_;
  std::vector<obs::Histogram*> latency_;  // per endpoint label

  mutable std::mutex mu_;  // guards snapshot_ only
  SnapshotPtr snapshot_;

  std::atomic<const HttpServer*> server_{nullptr};  // appended at /metrics
  std::atomic<FederationSource*> federation_{nullptr};  // federated mode
};

}  // namespace ipfsmon::query
