// The query engine behind ipfsmon-queryd: routes HTTP requests over a
// tracestore::TraceStore and answers them rollup-first.
//
//  * GET /healthz                     liveness + store summary
//  * GET /metrics                     Prometheus text (obs registry; the
//                                     server/cache counters are mirrored in,
//                                     so sim, scan, and serving metrics share
//                                     one endpoint)
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
// Thread-safety: handle() may be called from many connection threads, but
// the obs::MetricsRegistry is deliberately lock-free single-threaded code,
// so the whole service serializes on one mutex. Queries over a finished store
// are short; the daemon's concurrency lives in the socket layer.
#pragma once

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
  /// Store open options; `store.obs` is ignored — the service wires its
  /// own obs context in so scans and serving share one registry.
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
/// on the federation layer. All methods are called under the service mutex
/// and must be safe against concurrent coordinator activity.
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
  /// Prometheus text appended to /metrics (the coordinator owns its own
  /// registry — obs registries are single-threaded by design).
  virtual std::string metrics_text() = 0;
};

class QueryService {
 public:
  /// Opens the store in `dir` and loads every rollup sidecar. Returns
  /// nullptr when the store itself is unusable.
  static std::unique_ptr<QueryService> open(const std::string& dir,
                                            QueryOptions options = {},
                                            std::string* error = nullptr);

  /// Routes one request; safe to call from concurrent connection threads.
  HttpResponse handle(const HttpRequest& request);

  /// Re-opens the store (picks up new/pruned segments). The manifest
  /// fingerprint changes with the segment set, invalidating cached results.
  bool reload(std::string* error = nullptr);

  /// Rollup-first range stats; `source` reports the serving path taken.
  RangeStats stats_between(util::SimTime min_t, util::SimTime max_t,
                           StatsSource* source = nullptr);

  /// Ground truth: the same range answered by a full entry-level scan.
  RangeStats stats_by_scan(util::SimTime min_t, util::SimTime max_t);

  /// Mirror `server`'s counters into the obs registry at /metrics render
  /// time (optional; the daemon wires this after start()).
  void attach_server(const HttpServer* server);

  /// Serve in federated mode: enables /v1/monitors, provenance sources on
  /// /v1/segments, and appends the coordinator's metrics to /metrics.
  /// `source` must outlive the service.
  void attach_federation(FederationSource* source);

  const tracestore::TraceStore& store() const { return *store_; }
  obs::Obs& obs() { return obs_; }
  LruCache& cache() { return cache_; }
  /// FNV-1a over the manifest's segment identities (file, count, range,
  /// checksum) — the cache-key prefix.
  std::uint64_t fingerprint() const { return fingerprint_; }
  /// Segments whose rollup sidecar loaded and validated.
  std::size_t rollups_loaded() const;

 private:
  QueryService(QueryOptions options);

  bool open_store(const std::string& dir, std::string* error);
  std::size_t rollups_loaded_locked() const;
  RangeStats stats_between_locked(util::SimTime min_t, util::SimTime max_t,
                                  StatsSource* source);
  RangeStats stats_by_scan_locked(util::SimTime min_t, util::SimTime max_t);

  HttpResponse route(const HttpRequest& request);
  HttpResponse handle_healthz();
  HttpResponse handle_metrics();
  HttpResponse handle_stats(const HttpRequest& request);
  HttpResponse handle_popularity(const HttpRequest& request);
  HttpResponse handle_peer_wants(const HttpRequest& request,
                                 const std::string& peer_text);
  HttpResponse handle_segments();
  HttpResponse handle_monitors();
  HttpResponse handle_debug_spans(const HttpRequest& request);

  /// Runs a scan under a "query.scan" span; when the current request is
  /// sampled, collects a ScanProfile and emits scan.prune / scan.segment
  /// child spans with decode/match sub-timings.
  tracestore::ScanStats run_scan(
      const tracestore::ScanQuery& query,
      const std::function<void(const trace::TraceEntry&)>& visit);

  /// Serves from cache or renders via `render` and caches the result.
  HttpResponse cached(const HttpRequest& request,
                      const std::function<CachedResponse()>& render);

  QueryOptions options_;
  obs::Obs obs_;
  mutable std::mutex mu_;  // guards store_, rollups_, obs_, mirror state
  std::string dir_;
  std::optional<tracestore::TraceStore> store_;
  std::vector<std::optional<tracestore::SegmentRollup>> rollups_;
  LruCache cache_;
  std::uint64_t fingerprint_ = 0;

  const HttpServer* server_ = nullptr;  // counters mirrored at /metrics
  FederationSource* federation_ = nullptr;  // federated mode when set
  ServerCounters mirrored_;             // last values pushed into obs_
  std::uint64_t mirrored_cache_hits_ = 0;
  std::uint64_t mirrored_cache_misses_ = 0;
};

}  // namespace ipfsmon::query
