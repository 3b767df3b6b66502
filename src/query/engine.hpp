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
// Thread-safety: handle() runs requests concurrently. Each request copies
// one pointer to an immutable snapshot of the served store (store, rollups,
// fingerprint, directory) and renders from it with no lock held; reload()
// builds a new snapshot and swaps the pointer, while in-flight requests
// keep the old one alive. One mutex remains, held only for short critical
// sections: it guards the single-threaded obs::MetricsRegistry, the
// /metrics mirror state and the snapshot pointer. Span contexts are passed
// down each request's call chain explicitly, never through the tracer's
// implicit current().
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
  /// Store open options; `store.obs` is ignored — the served store is
  /// opened without an obs sink and the service counts its scans into its
  /// own registry, so scans and serving share one /metrics page.
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
  /// Requests already running finish on the store they started with.
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

  /// The served store; the reference stays valid until the next reload().
  const tracestore::TraceStore& store() const { return snapshot()->store; }
  /// The tracer is thread-safe; the metrics registry is guarded by the
  /// service, so read obs().metrics only while no request is in flight.
  obs::Obs& obs() { return obs_; }
  LruCache& cache() { return cache_; }
  /// FNV-1a over the manifest's segment identities (file, count, range,
  /// checksum) — the cache-key prefix.
  std::uint64_t fingerprint() const { return snapshot()->fingerprint; }
  /// Segments whose rollup sidecar loaded and validated.
  std::size_t rollups_loaded() const { return snapshot()->rollups_loaded; }

 private:
  /// The served store as one immutable unit. Requests share it through a
  /// shared_ptr<const Snapshot>; reload() replaces it, never mutates it.
  struct Snapshot {
    Snapshot(std::string dir_in, tracestore::TraceStore store_in)
        : dir(std::move(dir_in)), store(std::move(store_in)) {}

    std::string dir;
    tracestore::TraceStore store;
    std::vector<std::optional<tracestore::SegmentRollup>> rollups;
    std::uint64_t fingerprint = 0;
    std::size_t rollups_loaded = 0;
    /// Segments TraceStore::open skipped as unreadable.
    std::size_t segments_skipped = 0;
  };
  using SnapshotPtr = std::shared_ptr<const Snapshot>;

  /// What one request renders from, copied under mu_ when it starts.
  struct View {
    SnapshotPtr snapshot;
    FederationSource* federation = nullptr;
  };

  QueryService(QueryOptions options);

  /// Opens `dir` and loads its rollups and fingerprint; takes no lock.
  static SnapshotPtr load(const std::string& dir,
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

  /// Runs a scan under a "query.scan" span child of `parent` and adds its
  /// stats to the registry; when `parent` is sampled, collects a
  /// ScanProfile and emits scan.prune / scan.segment child spans with
  /// decode/match sub-timings.
  tracestore::ScanStats run_scan(
      const Snapshot& snap, const obs::SpanContext& parent,
      const tracestore::ScanQuery& query,
      const std::function<void(const trace::TraceEntry&)>& visit);

  /// Serves from cache or renders via `render` (handed the query.render
  /// span's context) and caches the result.
  HttpResponse cached(
      const HttpRequest& request, const Snapshot& snap,
      const obs::SpanContext& span,
      const std::function<CachedResponse(const obs::SpanContext&)>& render);

  QueryOptions options_;
  obs::Obs obs_;
  LruCache cache_;
  // Guards snapshot_, the obs_ registry, server_, federation_ and the
  // mirror state. Held for short sections only, never across a render.
  mutable std::mutex mu_;
  SnapshotPtr snapshot_;

  const HttpServer* server_ = nullptr;  // counters mirrored at /metrics
  FederationSource* federation_ = nullptr;  // federated mode when set
  ServerCounters mirrored_;             // last values pushed into obs_
  std::uint64_t mirrored_cache_hits_ = 0;
  std::uint64_t mirrored_cache_misses_ = 0;
};

}  // namespace ipfsmon::query
