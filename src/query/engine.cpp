#include "query/engine.hpp"

#include <algorithm>
#include <array>

#include "analysis/popularity.hpp"
#include "obs/exporters.hpp"
#include "obs/span_export.hpp"
#include "util/codec.hpp"
#include "util/file.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace ipfsmon::query {

namespace {

/// Default trace count for the /debug/spans recent and slowest lists.
constexpr std::uint64_t kDebugSpanLimit = 20;

/// Counts one entry — given as its type and flags, the only fields the
/// stats read, so decoded RawRecords never materialize keys.
void add_entry(RangeStats* out, bitswap::WantType type, std::uint32_t flags) {
  ++out->total;
  switch (type) {
    case bitswap::WantType::WantHave: ++out->want_have; break;
    case bitswap::WantType::WantBlock: ++out->want_block; break;
    case bitswap::WantType::Cancel: ++out->cancels; break;
  }
  if ((flags & trace::kInterMonitorDuplicate) != 0) ++out->duplicates;
  if ((flags & trace::kRebroadcast) != 0) ++out->rebroadcasts;
  if (flags == 0) ++out->clean;
}

void add_bucket(RangeStats* out, const tracestore::RollupBucket& bucket) {
  out->total += bucket.entries();
  out->want_have += bucket.want_have;
  out->want_block += bucket.want_block;
  out->cancels += bucket.cancels;
  out->duplicates += bucket.duplicates;
  out->rebroadcasts += bucket.rebroadcasts;
  out->clean += bucket.clean;
}

/// Reads an optional int64 query param; false only on a malformed value.
bool read_time_param(const HttpRequest& request, const char* name,
                     util::SimTime* inout) {
  const auto it = request.params.find(name);
  if (it == request.params.end()) return true;
  const auto value = util::parse_i64(it->second);
  if (!value) return false;
  *inout = *value;
  return true;
}

/// Wall-clock fields for stores ingested from real captures (STOREMETA
/// present): the epoch anchoring SimTime 0 plus the queried range rendered
/// as ISO 8601. None for simulated stores, so their JSON is unchanged.
void write_wall_fields(util::json::Writer& json,
                       const tracestore::TraceStore& store,
                       util::SimTime min_t, util::SimTime max_t) {
  if (!store.meta()) return;
  const util::WallNanos epoch = store.meta()->wall_epoch_ns;
  json.key("wall_epoch_ns").i64(epoch)
      .key("wall_min").string(util::format_wall_time(epoch + min_t))
      .key("wall_max").string(util::format_wall_time(epoch + max_t));
}

std::string render_stats_json(const tracestore::TraceStore& store,
                              const RangeStats& stats, util::SimTime min_t,
                              util::SimTime max_t) {
  std::string out;
  util::json::Writer json(out);
  json.begin_object()
      .key("min_time").i64(min_t)
      .key("max_time").i64(max_t)
      .key("total").u64(stats.total)
      .key("requests").u64(stats.want_have + stats.want_block)
      .key("want_have").u64(stats.want_have)
      .key("want_block").u64(stats.want_block)
      .key("cancels").u64(stats.cancels)
      .key("duplicates").u64(stats.duplicates)
      .key("rebroadcasts").u64(stats.rebroadcasts)
      .key("clean").u64(stats.clean);
  write_wall_fields(json, store, min_t, max_t);
  json.end_object();
  return out;
}

std::string_view json_want_type(bitswap::WantType type) {
  switch (type) {
    case bitswap::WantType::WantHave: return "want_have";
    case bitswap::WantType::WantBlock: return "want_block";
    case bitswap::WantType::Cancel: return "cancel";
  }
  return "unknown";
}

/// Endpoint labels of the per-endpoint latency histograms; "other" last.
constexpr std::array<std::string_view, 9> kEndpoints = {
    "/healthz",     "/metrics",     "/v1/stats",   "/v1/popularity",
    "/v1/segments", "/v1/monitors", "/debug/spans", "/v1/peers/*",
    "other"};

/// Collapses a request path onto kEndpoints (peer ids would explode the
/// cardinality) and returns the label's index.
std::size_t endpoint_index(std::string_view path) {
  if (path.starts_with("/v1/peers/")) path = "/v1/peers/*";
  return static_cast<std::size_t>(
      std::find(kEndpoints.begin(), kEndpoints.end() - 1, path) -
      kEndpoints.begin());
}

}  // namespace

std::string_view to_string(StatsSource source) {
  switch (source) {
    case StatsSource::kRollup: return "rollup";
    case StatsSource::kMixed: return "mixed";
    case StatsSource::kScan: return "scan";
  }
  return "unknown";
}

QueryService::QueryService(QueryOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_capacity),
      http_requests_(obs_.metrics.counter("ipfsmon_query_http_requests_total",
                                          "HTTP requests routed")),
      cache_hits_(obs_.metrics.counter("ipfsmon_query_cache_hits_total",
                                       "result cache hits")),
      cache_misses_(obs_.metrics.counter("ipfsmon_query_cache_misses_total",
                                         "result cache misses")),
      rollup_segments_(obs_.metrics.counter(
          "ipfsmon_query_stats_rollup_segments_total",
          "segments answered from rollup sidecars")),
      decoded_segments_(obs_.metrics.counter(
          "ipfsmon_query_stats_decoded_segments_total",
          "segments needing entry decode (boundary buckets or missing "
          "rollup)")) {
  options_.store.obs = &obs_;
  obs_.tracer.configure(options_.tracing);
  const std::vector<double> bounds = obs::exponential_buckets(25.0, 2.0, 14);
  for (const std::string_view endpoint : kEndpoints) {
    latency_.push_back(&obs_.metrics.histogram(
        "ipfsmon_query_http_duration_micros", bounds,
        "request handling latency in microseconds, per endpoint",
        "endpoint=\"" + std::string(endpoint) + "\""));
  }
}

std::unique_ptr<QueryService> QueryService::open(
    const std::string& dir, QueryOptions options, std::string* error,
    std::shared_ptr<const void> keep_alive) {
  std::unique_ptr<QueryService> service(new QueryService(std::move(options)));
  SnapshotPtr snapshot =
      load(dir, std::move(keep_alive), service->options_.store, error);
  if (snapshot == nullptr) return nullptr;
  service->install(std::move(snapshot));
  return service;
}

QueryService::SnapshotPtr QueryService::load(
    const std::string& dir, std::shared_ptr<const void> keep_alive,
    const tracestore::StoreOptions& options, std::string* error) {
  auto store = tracestore::TraceStore::open(dir, options, error);
  if (!store) return nullptr;
  auto snap = std::make_shared<Snapshot>(std::move(keep_alive),
                                         std::move(*store));
  const tracestore::TraceStore& served = snap->store;

  snap->rollups.resize(served.segments().size());
  std::uint64_t fp = util::fnv1a64("ipfsmon-query-v1", util::kFnv1aOffset);
  for (std::size_t i = 0; i < served.segments().size(); ++i) {
    const auto& segment = served.segments()[i];
    fp = util::fnv1a64(segment.file, fp);
    for (const std::uint64_t field :
         {segment.footer.entry_count,
          static_cast<std::uint64_t>(segment.footer.min_time),
          static_cast<std::uint64_t>(segment.footer.max_time),
          segment.footer.body_checksum}) {
      std::uint8_t bytes[8];
      util::store_le(bytes, field);
      fp = util::fnv1a64(util::BytesView(bytes, 8), fp);
    }

    auto rollup = tracestore::read_rollup_file(
        tracestore::rollup_path_for(served.segment_path(i)));
    // A sidecar disagreeing with its segment's footer is as good as absent.
    if (rollup && rollup->entry_count != segment.footer.entry_count) {
      served.warn("rollup sidecar mismatch for " + segment.file);
    } else if (rollup) {
      snap->rollups[i].emplace(std::move(*rollup));
      ++snap->rollups_loaded;
    }
  }
  snap->fingerprint = fp;
  return snap;
}

void QueryService::install(SnapshotPtr next) {
  std::lock_guard<std::mutex> lock(mu_);
  obs_.metrics
      .gauge("ipfsmon_query_store_segments", "segments in the served store")
      .set(static_cast<double>(next->store.segments().size()));
  obs_.metrics
      .gauge("ipfsmon_query_store_rollups", "segments with a valid rollup")
      .set(static_cast<double>(next->rollups_loaded));
  snapshot_ = std::move(next);
}

QueryService::SnapshotPtr QueryService::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_;
}

bool QueryService::reload(const std::string& dir,
                          std::shared_ptr<const void> keep_alive,
                          std::string* error) {
  obs_.metrics.counter("ipfsmon_query_reloads_total", "store reloads served")
      .inc();
  // The expensive part — manifest, footers, rollups — runs unlocked, so
  // requests keep being served from the current snapshot meanwhile.
  SnapshotPtr next = load(dir, std::move(keep_alive), options_.store, error);
  if (next == nullptr) return false;
  install(std::move(next));
  return true;
}

void QueryService::attach_server(const HttpServer* server) {
  server_.store(server);
}

void QueryService::attach_federation(FederationSource* source) {
  federation_.store(source);
}

RangeStats QueryService::stats_between(util::SimTime min_t, util::SimTime max_t,
                                       StatsSource* source) {
  return rollup_stats(*snapshot(), {}, min_t, max_t, source);
}

RangeStats QueryService::stats_by_scan(util::SimTime min_t,
                                       util::SimTime max_t) {
  return scan_stats(*snapshot(), {}, min_t, max_t);
}

RangeStats QueryService::scan_stats(const Snapshot& snap,
                                    const obs::SpanContext& parent,
                                    util::SimTime min_t, util::SimTime max_t) {
  RangeStats out;
  tracestore::ScanQuery scan_query;
  scan_query.min_time = min_t;
  scan_query.max_time = max_t;
  run_scan(snap, parent, scan_query, [&out](const trace::TraceEntry& entry) {
    add_entry(&out, entry.type, entry.flags);
  });
  return out;
}

tracestore::ScanStats QueryService::run_scan(
    const Snapshot& snap, const obs::SpanContext& parent,
    const tracestore::ScanQuery& query,
    const std::function<void(const trace::TraceEntry&)>& visit) {
  obs::Span span = obs_.tracer.start_span("query.scan", parent);
  tracestore::ScanProfile profile;
  const bool profiled = span.active();
  const tracestore::ScanStats stats =
      tracestore::scan(snap.store, query, visit, profiled ? &profile : nullptr);
  if (profiled) {
    span.set_attr("segments_total",
                  static_cast<std::uint64_t>(stats.segments_total));
    span.set_attr("segments_scanned",
                  static_cast<std::uint64_t>(stats.segments_scanned));
    span.set_attr("pruned_time",
                  static_cast<std::uint64_t>(stats.segments_pruned_time));
    span.set_attr("pruned_bloom",
                  static_cast<std::uint64_t>(stats.segments_pruned_bloom));
    span.set_attr("entries_matched", stats.entries_matched);
    obs_.tracer.add_span(
        "scan.prune", span.context(), 0, 0,
        {{"segments", std::to_string(stats.segments_total)},
         {"pruned", std::to_string(stats.segments_pruned_time +
                                   stats.segments_pruned_bloom)}},
        profile.prune_start_us, profile.prune_end_us);
    for (const auto& seg : profile.segments) {
      obs_.tracer.add_span(
          "scan.segment", span.context(), 0, 0,
          {{"file", seg.file},
           {"decode_us", std::to_string(seg.decode_us)},
           {"match_us", std::to_string(seg.match_us)},
           {"entries", std::to_string(seg.entries)},
           {"matched", std::to_string(seg.matched)}},
          seg.start_us, seg.end_us);
    }
  }
  return stats;
}

RangeStats QueryService::rollup_stats(const Snapshot& snap,
                                      const obs::SpanContext& parent,
                                      util::SimTime min_t, util::SimTime max_t,
                                      StatsSource* source) {
  RangeStats out;
  const tracestore::TraceStore& store = snap.store;
  std::uint64_t rollup_segments = 0;
  std::uint64_t decoded_segments = 0;

  // Counts entries of segment `index` whose timestamps fall in any of
  // `windows` (inclusive bounds) — the boundary-bucket / no-rollup path.
  // Only timestamp, type and flags are read, so records stay raw.
  auto decode_windows =
      [&](std::size_t index,
          const std::vector<std::pair<util::SimTime, util::SimTime>>&
              windows) {
        obs::Span dspan = obs_.tracer.start_span("segment.decode", parent);
        if (dspan.active()) {
          dspan.set_attr("file", store.segments()[index].file);
          dspan.set_attr("windows",
                         static_cast<std::uint64_t>(windows.size()));
        }
        std::string error;
        auto reader = tracestore::SegmentReader::open(
            store.segment_path(index), &error, store.validation_cache());
        if (!reader) {
          // Mirror tracestore::scan: a corrupt segment is skipped, loudly,
          // with the reader's reason.
          store.skip_segment("skipping unreadable segment " +
                             store.segments()[index].file + ": " + error);
          return;
        }
        tracestore::RawRecord raw;
        while (reader->next_raw(raw)) {
          for (const auto& [lo, hi] : windows) {
            if (raw.timestamp >= lo && raw.timestamp <= hi) {
              add_entry(&out, raw.type, raw.flags);
              break;
            }
          }
        }
        ++decoded_segments;
      };

  for (std::size_t i = 0; i < store.segments().size(); ++i) {
    const auto& footer = store.segments()[i].footer;
    if (!footer.overlaps(min_t, max_t)) continue;
    const auto& rollup = snap.rollups[i];
    if (!rollup) {
      decode_windows(i, {{min_t, max_t}});
      continue;
    }
    if (footer.min_time >= min_t && footer.max_time <= max_t) {
      // Whole segment inside the range: rollup totals are exact.
      for (const auto& bucket : rollup->buckets) add_bucket(&out, bucket);
      ++rollup_segments;
      continue;
    }
    // Partial overlap: fully-covered buckets come from the rollup; only the
    // boundary buckets (the ones the range cuts through) need entries.
    std::vector<std::pair<util::SimTime, util::SimTime>> windows;
    bool bucket_from_rollup = false;
    for (const auto& bucket : rollup->buckets) {
      const util::SimTime lo = bucket.start;
      const util::SimTime hi = bucket.start + rollup->bucket_width - 1;
      if (hi < min_t || lo > max_t) continue;
      if (lo >= min_t && hi <= max_t) {
        add_bucket(&out, bucket);
        bucket_from_rollup = true;
      } else {
        windows.emplace_back(std::max(lo, min_t), std::min(hi, max_t));
      }
    }
    if (bucket_from_rollup) ++rollup_segments;
    if (!windows.empty()) decode_windows(i, windows);
  }

  rollup_segments_.inc(rollup_segments);
  decoded_segments_.inc(decoded_segments);
  if (source != nullptr) {
    *source = decoded_segments > 0
                  ? (rollup_segments > 0 ? StatsSource::kMixed
                                         : StatsSource::kScan)
                  : StatsSource::kRollup;
  }
  return out;
}

HttpResponse QueryService::handle(const HttpRequest& request) {
  http_requests_.inc();
  const View view{snapshot(), federation_.load()};
  const std::int64_t started_us = obs::wall_micros_now();
  // Root of the request's trace; cache/scan/segment spans parent here
  // through the context handed down the call chain.
  obs::Span span = obs_.tracer.start_trace("http.request");
  HttpResponse response;
  if (request.method != "GET" && request.method != "HEAD") {
    response = error_response(405, "only GET is supported");
  } else {
    if (span.active()) {
      span.set_attr("method", request.method);
      span.set_attr("path", request.path);
      if (request.accepted_us > 0 && request.parsed_us >= request.accepted_us) {
        // Accept→parse happened in the socket layer, before this span
        // existed; attach it retroactively with the measured timestamps.
        obs_.tracer.add_span("http.ingest", span.context(), 0, 0, {},
                             request.accepted_us, request.parsed_us);
      }
    }
    response = route(request, view, span.context());
  }
  const std::int64_t duration_us = obs::wall_micros_now() - started_us;
  const std::size_t endpoint = endpoint_index(request.path);
  latency_[endpoint]->observe(static_cast<double>(duration_us));
  response.headers.emplace_back("X-Duration-Micros",
                                std::to_string(duration_us));
  if (span.active()) {
    span.set_attr("endpoint", std::string(kEndpoints[endpoint]));
    span.set_attr("status", static_cast<std::uint64_t>(response.status));
  }
  return response;
}

HttpResponse QueryService::route(const HttpRequest& request, const View& view,
                                 const obs::SpanContext& span) {
  const std::string& path = request.path;
  const Snapshot& snap = *view.snapshot;
  if (path == "/healthz") return handle_healthz(snap);
  if (path == "/metrics") return handle_metrics(view);
  if (path == "/v1/stats") return handle_stats(request, snap, span);
  if (path == "/v1/popularity") return handle_popularity(request, snap, span);
  if (path == "/v1/segments") return handle_segments(view);
  if (path == "/v1/monitors") return handle_monitors(view);
  if (path == "/debug/spans") return handle_debug_spans(request);
  const std::string_view prefix = "/v1/peers/";
  const std::string_view suffix = "/wants";
  if (path.size() > prefix.size() + suffix.size() &&
      path.compare(0, prefix.size(), prefix) == 0 &&
      path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0) {
    return handle_peer_wants(
        request,
        path.substr(prefix.size(),
                    path.size() - prefix.size() - suffix.size()),
        snap, span);
  }
  return error_response(404, "no such endpoint");
}

HttpResponse QueryService::handle_healthz(const Snapshot& snap) {
  const tracestore::TraceStore& store = snap.store;
  HttpResponse response;
  util::json::Writer json(response.body);
  json.begin_object()
      .key("status").string("ok")
      .key("segments").u64(store.segments().size())
      .key("entries").u64(store.total_entries())
      .key("rollups").u64(snap.rollups_loaded)
      .key("warnings").u64(store.warnings().size());
  if (store.meta()) {
    json.key("wall_epoch")
        .string(util::format_wall_time(store.meta()->wall_epoch_ns))
        .key("capture").string(store.meta()->source);
  }
  json.end_object();
  return response;
}

HttpResponse QueryService::handle_metrics(const View& view) {
  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4";
  // One Prometheus page: serving + scanning + any sim metrics recorded into
  // this registry, then the socket layer's and the coordinator's own.
  response.body = obs::to_prometheus(obs_.metrics);
  if (const HttpServer* server = server_.load(); server != nullptr) {
    response.body += server->metrics_text();
  }
  if (view.federation != nullptr) {
    response.body += view.federation->metrics_text();
  }
  return response;
}

HttpResponse QueryService::cached(
    const HttpRequest& request, const Snapshot& snap,
    const obs::SpanContext& span,
    const std::function<CachedResponse(const obs::SpanContext&)>& render) {
  // Canonical key: store fingerprint + decoded path + the (already sorted)
  // param map. A reload changes the fingerprint, so stale entries are
  // simply never asked for again and age out of the LRU.
  std::string key = util::format(
      "%016llx|", static_cast<unsigned long long>(snap.fingerprint));
  key += request.path;
  for (const auto& [name, value] : request.params) {
    key += '&';
    key += name;
    key += '=';
    key += value;
  }

  CachedResponse entry;
  const bool hit = cache_.get(key, &entry);
  (hit ? cache_hits_ : cache_misses_).inc();
  if (span.valid()) {
    obs_.tracer.add_span("query.cache", span, 0, 0,
                         {{"hit", hit ? "1" : "0"}});
  }
  if (!hit) {
    obs::Span render_span = obs_.tracer.start_span("query.render", span);
    entry = render(render_span.context());
    cache_.put(key, entry);
  }
  HttpResponse response;
  response.body = entry.body;
  response.content_type = entry.content_type;
  if (!entry.source.empty()) {
    response.headers.emplace_back("X-Source", entry.source);
  }
  response.headers.emplace_back("X-Cache", hit ? "hit" : "miss");
  return response;
}

HttpResponse QueryService::handle_stats(const HttpRequest& request,
                                        const Snapshot& snap,
                                        const obs::SpanContext& span) {
  util::SimTime min_t = snap.store.min_time();
  util::SimTime max_t = snap.store.max_time();
  if (!read_time_param(request, "min_t", &min_t) ||
      !read_time_param(request, "max_t", &max_t)) {
    return error_response(400, "min_t/max_t must be integer nanoseconds");
  }
  bool force_scan = false;
  if (const auto it = request.params.find("force");
      it != request.params.end()) {
    if (it->second != "scan") return error_response(400, "force=scan only");
    force_scan = true;
  }
  return cached(request, snap, span, [&](const obs::SpanContext& render) {
    StatsSource source = StatsSource::kScan;
    const RangeStats stats =
        force_scan ? scan_stats(snap, render, min_t, max_t)
                   : rollup_stats(snap, render, min_t, max_t, &source);
    if (render.valid()) {
      // The rollup-vs-scan decision, visible inside the trace.
      obs_.tracer.add_span("query.stats_source", render, 0, 0,
                           {{"source", std::string(to_string(source))},
                            {"forced", force_scan ? "1" : "0"}});
    }
    return CachedResponse{render_stats_json(snap.store, stats, min_t, max_t),
                          "application/json",
                          std::string(to_string(source))};
  });
}

HttpResponse QueryService::handle_popularity(const HttpRequest& request,
                                             const Snapshot& snap,
                                             const obs::SpanContext& span) {
  util::SimTime min_t = snap.store.min_time();
  util::SimTime max_t = snap.store.max_time();
  if (!read_time_param(request, "min_t", &min_t) ||
      !read_time_param(request, "max_t", &max_t)) {
    return error_response(400, "min_t/max_t must be integer nanoseconds");
  }
  std::uint64_t k = 10;
  if (const auto it = request.params.find("k"); it != request.params.end()) {
    const auto parsed = util::parse_u64(it->second, 10000);
    if (!parsed || *parsed == 0) {
      return error_response(400, "k must be in [1, 10000]");
    }
    k = *parsed;
  }
  bool clean_only = true;
  if (const auto it = request.params.find("clean_only");
      it != request.params.end()) {
    if (it->second != "0" && it->second != "1") {
      return error_response(400, "clean_only must be 0 or 1");
    }
    clean_only = it->second == "1";
  }

  return cached(request, snap, span, [&](const obs::SpanContext& render) {
    analysis::PopularityAccumulator accumulator(clean_only);
    tracestore::ScanQuery scan_query;
    scan_query.min_time = min_t;
    scan_query.max_time = max_t;
    run_scan(snap, render, scan_query,
             [&accumulator](const trace::TraceEntry& entry) {
               accumulator.add(entry);
             });
    const analysis::PopularityScores scores = accumulator.scores();

    std::string body;
    util::json::Writer json(body);
    json.begin_object()
        .key("min_time").i64(min_t)
        .key("max_time").i64(max_t)
        .key("clean_only").boolean(clean_only)
        .key("cids").u64(scores.rrp.size())
        .key("single_requester_share")
        .fixed(scores.single_requester_share(), 6);
    const auto write_top =
        [&json](std::string_view name,
                const std::vector<std::pair<cid::Cid, std::uint64_t>>& top) {
          json.key(name).begin_array();
          for (const auto& [cid, count] : top) {
            json.begin_object()
                .key("cid").string(cid.to_string())
                .key("count").u64(count)
                .end_object();
          }
          json.end_array();
        };
    write_top("top_rrp", scores.top_rrp(static_cast<std::size_t>(k)));
    write_top("top_urp", scores.top_urp(static_cast<std::size_t>(k)));
    json.end_object();
    return CachedResponse{std::move(body), "application/json", "scan"};
  });
}

HttpResponse QueryService::handle_peer_wants(const HttpRequest& request,
                                             const std::string& peer_text,
                                             const Snapshot& snap,
                                             const obs::SpanContext& span) {
  const auto peer = crypto::PeerId::from_base58(peer_text);
  if (!peer) return error_response(400, "invalid peer id");
  util::SimTime min_t = snap.store.min_time();
  util::SimTime max_t = snap.store.max_time();
  if (!read_time_param(request, "min_t", &min_t) ||
      !read_time_param(request, "max_t", &max_t)) {
    return error_response(400, "min_t/max_t must be integer nanoseconds");
  }
  std::uint64_t limit = 1000;
  if (const auto it = request.params.find("limit");
      it != request.params.end()) {
    const auto parsed = util::parse_u64(it->second, 100000);
    if (!parsed || *parsed == 0) {
      return error_response(400, "limit must be in [1, 100000]");
    }
    limit = *parsed;
  }

  return cached(request, snap, span, [&](const obs::SpanContext& render) {
    tracestore::ScanQuery scan_query;
    scan_query.min_time = min_t;
    scan_query.max_time = max_t;
    scan_query.peers = {*peer};
    std::uint64_t total = 0;
    std::vector<trace::TraceEntry> wants;
    run_scan(snap, render, scan_query, [&](const trace::TraceEntry& entry) {
      if (total++ < limit) wants.push_back(entry);
    });
    std::string body;
    util::json::Writer json(body);
    json.begin_object()
        .key("peer").string(peer->to_base58())
        .key("total").u64(total)
        .key("returned").u64(wants.size())
        .key("wants").begin_array();
    for (const auto& entry : wants) {
      json.begin_object()
          .key("t").i64(entry.timestamp)
          .key("type").string(json_want_type(entry.type))
          .key("cid").string(entry.cid.to_string())
          .key("flags").u64(entry.flags)
          .end_object();
    }
    json.end_array().end_object();
    return CachedResponse{std::move(body), "application/json", "scan"};
  });
}

HttpResponse QueryService::handle_segments(const View& view) {
  const Snapshot& snap = *view.snapshot;
  const auto& rollups = snap.rollups;
  HttpResponse response;
  util::json::Writer json(response.body);
  json.begin_object()
      .key("dir").string(snap.store.dir())
      .key("fingerprint").string(util::format(
          "%016llx", static_cast<unsigned long long>(snap.fingerprint)))
      .key("segments").begin_array();
  for (std::size_t i = 0; i < snap.store.segments().size(); ++i) {
    const auto& segment = snap.store.segments()[i];
    json.begin_object()
        .key("file").string(segment.file)
        .key("entries").u64(segment.footer.entry_count)
        .key("min_time").i64(segment.footer.min_time)
        .key("max_time").i64(segment.footer.max_time)
        .key("bytes").u64(segment.file_bytes)
        .key("rollup").boolean(rollups[i].has_value());
    if (rollups[i]) {
      json.key("distinct_peers").u64(rollups[i]->distinct_peers)
          .key("distinct_cids").u64(rollups[i]->distinct_cids)
          .key("buckets").u64(rollups[i]->buckets.size());
    }
    json.end_object();
  }
  json.end_array();
  if (view.federation != nullptr) {
    // Provenance: the served (unified) segments above are merged data;
    // the sources array ties them back to the vantage-point segments that
    // were shipped in, with monitor id + vantage per row.
    json.key("federated").boolean(true).key("sources").begin_array();
    for (const auto& source : view.federation->segment_sources()) {
      json.begin_object()
          .key("monitor").u64(source.monitor_id)
          .key("vantage").string(source.vantage)
          .key("file").string(source.file)
          .key("entries").u64(source.entries)
          .key("min_time").i64(source.min_time)
          .key("max_time").i64(source.max_time)
          .key("checksum").string(util::format(
              "%016llx", static_cast<unsigned long long>(source.checksum)))
          .end_object();
    }
    json.end_array();
  }
  json.end_object();
  return response;
}

HttpResponse QueryService::handle_monitors(const View& view) {
  // Deliberately uncached: the ship/ack watermarks move with every landed
  // segment, independent of the served store's fingerprint.
  const auto& meta = view.snapshot->store.meta();
  if (view.federation == nullptr && (!meta || meta->monitors.empty())) {
    return error_response(404, "not serving a federated store");
  }
  HttpResponse response;
  util::json::Writer json(response.body);
  json.begin_object().key("monitors").begin_array();
  if (view.federation == nullptr) {
    // Not federated — but an ingested store still knows its vantage
    // points (STOREMETA), so serve the static mapping.
    for (const auto& [vantage, id] : meta->monitors) {
      json.begin_object()
          .key("id").u64(id)
          .key("vantage").string(vantage)
          .end_object();
    }
    json.end_array().key("capture").string(meta->source);
  } else {
    for (const auto& monitor : view.federation->monitors()) {
      json.begin_object()
          .key("id").u64(monitor.id)
          .key("vantage").string(monitor.vantage)
          .key("segments").u64(monitor.segments)
          .key("entries").u64(monitor.entries)
          .key("bytes").u64(monitor.bytes)
          .key("last_ship_wall_us").i64(monitor.last_ship_wall_us)
          .key("last_lag_us").i64(monitor.last_lag_us)
          .end_object();
    }
    json.end_array();
  }
  json.end_object();
  return response;
}

HttpResponse QueryService::handle_debug_spans(const HttpRequest& request) {
  // Deliberately uncached: the span buffer changes with every request.
  std::uint64_t k = kDebugSpanLimit;
  if (const auto it = request.params.find("k"); it != request.params.end()) {
    const auto parsed = util::parse_u64(it->second, 1000);
    if (!parsed || *parsed == 0) {
      return error_response(400, "k must be in [1, 1000]");
    }
    k = *parsed;
  }
  HttpResponse response;
  if (const auto it = request.params.find("format");
      it != request.params.end()) {
    if (it->second == "perfetto") {
      const auto spans = obs_.tracer.snapshot();
      response.body = obs::to_perfetto_json(spans, obs::has_sim_times(spans));
    } else if (it->second == "jsonl") {
      response.body = obs::to_spans_jsonl(obs_.tracer.snapshot());
      response.content_type = "application/x-ndjson";
    } else {
      return error_response(400, "format must be perfetto or jsonl");
    }
    return response;
  }
  response.body =
      obs::to_debug_json(obs_.tracer, static_cast<std::size_t>(k));
  return response;
}

}  // namespace ipfsmon::query
