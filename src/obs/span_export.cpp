#include "obs/span_export.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

#include "util/file.hpp"
#include "util/json.hpp"

namespace ipfsmon::obs {

namespace {

// Timestamps in the chosen timebase, as microseconds.
double start_micros(const SpanRecord& r, bool use_sim_time) {
  return use_sim_time
             ? static_cast<double>(r.start_sim) / 1000.0
             : static_cast<double>(r.start_us);
}

double duration_micros(const SpanRecord& r, bool use_sim_time) {
  const double d =
      use_sim_time ? static_cast<double>(r.end_sim - r.start_sim) / 1000.0
                   : static_cast<double>(r.end_us - r.start_us);
  return d < 0 ? 0 : d;
}

void write_summary(util::json::Writer& json, const TraceSummary& s) {
  json.begin_object()
      .key("trace").string(span_id_hex(s.trace_id))
      .key("root").string(s.root_name)
      .key("spans").u64(s.span_count)
      .key("start_sim_ns").i64(s.start_sim)
      .key("sim_duration_ns").i64(s.sim_duration)
      .key("start_us").i64(s.start_us)
      .key("wall_us").i64(s.wall_us)
      .end_object();
}

void write_attrs(util::json::Writer& json, const SpanAttrs& attrs) {
  for (const auto& [key, value] : attrs) json.key(key).string(value);
}

}  // namespace

std::string span_id_hex(std::uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return std::string(buf);
}

bool has_sim_times(const std::vector<SpanRecord>& spans) {
  for (const auto& r : spans) {
    if (r.start_sim != 0 || r.end_sim != 0) return true;
  }
  return false;
}

std::vector<TraceSummary> summarize_traces(const std::vector<SpanRecord>& spans,
                                           bool use_sim_time) {
  // spans arrive in record order (Tracer::snapshot sorts by seq), so the
  // first root seen per trace is the real one.
  std::unordered_map<std::uint64_t, std::size_t> index;
  std::vector<TraceSummary> out;
  for (const auto& r : spans) {
    auto [it, inserted] = index.emplace(r.trace_id, out.size());
    if (inserted) {
      TraceSummary s;
      s.trace_id = r.trace_id;
      s.start_sim = r.start_sim;
      s.start_us = r.start_us;
      out.push_back(std::move(s));
    }
    TraceSummary& s = out[it->second];
    ++s.span_count;
    s.start_sim = std::min(s.start_sim, r.start_sim);
    s.start_us = std::min(s.start_us, r.start_us);
    if (r.parent_id == 0 && s.root_name.empty()) s.root_name = r.name;
    s.sim_duration = std::max(s.sim_duration, r.end_sim - s.start_sim);
    s.wall_us = std::max(s.wall_us, r.end_us - s.start_us);
  }
  for (auto& s : out) {
    if (s.root_name.empty()) s.root_name = "(partial)";
  }
  std::sort(out.begin(), out.end(),
            [use_sim_time](const TraceSummary& a, const TraceSummary& b) {
              if (use_sim_time && a.start_sim != b.start_sim) {
                return a.start_sim < b.start_sim;
              }
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              return a.trace_id < b.trace_id;
            });
  return out;
}

std::vector<TraceSummary> slowest_traces(std::vector<TraceSummary> summaries,
                                         std::size_t k, bool use_sim_time) {
  std::stable_sort(summaries.begin(), summaries.end(),
                   [use_sim_time](const TraceSummary& a, const TraceSummary& b) {
                     return use_sim_time ? a.sim_duration > b.sim_duration
                                         : a.wall_us > b.wall_us;
                   });
  if (summaries.size() > k) summaries.resize(k);
  return summaries;
}

std::vector<TraceSummary> recent_traces(std::vector<TraceSummary> summaries,
                                        std::size_t k) {
  std::reverse(summaries.begin(), summaries.end());
  if (summaries.size() > k) summaries.resize(k);
  return summaries;
}

std::string to_perfetto_json(const std::vector<SpanRecord>& spans,
                             bool use_sim_time) {
  // Group spans per trace, then pack overlapping spans into lanes
  // (rendered as tids) by greedy interval partitioning.
  std::map<std::uint64_t, std::vector<const SpanRecord*>> traces;
  for (const auto& r : spans) traces[r.trace_id].push_back(&r);

  std::string out;
  out.reserve(spans.size() * 160 + 256);
  util::json::Writer json(out);
  json.begin_object()
      .key("displayTimeUnit").string("ms")
      .key("otherData").begin_object()
      .key("generator").string("ipfsmon")
      .key("timebase").string(use_sim_time ? "sim" : "wall")
      .end_object()
      .key("traceEvents").begin_array();
  for (auto& [trace_id, records] : traces) {
    const std::uint32_t pid =
        static_cast<std::uint32_t>(trace_id & 0x7fffffffull) | 1u;
    std::sort(records.begin(), records.end(),
              [use_sim_time](const SpanRecord* a, const SpanRecord* b) {
                const double sa = start_micros(*a, use_sim_time);
                const double sb = start_micros(*b, use_sim_time);
                if (sa != sb) return sa < sb;
                return a->seq < b->seq;
              });
    std::string label = "trace " + span_id_hex(trace_id);
    for (const auto* r : records) {
      if (r->parent_id == 0) {
        if (!r->name.empty()) label += " " + r->name;
        break;
      }
    }
    // Process-name metadata row so Perfetto labels each trace readably.
    json.begin_object()
        .key("ph").string("M")
        .key("name").string("process_name")
        .key("pid").u64(pid)
        .key("args").begin_object()
        .key("name").string(label).end_object()
        .end_object();

    std::vector<double> lane_busy_until;
    for (const auto* r : records) {
      const double ts = start_micros(*r, use_sim_time);
      const double dur = duration_micros(*r, use_sim_time);
      std::size_t lane = 0;
      for (; lane < lane_busy_until.size(); ++lane) {
        if (lane_busy_until[lane] <= ts) break;
      }
      if (lane == lane_busy_until.size()) lane_busy_until.push_back(0);
      lane_busy_until[lane] = ts + dur;

      json.begin_object()
          .key("name").string(r->name)
          .key("cat").string("ipfsmon")
          .key("ph").string("X")
          .key("ts").fixed(ts, 3)
          .key("dur").fixed(dur, 3)
          .key("pid").u64(pid)
          .key("tid").u64(lane + 1)
          .key("args").begin_object()
          .key("trace").string(span_id_hex(r->trace_id))
          .key("span").string(span_id_hex(r->span_id))
          .key("parent").string(span_id_hex(r->parent_id));
      write_attrs(json, r->attrs);
      json.end_object().end_object();
    }
  }
  json.end_array().end_object();
  out += '\n';
  return out;
}

std::string to_spans_jsonl(const std::vector<SpanRecord>& spans) {
  std::string out;
  out.reserve(spans.size() * 160);
  for (const auto& r : spans) {
    util::json::Writer json(out);
    json.begin_object()
        .key("trace").string(span_id_hex(r.trace_id))
        .key("span").string(span_id_hex(r.span_id))
        .key("parent").string(span_id_hex(r.parent_id))
        .key("name").string(r.name)
        .key("start_sim_ns").i64(r.start_sim)
        .key("end_sim_ns").i64(r.end_sim)
        .key("start_us").i64(r.start_us)
        .key("end_us").i64(r.end_us)
        .key("attrs").begin_object();
    write_attrs(json, r.attrs);
    json.end_object().end_object();
    out += '\n';
  }
  return out;
}

bool write_perfetto_json(const std::string& path,
                         const std::vector<SpanRecord>& spans,
                         bool use_sim_time, std::string* error) {
  return util::write_file(path, to_perfetto_json(spans, use_sim_time), error);
}

bool write_spans_jsonl(const std::string& path,
                       const std::vector<SpanRecord>& spans,
                       std::string* error) {
  return util::write_file(path, to_spans_jsonl(spans), error);
}

std::string to_debug_json(const Tracer& tracer, std::size_t k) {
  const std::vector<SpanRecord> spans = tracer.snapshot();
  const bool use_sim = has_sim_times(spans);
  const auto summaries = summarize_traces(spans, use_sim);

  std::string out;
  util::json::Writer json(out);
  json.begin_object()
      .key("enabled").boolean(tracer.enabled())
      .key("sample_every").u64(tracer.config().sample_every)
      .key("timebase").string(use_sim ? "sim" : "wall")
      .key("traces_started").u64(tracer.traces_started())
      .key("spans_recorded").u64(tracer.spans_recorded())
      .key("spans_dropped").u64(tracer.spans_dropped())
      .key("spans_buffered").u64(spans.size())
      .key("traces_buffered").u64(summaries.size())
      .key("recent").begin_array();
  for (const auto& s : recent_traces(summaries, k)) write_summary(json, s);
  json.end_array().key("slowest").begin_array();
  for (const auto& s : slowest_traces(summaries, k, use_sim)) {
    write_summary(json, s);
  }
  json.end_array().end_object();
  out += '\n';
  return out;
}

}  // namespace ipfsmon::obs
