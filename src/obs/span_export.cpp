#include "obs/span_export.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <unordered_map>

#include "util/strings.hpp"

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

void append_summary_json(std::string& out, const TraceSummary& s) {
  out += "{\"trace\":\"";
  out += span_id_hex(s.trace_id);
  out += "\",\"root\":\"";
  util::append_json_escaped(out, s.root_name);
  out += "\",\"spans\":" + std::to_string(s.span_count);
  out += ",\"start_sim_ns\":" + std::to_string(s.start_sim);
  out += ",\"sim_duration_ns\":" + std::to_string(s.sim_duration);
  out += ",\"start_us\":" + std::to_string(s.start_us);
  out += ",\"wall_us\":" + std::to_string(s.wall_us);
  out += "}";
}

bool write_text_file(const std::string& path, const std::string& body,
                     std::string* error) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    if (error) *error = "cannot open " + path + " for writing";
    return false;
  }
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
  out.flush();
  if (!out) {
    if (error) *error = "short write to " + path;
    return false;
  }
  return true;
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
  out += "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"generator\":"
         "\"ipfsmon\",\"timebase\":\"";
  out += use_sim_time ? "sim" : "wall";
  out += "\"},\"traceEvents\":[";
  bool first = true;
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
    std::string root_name;
    for (const auto* r : records) {
      if (r->parent_id == 0) {
        root_name = r->name;
        break;
      }
    }
    // Process-name metadata row so Perfetto labels each trace readably.
    if (!first) out += ",";
    first = false;
    out += "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" +
           std::to_string(pid) + ",\"args\":{\"name\":\"trace ";
    out += span_id_hex(trace_id);
    if (!root_name.empty()) {
      out += " ";
      util::append_json_escaped(out, root_name);
    }
    out += "\"}}";

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

      char num[64];
      out += ",{\"name\":\"";
      util::append_json_escaped(out, r->name);
      out += "\",\"cat\":\"ipfsmon\",\"ph\":\"X\",\"ts\":";
      std::snprintf(num, sizeof(num), "%.3f", ts);
      out += num;
      out += ",\"dur\":";
      std::snprintf(num, sizeof(num), "%.3f", dur);
      out += num;
      out += ",\"pid\":" + std::to_string(pid);
      out += ",\"tid\":" + std::to_string(lane + 1);
      out += ",\"args\":{\"trace\":\"" + span_id_hex(r->trace_id) + "\"";
      out += ",\"span\":\"" + span_id_hex(r->span_id) + "\"";
      out += ",\"parent\":\"" + span_id_hex(r->parent_id) + "\"";
      for (const auto& [key, value] : r->attrs) {
        out += ",\"";
        util::append_json_escaped(out, key);
        out += "\":\"";
        util::append_json_escaped(out, value);
        out += "\"";
      }
      out += "}}";
    }
  }
  out += "]}\n";
  return out;
}

std::string to_spans_jsonl(const std::vector<SpanRecord>& spans) {
  std::string out;
  out.reserve(spans.size() * 160);
  for (const auto& r : spans) {
    out += "{\"trace\":\"" + span_id_hex(r.trace_id) + "\"";
    out += ",\"span\":\"" + span_id_hex(r.span_id) + "\"";
    out += ",\"parent\":\"" + span_id_hex(r.parent_id) + "\"";
    out += ",\"name\":\"";
    util::append_json_escaped(out, r.name);
    out += "\",\"start_sim_ns\":" + std::to_string(r.start_sim);
    out += ",\"end_sim_ns\":" + std::to_string(r.end_sim);
    out += ",\"start_us\":" + std::to_string(r.start_us);
    out += ",\"end_us\":" + std::to_string(r.end_us);
    out += ",\"attrs\":{";
    bool first = true;
    for (const auto& [key, value] : r.attrs) {
      if (!first) out += ",";
      first = false;
      out += "\"";
      util::append_json_escaped(out, key);
      out += "\":\"";
      util::append_json_escaped(out, value);
      out += "\"";
    }
    out += "}}\n";
  }
  return out;
}

bool write_perfetto_json(const std::string& path,
                         const std::vector<SpanRecord>& spans,
                         bool use_sim_time, std::string* error) {
  return write_text_file(path, to_perfetto_json(spans, use_sim_time), error);
}

bool write_spans_jsonl(const std::string& path,
                       const std::vector<SpanRecord>& spans,
                       std::string* error) {
  return write_text_file(path, to_spans_jsonl(spans), error);
}

std::string to_debug_json(const Tracer& tracer, std::size_t k) {
  const std::vector<SpanRecord> spans = tracer.snapshot();
  const bool use_sim = has_sim_times(spans);
  const auto summaries = summarize_traces(spans, use_sim);

  std::string out = "{\"enabled\":";
  out += tracer.enabled() ? "true" : "false";
  out += ",\"sample_every\":" + std::to_string(tracer.config().sample_every);
  out += ",\"timebase\":\"";
  out += use_sim ? "sim" : "wall";
  out += "\",\"traces_started\":" + std::to_string(tracer.traces_started());
  out += ",\"spans_recorded\":" + std::to_string(tracer.spans_recorded());
  out += ",\"spans_dropped\":" + std::to_string(tracer.spans_dropped());
  out += ",\"spans_buffered\":" + std::to_string(spans.size());
  out += ",\"traces_buffered\":" + std::to_string(summaries.size());
  out += ",\"recent\":[";
  bool first = true;
  for (const auto& s : recent_traces(summaries, k)) {
    if (!first) out += ",";
    first = false;
    append_summary_json(out, s);
  }
  out += "],\"slowest\":[";
  first = true;
  for (const auto& s : slowest_traces(summaries, k, use_sim)) {
    if (!first) out += ",";
    first = false;
    append_summary_json(out, s);
  }
  out += "]}\n";
  return out;
}

}  // namespace ipfsmon::obs
