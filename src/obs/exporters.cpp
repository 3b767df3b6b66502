#include "obs/exporters.hpp"

#include <cmath>
#include <unordered_set>

#include "util/file.hpp"
#include "util/json.hpp"

namespace ipfsmon::obs {

namespace {

// Prometheus sample values: util::json::format_number for finite values,
// the exposition format's own spellings otherwise.
std::string format_value(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  return util::json::format_number(v);
}

std::string_view kind_name(InstrumentKind kind) {
  switch (kind) {
    case InstrumentKind::kCounter: return "counter";
    case InstrumentKind::kGauge: return "gauge";
    case InstrumentKind::kHistogram: return "histogram";
  }
  return "untyped";
}

void append_series(std::string& out, const std::string& name,
                   const std::string& labels, double value) {
  out += name;
  if (!labels.empty()) {
    out += '{';
    out += labels;
    out += '}';
  }
  out += ' ';
  out += format_value(value);
  out += '\n';
}

}  // namespace

std::string to_prometheus(const MetricsRegistry& registry) {
  const std::vector<InstrumentInfo> infos = registry.instruments();
  std::string out;
  out.reserve(infos.size() * 64);
  // TYPE/HELP headers are emitted once per base name (labelled variants of
  // one metric share them), in first-seen registration order.
  std::unordered_set<std::string> headered;
  for (const auto& info : infos) {
    if (headered.insert(info.name).second) {
      if (!info.help.empty()) {
        out += "# HELP " + info.name + " " + info.help + "\n";
      }
      out += "# TYPE " + info.name + " " + std::string(kind_name(info.kind)) +
             "\n";
    }
    switch (info.kind) {
      case InstrumentKind::kCounter:
        append_series(out, info.name, info.labels,
                      static_cast<double>(registry.counter_at(info.slot).value()));
        break;
      case InstrumentKind::kGauge:
        append_series(out, info.name, info.labels,
                      registry.gauge_at(info.slot).value());
        break;
      case InstrumentKind::kHistogram: {
        const Histogram& h = registry.histogram_at(info.slot);
        // One snapshot of the buckets, so the +Inf bucket and _count agree
        // while other threads keep observing.
        const std::vector<std::uint64_t> counts = h.bucket_counts();
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < h.bounds().size(); ++b) {
          cumulative += counts[b];
          std::string labels = info.labels;
          if (!labels.empty()) labels += ",";
          labels += "le=\"" + format_value(h.bounds()[b]) + "\"";
          append_series(out, info.name + "_bucket", labels,
                        static_cast<double>(cumulative));
        }
        cumulative += counts.back();
        std::string inf_labels = info.labels;
        if (!inf_labels.empty()) inf_labels += ",";
        inf_labels += "le=\"+Inf\"";
        append_series(out, info.name + "_bucket", inf_labels,
                      static_cast<double>(cumulative));
        append_series(out, info.name + "_sum", info.labels, h.sum());
        append_series(out, info.name + "_count", info.labels,
                      static_cast<double>(cumulative));
        break;
      }
    }
  }
  return out;
}

std::string to_jsonl_line(const MetricsRegistry& registry,
                          const Collector::Sample& sample) {
  std::string out;
  util::json::Writer json(out);
  json.begin_object().key("t_seconds").number(util::to_seconds(sample.time));
  const std::vector<InstrumentInfo> infos = registry.instruments();
  for (std::size_t i = 0; i < sample.values.size() && i < infos.size(); ++i) {
    // Label values carry double quotes (`{monitor="0"}`); key() escapes them.
    std::string name = infos[i].full_name();
    if (infos[i].kind == InstrumentKind::kHistogram) name += "_count";
    json.key(name).number(sample.values[i]);
  }
  json.end_object();
  return out;
}

bool write_jsonl(const Collector& collector, const std::string& path,
                 bool append_final_snapshot) {
  const MetricsRegistry& registry = collector.registry();
  std::string text;
  for (const auto& sample : collector.samples()) {
    text += to_jsonl_line(registry, sample);
    text += '\n';
  }
  if (append_final_snapshot) {
    // Skip the extra snapshot when a ring sample already covers "now" —
    // keeps t_seconds strictly increasing for time-series consumers.
    const Collector::Sample final_sample = collector.make_sample();
    if (collector.samples().empty() ||
        collector.samples().back().time < final_sample.time) {
      text += to_jsonl_line(registry, final_sample);
      text += '\n';
    }
  }
  return util::write_file(path, text);
}

}  // namespace ipfsmon::obs
