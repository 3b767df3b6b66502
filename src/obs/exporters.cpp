#include "obs/exporters.hpp"

#include <cstdio>
#include <unordered_set>

#include "util/strings.hpp"

namespace ipfsmon::obs {

namespace {

// Trailing-zero-trimmed value formatting: counters print as integers,
// gauges keep up to 6 significant decimals.
std::string format_value(double v) {
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      v < 1e15 && v > -1e15) {
    return util::format("%lld", static_cast<long long>(v));
  }
  return util::format("%.6g", v);
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
  std::string out;
  out.reserve(registry.size() * 64);
  // TYPE/HELP headers are emitted once per base name (labelled variants of
  // one metric share them), in first-seen registration order.
  std::unordered_set<std::string> headered;
  for (const auto& info : registry.instruments()) {
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
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < h.bounds().size(); ++b) {
          cumulative += h.bucket_counts()[b];
          std::string labels = info.labels;
          if (!labels.empty()) labels += ",";
          labels += "le=\"" + format_value(h.bounds()[b]) + "\"";
          append_series(out, info.name + "_bucket", labels,
                        static_cast<double>(cumulative));
        }
        cumulative += h.bucket_counts().back();
        std::string inf_labels = info.labels;
        if (!inf_labels.empty()) inf_labels += ",";
        inf_labels += "le=\"+Inf\"";
        append_series(out, info.name + "_bucket", inf_labels,
                      static_cast<double>(cumulative));
        append_series(out, info.name + "_sum", info.labels, h.sum());
        append_series(out, info.name + "_count", info.labels,
                      static_cast<double>(h.count()));
        break;
      }
    }
  }
  return out;
}

std::string to_jsonl_line(const MetricsRegistry& registry,
                          const Collector::Sample& sample) {
  std::string out = "{\"t_seconds\":" + format_value(util::to_seconds(sample.time));
  const auto& infos = registry.instruments();
  for (std::size_t i = 0; i < sample.values.size() && i < infos.size(); ++i) {
    out += ",\"";
    // Label values carry double quotes (`{monitor="0"}`).
    util::append_json_escaped(out, infos[i].full_name());
    if (infos[i].kind == InstrumentKind::kHistogram) out += "_count";
    out += "\":";
    out += format_value(sample.values[i]);
  }
  out += "}";
  return out;
}

bool write_jsonl(const Collector& collector, const std::string& path,
                 bool append_final_snapshot) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const MetricsRegistry& registry = collector.registry();
  for (const auto& sample : collector.samples()) {
    const std::string line = to_jsonl_line(registry, sample);
    std::fwrite(line.data(), 1, line.size(), f);
    std::fputc('\n', f);
  }
  if (append_final_snapshot) {
    // Skip the extra snapshot when a ring sample already covers "now" —
    // keeps t_seconds strictly increasing for time-series consumers.
    const Collector::Sample final_sample = collector.make_sample();
    if (collector.samples().empty() ||
        collector.samples().back().time < final_sample.time) {
      const std::string line = to_jsonl_line(registry, final_sample);
      std::fwrite(line.data(), 1, line.size(), f);
      std::fputc('\n', f);
    }
  }
  std::fclose(f);
  return true;
}

}  // namespace ipfsmon::obs
