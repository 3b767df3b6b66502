// Exporters for the metrics registry and collector ring:
//
//  * Prometheus text exposition format (version 0.0.4) — one full snapshot
//    of every instrument, histogram buckets cumulated with `le` labels.
//  * JSONL time series — one JSON object per collected sample, keyed by
//    full instrument name; the `*.metrics.jsonl` sidecar
//    examples/monitoring_study writes at exit.
#pragma once

#include <string>

#include "obs/collector.hpp"
#include "obs/metrics.hpp"

namespace ipfsmon::obs {

/// Full registry snapshot in Prometheus text exposition format.
std::string to_prometheus(const MetricsRegistry& registry);

/// One JSONL line for `sample`: {"t_seconds":…,"<name>":value,…}. Histogram
/// instruments contribute their observation count under "<name>_count".
std::string to_jsonl_line(const MetricsRegistry& registry,
                          const Collector::Sample& sample);

/// Writes every ring sample as one JSONL line, plus (by default) a final
/// snapshot of current values — so short runs that never crossed a
/// collection interval still produce a sidecar. Returns false when the file
/// cannot be written in full.
bool write_jsonl(const Collector& collector, const std::string& path,
                 bool append_final_snapshot = true);

}  // namespace ipfsmon::obs
