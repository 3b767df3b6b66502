#include "obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace ipfsmon::obs {

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  if (bounds_.empty() || !std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw std::invalid_argument(
        "Histogram: bounds must be non-empty and strictly increasing");
  }
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out;
  out.reserve(buckets_.size());
  for (const auto& bucket : buckets_) {
    out.push_back(bucket.load(std::memory_order_relaxed));
  }
  return out;
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const auto& bucket : buckets_) {
    total += bucket.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<double> exponential_buckets(double start, double factor,
                                        std::size_t count) {
  if (start <= 0.0 || factor <= 1.0) {
    throw std::invalid_argument("exponential_buckets: need start>0, factor>1");
  }
  std::vector<double> out;
  out.reserve(count);
  double v = start;
  for (std::size_t i = 0; i < count; ++i, v *= factor) out.push_back(v);
  return out;
}

std::size_t MetricsRegistry::lookup(std::string_view name,
                                    std::string_view labels) const {
  std::size_t i = 0;
  while (i < keys_.size() &&
         (keys_[i].name != name || keys_[i].labels != labels)) {
    ++i;
  }
  return i;
}

std::size_t MetricsRegistry::find_index(std::string_view name,
                                        std::string_view labels,
                                        InstrumentKind kind) const {
  const std::size_t i = lookup(name, labels);
  if (i < keys_.size() && keys_[i].kind != kind) {
    throw std::invalid_argument("MetricsRegistry: instrument '" +
                                std::string(name) +
                                "' already registered with a different kind");
  }
  return i;
}

void MetricsRegistry::add_info(InstrumentInfo info) {
  infos_.push_back(std::move(info));
  const InstrumentInfo& stored = infos_.back();
  keys_.push_back({stored.name, stored.labels, stored.kind, stored.slot});
}

Counter& MetricsRegistry::counter(std::string_view name, std::string_view help,
                                  std::string_view labels) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t idx = find_index(name, labels, InstrumentKind::kCounter);
  if (idx < keys_.size()) return counters_[keys_[idx].slot];
  counters_.emplace_back();
  add_info({std::string(name), std::string(labels), std::string(help),
            InstrumentKind::kCounter, counters_.size() - 1});
  return counters_.back();
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view help,
                              std::string_view labels) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t idx = find_index(name, labels, InstrumentKind::kGauge);
  if (idx < keys_.size()) return gauges_[keys_[idx].slot];
  gauges_.emplace_back();
  add_info({std::string(name), std::string(labels), std::string(help),
            InstrumentKind::kGauge, gauges_.size() - 1});
  return gauges_.back();
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds,
                                      std::string_view help,
                                      std::string_view labels) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t idx = find_index(name, labels, InstrumentKind::kHistogram);
  if (idx < keys_.size()) return histograms_[keys_[idx].slot];
  histograms_.emplace_back(std::move(bounds));
  add_info({std::string(name), std::string(labels), std::string(help),
            InstrumentKind::kHistogram, histograms_.size() - 1});
  return histograms_.back();
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return infos_.size();
}

std::vector<InstrumentInfo> MetricsRegistry::instruments() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {infos_.begin(), infos_.end()};
}

double MetricsRegistry::scalar_value(std::size_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  const InstrumentInfo& info = infos_.at(index);
  switch (info.kind) {
    case InstrumentKind::kCounter:
      return static_cast<double>(counters_[info.slot].value());
    case InstrumentKind::kGauge:
      return gauges_[info.slot].value();
    case InstrumentKind::kHistogram:
      return static_cast<double>(histograms_[info.slot].count());
  }
  return 0.0;
}

const InstrumentInfo* MetricsRegistry::find(std::string_view name,
                                            std::string_view labels) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t i = lookup(name, labels);
  return i < infos_.size() ? &infos_[i] : nullptr;
}

const Counter& MetricsRegistry::counter_at(std::size_t slot) const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_[slot];
}

const Gauge& MetricsRegistry::gauge_at(std::size_t slot) const {
  std::lock_guard<std::mutex> lock(mu_);
  return gauges_[slot];
}

const Histogram& MetricsRegistry::histogram_at(std::size_t slot) const {
  std::lock_guard<std::mutex> lock(mu_);
  return histograms_[slot];
}

}  // namespace ipfsmon::obs
