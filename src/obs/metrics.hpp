// Low-overhead metrics primitives: a registry of typed instruments
// (Counter, Gauge, fixed-bucket Histogram) following the Prometheus data
// model. Instruments are safe to update from any thread: each value is a
// relaxed atomic, because every instrument is an independent total that
// nothing synchronizes on — an update must never be lost, but no reader
// infers other memory from it. Registration, lookup and export take the
// registry's mutex. Instrument handles stay valid for the registry's
// lifetime (instruments are never removed or moved), so hot paths grab a
// reference once at construction and bump it directly, on any thread.
//
// Naming convention: `ipfsmon_<layer>_<name>` with `_total` suffixed to
// monotonic counters; labels are reserved for low-cardinality dimensions
// (country codes, monitor ids) — see DESIGN.md "Observability".
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ipfsmon::obs {

/// Monotonically increasing count (events fired, messages delivered, …).
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous value that can move both ways (queue depth, coverage, …).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double d) { value_.fetch_add(d, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. Bucket i counts observations with
/// value <= bounds[i] that fall in no earlier bucket; one implicit +Inf
/// bucket catches the rest (Prometheus `le` semantics, non-cumulative
/// storage — the exporter cumulates).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v) {
    std::size_t i = 0;
    while (i < bounds_.size() && !(v <= bounds_[i])) ++i;  // NaN → +Inf
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; last element is the +Inf bucket.
  std::vector<std::uint64_t> bucket_counts() const;
  /// Observations so far: the sum of the bucket counts.
  std::uint64_t count() const;
  double sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<double> bounds_;  // strictly increasing upper bounds
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<double> sum_{0.0};
};

/// `count` buckets growing geometrically from `start` by `factor`.
std::vector<double> exponential_buckets(double start, double factor,
                                        std::size_t count);

enum class InstrumentKind { kCounter, kGauge, kHistogram };

/// Export-facing metadata for one registered instrument. `name` is the base
/// metric name; `labels` is the Prometheus label body without braces (e.g.
/// `country="US"`), empty for unlabelled instruments.
struct InstrumentInfo {
  std::string name;
  std::string labels;
  std::string help;
  InstrumentKind kind = InstrumentKind::kCounter;
  // Index into the registry's per-kind storage.
  std::size_t slot = 0;

  std::string full_name() const {
    return labels.empty() ? name : name + "{" + labels + "}";
  }
};

/// Owns all instruments. Lookup is by (name, labels): re-registering the
/// same pair with the same kind returns the existing instrument — also when
/// several threads register it at once; a kind mismatch throws
/// std::invalid_argument. Registration is append-only, so instrument
/// indices are stable — the Collector relies on that to align ring samples
/// taken at different times.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name, std::string_view help = {},
                   std::string_view labels = {});
  Gauge& gauge(std::string_view name, std::string_view help = {},
               std::string_view labels = {});
  Histogram& histogram(std::string_view name, std::vector<double> bounds,
                       std::string_view help = {},
                       std::string_view labels = {});

  /// Registered instrument count (all kinds).
  std::size_t size() const;

  /// Metadata in registration order; index i matches scalar_value(i). A
  /// copy, since other threads may register meanwhile.
  std::vector<InstrumentInfo> instruments() const;

  /// One scalar per instrument for time-series sampling: counter value,
  /// gauge value, or histogram observation count.
  double scalar_value(std::size_t index) const;

  /// Lookup without creating; nullptr when absent. The metadata never
  /// moves, so the pointer stays valid for the registry's lifetime.
  const InstrumentInfo* find(std::string_view name,
                             std::string_view labels = {}) const;

  const Counter& counter_at(std::size_t slot) const;
  const Gauge& gauge_at(std::size_t slot) const;
  const Histogram& histogram_at(std::size_t slot) const;

 private:
  // Helpers below run with mu_ held.
  /// Index of (name, labels) in infos_, or infos_.size().
  std::size_t lookup(std::string_view name, std::string_view labels) const;
  /// lookup(), throwing when the instrument exists with another kind.
  std::size_t find_index(std::string_view name, std::string_view labels,
                         InstrumentKind kind) const;
  void add_info(InstrumentInfo info);

  mutable std::mutex mu_;
  // deques: stable addresses while growing (hot paths hold references).
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::deque<InstrumentInfo> infos_;
  /// What a registration looks up of infos_[i], in one contiguous array
  /// (a lookup scans it without walking the deque); the views point into
  /// infos_[i]'s strings, which never move.
  struct Key {
    std::string_view name;
    std::string_view labels;
    InstrumentKind kind;
    std::size_t slot;
  };
  std::vector<Key> keys_;
};

}  // namespace ipfsmon::obs
