// Shared plumbing of the pipeline benchmark: run options, the metric
// report every workload fills, input manifests, and small file helpers.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "stats.hpp"

namespace perfbench {

/// What one `perfbench run` invocation measures.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string input_dir;  // generated inputs (read-only)
  std::string work_dir;   // working space, emptied by the caller
};

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  double millis() const { return seconds() * 1000.0; }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Peak resident set of this process in MiB (ru_maxrss is KiB on Linux).
inline double peak_rss_mib() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// The metrics of one run. Workloads add end-to-end metrics in untraced
/// runs and per-layer metrics in traced runs; `lines` is the human-readable
/// workload-property report printed above the result line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.emplace_back(name, Value{value, unit});
  }
  void note(const std::string& line) { lines_.push_back(line); }
  FailCounter& fails() { return fails_; }

  /// Prints the notes, a metric table, and the JSON result as the last line.
  void print(const RunOptions& options) const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::vector<std::pair<std::string, Value>> metrics_;
  std::vector<std::string> lines_;
  FailCounter fails_;
};

/// key=value text file describing one generated input (content hash,
/// expected results, measured input properties).
class Manifest {
 public:
  void set(const std::string& key, const std::string& value) {
    values_[key] = value;
  }
  void set(const std::string& key, double value);
  void set_u64(const std::string& key, std::uint64_t value) {
    values_[key] = std::to_string(value);
  }
  std::string get(const std::string& key) const;
  double get_double(const std::string& key) const;
  std::uint64_t get_u64(const std::string& key) const;

  bool write(const std::string& path) const;
  static bool read(const std::string& path, Manifest* out);

 private:
  std::map<std::string, std::string> values_;
};

/// FNV-1a 64 over the bytes of every regular file under `dir`, visited in
/// name order (file names folded in too). The input content hash.
std::uint64_t hash_tree(const std::string& dir);

/// Lowercase 16-digit hex.
std::string hex64(std::uint64_t value);

/// Empties (or creates) `dir`.
void reset_dir(const std::string& dir);

/// Sum over every label set of the obs instrument `name` (counter value,
/// gauge value, or histogram observation count); 0 when unregistered.
inline double registry_total(const ipfsmon::obs::MetricsRegistry& registry,
                             std::string_view name) {
  double total = 0.0;
  const auto& instruments = registry.instruments();
  for (std::size_t i = 0; i < instruments.size(); ++i) {
    if (instruments[i].name == name) total += registry.scalar_value(i);
  }
  return total;
}

/// "N reps: a b c s, fastest f, quartile spread x" — the per-run rep
/// report.
inline std::string describe_reps(const std::vector<double>& walls) {
  std::string out = std::to_string(walls.size()) + " reps:";
  char buffer[64];
  for (const double wall : walls) {
    std::snprintf(buffer, sizeof(buffer), " %.4g", wall);
    out += buffer;
  }
  std::snprintf(buffer, sizeof(buffer), " s, fastest %.4g, quartile spread %.4f",
                steady_time(walls), quartiles(walls).relative_iqr());
  return out + buffer;
}

/// "set-up: N samples, fastest f s, median m s" — the set-up report.
/// setup_s is the median: set-up is timed many times per run, spread
/// over the run, so the median is steady without discarding samples.
inline std::string describe_setups(const std::vector<double>& setups) {
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer),
                "set-up: %zu samples, fastest %.4g s, median %.4g s",
                setups.size(), steady_time(setups), median(setups));
  return buffer;
}

/// Calls rep(0), rep(1), ... at least `min_reps` times and until
/// `budget_s` seconds have passed.
template <typename Rep>
void repeat_for(double budget_s, std::size_t min_reps, Rep&& rep) {
  const Stopwatch clock;
  for (std::size_t i = 0; i < min_reps || clock.seconds() < budget_s; ++i) {
    rep(i);
  }
}

// --- Workload entry points (wl_*.cpp) and generators (gen.cpp) ------------

/// Writes the workload's inputs for `seed` into `dir`. False on failure.
bool generate_inputs(const std::string& workload, std::uint64_t seed,
                     const std::string& dir);

void run_study(const RunOptions& options, Report* report);
void run_ingest(const RunOptions& options, Report* report);
void run_serve(const RunOptions& options, Report* report);

/// The federation pass of serve's traced run (wl_federate.cpp): replicates
/// the monitor stores under `input_dir` into fresh coordinators, again and
/// again for `budget_s` seconds (at least twice), checks every unified
/// answer and reports the federation.* per-layer metrics.
void measure_federation(const std::string& input_dir,
                        const std::string& work_dir, double budget_s,
                        Report* report);

}  // namespace perfbench
