// Shared plumbing for the experiment harnesses: flag parsing, table
// printing, and paper-vs-measured rows. Every exp_* binary reproduces one
// table or figure from the paper and prints the same rows/series the paper
// reports, alongside the paper's value where applicable.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/exporters.hpp"
#include "util/strings.hpp"

namespace ipfsmon::bench {

/// Minimal --key=value flag parser shared by the experiment binaries.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string_view arg(argv[i]);
      if (arg.rfind("--", 0) != 0) continue;
      arg.remove_prefix(2);
      const auto eq = arg.find('=');
      if (eq == std::string_view::npos) {
        values_[std::string(arg)] = "1";
      } else {
        values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
      }
    }
  }

  double get(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
  }

  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback
                               : std::strtoull(it->second.c_str(), nullptr, 10);
  }

  std::string get_str(const std::string& key, std::string fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  bool has(const std::string& key) const { return values_.count(key) != 0; }

 private:
  std::map<std::string, std::string> values_;
};

inline void print_header(std::string_view experiment, std::string_view paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%.*s\n", static_cast<int>(experiment.size()), experiment.data());
  std::printf("reproduces: %.*s\n", static_cast<int>(paper_ref.size()),
              paper_ref.data());
  std::printf("==============================================================\n");
}

inline void print_section(std::string_view title) {
  std::printf("\n--- %.*s ---\n", static_cast<int>(title.size()), title.data());
}

/// One "paper vs measured" comparison row.
inline void print_comparison(std::string_view metric, std::string_view paper,
                             std::string_view measured) {
  std::printf("  %-46s paper: %-16s measured: %s\n",
              std::string(metric).c_str(), std::string(paper).c_str(),
              std::string(measured).c_str());
}

inline void print_comparison(std::string_view metric, double paper,
                             double measured, const char* fmt = "%.2f") {
  print_comparison(metric, util::format(fmt, paper), util::format(fmt, measured));
}

/// Wall-clock timer for the run footer every experiment prints at exit.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Peak resident set size of this process, in MiB (getrusage; ru_maxrss is
/// KiB on Linux). 0 when the syscall fails.
inline double peak_rss_mib() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// The uniform experiment footer: wall time + peak memory.
inline void print_run_footer(const Stopwatch& watch) {
  std::printf("\n[run] wall %.2f s, peak rss %.1f MiB\n", watch.seconds(),
              peak_rss_mib());
}

/// Reads the number stored under `key` in a committed smoke-floor JSON file
/// (bench/*_smoke_floor.json). 0 when the file is missing or the key is
/// absent or unparsable.
inline double read_smoke_floor(const std::string& path, std::string_view key) {
  std::ifstream in(path);
  if (!in) return 0;
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const std::string quoted = "\"" + std::string(key) + "\"";
  const auto at = text.find(quoted);
  if (at == std::string::npos) return 0;
  const auto colon = text.find(':', at + quoted.size());
  if (colon == std::string::npos) return 0;
  return std::strtod(text.c_str() + colon + 1, nullptr);
}

/// The smoke gate shared by the experiment binaries: passes when `measured`
/// is at least half the committed floor under `key` (so machine-to-machine
/// variance passes but a >2x regression does not). A missing or unusable
/// floor file fails the gate. Prints one verdict line.
inline bool passes_smoke_floor(const std::string& path, std::string_view key,
                               double measured, std::string_view unit) {
  const double floor = read_smoke_floor(path, key);
  const std::string u(unit);
  if (floor <= 0) {
    std::printf("  FAIL: no usable \"%.*s\" floor in %s; measured %.0f %s\n",
                static_cast<int>(key.size()), key.data(), path.c_str(),
                measured, u.c_str());
    return false;
  }
  const bool ok = measured >= floor / 2;
  std::printf("  %s: %.0f %s %s floor/2 (%.0f/2 = %.0f)\n", ok ? "ok" : "FAIL",
              measured, u.c_str(), ok ? ">=" : "<", floor, floor / 2);
  return ok;
}

/// Writes the collector's ring as `<argv0>.metrics.jsonl` next to the
/// binary and reports the path. No-op when metrics collection is off.
inline void write_metrics_sidecar(const obs::Collector* collector,
                                  std::string_view argv0) {
  if (collector == nullptr) return;
  const std::string path = std::string(argv0) + ".metrics.jsonl";
  if (obs::write_jsonl(*collector, path)) {
    std::printf("[run] metrics sidecar: %s (%zu samples)\n", path.c_str(),
                collector->samples().size());
  } else {
    std::fprintf(stderr, "[run] failed to write metrics sidecar %s\n",
                 path.c_str());
  }
}

}  // namespace ipfsmon::bench
