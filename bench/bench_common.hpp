// Shared plumbing for the experiment harnesses: table printing and
// paper-vs-measured rows (flags are read with util::Flags). Every exp_*
// binary reproduces one table or figure from the paper and prints the same
// rows/series the paper reports, alongside the paper's value where
// applicable.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/file.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace ipfsmon::bench {

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

/// Reads the number stored under the top-level `key` of a committed
/// smoke-floor JSON object (bench/*_smoke_floor.json). 0 when the file is
/// missing or not a JSON object, or the key is absent or not a number.
inline double read_smoke_floor(const std::string& path, std::string_view key) {
  std::ifstream in(path);
  if (!in) return 0;
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::vector<util::json::Field> fields;
  if (!util::json::scan_object(text, &fields)) return 0;
  for (const auto& field : fields) {
    if (field.key == key && !field.is_string) {
      return util::parse_f64(field.value).value_or(0);
    }
  }
  return 0;
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

/// Writes `BENCH_<bench>.json` in the envelope every bench artifact shares:
/// {"bench":"<bench>","cores":N,"summary":{...},"rows":[{...},...]}.
/// `summary(json)` writes the summary object's members and `row(json, r)`
/// the members of one row per element of `rows`. Returns false, after
/// saying why on stderr, when the file cannot be written in full.
template <typename Row, typename SummaryFn, typename RowFn>
bool write_bench_artifact(std::string_view bench, const std::vector<Row>& rows,
                          SummaryFn&& summary, RowFn&& row) {
  std::string body;
  util::json::Writer json(body);
  json.begin_object()
      .key("bench").string(bench)
      .key("cores").u64(std::thread::hardware_concurrency())
      .key("summary").begin_object();
  summary(json);
  json.end_object().key("rows").begin_array();
  for (const Row& r : rows) {
    json.begin_object();
    row(json, r);
    json.end_object();
  }
  json.end_array().end_object();
  body += '\n';

  const std::string path = "BENCH_" + std::string(bench) + ".json";
  std::string error;
  if (!util::write_file(path, body, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return false;
  }
  std::printf("\n[run] artifact: %s\n", path.c_str());
  return true;
}

}  // namespace ipfsmon::bench
