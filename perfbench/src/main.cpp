// perfbench — the pipeline benchmark's measurement binary.
//
//   perfbench gen <workload> <seed> <input-dir>
//       Generates the workload's inputs for <seed> into <input-dir>.
//   perfbench run <workload> <seed> <seconds> <trace 0|1> <input-dir> <work-dir>
//       Measures the workload on those inputs for about <seconds> seconds,
//       checks its outputs, and prints a report whose last line is the JSON
//       result. Exits 1 when any operation or correctness check failed.
//
// perfbench/run.py builds this binary, caches inputs per seed, and runs
// each measurement in a fresh process so peak RSS belongs to one workload.
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "bench.hpp"
#include "tracestore/segment.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;

namespace perfbench {

void Report::print(const RunOptions& options) const {
  std::printf("== perfbench %s seed=%llu trace=%d ==\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0);
  for (const auto& line : lines_) std::printf("  %s\n", line.c_str());
  for (const auto& [name, v] : metrics_) {
    std::printf("  %-40s %16.6f %s\n", name.c_str(), v.value, v.unit.c_str());
  }
  std::printf("  %-40s %16.6f ratio  (%llu failed of %llu attempted)\n",
              "fail_ratio", fails_.ratio(),
              static_cast<unsigned long long>(fails_.failed()),
              static_cast<unsigned long long>(fails_.attempted()));
  std::string json = ipfsmon::util::format(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
      fails_.failed() == 0 ? "true" : "false",
      static_cast<unsigned long long>(std::max<std::uint64_t>(
          fails_.attempted(), 1)),
      static_cast<unsigned long long>(fails_.failed()));
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    json += ipfsmon::util::format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                         first ? "" : ", ", name.c_str(),
                         std::isfinite(v.value) ? v.value : 0.0,
                         v.unit.c_str());
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void Manifest::set(const std::string& key, double value) {
  values_[key] = ipfsmon::util::format("%.17g", value);
}

std::string Manifest::get(const std::string& key) const {
  const auto it = values_.find(key);
  return it == values_.end() ? std::string() : it->second;
}

double Manifest::get_double(const std::string& key) const {
  return std::strtod(get(key).c_str(), nullptr);
}

std::uint64_t Manifest::get_u64(const std::string& key) const {
  return std::strtoull(get(key).c_str(), nullptr, 10);
}

bool Manifest::write(const std::string& path) const {
  std::ofstream out(path);
  for (const auto& [key, value] : values_) out << key << '=' << value << '\n';
  return static_cast<bool>(out);
}

bool Manifest::read(const std::string& path, Manifest* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    const auto eq = line.find('=');
    if (eq != std::string::npos) {
      out->values_[line.substr(0, eq)] = line.substr(eq + 1);
    }
  }
  return true;
}

std::uint64_t fnv_text(std::string_view text) {
  return ipfsmon::tracestore::fnv1a64(
      ipfsmon::util::BytesView(
          reinterpret_cast<const std::uint8_t*>(text.data()), text.size()),
      0xcbf29ce484222325ull);
}

std::uint64_t hash_tree(const std::string& dir) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    // INPUT is the manifest that records this hash.
    if (entry.is_regular_file() && entry.path().filename() != "INPUT") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  std::uint64_t h = 0xcbf29ce484222325ull;
  std::vector<std::uint8_t> buffer(1 << 20);
  for (const auto& file : files) {
    const std::string name = fs::relative(file, dir).string();
    h = ipfsmon::tracestore::fnv1a64(
        ipfsmon::util::BytesView(
            reinterpret_cast<const std::uint8_t*>(name.data()), name.size()),
        h);
    std::ifstream in(file, std::ios::binary);
    while (in) {
      in.read(reinterpret_cast<char*>(buffer.data()),
              static_cast<std::streamsize>(buffer.size()));
      const auto n = static_cast<std::size_t>(in.gcount());
      if (n == 0) break;
      h = ipfsmon::tracestore::fnv1a64(
          ipfsmon::util::BytesView(buffer.data(), n), h);
    }
  }
  return h;
}

std::string hex64(std::uint64_t value) {
  return ipfsmon::util::format("%016llx",
                               static_cast<unsigned long long>(value));
}

void reset_dir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
}

}  // namespace perfbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench gen <workload> <seed> <input-dir>\n"
               "       perfbench run <workload> <seed> <seconds> <trace 0|1> "
               "<input-dir> <work-dir>\n"
               "workloads: study ingest serve\n");
  return 2;
}

bool known_workload(const std::string& name) {
  return name == "study" || name == "ingest" || name == "serve";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "gen" && argc == 5 && known_workload(argv[2])) {
    const std::uint64_t seed = std::strtoull(argv[3], nullptr, 10);
    if (!generate_inputs(argv[2], seed, argv[4])) {
      std::fprintf(stderr, "perfbench: generating %s inputs failed\n", argv[2]);
      return 1;
    }
    return 0;
  }
  if (command != "run" || argc != 8 || !known_workload(argv[2])) {
    return usage();
  }
  RunOptions options;
  options.workload = argv[2];
  options.seed = std::strtoull(argv[3], nullptr, 10);
  options.seconds = std::strtod(argv[4], nullptr);
  options.trace = std::strcmp(argv[5], "1") == 0;
  options.input_dir = argv[6];
  options.work_dir = argv[7];

  Manifest manifest;
  if (!Manifest::read((fs::path(options.input_dir) / "INPUT").string(),
                      &manifest)) {
    std::fprintf(stderr, "perfbench: no inputs in %s\n",
                 options.input_dir.c_str());
    return 1;
  }
  Report report;
  // The inputs must be exactly what the seed generates (and reading them
  // here also puts them in the page cache before any timing starts).
  const std::string hash =
      hex64(hash_tree(options.input_dir) ^ fnv_text(manifest.get("config")));
  report.note("input " + options.workload + "-" + std::to_string(options.seed) +
              " content hash " + hash);
  report.fails().record(hash == manifest.get("content_hash"));
  if (hash != manifest.get("content_hash")) {
    report.note("input hash mismatch: manifest says " +
                manifest.get("content_hash"));
  }

  if (options.workload == "study") run_study(options, &report);
  if (options.workload == "ingest") run_ingest(options, &report);
  if (options.workload == "serve") run_serve(options, &report);
  report.print(options);
  return report.fails().failed() == 0 ? 0 : 1;
}
