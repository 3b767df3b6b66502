// ipfsmon-shipd — the monitor-side federation shipper.
//
// Watches a spill trace-store directory (as written by a PassiveMonitor
// with a spill dir, or any SegmentWriter) and streams every sealed segment
// plus its rollup sidecar to a federation coordinator (ipfsmon_queryd
// --coordinator) over the FMON protocol. Delivery is at-least-once and
// resumable: on every (re)connect the coordinator reports what already
// landed, so a restarted shipper only ships the gap. Reconnects back off
// exponentially.
//
// Usage: ipfsmon_shipd --store <dir> --monitor-id N [--vantage LABEL]
//                      [--host ADDR] [--port N] [--poll-ms N] [--once]
//
// --once ships everything currently sealed and exits (for scripts and
// smoke tests); the default keeps watching until SIGINT/SIGTERM.
#include <unistd.h>

#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "federation/shipper.hpp"
#include "util/file.hpp"

using namespace ipfsmon;

namespace {

int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
  const char byte = 's';
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --store <dir> --monitor-id N [--vantage LABEL]\n"
               "       %*s [--host ADDR] [--port N] [--poll-ms N] [--once]\n",
               argv0, static_cast<int>(std::strlen(argv0)), "");
  return 2;
}

void print_stats(const federation::ShipperStats& stats) {
  std::printf(
      "shipped %llu segments (%llu landed, %llu duplicate, %llu rejected), "
      "%llu bytes, %llu connects (%llu failed)\n",
      static_cast<unsigned long long>(stats.segments_shipped),
      static_cast<unsigned long long>(stats.segments_landed),
      static_cast<unsigned long long>(stats.duplicates),
      static_cast<unsigned long long>(stats.rejected),
      static_cast<unsigned long long>(stats.bytes_shipped),
      static_cast<unsigned long long>(stats.connects),
      static_cast<unsigned long long>(stats.connect_failures));
}

}  // namespace

int main(int argc, char** argv) {
  std::string store_dir;
  bool once = false;
  federation::ShipperOptions options;
  options.port = 7979;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // The next argument as a decimal in [0, max]; nullopt when it is
    // missing, malformed or out of range.
    auto number = [&](std::uint64_t max) -> std::optional<std::uint64_t> {
      const char* v = value();
      return v == nullptr ? std::nullopt : util::parse_u64(v, max);
    };
    if (arg == "--store") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      store_dir = v;
    } else if (arg == "--monitor-id") {
      const auto id = number(UINT32_MAX);
      if (!id) return usage(argv[0]);
      options.monitor_id = static_cast<std::uint32_t>(*id);
    } else if (arg == "--vantage") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      options.vantage = v;
    } else if (arg == "--host") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      options.host = v;
    } else if (arg == "--port") {
      const auto port = number(UINT16_MAX);
      if (!port) return usage(argv[0]);
      options.port = static_cast<std::uint16_t>(*port);
    } else if (arg == "--poll-ms") {
      const auto ms = number(INT_MAX);
      if (!ms || *ms == 0) return usage(argv[0]);
      options.poll_interval_ms = static_cast<int>(*ms);
    } else if (arg == "--once") {
      once = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (store_dir.empty() || options.monitor_id == 0) return usage(argv[0]);
  if (!federation::valid_vantage(options.vantage)) {
    std::fprintf(stderr, "error: vantage must match [A-Za-z0-9_-]{1,64}\n");
    return 1;
  }

  federation::Shipper shipper(store_dir, options);
  std::printf("shipping %s as monitor %u (%s) to %s:%u\n", store_dir.c_str(),
              options.monitor_id, options.vantage.c_str(),
              options.host.c_str(), options.port);
  std::fflush(stdout);

  if (once) {
    std::string error;
    if (!shipper.ship_pending(&error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      print_stats(shipper.stats());
      return 1;
    }
    print_stats(shipper.stats());
    return 0;
  }

  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "error: pipe: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction action {};
  action.sa_handler = on_signal;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);

  shipper.start();
  char byte = 0;
  while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  std::printf("\nstopping...\n");
  shipper.stop();
  print_stats(shipper.stats());
  return 0;
}
