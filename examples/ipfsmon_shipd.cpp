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
#include <string>

#include "federation/shipper.hpp"
#include "util/flags.hpp"

using namespace ipfsmon;

namespace {

int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
  const char byte = 's';
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

constexpr const char* kUsage =
    "--store <dir> --monitor-id N [--vantage LABEL] [--host ADDR] [--port N] "
    "[--poll-ms N] [--once]";

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
  util::Flags flags(argc, argv);
  const std::string store_dir = flags.text("--store");
  federation::ShipperOptions options;
  options.monitor_id = static_cast<std::uint32_t>(
      flags.u64("--monitor-id", options.monitor_id, UINT32_MAX));
  options.vantage = flags.text("--vantage", options.vantage);
  options.host = flags.text("--host", options.host);
  options.port =
      static_cast<std::uint16_t>(flags.u64("--port", 7979, UINT16_MAX));
  options.poll_interval_ms = static_cast<int>(
      flags.u64("--poll-ms", options.poll_interval_ms, INT_MAX));
  if (options.poll_interval_ms == 0) flags.fail("--poll-ms must be at least 1");
  const bool once = flags.boolean("--once");
  if (!flags.ok() || store_dir.empty() || options.monitor_id == 0) {
    return flags.usage(kUsage);
  }
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
