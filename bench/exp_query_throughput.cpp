// exp_query_throughput — raw scan bandwidth and serving performance of the
// trace query path.
//
// Part 1 (scan engine): builds a synthetic multi-segment store and measures
// full-store and watchlist scans directly against TraceStore + ScanExecutor,
// cold (page cache dropped per iteration via posix_fadvise) and warm, under
// two configurations:
//   before — the pre-zero-copy path: buffered whole-file reads, body
//            checksum re-verified on every open, per-entry hash-set
//            matching, threads spawned per scan;
//   after  — the current path: mmap'd segments, validation cache, the
//            persistent scan pool, and dictionary-id matching.
// Reports MB/s (segment body bytes decoded) and entries/s per sweep, plus a
// multi-process mode forking N readers over the same store directory.
//
// Part 2 (HTTP daemon): starts the query service in-process on an ephemeral
// loopback port and drives it with N concurrent clients issuing a mixed
// endpoint workload. Reports requests/s and p50/p99/max latency.
//
// Everything lands in BENCH_query.json (schema in EXPERIMENTS.md) so the
// perf trajectory accumulates across revisions.
//
// Flags: --entries=N --clients=N --requests=N (per client) --workers=N
//        --cache=N --readers=N (multi-process scanners) --smoke
//        --floor=path (smoke baseline, default bench/query_smoke_floor.json)
//
// --smoke runs only the warm watchlist scan on a small store and fails
// (exit 1) when entries/s drops below half the committed floor — the >2x
// regression gate wired into scripts/check.sh --perf-smoke.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <sstream>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "bench_common.hpp"
#include "query/client.hpp"
#include "query/engine.hpp"
#include "query/server.hpp"
#include "tracestore/scan.hpp"
#include "tracestore/store.hpp"
#include "util/rng.hpp"

using namespace ipfsmon;

namespace {

crypto::PeerId bench_peer(std::uint64_t index) {
  crypto::PeerId::Digest digest{};
  digest[0] = static_cast<std::uint8_t>(index);
  digest[1] = static_cast<std::uint8_t>(index >> 8);
  return crypto::PeerId(digest);
}

trace::Trace make_trace(std::size_t n, std::uint64_t seed) {
  util::RngStream rng(seed, "query-bench");
  trace::Trace t;
  util::SimTime ts = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ts += rng.uniform_index(2 * util::kSecond);
    trace::TraceEntry e;
    e.timestamp = ts;
    const auto peer = rng.uniform_index(4000);
    e.peer = bench_peer(peer);
    e.address =
        net::Address{0x0a000001u + static_cast<std::uint32_t>(peer), 4001};
    e.cid = cid::Cid::of_data(
        cid::Multicodec::Raw,
        util::bytes_of("bench cid " +
                       std::to_string(rng.uniform_index(20000))));
    const auto type = rng.uniform_index(4);
    e.type = type == 0   ? bitswap::WantType::Cancel
             : type == 1 ? bitswap::WantType::WantBlock
                         : bitswap::WantType::WantHave;
    if (rng.uniform_index(4) == 0) e.flags |= trace::kRebroadcast;
    if (rng.uniform_index(6) == 0) e.flags |= trace::kInterMonitorDuplicate;
    t.append(std::move(e));
  }
  return t;
}

// --- Scan sweeps -------------------------------------------------------------

struct SweepResult {
  std::string name;
  double seconds = 0;
  std::uint64_t entries = 0;  // decoded (pre-predicate)
  std::uint64_t bytes = 0;    // segment body bytes decoded
  std::uint64_t matched = 0;

  double entries_per_s() const { return seconds > 0 ? entries / seconds : 0; }
  double mb_per_s() const {
    return seconds > 0 ? bytes / seconds / 1e6 : 0;
  }
};

/// Asks the kernel to evict the store's segment files from the page cache,
/// emulating a cold first scan without root.
void drop_page_cache(const tracestore::TraceStore& store) {
#if defined(__unix__) || defined(__APPLE__)
  for (std::size_t i = 0; i < store.segments().size(); ++i) {
    const int fd = ::open(store.segment_path(i).c_str(), O_RDONLY);
    if (fd < 0) continue;
#if defined(POSIX_FADV_DONTNEED)
    ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
#endif
    ::close(fd);
  }
#endif
}

/// Reproduces the pre-refactor scan path: one thread spawn per scan call,
/// buffered whole-file reads, body checksum verified on every open, and
/// ScanQuery::matches (hash-set probes) on every decoded entry.
SweepResult legacy_scan(const tracestore::TraceStore& store,
                        const tracestore::ScanQuery& query, bool cold,
                        int repeats) {
  SweepResult result;
  tracestore::SegmentOpenOptions open_options;
  open_options.backend = tracestore::IoBackend::kBuffered;
  open_options.validated = nullptr;
  const std::size_t threads =
      std::max(1u, std::thread::hardware_concurrency());
  bench::Stopwatch watch;
  for (int rep = 0; rep < repeats; ++rep) {
    if (cold) drop_page_cache(store);
    std::atomic<std::size_t> next{0};
    std::atomic<std::uint64_t> entries{0}, bytes{0}, matched{0};
    auto worker = [&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= store.segments().size()) return;
        auto reader =
            tracestore::SegmentReader::open(store.segment_path(i),
                                            open_options);
        if (!reader) continue;
        std::uint64_t n = 0, hit = 0;
        trace::TraceEntry e;
        while (reader->next(e)) {
          ++n;
          if (query.matches(e)) ++hit;
        }
        entries.fetch_add(n);
        matched.fetch_add(hit);
        bytes.fetch_add(reader->footer().body_bytes);
      }
    };
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
    result.entries += entries.load();
    result.bytes += bytes.load();
    result.matched += matched.load();
  }
  result.seconds = watch.seconds();
  return result;
}

/// The current path: persistent pool, mmap, validation cache,
/// dictionary-id matching — whatever `store` was opened with.
SweepResult modern_scan(const tracestore::TraceStore& store,
                        const tracestore::ScanQuery& query, bool cold,
                        int repeats) {
  SweepResult result;
  const tracestore::ScanExecutor executor;  // store's shared pool
  bench::Stopwatch watch;
  for (int rep = 0; rep < repeats; ++rep) {
    if (cold) drop_page_cache(store);
    const tracestore::ScanStats stats =
        executor.scan(store, query, [](const trace::TraceEntry&) {});
    result.entries += stats.entries_decoded;
    result.bytes += stats.bytes_scanned;
    result.matched += stats.entries_matched;
  }
  result.seconds = watch.seconds();
  return result;
}

struct MultiProcResult {
  int readers = 0;
  double seconds = 0;
  double entries_per_s = 0;
  double mb_per_s = 0;
  bool ran = false;
};

/// Forks `readers` child processes, each opening the shared store
/// directory independently and running `repeats` warm full scans — the
/// multiple-analysts-one-store shape. Must run before any server threads
/// start (fork safety).
MultiProcResult run_multiprocess(const std::string& dir,
                                 const tracestore::StoreOptions& options,
                                 int readers, int repeats) {
  MultiProcResult result;
  result.readers = readers;
#if defined(__unix__) || defined(__APPLE__)
  int fds[2];
  if (::pipe(fds) != 0) return result;
  bench::Stopwatch watch;
  std::vector<pid_t> pids;
  for (int r = 0; r < readers; ++r) {
    const pid_t pid = ::fork();
    if (pid < 0) break;
    if (pid == 0) {
      ::close(fds[0]);
      std::uint64_t entries = 0, bytes = 0;
      auto store = tracestore::TraceStore::open(dir, options);
      if (store) {
        const tracestore::ScanExecutor executor;
        for (int rep = 0; rep < repeats; ++rep) {
          const tracestore::ScanStats stats = executor.scan(
              *store, tracestore::ScanQuery{},
              [](const trace::TraceEntry&) {});
          entries += stats.entries_decoded;
          bytes += stats.bytes_scanned;
        }
      }
      char line[64];
      const int len =
          std::snprintf(line, sizeof(line), "%llu %llu\n",
                        static_cast<unsigned long long>(entries),
                        static_cast<unsigned long long>(bytes));
      if (len > 0) {
        const char* p = line;
        std::size_t left = static_cast<std::size_t>(len);
        while (left > 0) {
          const ssize_t wrote = ::write(fds[1], p, left);
          if (wrote <= 0) break;
          p += wrote;
          left -= static_cast<std::size_t>(wrote);
        }
      }
      ::close(fds[1]);
      ::_exit(0);
    }
    pids.push_back(pid);
  }
  ::close(fds[1]);
  std::string collected;
  char buf[256];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n <= 0) break;
    collected.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  for (const pid_t pid : pids) {
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
  result.seconds = watch.seconds();
  std::uint64_t entries = 0, bytes = 0;
  std::istringstream lines(collected);
  std::uint64_t e = 0, b = 0;
  while (lines >> e >> b) {
    entries += e;
    bytes += b;
  }
  if (result.seconds > 0 && !pids.empty()) {
    result.entries_per_s = entries / result.seconds;
    result.mb_per_s = bytes / result.seconds / 1e6;
    result.ran = entries > 0;
  }
#else
  (void)dir;
  (void)options;
  (void)repeats;
#endif
  return result;
}

// --- HTTP workloads ----------------------------------------------------------

struct WorkloadResult {
  std::string name;
  std::size_t requests = 0;
  std::size_t failures = 0;
  double seconds = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;

  double rps() const { return seconds > 0 ? requests / seconds : 0; }
};

/// Drives `target(rng)` from `clients` threads, `per_client` requests each.
WorkloadResult drive(const char* name, std::uint16_t port, int clients,
                     int per_client,
                     const std::function<std::string(util::RngStream&)>&
                         target) {
  std::vector<std::vector<double>> latencies(clients);
  std::atomic<std::size_t> failures{0};
  bench::Stopwatch watch;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      util::RngStream rng(static_cast<std::uint64_t>(c) + 1, "bench-client");
      latencies[c].reserve(per_client);
      for (int i = 0; i < per_client; ++i) {
        const std::string t = target(rng);
        bench::Stopwatch request_watch;
        const auto response = query::http_get("127.0.0.1", port, t);
        latencies[c].push_back(request_watch.seconds() * 1000.0);
        if (!response || response->status != 200) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();

  WorkloadResult result;
  result.name = name;
  result.seconds = watch.seconds();
  result.failures = failures.load();
  std::vector<double> all;
  for (auto& l : latencies) all.insert(all.end(), l.begin(), l.end());
  result.requests = all.size();
  std::sort(all.begin(), all.end());
  auto quantile = [&all](double q) {
    if (all.empty()) return 0.0;
    const auto index = static_cast<std::size_t>(q * (all.size() - 1));
    return all[index];
  };
  result.p50_ms = quantile(0.50);
  result.p99_ms = quantile(0.99);
  result.max_ms = all.empty() ? 0.0 : all.back();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const bool smoke = flags.has("smoke");
  const auto entries = flags.get_u64("entries", smoke ? 60000 : 200000);
  const int clients = static_cast<int>(flags.get_u64("clients", 8));
  const int per_client = static_cast<int>(flags.get_u64("requests", 200));
  const int readers = static_cast<int>(flags.get_u64("readers", 4));
  const std::string dir = "/tmp/ipfsmon_bench_query_store";

  bench::print_header("exp_query_throughput",
                      "scan bandwidth + query daemon serving performance");
  bench::Stopwatch total;

  std::printf("building synthetic store: %llu entries -> %s\n",
              static_cast<unsigned long long>(entries), dir.c_str());
  const trace::Trace t = make_trace(entries, 7);
  tracestore::StoreOptions store_options;
  // Many segments, so the pooled scan has parallelism to exploit.
  store_options.max_entries_per_segment = 16384;
  {
    auto writer = tracestore::SegmentWriter::create(dir, store_options);
    if (writer == nullptr) {
      std::fprintf(stderr, "cannot create %s\n", dir.c_str());
      return 1;
    }
    for (const auto& e : t.entries()) writer->append(e);
    if (!writer->finalize()) return 1;
  }

  // --- Part 1: scan engine sweeps (before any server threads exist) ---
  tracestore::StoreOptions before_options = store_options;
  before_options.io_backend = tracestore::IoBackend::kBuffered;
  before_options.reuse_validation = false;
  tracestore::StoreOptions after_options = store_options;
  after_options.io_backend = tracestore::IoBackend::kAuto;
  after_options.reuse_validation = true;

  auto before_store = tracestore::TraceStore::open(dir, before_options);
  auto after_store = tracestore::TraceStore::open(dir, after_options);
  if (!before_store || !after_store) {
    std::fprintf(stderr, "cannot open %s\n", dir.c_str());
    return 1;
  }

  tracestore::ScanQuery full_query;
  tracestore::ScanQuery watchlist_query;
  for (std::uint64_t p = 0; p < 64; ++p) {
    watchlist_query.peers.insert(bench_peer(p));
  }

  const int cold_reps = smoke ? 0 : 2;
  const int warm_reps = smoke ? 2 : 3;
  std::vector<SweepResult> sweeps;
  const auto run_pair = [&](const std::string& workload,
                            const tracestore::ScanQuery& query, bool cold,
                            int reps) {
    if (reps == 0) return;
    const std::string mode = cold ? "cold" : "warm";
    if (!smoke) {
      SweepResult before = legacy_scan(*before_store, query, cold, reps);
      before.name = workload + "/" + mode + "/before";
      sweeps.push_back(before);
    }
    // Warm the pages and validation cache once, untimed, so a warm sweep
    // measures steady state.
    if (!cold) modern_scan(*after_store, query, false, 1);
    SweepResult after = modern_scan(*after_store, query, cold, reps);
    after.name = workload + "/" + mode + "/after";
    sweeps.push_back(after);
  };
  run_pair("full", full_query, true, cold_reps);
  run_pair("full", full_query, false, warm_reps);
  run_pair("watchlist", watchlist_query, true, cold_reps);
  run_pair("watchlist", watchlist_query, false, warm_reps);

  bench::print_section("scan sweeps (store -> visitor, no HTTP)");
  std::printf("  %-24s %10s %12s %12s %10s\n", "sweep", "MB/s", "entries/s",
              "matched", "seconds");
  const auto find_sweep = [&](const std::string& name) -> const SweepResult* {
    for (const auto& s : sweeps) {
      if (s.name == name) return &s;
    }
    return nullptr;
  };
  for (const auto& s : sweeps) {
    std::printf("  %-24s %10.1f %12.0f %12llu %10.3f\n", s.name.c_str(),
                s.mb_per_s(), s.entries_per_s(),
                static_cast<unsigned long long>(s.matched), s.seconds);
  }
  double warm_speedup = 0;
  {
    const SweepResult* before = find_sweep("watchlist/warm/before");
    const SweepResult* after = find_sweep("watchlist/warm/after");
    if (before != nullptr && after != nullptr &&
        before->entries_per_s() > 0) {
      warm_speedup = after->entries_per_s() / before->entries_per_s();
      std::printf("  warm watchlist speedup (after/before): %.2fx\n",
                  warm_speedup);
    }
  }

  int exit_code = 0;
  if (smoke) {
    // Regression gate: warm watchlist entries/s against the committed
    // floor. Fails only on a >2x drop, so machine-to-machine variance
    // does not flake the gate.
    const SweepResult* after = find_sweep("watchlist/warm/after");
    const double measured = after != nullptr ? after->entries_per_s() : 0;
    bench::print_section("perf smoke gate");
    if (!bench::passes_smoke_floor(
            flags.get_str("floor", "bench/query_smoke_floor.json"),
            "warm_scan_entries_per_s", measured, "entries/s")) {
      exit_code = 1;
    }
  }

  MultiProcResult multiproc;
  if (!smoke) {
    multiproc = run_multiprocess(dir, after_options, readers, 2);
    if (multiproc.ran) {
      bench::print_section("multi-process readers (one shared store dir)");
      std::printf("  %d processes: %.1f MB/s aggregate, %.0f entries/s, "
                  "%.3f s\n",
                  multiproc.readers, multiproc.mb_per_s,
                  multiproc.entries_per_s, multiproc.seconds);
    }
  }

  // --- Part 2: HTTP daemon workloads ---
  std::vector<WorkloadResult> results;
  std::size_t segments = after_store->segments().size();
  std::size_t rollups_loaded = 0;
  std::size_t worker_threads = flags.get_u64("workers", 4);
  if (!smoke) {
    // Release the bench-side stores before the service opens its own view.
    before_store.reset();
    after_store.reset();

    query::QueryOptions query_options;
    query_options.cache_capacity = flags.get_u64("cache", 128);
    query_options.store.max_entries_per_segment =
        store_options.max_entries_per_segment;
    auto service = query::QueryService::open(dir, query_options);
    if (service == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", dir.c_str());
      return 1;
    }
    query::ServerOptions server_options;
    server_options.worker_threads = worker_threads;
    query::HttpServer server(server_options,
                             [&service](const query::HttpRequest& request) {
                               return service->handle(request);
                             });
    std::string error;
    if (!server.start(&error)) {
      std::fprintf(stderr, "cannot start server: %s\n", error.c_str());
      return 1;
    }
    service->attach_server(&server);
    segments = service->store().segments().size();
    rollups_loaded = service->rollups_loaded();
    std::printf("store: %zu segments, %zu rollups; serving on port %u with "
                "%zu workers, %d clients x %d requests\n",
                segments, rollups_loaded, server.port(),
                server_options.worker_threads, clients, per_client);

    const util::SimTime lo = service->store().min_time();
    const util::SimTime hi = service->store().max_time();
    auto random_range = [lo, hi](util::RngStream& rng) {
      const auto span = static_cast<std::uint64_t>(hi - lo + 1);
      util::SimTime a =
          lo + static_cast<util::SimTime>(rng.uniform_index(span));
      util::SimTime b =
          lo + static_cast<util::SimTime>(rng.uniform_index(span));
      if (a > b) std::swap(a, b);
      return util::format("?min_t=%lld&max_t=%lld", static_cast<long long>(a),
                          static_cast<long long>(b));
    };

    results.push_back(drive("healthz", server.port(), clients, per_client,
                            [](util::RngStream&) {
                              return std::string("/healthz");
                            }));
    results.push_back(drive("stats_rollup", server.port(), clients,
                            per_client, [&](util::RngStream& rng) {
                              return "/v1/stats" + random_range(rng);
                            }));
    results.push_back(drive("stats_cached", server.port(), clients,
                            per_client, [](util::RngStream&) {
                              return std::string("/v1/stats");
                            }));
    results.push_back(drive("stats_cold_scan", server.port(), clients,
                            std::max(1, per_client / 10),
                            [&](util::RngStream& rng) {
                              return "/v1/stats" + random_range(rng) +
                                     "&force=scan";
                            }));

    bench::print_section("results");
    std::printf("  %-16s %10s %9s %9s %9s %9s %6s\n", "workload", "req/s",
                "p50 ms", "p99 ms", "max ms", "total", "fail");
    for (const auto& r : results) {
      std::printf("  %-16s %10.0f %9.3f %9.3f %9.3f %9zu %6zu\n",
                  r.name.c_str(), r.rps(), r.p50_ms, r.p99_ms, r.max_ms,
                  r.requests, r.failures);
    }
    server.stop();
  }

  const std::string artifact = "BENCH_query.json";
  std::FILE* out = std::fopen(artifact.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", artifact.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\"bench\":\"query_throughput\",\"entries\":%llu,"
               "\"segments\":%zu,\"clients\":%d,\"workers\":%zu,"
               "\"smoke\":%s,\"scan\":{\"sweeps\":[",
               static_cast<unsigned long long>(entries), segments, clients,
               worker_threads, smoke ? "true" : "false");
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    const auto& s = sweeps[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"mb_per_s\":%.2f,"
                 "\"entries_per_s\":%.1f,\"matched\":%llu,"
                 "\"seconds\":%.4f}",
                 i == 0 ? "" : ",", s.name.c_str(), s.mb_per_s(),
                 s.entries_per_s(),
                 static_cast<unsigned long long>(s.matched), s.seconds);
  }
  std::fprintf(out, "],\"warm_watchlist_speedup\":%.2f", warm_speedup);
  if (multiproc.ran) {
    std::fprintf(out,
                 ",\"multiprocess\":{\"readers\":%d,\"mb_per_s\":%.2f,"
                 "\"entries_per_s\":%.1f,\"seconds\":%.4f}",
                 multiproc.readers, multiproc.mb_per_s,
                 multiproc.entries_per_s, multiproc.seconds);
  }
  std::fprintf(out, "},\"workloads\":[");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"requests\":%zu,\"failures\":%zu,"
                 "\"rps\":%.1f,\"p50_ms\":%.3f,\"p99_ms\":%.3f,"
                 "\"max_ms\":%.3f}",
                 i == 0 ? "" : ",", r.name.c_str(), r.requests, r.failures,
                 r.rps(), r.p50_ms, r.p99_ms, r.max_ms);
  }
  std::fprintf(out, "]}\n");
  std::fclose(out);
  std::printf("\n[run] artifact: %s\n", artifact.c_str());

  bench::print_run_footer(total);
  std::size_t failures = 0;
  for (const auto& r : results) failures += r.failures;
  if (failures != 0) exit_code = 1;
  return exit_code;
}
