// The federation coordinator: accepts FMON connections from vantage-point
// shippers and lands their sealed segments in per-monitor store
// subdirectories under one root:
//
//   <root>/FEDERATION          federated manifest (text, atomic rename)
//   <root>/m-<id>/             one TraceStore directory per monitor
//   <root>/m-<id>/MANIFEST     rewritten after every landed segment
//
// Landing is verify-then-publish: the shipped bytes are written to a
// "<name>.tmp" file, the segment's footer *and* body FNV checksums are
// re-verified on the receiving side (never trust the wire), and only a
// fully valid segment is renamed into place and added to the monitor's
// manifest. Receives are idempotent, keyed by body checksum — a re-shipped
// segment (at-least-once delivery) is acked as a duplicate and changes
// nothing on disk; the same file name with a *different* checksum is a
// divergent monitor and is rejected permanently.
//
// Restart recovery mirrors the monitor side: start() runs
// recover_store_dir() over every m-<id> directory, so a coordinator
// crash mid-land leaves at worst a *.tmp file (deleted) or a torn segment
// (quarantined as *.torn) and the HELLO_ACK watermarks simply stop before
// the lost segment — the shipper re-ships the gap.
//
// Thread-safety: each connection runs on its own thread. A per-monitor
// mutex serializes landing for one monitor (two shippers with the same id
// cannot interleave), different monitors land concurrently. The metrics
// registry is obs's deliberately single-threaded one, so the coordinator
// guards it with its own mutex and exposes a rendered snapshot via
// metrics_text() — the query engine appends it at /metrics render time.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "federation/protocol.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "tracestore/store.hpp"

namespace ipfsmon::federation {

struct CoordinatorOptions {
  /// Bind address; tests and the bench stay on loopback.
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; port() reports the bound port either way.
  std::uint16_t port = 0;
  /// SO_RCVTIMEO/SNDTIMEO per socket operation (idle connections are
  /// poll()ed and never hit this).
  int io_timeout_ms = 5000;
  int accept_backlog = 16;
  /// Store options for monitor-dir recovery and landed-segment
  /// verification. shared_validation is overridden with the coordinator's
  /// own cache so serving stores can reuse it.
  tracestore::StoreOptions store;
  /// Span tracing of land operations (inert by default).
  obs::TracerConfig tracing;
};

/// One federated monitor's provenance row (/v1/monitors).
struct MonitorInfo {
  std::uint32_t id = 0;
  std::string vantage;
  std::string dir;  // absolute per-monitor store directory
  std::uint64_t segments = 0;
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;  // segment file bytes on disk
  /// Ship/ack watermark: unix wall micros when the latest segment landed
  /// (restored from the FEDERATION manifest across restarts).
  std::int64_t last_ship_wall_us = 0;
  /// Replication lag of the latest landed segment (land − sealed), µs.
  std::int64_t last_lag_us = 0;
};

/// A landed segment with its provenance — the /v1/segments "sources" rows.
struct LandedSegment {
  std::uint32_t monitor_id = 0;
  std::string vantage;
  std::string file;
  tracestore::SegmentFooter footer;
};

class Coordinator {
 public:
  /// Creates/recovers `root`, binds the listening socket, and starts the
  /// accept loop. Returns nullptr (with `error`) when the root directory
  /// or the socket is unusable.
  static std::unique_ptr<Coordinator> start(const std::string& root,
                                            CoordinatorOptions options = {},
                                            std::string* error = nullptr);

  ~Coordinator();
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Stops accepting, drains connection threads. Idempotent.
  void stop();

  std::uint16_t port() const { return port_; }
  const std::string& root() const { return root_; }

  /// Connection threads not yet joined (live ones plus finished ones
  /// awaiting the next accept, which reaps them).
  std::size_t connection_threads() const;

  /// Known monitors ordered by id.
  std::vector<MonitorInfo> monitors() const;

  /// Every landed segment with provenance, ordered by (monitor id, file).
  std::vector<LandedSegment> landed_segments() const;

  /// Absolute per-monitor store directories ordered by monitor id — the
  /// deterministic input order for unify (ties in the k-way merge break by
  /// input index, so this ordering is part of the output contract).
  std::vector<std::string> store_dirs() const;

  /// Bumped once per landed segment; the serving layer re-unifies only
  /// when this moved.
  std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// Prometheus text of the coordinator's registry (segments landed,
  /// bytes replicated, lag watermarks, validation cache hits).
  std::string metrics_text() const;

  /// Verified-segment cache, populated as segments land. Serving stores
  /// opened with StoreOptions::shared_validation pointing here skip the
  /// body-checksum re-validation pass.
  tracestore::ValidationCache& validation_cache() { return validated_; }

  obs::Tracer& tracer() { return tracer_; }

  /// Notes from startup recovery (torn segments quarantined, tmp files
  /// removed) — surfaced for logs/tests.
  const std::vector<std::string>& recovery_notes() const {
    return recovery_notes_;
  }

 private:
  struct MonitorState {
    std::uint32_t id = 0;
    std::string dir;  // absolute

    mutable std::mutex mu;  // serializes landing for this monitor
    std::string vantage;
    /// Manifest rows, sorted by file name (segment index order).
    std::vector<std::pair<std::string, tracestore::SegmentFooter>> segments;
    /// Idempotence map: file → body checksum (includes rejected names).
    std::unordered_map<std::string, std::uint64_t> landed;
    std::uint64_t entries = 0;
    std::uint64_t bytes = 0;
    std::int64_t last_ship_wall_us = 0;
    std::int64_t last_lag_us = 0;
  };

  Coordinator(std::string root, CoordinatorOptions options);

  bool init(std::string* error);
  bool recover_monitors(std::string* error);
  bool listen_socket(std::string* error);
  void accept_loop();
  void handle_connection(int fd);

  /// Finds/creates the monitor's state + directory and fills the
  /// HELLO_ACK watermarks. Null when the hello is invalid.
  MonitorState* handle_hello(const HelloMsg& msg, HelloAckMsg* ack);

  AckStatus land_segment(MonitorState& monitor, SegmentMsg&& msg);

  /// Rewrites <root>/FEDERATION from current state (atomic rename).
  /// Takes mu_ and each monitor's mutex in turn; the caller must hold
  /// neither.
  void write_federation_manifest() const;

  obs::Counter& counter(std::string_view name, std::string_view help,
                        std::string_view labels = {});

  std::string root_;
  CoordinatorOptions options_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;

  mutable std::mutex mu_;  // guards monitors_ map shape + manifest writes
  std::map<std::uint32_t, std::unique_ptr<MonitorState>> monitors_;

  mutable std::mutex metrics_mu_;  // registry is single-threaded by design
  mutable obs::MetricsRegistry registry_;
  mutable std::uint64_t mirrored_validation_hits_ = 0;

  tracestore::ValidationCache validated_;
  obs::Tracer tracer_;
  std::atomic<std::uint64_t> generation_{0};
  std::vector<std::string> recovery_notes_;

  struct ConnThread {
    std::thread thread;
    std::atomic<bool> done{false};  // set as the thread's last action
  };

  std::thread accept_thread_;
  mutable std::mutex threads_mu_;
  // A list so each thread's ConnThread stays put while others are reaped.
  std::list<ConnThread> conn_threads_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};
};

}  // namespace ipfsmon::federation
