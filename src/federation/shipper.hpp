// Monitor-side segment shipper: watches a spill TraceStore directory and
// streams every sealed segment (plus its rollup sidecar) to a federation
// coordinator over the FMON protocol.
//
// Sealing is detected the same way crash recovery detects it — a
// "seg-*.seg" file whose footer validates. The in-flight tail a
// SegmentWriter is still appending to does not exist on disk yet (segments
// are published by rename), so the shipper can poll a live spill directory
// without coordination. Delivery is at-least-once and resumable: on every
// (re)connect the coordinator's HELLO_ACK reports what already landed, so
// a restarted shipper — or one whose monitor crashed and recovered — only
// ships the gap. Reconnects use query::WallBackoff, the capped
// exponential backoff churn's dial_with_backoff applies, in wall-clock
// time.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "federation/protocol.hpp"
#include "query/socket.hpp"

namespace ipfsmon::federation {

struct ShipperOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::uint32_t monitor_id = 0;
  std::string vantage = "default";
  /// Directory re-scan cadence of the background loop.
  int poll_interval_ms = 100;
  /// SO_RCVTIMEO/SNDTIMEO + connect timeout per socket operation.
  int io_timeout_ms = 5000;
  /// max_attempts bounds the connects of one ship_pending() call; the
  /// start() loop retries forever, with this policy shaping the delays.
  query::WallBackoff reconnect;
};

/// Monotonic shipper counters (snapshot via Shipper::stats()).
struct ShipperStats {
  std::uint64_t segments_shipped = 0;  // SEGMENT frames sent
  std::uint64_t segments_landed = 0;   // acked as landed
  std::uint64_t duplicates = 0;        // acked as already-held
  std::uint64_t rejected = 0;          // failed coordinator verification
  std::uint64_t bytes_shipped = 0;     // segment + rollup payload bytes
  std::uint64_t connects = 0;          // successful handshakes
  std::uint64_t connect_failures = 0;  // dial/handshake attempts that failed
  std::int64_t last_ack_wall_us = 0;   // wall time of the latest ack
};

class Shipper {
 public:
  Shipper(std::string store_dir, ShipperOptions options);
  ~Shipper();
  Shipper(const Shipper&) = delete;
  Shipper& operator=(const Shipper&) = delete;

  /// One synchronous pass: connect (backoff per options.reconnect),
  /// handshake, ship every sealed segment the coordinator does not hold,
  /// close. True when the store and the coordinator agree afterwards.
  /// Not to be mixed with a running start() loop.
  bool ship_pending(std::string* error = nullptr);

  /// Starts the background loop: keep one connection open, re-scan the
  /// store every poll_interval_ms, ship new segments as they seal, and
  /// reconnect with exponential backoff when the coordinator goes away.
  void start();

  /// Stops and joins the background loop. Idempotent.
  void stop();

  ShipperStats stats() const;

  /// Replication-lag samples in microseconds (segment file mtime → ack),
  /// drained destructively — the federation bench's p50/p99 source.
  std::vector<std::int64_t> drain_lag_samples();

  const std::string& store_dir() const { return store_dir_; }
  const ShipperOptions& options() const { return options_; }

 private:
  /// Sealed segments on disk right now, name-sorted: (file, checksum).
  std::vector<SegmentIdentity> scan_sealed() const;

  /// Dials + HELLO/HELLO_ACK. Returns the connected fd (and fills
  /// `landed`) or -1. One attempt; the callers own retry policy.
  int connect_once(std::vector<SegmentIdentity>* landed, std::string* error);

  /// Ships one segment over `fd` and waits for its ack. False on any
  /// connection-level failure (the segment stays pending).
  bool ship_segment(int fd, const SegmentIdentity& segment,
                    std::string* error);

  void run_loop();

  /// Interruptible sleep; returns false when stop() was requested.
  bool sleep_ms(int ms);

  std::string store_dir_;
  ShipperOptions options_;

  mutable std::mutex mu_;  // guards stats_, lag_samples_, acked_
  ShipperStats stats_;
  std::vector<std::int64_t> lag_samples_;
  /// Segments known landed (from HELLO_ACK + our acks): file → checksum.
  std::unordered_map<std::string, std::uint64_t> acked_;

  std::thread loop_;
  std::mutex wake_mu_;
  std::condition_variable wake_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
};

}  // namespace ipfsmon::federation
