// The passive monitoring node (paper Sec. IV-A): a modified IPFS node with
// effectively infinite connection capacity that accepts every inbound
// connection, never evicts peers, stays otherwise indistinguishable from a
// regular node (bootstrapping + DHT maintenance only, no own requests), and
// records every Bitswap message it receives as a trace of
// (timestamp, node_ID, address, request_type, CID) tuples. Recording has
// one path: every entry is appended to the monitor's on-disk trace store
// (tracestore::SegmentWriter), and readers checkpoint that store and stream
// it back (open_store() + a StoreCursor or tracestore::scan,
// MonitoringStudy::unify()).
#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <unordered_set>

#include "node/ipfs_node.hpp"
#include "trace/trace.hpp"
#include "tracestore/store.hpp"
#include "util/file.hpp"

namespace ipfsmon::monitor {

struct MonitorConfig {
  trace::MonitorId monitor_id = 0;
  /// Periodic connected-peer-set snapshots feed the network-size
  /// estimators (Sec. IV-C).
  util::SimDuration snapshot_interval = 1 * util::kHour;
  /// Directory of the monitor's trace store. Empty = a fresh mkdtemp
  /// directory the monitor owns and removes when it is destroyed; a
  /// directory named here is never removed.
  std::string spill_dir;
  /// Segment roll caps for the store.
  std::uint64_t spill_segment_entries = 1u << 16;
  util::SimDuration spill_segment_span = 6 * util::kHour;
  /// Base node behaviour. Overridden where monitoring requires: unlimited
  /// degree, no eviction, DHT server mode, no active discovery.
  node::NodeConfig node;
};

/// One connected-peer-set snapshot.
struct PeerSnapshot {
  util::SimTime time = 0;
  std::vector<crypto::PeerId> peers;
};

class PassiveMonitor : public node::IpfsNode {
 public:
  PassiveMonitor(net::Network& network, crypto::KeyPair keys,
                 const net::Address& address, const std::string& country,
                 MonitorConfig config, util::RngStream rng);

  trace::MonitorId monitor_id() const { return monitor_id_; }

  /// Checkpoints the store (recording goes on) and opens it for reading.
  /// nullopt while crashed, when the store could not be opened
  /// (spill_error()) or when a flush failed.
  std::optional<tracestore::TraceStore> open_store();

  /// Why the store could not be opened (or recovered after a restart);
  /// "" otherwise. A monitor without a store records nothing.
  const std::string& spill_error() const { return spill_error_; }
  /// Directory of the store ("" only when no temp directory could be
  /// made).
  const std::string& spill_dir() const { return spill_dir_; }
  /// Flushes the open segment and publishes the store manifest. Call after
  /// the measurement window; nothing is recorded afterwards. Returns false
  /// when the monitor has no open store or on IO failure.
  bool finalize_spill();

  /// Starts periodic peer-set snapshots (call after go_online).
  void start_snapshots();
  void stop_snapshots();
  const std::vector<PeerSnapshot>& snapshots() const { return snapshots_; }

  /// All unique peers ever connected (the paper's weekly-total numbers).
  const std::unordered_set<crypto::PeerId>& peers_seen() const {
    return peers_seen_;
  }

  /// Peers that sent at least one Bitswap request or cancel.
  const std::unordered_set<crypto::PeerId>& bitswap_active_peers() const {
    return bitswap_active_;
  }

  /// Clears the store and counters (e.g. between warm-up and measurement).
  void reset_observations();

  // --- Crash/restart (fault injection, src/churn) ------------------------

  /// Kills the monitor at the current sim time: it drops off the network,
  /// snapshots stop, and the store's unflushed segment tail is lost. The
  /// store directory is left exactly as a real crash would: flushed
  /// segments on disk behind a stale or missing MANIFEST, for restart() to
  /// recover. Idempotent while crashed.
  void crash();

  /// Restarts a crashed monitor: recovers the store via
  /// tracestore::SegmentWriter::resume (torn tail quarantined, MANIFEST
  /// rebuilt), rejoins the network through `bootstrap`, and resumes
  /// snapshots if they were running at crash time. No-op unless crashed.
  void restart(const std::vector<crypto::PeerId>& bootstrap);

  bool crashed() const { return crashed_; }
  /// Details of the most recent restart()'s store recovery.
  const tracestore::RecoveryReport& last_recovery() const {
    return last_recovery_;
  }

 protected:
  void on_peer_connected_hook(const crypto::PeerId& peer) override;

 private:
  static node::NodeConfig monitorize(node::NodeConfig config);
  void record_message(const crypto::PeerId& from,
                      const bitswap::BitswapMessage& message);
  void schedule_snapshot();

  /// Opens the store at spill_dir_: a clean one, or the one a crash left
  /// when `resume` (crash recovery).
  void open_spill(bool resume);

  trace::MonitorId monitor_id_;
  bool crashed_ = false;
  bool snapshots_were_running_ = false;
  tracestore::RecoveryReport last_recovery_;
  util::SimDuration snapshot_interval_;
  std::string spill_dir_;
  std::uint64_t spill_segment_entries_;
  util::SimDuration spill_segment_span_;
  // Set when no directory was named. Declared before spill_, so the
  // writer is gone before the directory is removed.
  std::optional<util::TempDir> own_dir_;
  std::unique_ptr<tracestore::SegmentWriter> spill_;
  std::string spill_error_;
  std::vector<PeerSnapshot> snapshots_;
  std::unordered_set<crypto::PeerId> peers_seen_;
  std::unordered_set<crypto::PeerId> bitswap_active_;
  sim::EventHandle snapshot_timer_;

  // Obs instruments. The counter is network-wide; the gauges carry a
  // monitor="<id>" label so per-monitor series stay separable.
  struct Instruments {
    obs::Counter* trace_entries = nullptr;
    obs::Gauge* trace_size = nullptr;
    obs::Gauge* unique_peers = nullptr;
    obs::Gauge* snapshots_taken = nullptr;
    obs::Gauge* coverage_mean = nullptr;
  } metrics_;
  /// Sum of per-snapshot connected-peer counts since the last reset;
  /// coverage_mean = this / snapshots_.size() — the same statistic the
  /// analysis pipeline's estimate_over_snapshots reports as
  /// mean_set_sizes, kept live so exporters can cross-check it.
  double snapshot_peer_sum_ = 0.0;
};

}  // namespace ipfsmon::monitor
