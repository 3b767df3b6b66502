#include "monitor/passive_monitor.hpp"

namespace ipfsmon::monitor {

node::NodeConfig PassiveMonitor::monitorize(node::NodeConfig config) {
  config.nat = false;          // publicly reachable by design
  config.dht_server = true;    // regular DHT participant
  config.max_degree = std::numeric_limits<std::size_t>::max();
  config.high_water = 0;       // never trim: peers are never evicted
  config.low_water = 0;
  config.target_degree = 0;    // passive: no active peer search
  config.discovery_dials = 0;
  config.provide_downloaded = false;  // monitors hold no data
  return config;
}

PassiveMonitor::PassiveMonitor(net::Network& network, crypto::KeyPair keys,
                               const net::Address& address,
                               const std::string& country,
                               MonitorConfig config, util::RngStream rng)
    : node::IpfsNode(network, std::move(keys), address, country,
                     monitorize(config.node), std::move(rng)),
      monitor_id_(config.monitor_id),
      snapshot_interval_(config.snapshot_interval),
      spill_dir_(config.spill_dir),
      spill_segment_entries_(config.spill_segment_entries),
      spill_segment_span_(config.spill_segment_span) {
  engine().set_listener([this](const crypto::PeerId& from,
                               net::ConnectionId /*conn*/,
                               const bitswap::BitswapMessage& message) {
    record_message(from, message);
  });
  auto& reg = network.obs().metrics;
  const std::string label = "monitor=\"" + std::to_string(monitor_id_) + "\"";
  metrics_.trace_entries =
      &reg.counter("ipfsmon_monitor_trace_entries_total",
                   "Bitswap trace entries recorded by all monitors");
  metrics_.trace_size = &reg.gauge("ipfsmon_monitor_trace_entries",
                                   "Trace entries since last reset", label);
  metrics_.unique_peers = &reg.gauge(
      "ipfsmon_monitor_unique_peers", "Unique peers ever connected", label);
  metrics_.snapshots_taken = &reg.gauge("ipfsmon_monitor_snapshots",
                                        "Peer-set snapshots taken", label);
  metrics_.coverage_mean =
      &reg.gauge("ipfsmon_monitor_coverage_mean_peers",
                 "Mean connected-peer-set size over snapshots", label);
  if (spill_dir_.empty()) {
    own_dir_.emplace("ipfsmon-monitor");
    spill_dir_ = own_dir_->path();
  }
  open_spill(/*resume=*/false);
}

void PassiveMonitor::open_spill(bool resume) {
  // A live writer's files are wiped by create() or recovered by resume()
  // below, so it is dropped without a final flush.
  if (spill_ != nullptr) spill_->abandon();
  spill_.reset();
  spill_error_.clear();
  if (spill_dir_.empty()) {
    spill_error_ = "cannot create a temporary store directory";
    return;
  }
  // No obs sink: the monitor's own trace-entry counters already report
  // what the writer's tracestore counters would.
  tracestore::StoreOptions options;
  options.max_entries_per_segment = spill_segment_entries_;
  options.max_segment_span = spill_segment_span_;
  if (resume) {
    tracestore::RecoveryReport report;
    spill_ = tracestore::SegmentWriter::resume(spill_dir_, options, &report,
                                               &spill_error_);
    last_recovery_ = std::move(report);
  } else {
    spill_ = tracestore::SegmentWriter::create(spill_dir_, options,
                                               &spill_error_);
  }
  metrics_.trace_size->set(
      spill_ != nullptr ? static_cast<double>(spill_->entries_written())
                        : 0.0);
}

bool PassiveMonitor::finalize_spill() {
  return spill_ != nullptr && spill_->finalize();
}

std::optional<tracestore::TraceStore> PassiveMonitor::open_store() {
  if (spill_ == nullptr || !spill_->checkpoint()) return std::nullopt;
  return tracestore::TraceStore::open(spill_dir_);
}

void PassiveMonitor::record_message(const crypto::PeerId& from,
                                    const bitswap::BitswapMessage& message) {
  if (crashed_ || spill_ == nullptr || message.entries.empty()) return;
  bitswap_active_.insert(from);
  const net::NodeRecord* rec = network().record(from);
  const net::Address addr = rec != nullptr ? rec->address : net::Address{};
  const util::SimTime now = network().scheduler().now();
  if (message.trace.sampled) {
    // The observation itself joins the request's trace — the causal link
    // the paper's methodology is built on, made visible per request.
    network().obs().tracer.add_span(
        "monitor.capture", message.trace, now, now,
        {{"monitor", std::to_string(monitor_id_)},
         {"peer", from.short_hex()},
         {"entries", std::to_string(message.entries.size())}});
  }
  for (const auto& entry : message.entries) {
    trace::TraceEntry t;
    t.timestamp = now;
    t.peer = from;
    t.address = addr;
    t.type = entry.type;
    // Salted requests (countermeasure, Sec. VI-C item 4) hide the real CID:
    // the monitor can only record an opaque stand-in. With fresh per-entry
    // salts, every request looks like a distinct, unlinkable CID.
    t.cid = entry.salted ? bitswap::opaque_cid_for(entry) : entry.cid;
    t.monitor = monitor_id_;
    spill_->append(t);
    metrics_.trace_entries->inc();
  }
  metrics_.trace_size->set(static_cast<double>(spill_->entries_written()));
}

void PassiveMonitor::on_peer_connected_hook(const crypto::PeerId& peer) {
  peers_seen_.insert(peer);
  metrics_.unique_peers->set(static_cast<double>(peers_seen_.size()));
}

void PassiveMonitor::start_snapshots() {
  schedule_snapshot();
}

void PassiveMonitor::stop_snapshots() { snapshot_timer_.cancel(); }

void PassiveMonitor::schedule_snapshot() {
  snapshot_timer_ =
      network().scheduler().schedule_after(snapshot_interval_, [this]() {
        PeerSnapshot snapshot;
        snapshot.time = network().scheduler().now();
        snapshot.peers = network().connected_peers(id());
        snapshot_peer_sum_ += static_cast<double>(snapshot.peers.size());
        snapshots_.push_back(std::move(snapshot));
        metrics_.snapshots_taken->set(static_cast<double>(snapshots_.size()));
        metrics_.coverage_mean->set(snapshot_peer_sum_ /
                                    static_cast<double>(snapshots_.size()));
        schedule_snapshot();
      });
}

void PassiveMonitor::crash() {
  if (crashed_) return;
  crashed_ = true;
  snapshots_were_running_ = snapshot_timer_.pending();
  stop_snapshots();
  if (spill_ != nullptr) {
    // The unflushed tail dies with the process; flushed segments stay on
    // disk behind a stale/missing MANIFEST for restart() to recover.
    spill_->abandon();
    spill_.reset();
  }
  go_offline();
  // Crash metrics are registered lazily: crash-free runs keep a registry
  // byte-identical to builds without the feature.
  network().obs().metrics
      .counter("ipfsmon_monitor_crashes_total",
               "Monitor crash events injected")
      .inc();
}

void PassiveMonitor::restart(const std::vector<crypto::PeerId>& bootstrap) {
  if (!crashed_) return;
  crashed_ = false;
  open_spill(/*resume=*/true);
  go_online(bootstrap);
  if (snapshots_were_running_) start_snapshots();
  network().obs().metrics
      .counter("ipfsmon_monitor_restarts_total",
               "Monitor restarts after injected crashes")
      .inc();
}

void PassiveMonitor::reset_observations() {
  // A clean store: create() removes the previous segments.
  open_spill(/*resume=*/false);
  snapshots_.clear();
  peers_seen_.clear();
  bitswap_active_.clear();
  snapshot_peer_sum_ = 0.0;
  metrics_.unique_peers->set(0.0);
  metrics_.snapshots_taken->set(0.0);
  metrics_.coverage_mean->set(0.0);
}

}  // namespace ipfsmon::monitor
