// Trace model: the (timestamp, node_ID, address, request_type, CID, flags)
// tuples the monitoring methodology produces (paper Sec. IV-A/IV-B).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "bitswap/message.hpp"
#include "cid/cid.hpp"
#include "crypto/keys.hpp"
#include "net/address.hpp"
#include "util/time.hpp"

namespace ipfsmon::trace {

/// Identifies which monitor recorded an entry ("us", "de", ...).
using MonitorId = std::uint32_t;

/// Flags attached during preprocessing (paper Sec. IV-B).
enum TraceFlags : std::uint32_t {
  /// Same (peer, type, CID) seen by a *different* monitor within 5 s —
  /// the same broadcast reached several monitors.
  kInterMonitorDuplicate = 1u << 0,
  /// Same (peer, type, CID) seen by the *same* monitor within 31 s —
  /// Bitswap's 30 s re-broadcast loop.
  kRebroadcast = 1u << 1,
};

struct TraceEntry {
  util::SimTime timestamp = 0;
  crypto::PeerId peer;
  net::Address address;
  bitswap::WantType type = bitswap::WantType::WantHave;
  cid::Cid cid;
  MonitorId monitor = 0;
  std::uint32_t flags = 0;

  bool is_duplicate() const { return (flags & kInterMonitorDuplicate) != 0; }
  bool is_rebroadcast() const { return (flags & kRebroadcast) != 0; }
  /// True for entries the deduplicated analyses keep.
  bool is_clean() const { return flags == 0; }
  /// Requests are WANT_HAVE/WANT_BLOCK; CANCELs are tracked but are not
  /// data requests.
  bool is_request() const { return type != bitswap::WantType::Cancel; }
};

/// A flat, append-only sequence of trace entries.
class Trace {
 public:
  Trace() = default;

  void append(TraceEntry entry) { entries_.push_back(std::move(entry)); }

  const std::vector<TraceEntry>& entries() const { return entries_; }
  std::vector<TraceEntry>& entries() { return entries_; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Stable-sorts by timestamp (stable: preserves arrival order of
  /// same-tick events).
  void sort_by_time();

  /// Appends all entries of `other`.
  void merge_from(const Trace& other);

  /// Entries passing a predicate, copied into a new trace.
  template <typename Pred>
  Trace filter(Pred&& pred) const {
    Trace out;
    for (const auto& e : entries_) {
      if (pred(e)) out.append(e);
    }
    return out;
  }

 private:
  std::vector<TraceEntry> entries_;
};

/// Summary counters used by several analyses and tests.
struct TraceStats {
  std::size_t total = 0;
  std::size_t requests = 0;  // WANT_HAVE + WANT_BLOCK
  std::size_t cancels = 0;
  std::size_t inter_monitor_duplicates = 0;
  std::size_t rebroadcasts = 0;
  /// Requests flagged as re-broadcasts (the paper reports > 50% of its raw
  /// requests).
  std::size_t request_rebroadcasts = 0;
  std::size_t clean = 0;
  std::size_t unique_peers = 0;
  std::size_t unique_cids = 0;

  /// Fraction of requests flagged as re-broadcasts; 0 without requests.
  double rebroadcast_share() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(request_rebroadcasts) /
                               static_cast<double>(requests);
  }
};

/// Incremental TraceStats, fed entry by entry from a store scan or unify
/// (memory is O(unique peers + unique CIDs), not O(entries)).
class StatsAccumulator {
 public:
  void add(const TraceEntry& entry);
  TraceStats stats() const;

 private:
  TraceStats stats_;
  std::unordered_set<crypto::PeerId> peers_;
  std::unordered_set<cid::Cid> cids_;
};

}  // namespace ipfsmon::trace
