#include "trace/trace.hpp"

#include <algorithm>
#include <unordered_set>

namespace ipfsmon::trace {

void Trace::sort_by_time() {
  std::stable_sort(entries_.begin(), entries_.end(),
                   [](const TraceEntry& a, const TraceEntry& b) {
                     return a.timestamp < b.timestamp;
                   });
}

void Trace::merge_from(const Trace& other) {
  entries_.insert(entries_.end(), other.entries_.begin(),
                  other.entries_.end());
}

void StatsAccumulator::add(const TraceEntry& e) {
  ++stats_.total;
  if (e.is_request()) {
    ++stats_.requests;
    if (e.is_rebroadcast()) ++stats_.request_rebroadcasts;
  } else {
    ++stats_.cancels;
  }
  if (e.is_duplicate()) ++stats_.inter_monitor_duplicates;
  if (e.is_rebroadcast()) ++stats_.rebroadcasts;
  if (e.is_clean()) ++stats_.clean;
  peers_.insert(e.peer);
  cids_.insert(e.cid);
}

TraceStats StatsAccumulator::stats() const {
  TraceStats stats = stats_;
  stats.unique_peers = peers_.size();
  stats.unique_cids = cids_.size();
  return stats;
}

}  // namespace ipfsmon::trace
