#include "trace/preprocess.hpp"

#include <unordered_map>

namespace ipfsmon::trace {

namespace {
/// Key identifying "the same logical want entry": source, type, CID.
struct WantKey {
  crypto::PeerId peer;
  bitswap::WantType type;
  cid::Cid cid;

  bool operator==(const WantKey&) const = default;
};

struct WantKeyHash {
  std::size_t operator()(const WantKey& k) const noexcept {
    const std::size_t h1 = std::hash<crypto::PeerId>{}(k.peer);
    const std::size_t h2 = std::hash<cid::Cid>{}(k.cid);
    return h1 ^ (h2 * 0x9e3779b97f4a7c15ull) ^
           static_cast<std::size_t>(k.type);
  }
};
}  // namespace

void mark_flags(Trace& unified, const PreprocessOptions& options) {
  // Last time this key was seen per monitor. Entries arrive time-sorted,
  // so a single forward pass with per-key state suffices.
  std::unordered_map<WantKey, std::unordered_map<MonitorId, util::SimTime>,
                     WantKeyHash>
      last_seen;

  for (auto& entry : unified.entries()) {
    entry.flags = 0;
    const WantKey key{entry.peer, entry.type, entry.cid};
    auto& per_monitor = last_seen[key];

    for (const auto& [monitor, when] : per_monitor) {
      const util::SimDuration delta = entry.timestamp - when;
      if (monitor == entry.monitor) {
        if (delta <= options.rebroadcast_window) {
          entry.flags |= kRebroadcast;
        }
      } else {
        if (delta <= kInterMonitorWindow) {
          entry.flags |= kInterMonitorDuplicate;
        }
      }
    }
    per_monitor[entry.monitor] = entry.timestamp;
  }
}

Trace unify(const std::vector<const Trace*>& monitor_traces,
            const PreprocessOptions& options) {
  Trace unified;
  for (const Trace* t : monitor_traces) {
    if (t != nullptr) unified.merge_from(*t);
  }
  unified.sort_by_time();
  mark_flags(unified, options);
  return unified;
}

}  // namespace ipfsmon::trace
