// Trace unification and duplicate marking (paper Sec. IV-B):
//
//  * entries received by *different* monitors are considered the same
//    broadcast if (peer, type, CID) match and timestamps differ ≤ 5 s
//    → all but the earliest are flagged kInterMonitorDuplicate;
//  * entries repeated at the *same* monitor for the same (peer, type, CID)
//    within 31 s are Bitswap's 30 s re-broadcast loop
//    → flagged kRebroadcast (>50% of raw entries in the paper's data).
//
// The re-broadcast window is configurable here (the window sweep of
// exp_dedup_stats); the streaming path (tracestore::StreamingFlagger,
// unify_stores, ingest, replay, federation) always uses the paper's.
#pragma once

#include <vector>

#include "trace/trace.hpp"

namespace ipfsmon::trace {

/// The paper's windows (Sec. IV-B).
inline constexpr util::SimDuration kInterMonitorWindow = 5 * util::kSecond;
inline constexpr util::SimDuration kRebroadcastWindow = 31 * util::kSecond;

struct PreprocessOptions {
  util::SimDuration rebroadcast_window = kRebroadcastWindow;
};

/// Merges per-monitor traces into one time-sorted trace and marks
/// duplicates and re-broadcasts in place.
Trace unify(const std::vector<const Trace*>& monitor_traces,
            const PreprocessOptions& options = {});

/// Marks flags on an already-merged, time-sorted trace (exposed for tests
/// and for re-flagging loaded traces).
void mark_flags(Trace& unified, const PreprocessOptions& options = {});

}  // namespace ipfsmon::trace
