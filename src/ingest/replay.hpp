// Deterministic replay: feeds a trace store (ingested from a real capture
// or spilled by the simulator — replay cannot tell) back through the
// discrete-event scheduler as timed monitor-capture events. The driver
// keeps exactly one pending event: each firing delivers every entry
// sharing the current timestamp to the sink at that SimTime, then
// schedules the next batch — so the whole store streams through with O(1)
// scheduler footprint and analyses, attack estimators, federation, and the
// query daemon run over real data exactly as they do over simulated data.
//
// Determinism: outputs depend only on the store contents. The same store
// replays to the same entry sequence and the same FNV-1a stream checksum
// every time, at every speedup — pacing (speedup > 0) only inserts wall
// clock sleeps between batches and never reorders or drops entries.
// speedup 0 means as-fast-as-possible (no sleeping at all).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "ingest/capture.hpp"
#include "sim/scheduler.hpp"
#include "tracestore/merge.hpp"
#include "tracestore/store.hpp"

namespace ipfsmon::ingest {

struct ReplayOptions {
  /// 0 = as fast as possible; N > 0 = pace batches so N seconds of sim
  /// time pass per wall-clock second (1 = real time).
  double speedup = 0.0;
  /// Re-run the streaming duplicate/re-broadcast flagger instead of
  /// trusting the flags stored in the segments.
  bool remark_flags = false;
  /// Replay only entries with start <= timestamp (< stop when set).
  util::SimTime start = 0;
  std::optional<util::SimTime> stop;
};

struct ReplayStats {
  std::uint64_t entries = 0;
  std::uint64_t batches = 0;  // distinct timestamps delivered
  util::SimTime first = 0;
  util::SimTime last = 0;
  /// FNV-1a 64 over the canonical byte rendering of every delivered entry
  /// in order — byte-identical replays have byte-identical checksums.
  std::uint64_t checksum = 0;
  bool done = false;  // the store has been fully delivered
};

/// Folds one entry into a running replay checksum (exposed so tests and
/// sinks can checksum independent streams the same way).
std::uint64_t fold_entry_checksum(std::uint64_t seed,
                                  const trace::TraceEntry& entry);

class ReplayDriver {
 public:
  /// Called once per entry, at scheduler.now() == entry.timestamp.
  using Sink = std::function<void(const trace::TraceEntry&)>;

  /// The store must outlive the driver; the driver must outlive the last
  /// scheduled pump (destroy it only after the scheduler drains or stops).
  ReplayDriver(sim::Scheduler& scheduler, const tracestore::TraceStore& store,
               ReplayOptions options = {});

  /// Schedules the first batch. Entries then flow to `sink` as the caller
  /// runs the scheduler (run_all() drains the whole store; run_until()
  /// replays a prefix).
  void start(Sink sink);

  const ReplayStats& stats() const { return stats_; }

 private:
  void pump();
  void schedule_next();

  sim::Scheduler& scheduler_;
  ReplayOptions options_;
  tracestore::StoreCursor cursor_;
  tracestore::StreamingFlagger flagger_;
  Sink sink_;
  trace::TraceEntry pending_{};
  bool have_pending_ = false;
  ReplayStats stats_;
  /// Wall-clock pacing anchor (microseconds since an arbitrary origin),
  /// captured at start() when speedup > 0.
  std::int64_t pace_origin_us_ = 0;
  util::SimTime pace_sim_origin_ = 0;
};

/// Convenience: replays the whole store through a fresh scheduler and
/// returns the stats (the common "run analysis over real data" path).
ReplayStats replay_store(const tracestore::TraceStore& store,
                         const ReplayDriver::Sink& sink,
                         ReplayOptions options = {});

}  // namespace ipfsmon::ingest
