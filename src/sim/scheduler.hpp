// The discrete-event simulation core: a single-threaded event queue over
// simulated time. All protocol behaviour (message delivery, Bitswap
// re-broadcast timers, churn, DHT refresh) runs as scheduled events, which
// makes multi-month "wall clock" studies tractable and exactly reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "util/time.hpp"

namespace ipfsmon::sim {

using EventFn = std::function<void()>;

/// Handle to a scheduled event; lets the owner cancel it. Copyable —
/// all copies refer to the same underlying event.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not fired yet. Safe to call repeatedly
  /// and on default-constructed handles.
  void cancel();

  /// True if the event is still pending (scheduled, not fired/cancelled).
  bool pending() const;

 private:
  friend class Scheduler;
  struct State {
    bool cancelled = false;
    bool fired = false;
  };
  explicit EventHandle(std::shared_ptr<State> state)
      : state_(std::move(state)) {}
  std::shared_ptr<State> state_;
};

class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  util::SimTime now() const { return now_; }

  /// Installs a wrapper applied to every subsequently scheduled event at
  /// schedule time — the hook higher layers use to carry request context
  /// (e.g. tracing) across timers without the scheduler knowing about
  /// them. Events scheduled before installation run unwrapped; pass an
  /// empty function to remove.
  void set_event_wrapper(std::function<EventFn(EventFn)> wrapper) {
    wrapper_ = std::move(wrapper);
  }

  /// Schedules `fn` to run at absolute time `when` (clamped to now).
  EventHandle schedule_at(util::SimTime when, EventFn fn);

  /// Schedules `fn` to run after `delay`.
  EventHandle schedule_after(util::SimDuration delay, EventFn fn);

  /// Runs events until the queue is empty or `deadline` is reached.
  /// The clock is advanced to `deadline` at the end, so repeated calls
  /// simulate contiguous time slices.
  void run_until(util::SimTime deadline);

  /// Runs all pending events (use only in tests; protocols with periodic
  /// timers never drain).
  void run_all();

  std::size_t pending_events() const { return queue_.size(); }

  /// Total events dispatched since construction (for stats/benchmarks).
  std::uint64_t dispatched() const { return dispatched_; }

  /// Events found cancelled when their dispatch time arrived (cancellation
  /// itself is O(1) on the handle; the queue entry is skipped here).
  std::uint64_t cancelled() const { return cancelled_; }

  /// Events whose requested time was in the past and was silently clamped
  /// to now by schedule_at. Nonzero values are normal for "fire asap"
  /// scheduling; the count is surfaced on /metrics rather than hidden.
  std::uint64_t schedule_clamped() const { return schedule_clamped_; }

 private:
  struct Entry {
    util::SimTime when;
    std::uint64_t seq;  // FIFO tiebreak for same-time events
    EventFn fn;
    std::shared_ptr<EventHandle::State> state;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  util::SimTime now_ = 0;
  std::function<EventFn(EventFn)> wrapper_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t schedule_clamped_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
};

}  // namespace ipfsmon::sim
