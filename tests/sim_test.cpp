// Discrete-event scheduler semantics: ordering, FIFO tiebreaks, timers,
// cancellation, and clock advancement.
#include <gtest/gtest.h>

#include "sim/scheduler.hpp"

namespace ipfsmon::sim {
namespace {

using util::kSecond;

TEST(Scheduler, StartsAtTimeZero) {
  Scheduler s;
  EXPECT_EQ(s.now(), 0);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(3 * kSecond, [&] { order.push_back(3); });
  s.schedule_at(1 * kSecond, [&] { order.push_back(1); });
  s.schedule_at(2 * kSecond, [&] { order.push_back(2); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, SameTimeEventsRunFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(kSecond, [&order, i] { order.push_back(i); });
  }
  s.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, ClockAdvancesToEventTime) {
  Scheduler s;
  util::SimTime seen = -1;
  s.schedule_at(5 * kSecond, [&] { seen = s.now(); });
  s.run_all();
  EXPECT_EQ(seen, 5 * kSecond);
  EXPECT_EQ(s.now(), 5 * kSecond);
}

TEST(Scheduler, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(2 * kSecond, [&] { ++fired; });
  s.schedule_at(10 * kSecond, [&] { ++fired; });
  s.run_until(5 * kSecond);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 5 * kSecond);  // clock reaches the deadline
  EXPECT_EQ(s.pending_events(), 1u);
  s.run_until(20 * kSecond);
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, ScheduleAfterIsRelativeToNow) {
  Scheduler s;
  util::SimTime when = 0;
  s.schedule_at(3 * kSecond, [&] {
    s.schedule_after(2 * kSecond, [&] { when = s.now(); });
  });
  s.run_all();
  EXPECT_EQ(when, 5 * kSecond);
}

TEST(Scheduler, PastTimesClampToNow) {
  Scheduler s;
  s.run_until(10 * kSecond);
  util::SimTime when = -1;
  s.schedule_at(1 * kSecond, [&] { when = s.now(); });  // in the past
  s.run_all();
  EXPECT_EQ(when, 10 * kSecond);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool fired = false;
  EventHandle handle = s.schedule_at(kSecond, [&] { fired = true; });
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  s.run_all();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, CancelAfterFiringIsHarmless) {
  Scheduler s;
  bool fired = false;
  EventHandle handle = s.schedule_at(kSecond, [&] { fired = true; });
  s.run_all();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // no-op
}

TEST(Scheduler, DefaultHandleIsSafe) {
  EventHandle handle;
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // no crash
}

TEST(Scheduler, CancellationFromWithinEvent) {
  Scheduler s;
  bool second_fired = false;
  EventHandle second = s.schedule_at(2 * kSecond, [&] { second_fired = true; });
  s.schedule_at(1 * kSecond, [&] { second.cancel(); });
  s.run_all();
  EXPECT_FALSE(second_fired);
}

TEST(Scheduler, EventsCanScheduleMoreEvents) {
  Scheduler s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) s.schedule_after(kSecond, chain);
  };
  s.schedule_after(kSecond, chain);
  s.run_all();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.now(), 5 * kSecond);
}

TEST(Scheduler, DispatchedCountsOnlyFiredEvents) {
  Scheduler s;
  s.schedule_at(kSecond, [] {});
  EventHandle cancelled = s.schedule_at(kSecond, [] {});
  cancelled.cancel();
  s.run_all();
  EXPECT_EQ(s.dispatched(), 1u);
}

TEST(Scheduler, RunUntilWithEmptyQueueAdvancesClock) {
  Scheduler s;
  s.run_until(42 * kSecond);
  EXPECT_EQ(s.now(), 42 * kSecond);
}

TEST(Scheduler, ManyEventsStressOrdering) {
  Scheduler s;
  util::SimTime last = -1;
  bool monotonic = true;
  for (int i = 0; i < 10000; ++i) {
    const util::SimTime t = (i * 7919) % 1000 * kSecond;  // scrambled times
    s.schedule_at(t, [&, t] {
      if (t < last) monotonic = false;
      last = t;
    });
  }
  s.run_all();
  EXPECT_TRUE(monotonic);
  EXPECT_EQ(s.dispatched(), 10000u);
}

TEST(Scheduler, CountsPastDueClamps) {
  sim::Scheduler s;
  s.schedule_at(1 * kSecond, [] {});
  s.run_until(5 * kSecond);
  EXPECT_EQ(s.schedule_clamped(), 0u);
  s.schedule_at(2 * kSecond, [] {});  // in the past: clamped to now
  EXPECT_EQ(s.schedule_clamped(), 1u);
}

TEST(Scheduler, PostedAndScheduledEventsShareFifoOrder) {
  Scheduler s;
  std::vector<int> order;
  s.post_at(kSecond, [&] { order.push_back(0); });
  s.schedule_at(kSecond, [&] {
    order.push_back(1);
    // Same time, scheduled while dispatching: runs after everything
    // already queued for this time.
    s.post_after(0, [&] { order.push_back(5); });
  });
  s.post_at(kSecond, [&] { order.push_back(2); });
  s.schedule_after(kSecond, [&] { order.push_back(3); });
  s.post_after(kSecond, [&] { order.push_back(4); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(Scheduler, StaleHandleDoesNotCancelReusedSlot) {
  Scheduler s;
  int fired = 0;
  EventHandle first = s.schedule_at(kSecond, [&] { ++fired; });
  s.run_until(kSecond);  // fires; its slot goes back to the free list
  EventHandle second = s.schedule_at(2 * kSecond, [&] { fired += 10; });
  bool posted = false;
  EventHandle cancelled = s.schedule_at(3 * kSecond, [] {});
  cancelled.cancel();
  s.run_until(3 * kSecond);  // pops the cancelled entry, freeing its slot
  s.post_at(4 * kSecond, [&] { posted = true; });
  first.cancel();      // stale: its event already fired
  cancelled.cancel();  // stale: its slot now holds the posted event
  s.run_all();
  EXPECT_EQ(fired, 11);
  EXPECT_TRUE(posted);
  EXPECT_FALSE(second.pending());
  EXPECT_EQ(s.dispatched(), 3u);
  EXPECT_EQ(s.cancelled(), 1u);
}

TEST(Scheduler, CountersFollowTheQueue) {
  // pending_events() counts queued entries, cancelled ones included until
  // their time comes; dispatched() and cancelled() count pops.
  Scheduler s;
  s.post_at(1 * kSecond, [] {});
  s.schedule_at(1 * kSecond, [] {});
  EventHandle c = s.schedule_at(2 * kSecond, [] {});
  s.post_at(3 * kSecond, [&] { s.schedule_after(0, [] {}); });
  s.schedule_at(4 * kSecond, [] {});
  c.cancel();
  EXPECT_EQ(s.pending_events(), 5u);
  s.run_until(2 * kSecond);
  EXPECT_EQ(s.dispatched(), 2u);
  EXPECT_EQ(s.cancelled(), 1u);
  EXPECT_EQ(s.pending_events(), 2u);
  s.run_until(3 * kSecond);
  EXPECT_EQ(s.dispatched(), 4u);
  EXPECT_EQ(s.pending_events(), 1u);
  EventHandle late = s.schedule_at(10 * kSecond, [] {});
  late.cancel();
  EXPECT_EQ(s.pending_events(), 2u);
  s.post_at(1 * kSecond, [] {});  // in the past: clamped
  EXPECT_EQ(s.schedule_clamped(), 1u);
  s.run_all();
  EXPECT_EQ(s.dispatched(), 6u);
  EXPECT_EQ(s.cancelled(), 2u);
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_EQ(s.now(), 10 * kSecond);
}

TEST(Scheduler, HandleOutlivesScheduler) {
  EventHandle handle;
  {
    Scheduler s;
    handle = s.schedule_at(kSecond, [] {});
    EXPECT_TRUE(handle.pending());
  }
  handle.cancel();  // the scheduler and its queue are gone
  EXPECT_FALSE(handle.pending());
}

}  // namespace
}  // namespace ipfsmon::sim
