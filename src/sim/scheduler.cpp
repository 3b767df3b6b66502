#include "sim/scheduler.hpp"

#include <algorithm>

namespace ipfsmon::sim {

void EventHandle::cancel() {
  if (state_) state_->cancelled = true;
}

bool EventHandle::pending() const {
  return state_ && !state_->cancelled && !state_->fired;
}

void Scheduler::push(util::SimTime when, EventFn fn,
                     std::shared_ptr<EventHandle::State> state) {
  if (when < now_) {
    when = now_;
    ++schedule_clamped_;
  }
  if (wrapper_) fn = wrapper_(std::move(fn));
  std::uint32_t slot = static_cast<std::uint32_t>(slots_.size());
  if (free_slots_.empty()) {
    slots_.push_back(Slot{std::move(fn), std::move(state)});
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = Slot{std::move(fn), std::move(state)};
  }
  // Sift up.
  const Entry entry{when, next_seq_++, slot};
  std::size_t i = heap_.size();
  heap_.push_back(entry);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!(entry < heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

Scheduler::Entry Scheduler::pop_earliest() {
  const Entry top = heap_.front();
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return top;
  // Sift `last` down from the root.
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < end; ++c) {
      if (heap_[c] < heap_[best]) best = c;
    }
    if (!(heap_[best] < last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
  return top;
}

EventHandle Scheduler::schedule_at(util::SimTime when, EventFn fn) {
  auto state = std::make_shared<EventHandle::State>();
  push(when, std::move(fn), state);
  return EventHandle(std::move(state));
}

EventHandle Scheduler::schedule_after(util::SimDuration delay, EventFn fn) {
  return schedule_at(now_ + delay, std::move(fn));
}

void Scheduler::post_at(util::SimTime when, EventFn fn) {
  push(when, std::move(fn), nullptr);
}

void Scheduler::post_after(util::SimDuration delay, EventFn fn) {
  push(now_ + delay, std::move(fn), nullptr);
}

void Scheduler::dispatch_next() {
  const Entry entry = pop_earliest();
  now_ = entry.when;
  // Move the callback out before running it: it may schedule events,
  // which can reuse this slot or grow slots_.
  Slot& slot = slots_[entry.slot];
  const EventFn fn = std::move(slot.fn);
  const auto state = std::move(slot.state);
  free_slots_.push_back(entry.slot);
  if (state && state->cancelled) {
    ++cancelled_;
    return;
  }
  if (state) state->fired = true;
  ++dispatched_;
  fn();
}

void Scheduler::run_until(util::SimTime deadline) {
  while (!heap_.empty() && heap_.front().when <= deadline) dispatch_next();
  if (now_ < deadline) now_ = deadline;
}

void Scheduler::run_all() {
  while (!heap_.empty()) dispatch_next();
}

}  // namespace ipfsmon::sim
