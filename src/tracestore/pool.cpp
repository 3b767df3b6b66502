#include "tracestore/pool.hpp"

#include <algorithm>

namespace ipfsmon::tracestore {

/// One submitted batch: a shared task function plus per-worker index
/// ranges with atomic cursors. Claiming a task is a fetch_add on a range
/// cursor (own range first, then steal); completion is a countdown.
struct ScanPool::Ticket::Batch {
  std::function<void(std::size_t)> fn;

  struct Range {
    std::atomic<std::size_t> next{0};
    std::size_t end = 0;
    // Keep cursors on separate cache lines; they are hammered by steals.
    char padding[48] = {};
  };
  std::vector<Range> ranges;
  std::atomic<std::size_t> remaining{0};
  std::mutex done_mu;
  std::condition_variable done_cv;

  /// Claims one task index, preferring range `hint`. False when every
  /// range is drained (tasks may still be running on other threads).
  bool take(std::size_t hint, std::size_t* out) {
    const std::size_t n = ranges.size();
    for (std::size_t k = 0; k < n; ++k) {
      Range& range = ranges[(hint + k) % n];
      if (range.next.load(std::memory_order_relaxed) >= range.end) continue;
      const std::size_t i = range.next.fetch_add(1, std::memory_order_relaxed);
      if (i < range.end) {
        *out = i;
        return true;
      }
    }
    return false;
  }

  bool drained() const {
    for (const Range& range : ranges) {
      if (range.next.load(std::memory_order_relaxed) < range.end) return false;
    }
    return true;
  }

  void finish_one() {
    if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(done_mu);
      done_cv.notify_all();
    }
  }

  void wait() {
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [this] {
      return remaining.load(std::memory_order_acquire) == 0;
    });
  }
};

void ScanPool::Ticket::wait() {
  if (batch_ != nullptr) batch_->wait();
}

ScanPool::ScanPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers_.emplace_back([this, t] { worker_loop(t); });
  }
}

ScanPool::~ScanPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ScanPool::worker_loop(std::size_t id) {
  for (;;) {
    std::shared_ptr<Ticket::Batch> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !batches_.empty(); });
      if (batches_.empty()) {
        if (stop_) return;
        continue;
      }
      batch = batches_.front();
    }
    std::size_t index = 0;
    while (batch->take(id, &index)) {
      batch->fn(index);
      batch->finish_one();
    }
    // Every task claimed: retire the batch so siblings move on. The tasks
    // still running were claimed by their runners; completion is tracked
    // by the countdown, not queue membership.
    std::lock_guard<std::mutex> lock(mu_);
    if (!batches_.empty() && batches_.front() == batch) batches_.pop_front();
  }
}

ScanPool::Ticket ScanPool::run(std::size_t count,
                               std::function<void(std::size_t)> fn) {
  auto batch = std::make_shared<Ticket::Batch>();
  if (count == 0) return Ticket(std::move(batch));
  batch->fn = std::move(fn);
  batch->remaining.store(count, std::memory_order_relaxed);
  const std::size_t parts = std::max<std::size_t>(
      1, std::min(workers_.size(), count));
  batch->ranges = std::vector<Ticket::Batch::Range>(parts);
  const std::size_t chunk = count / parts;
  const std::size_t extra = count % parts;
  std::size_t start = 0;
  for (std::size_t p = 0; p < parts; ++p) {
    const std::size_t len = chunk + (p < extra ? 1 : 0);
    batch->ranges[p].next.store(start, std::memory_order_relaxed);
    batch->ranges[p].end = start + len;
    start += len;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    batches_.push_back(batch);
  }
  cv_.notify_all();
  return Ticket(std::move(batch));
}

void ScanPool::parallel_for(std::size_t count,
                            const std::function<void(std::size_t)>& fn) {
  Ticket ticket = run(count, fn);
  join(ticket);
}

void ScanPool::join(Ticket& ticket) {
  if (ticket.batch_ != nullptr && ticket.batch_->fn) {
    std::size_t index = 0;
    while (ticket.batch_->take(workers_.size(), &index)) {
      ticket.batch_->fn(index);
      ticket.batch_->finish_one();
    }
  }
  ticket.wait();
}

ScanPool::Ticket ScanPool::submit(std::function<void()> task) {
  return run(1, [task = std::move(task)](std::size_t) { task(); });
}

}  // namespace ipfsmon::tracestore
