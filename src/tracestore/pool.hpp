// A persistent work-stealing pool for scan and read-ahead work. Workers
// are spawned once per store and live for the store's lifetime, so
// issuing a scan costs a condition-variable wake instead of a thread spawn
// per query.
//
// Work arrives as batches of index-addressed tasks. Each batch is split
// into one contiguous range per worker; a worker drains its own range
// first (locality) and then steals from the other ranges, so a skewed
// batch (some segments pruned, some huge) still keeps every core busy.
// Range cursors are lock-free atomics; the pool mutex only guards batch
// queue membership and idle sleeping.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ipfsmon::tracestore {

class ScanPool {
 public:
  /// `threads` = 0 picks the hardware concurrency (at least 1).
  explicit ScanPool(std::size_t threads = 0);
  ~ScanPool();
  ScanPool(const ScanPool&) = delete;
  ScanPool& operator=(const ScanPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Completion handle for an asynchronously submitted batch.
  class Ticket {
   public:
    Ticket() = default;
    /// Blocks until every task in the batch has finished. Safe to call
    /// repeatedly or on an empty ticket.
    void wait();
    explicit operator bool() const { return batch_ != nullptr; }

   private:
    friend class ScanPool;
    struct Batch;
    explicit Ticket(std::shared_ptr<Batch> batch) : batch_(std::move(batch)) {}
    std::shared_ptr<Batch> batch_;
  };

  /// Enqueues `fn(0..count-1)` on the pool and returns immediately; the
  /// caller typically consumes results produced by the tasks and then
  /// waits the ticket.
  Ticket run(std::size_t count, std::function<void(std::size_t)> fn);

  /// run() + join().
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// The calling thread joins the stealing until `ticket`'s batch is
  /// drained, then blocks for completion.
  void join(Ticket& ticket);

  /// One-task convenience for read-ahead style work.
  Ticket submit(std::function<void()> task);

 private:
  void worker_loop(std::size_t id);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Ticket::Batch>> batches_;
  bool stop_ = false;
};

}  // namespace ipfsmon::tracestore
