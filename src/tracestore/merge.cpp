#include "tracestore/merge.hpp"

#include <algorithm>
#include <queue>

namespace ipfsmon::tracestore {

// --- StoreCursor ------------------------------------------------------------

StoreCursor::StoreCursor(const TraceStore& store) : store_(&store) {
  start_prefetch();
}

StoreCursor::~StoreCursor() {
  // The in-flight open captures this cursor's Prefetch by shared_ptr, so
  // it could outlive us safely — but it also dereferences the store;
  // block until it retires rather than racing the store's lifetime.
  prefetch_ticket_.wait();
}

void StoreCursor::start_prefetch() {
  if (segment_index_ >= store_->segments().size()) {
    prefetch_.reset();
    return;
  }
  auto pending = std::make_shared<Prefetch>();
  pending->index = segment_index_++;
  const TraceStore* store = store_;
  prefetch_ = pending;
  prefetch_ticket_ = store_->scan_pool().submit([pending, store] {
    std::string error;
    pending->reader = SegmentReader::open(store->segment_path(pending->index),
                                          &error, store->validation_cache());
    if (!pending->reader) pending->error = error;
  });
}

bool StoreCursor::open_next_segment() {
  while (prefetch_ != nullptr) {
    prefetch_ticket_.wait();
    const std::shared_ptr<Prefetch> done = std::move(prefetch_);
    // Kick off the next open before decoding this segment, so the open
    // and checksum of segment k+1 overlap the merge of segment k.
    start_prefetch();
    if (done->reader) {
      reader_ = std::move(done->reader);
      return true;
    }
    store_->skip_segment("skipping segment during scan: " + done->error);
  }
  reader_.reset();
  return false;
}

bool StoreCursor::next(trace::TraceEntry& out) {
  for (;;) {
    if (!reader_ && !open_next_segment()) return false;
    if (reader_->next(out)) return true;
    reader_.reset();
  }
}

// --- StreamingFlagger -------------------------------------------------------

void StreamingFlagger::mark(trace::TraceEntry& entry) {
  evict_before(entry.timestamp - kWidestWindow);

  entry.flags = 0;
  const Key key{entry.peer, entry.type, entry.cid};
  auto& per_monitor = last_seen_[key];
  for (const auto& [monitor, when] : per_monitor) {
    const util::SimDuration delta = entry.timestamp - when;
    if (monitor == entry.monitor) {
      if (delta <= trace::kRebroadcastWindow) {
        entry.flags |= trace::kRebroadcast;
      }
    } else {
      if (delta <= trace::kInterMonitorWindow) {
        entry.flags |= trace::kInterMonitorDuplicate;
      }
    }
  }
  per_monitor[entry.monitor] = entry.timestamp;
  expiries_.push_back(Expiry{entry.timestamp, key, entry.monitor});
  peak_keys_ = std::max(peak_keys_, last_seen_.size());
}

void StreamingFlagger::evict_before(util::SimTime horizon) {
  while (!expiries_.empty() && expiries_.front().time < horizon) {
    const Expiry& expiry = expiries_.front();
    const auto it = last_seen_.find(expiry.key);
    if (it != last_seen_.end()) {
      // Only drop the record if it was not refreshed by a later sighting
      // (a refresh leaves this expiry stale; the newer one covers it).
      const auto monitor_it = it->second.find(expiry.monitor);
      if (monitor_it != it->second.end() &&
          monitor_it->second == expiry.time) {
        it->second.erase(monitor_it);
        if (it->second.empty()) last_seen_.erase(it);
      }
    }
    expiries_.pop_front();
  }
}

// --- k-way merge unify ------------------------------------------------------

namespace {

struct MergeHead {
  trace::TraceEntry entry;
  std::size_t input = 0;  // index into the cursors vector
};

/// Min-heap order: earliest timestamp first; ties go to the lower input
/// index — the same order stable_sort gives concatenated input traces.
struct HeadAfter {
  bool operator()(const MergeHead& a, const MergeHead& b) const {
    if (a.entry.timestamp != b.entry.timestamp) {
      return a.entry.timestamp > b.entry.timestamp;
    }
    return a.input > b.input;
  }
};

}  // namespace

UnifyStats unify_stores(
    const std::vector<const TraceStore*>& inputs,
    const std::function<void(const trace::TraceEntry&)>& sink) {
  std::vector<StoreCursor> cursors;
  cursors.reserve(inputs.size());
  std::priority_queue<MergeHead, std::vector<MergeHead>, HeadAfter> heap;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (inputs[i] == nullptr) continue;
    cursors.emplace_back(*inputs[i]);
    MergeHead head;
    head.input = cursors.size() - 1;
    if (cursors.back().next(head.entry)) heap.push(std::move(head));
  }

  StreamingFlagger flagger;
  UnifyStats stats;
  while (!heap.empty()) {
    MergeHead head = heap.top();
    heap.pop();
    flagger.mark(head.entry);
    sink(head.entry);
    ++stats.entries;
    MergeHead refill;
    refill.input = head.input;
    if (cursors[head.input].next(refill.entry)) heap.push(std::move(refill));
  }
  stats.peak_window_keys = flagger.peak_keys();
  return stats;
}

UnifyStats unify_to_store(const std::vector<const TraceStore*>& inputs,
                          SegmentWriter& out) {
  return unify_stores(inputs,
                      [&out](const trace::TraceEntry& e) { out.append(e); });
}

}  // namespace ipfsmon::tracestore
