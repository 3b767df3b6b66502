#include "tracestore/merge.hpp"

#include <algorithm>
#include <queue>
#include <utility>

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

namespace {

std::size_t key_hash(const trace::TraceEntry& e) {
  const std::size_t h1 = std::hash<crypto::PeerId>{}(e.peer);
  const std::size_t h2 = std::hash<cid::Cid>{}(e.cid);
  return h1 ^ (h2 * 0x9e3779b97f4a7c15ull) ^ static_cast<std::size_t>(e.type);
}

}  // namespace

void StreamingFlagger::mark(trace::TraceEntry& entry) {
  evict_before(entry.timestamp - kWidestWindow);

  entry.flags = 0;
  const std::uint32_t s = acquire(entry);
  Slot& slot = slots_[s];
  Sighting* own = nullptr;
  for (Sighting& seen : slot.seen) {
    const util::SimDuration delta = entry.timestamp - seen.time;
    if (seen.monitor == entry.monitor) {
      own = &seen;
      if (delta <= trace::kRebroadcastWindow) {
        entry.flags |= trace::kRebroadcast;
      }
    } else if (delta <= trace::kInterMonitorWindow) {
      entry.flags |= trace::kInterMonitorDuplicate;
    }
  }
  if (own != nullptr) {
    own->time = entry.timestamp;
  } else {
    slot.seen.push_back(Sighting{entry.monitor, entry.timestamp});
  }
  expiries_.push_back(
      Expiry{entry.timestamp, s, slot.generation, entry.monitor});
  peak_keys_ = std::max(peak_keys_, live_);
}

std::size_t StreamingFlagger::home(std::size_t hash) const {
  // The key hash is a plain fold of digest bytes; mix it so the low bits
  // that pick the position depend on all of them.
  std::uint64_t h = hash;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return static_cast<std::size_t>(h) & (index_.size() - 1);
}

std::uint32_t StreamingFlagger::acquire(const trace::TraceEntry& entry) {
  if (2 * (live_ + 1) > index_.size()) {
    const std::size_t size = std::max<std::size_t>(64, 2 * index_.size());
    const std::vector<std::uint32_t> old =
        std::exchange(index_, std::vector<std::uint32_t>(size));
    for (const std::uint32_t ref : old) {
      if (ref == 0) continue;
      std::size_t pos = home(slots_[ref - 1].hash);
      while (index_[pos] != 0) pos = (pos + 1) & (index_.size() - 1);
      index_[pos] = ref;
    }
  }
  const std::size_t hash = key_hash(entry);
  const std::size_t mask = index_.size() - 1;
  std::size_t pos = home(hash);
  for (; index_[pos] != 0; pos = (pos + 1) & mask) {
    const std::uint32_t s = index_[pos] - 1;
    const Slot& slot = slots_[s];
    if (slot.hash == hash && slot.type == entry.type &&
        slot.peer == entry.peer && slot.cid == entry.cid) {
      return s;
    }
  }
  std::uint32_t s = 0;
  if (free_slots_.empty()) {
    s = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    s = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& slot = slots_[s];
  slot.peer = entry.peer;
  slot.type = entry.type;
  slot.cid = entry.cid;
  slot.hash = hash;
  index_[pos] = s + 1;
  ++live_;
  return s;
}

void StreamingFlagger::release(std::uint32_t s) {
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = home(slots_[s].hash);
  while (index_[hole] != s + 1) hole = (hole + 1) & mask;
  // Backward-shift deletion: a later member of the probe run moves into
  // the hole unless its home lies cyclically in (hole, next].
  for (std::size_t next = (hole + 1) & mask; index_[next] != 0;
       next = (next + 1) & mask) {
    const std::size_t want = home(slots_[index_[next] - 1].hash);
    if (((next - want) & mask) >= ((next - hole) & mask)) {
      index_[hole] = index_[next];
      hole = next;
    }
  }
  index_[hole] = 0;
  Slot& slot = slots_[s];
  ++slot.generation;
  slot.seen.clear();
  free_slots_.push_back(s);
  --live_;
}

void StreamingFlagger::evict_before(util::SimTime horizon) {
  while (!expiries_.empty() && expiries_.front().time < horizon) {
    const Expiry expiry = expiries_.front();
    expiries_.pop_front();
    Slot& slot = slots_[expiry.slot];
    if (slot.generation != expiry.generation) continue;
    // Only drop the sighting if it was not refreshed later (a refresh
    // leaves this expiry stale; the newer one covers it).
    const auto it = std::find_if(
        slot.seen.begin(), slot.seen.end(), [&expiry](const Sighting& s) {
          return s.monitor == expiry.monitor && s.time == expiry.time;
        });
    if (it == slot.seen.end()) continue;
    *it = slot.seen.back();
    slot.seen.pop_back();
    if (slot.seen.empty()) release(expiry.slot);
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

std::optional<UnifyStats> unify_dirs(const std::vector<std::string>& input_dirs,
                                     const std::string& out_dir,
                                     const StoreOptions& options,
                                     std::string* error) {
  std::vector<TraceStore> stores;
  stores.reserve(input_dirs.size());
  for (const auto& dir : input_dirs) {
    std::string open_error;
    auto store = TraceStore::open(dir, options, &open_error);
    if (!store) {
      if (error != nullptr) *error = "cannot open " + dir + ": " + open_error;
      return std::nullopt;
    }
    stores.push_back(std::move(*store));
  }
  std::vector<const TraceStore*> inputs;
  for (const auto& store : stores) inputs.push_back(&store);
  auto writer = SegmentWriter::create(out_dir, options, error);
  if (writer == nullptr) return std::nullopt;
  const UnifyStats stats = unify_to_store(inputs, *writer);
  if (!writer->finalize()) {
    if (error != nullptr) {
      *error = "cannot finalize " + out_dir + ": " + writer->error();
    }
    return std::nullopt;
  }
  return stats;
}

}  // namespace ipfsmon::tracestore
