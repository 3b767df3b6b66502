// Out-of-core trace unification (paper Sec. IV-B, streaming form): a k-way
// time-ordered merge over per-monitor stores with bounded-window duplicate
// state. Matches the in-memory trace::unify exactly:
//
//  * the heap breaks timestamp ties by input index, which reproduces the
//    stable_sort order of concatenated per-monitor traces;
//  * StreamingFlagger keeps the same per-(peer, type, CID, monitor)
//    last-seen state as trace::mark_flags, but evicts records older than
//    the widest window — an entry outside every window can never set a
//    flag, so eviction cannot change any flag assignment while keeping
//    resident state proportional to the window, not the trace.
#pragma once

#include <algorithm>
#include <deque>
#include <functional>
#include <vector>

#include "tracestore/store.hpp"
#include "trace/preprocess.hpp"

namespace ipfsmon::tracestore {

/// Streams one store's entries in segment order (segments are written in
/// time order, so this is the monitor's recording order). While the
/// consumer decodes one segment, the next one is opened (and checksum-
/// validated) ahead of time on the store's scan pool, so a k-way merge
/// overlaps each input's open/validate I/O with merging. At most two
/// segments per cursor are resident (current + prefetched); corrupt
/// segments are skipped through store.skip_segment() on the consumer
/// thread.
class StoreCursor {
 public:
  explicit StoreCursor(const TraceStore& store);
  ~StoreCursor();
  StoreCursor(StoreCursor&&) = default;
  StoreCursor& operator=(StoreCursor&&) = default;
  StoreCursor(const StoreCursor&) = delete;
  StoreCursor& operator=(const StoreCursor&) = delete;

  bool next(trace::TraceEntry& out);

 private:
  /// One in-flight open, handed from the pool task to the consumer.
  struct Prefetch {
    std::size_t index = 0;
    std::optional<SegmentReader> reader;
    std::string error;  // set when the open failed
  };

  void start_prefetch();
  bool open_next_segment();

  const TraceStore* store_;
  std::size_t segment_index_ = 0;  // next segment to submit for prefetch
  std::optional<SegmentReader> reader_;
  std::shared_ptr<Prefetch> prefetch_;
  ScanPool::Ticket prefetch_ticket_;
};

/// Incremental re-implementation of trace::mark_flags with the paper's
/// windows: feed time-ordered entries, get the same flags, with state
/// bounded by the widest window.
///
/// Each resident (peer, type, CID) key lives in a recycled slot, found
/// through an open-addressing index. Once the window's key count has
/// peaked, marking allocates nothing: a released slot keeps its sighting
/// list's capacity, and assigning its CID reuses the digest buffer.
class StreamingFlagger {
 public:
  static constexpr util::SimDuration kWidestWindow =
      std::max(trace::kInterMonitorWindow, trace::kRebroadcastWindow);

  /// Overwrites `entry.flags` exactly as trace::mark_flags would.
  void mark(trace::TraceEntry& entry);

  /// High-water mark of resident (peer, type, CID) keys — the bench's
  /// bounded-memory evidence.
  std::size_t peak_keys() const { return peak_keys_; }

 private:
  /// When one monitor last saw a slot's key.
  struct Sighting {
    trace::MonitorId monitor;
    util::SimTime time;
  };
  /// `generation` advances each time the slot is released, so an expiry
  /// queued for an earlier key in the same slot never touches the key
  /// that reuses it. (With time-ordered input the sighting times alone
  /// would tell them apart; out-of-order input can leave such an expiry
  /// queued behind a later one.)
  struct Slot {
    crypto::PeerId peer;
    bitswap::WantType type = bitswap::WantType::WantHave;
    cid::Cid cid;
    std::size_t hash = 0;
    std::uint32_t generation = 0;
    std::vector<Sighting> seen;
  };
  struct Expiry {
    util::SimTime time;
    std::uint32_t slot;
    std::uint32_t generation;
    trace::MonitorId monitor;
  };

  /// The slot holding `entry`'s key, claiming a free one when absent.
  std::uint32_t acquire(const trace::TraceEntry& entry);
  void release(std::uint32_t slot);
  /// Index position a key hash probes first.
  std::size_t home(std::size_t hash) const;
  void evict_before(util::SimTime horizon);

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  /// Linear-probing table of live slots (slot + 1; 0 = empty), a power of
  /// two in size and at most half full.
  std::vector<std::uint32_t> index_;
  std::size_t live_ = 0;
  std::deque<Expiry> expiries_;
  std::size_t peak_keys_ = 0;
};

struct UnifyStats {
  std::uint64_t entries = 0;
  std::size_t peak_window_keys = 0;
};

/// Merges the input stores in time order, marks flags, and hands every
/// entry to `sink` — never holding more than one segment per input plus
/// the flagger's window state in memory.
UnifyStats unify_stores(
    const std::vector<const TraceStore*>& inputs,
    const std::function<void(const trace::TraceEntry&)>& sink);

/// Same, spilling the flagged output into `out` (call out.finalize()
/// afterwards to publish the result store).
UnifyStats unify_to_store(const std::vector<const TraceStore*>& inputs,
                          SegmentWriter& out);

}  // namespace ipfsmon::tracestore
