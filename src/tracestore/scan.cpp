#include "tracestore/scan.hpp"

#include <limits>

#include "obs/span.hpp"
#include "tracestore/hotset.hpp"

namespace ipfsmon::tracestore {

bool ScanQuery::matches(const trace::TraceEntry& entry) const {
  if (min_time && entry.timestamp < *min_time) return false;
  if (max_time && entry.timestamp > *max_time) return false;
  if (!peers.empty() && peers.count(entry.peer) == 0) return false;
  if (!cids.empty() && cids.count(entry.cid) == 0) return false;
  return true;
}

namespace {

enum class Prune { kNone, kTime, kBloom };

Prune prune_decision(const SegmentFooter& footer, const ScanQuery& query,
                     const std::vector<BloomHash>& peer_hashes,
                     const std::vector<BloomHash>& cid_hashes) {
  const util::SimTime lo =
      query.min_time ? *query.min_time : std::numeric_limits<util::SimTime>::min();
  const util::SimTime hi =
      query.max_time ? *query.max_time : std::numeric_limits<util::SimTime>::max();
  if (!footer.overlaps(lo, hi)) return Prune::kTime;
  const auto any_might_contain = [](const BloomFilter& bloom,
                                    const std::vector<BloomHash>& hashes) {
    for (const auto& h : hashes) {
      if (bloom.might_contain(h)) return true;
    }
    return false;
  };
  if (!peer_hashes.empty() &&
      !any_might_contain(footer.peer_bloom, peer_hashes)) {
    return Prune::kBloom;
  }
  if (!cid_hashes.empty() && !any_might_contain(footer.cid_bloom, cid_hashes)) {
    return Prune::kBloom;
  }
  return Prune::kNone;
}

/// Per-dictionary id masks for one segment: mask[id] is 1 when that
/// interned key is in the query's key set. Empty mask = the query does
/// not constrain this dimension. `any` is false when the query does
/// constrain it but no interned key qualifies — nothing in the segment
/// can match (a Bloom false positive, caught exactly).
struct IdMask {
  std::vector<std::uint8_t> allowed;
  bool any = true;

  bool pass(std::uint32_t id) const {
    return allowed.empty() || (id < allowed.size() && allowed[id] != 0);
  }
};

/// `key_at(id)` resolves an interned key; with an empty query key set it is
/// never called, so lazily-decoded dictionaries (CIDs) stay undecoded for
/// queries that do not constrain that dimension.
template <typename KeyAt, typename HotSetT>
IdMask resolve_mask(std::size_t count, const KeyAt& key_at,
                    const HotSetT& keys) {
  IdMask mask;
  if (keys.empty()) return mask;
  mask.allowed.assign(count, 0);
  mask.any = false;
  for (std::size_t id = 0; id < count; ++id) {
    if (keys.contains(key_at(id))) {
      mask.allowed[id] = 1;
      mask.any = true;
    }
  }
  return mask;
}

}  // namespace

ScanStats scan(const TraceStore& store, const ScanQuery& query,
               const std::function<void(const trace::TraceEntry&)>& visit,
               ScanProfile* profile) {
  ScanStats stats;
  const std::size_t n = store.segments().size();
  stats.segments_total = n;
  if (n == 0) return stats;

  // Compile the query once: Bloom hashes for pruning, flat hot-sets for
  // the per-segment dictionary resolve, time bounds as plain integers.
  std::vector<BloomHash> peer_hashes;
  peer_hashes.reserve(query.peers.size());
  for (const auto& p : query.peers) peer_hashes.push_back(bloom_hash(p));
  std::vector<BloomHash> cid_hashes;
  cid_hashes.reserve(query.cids.size());
  for (const auto& c : query.cids) cid_hashes.push_back(bloom_hash(c));
  const HotSet<crypto::PeerId> hot_peers(query.peers);
  const HotSet<cid::Cid> hot_cids(query.cids);
  const util::SimTime lo =
      query.min_time ? *query.min_time : std::numeric_limits<util::SimTime>::min();
  const util::SimTime hi =
      query.max_time ? *query.max_time : std::numeric_limits<util::SimTime>::max();

  std::vector<std::size_t> survivors;  // unpruned segments, in order
  if (profile != nullptr) profile->prune_start_us = obs::wall_micros_now();
  for (std::size_t i = 0; i < n; ++i) {
    switch (prune_decision(store.segments()[i].footer, query, peer_hashes,
                           cid_hashes)) {
      case Prune::kTime: ++stats.segments_pruned_time; break;
      case Prune::kBloom: ++stats.segments_pruned_bloom; break;
      case Prune::kNone: survivors.push_back(i); break;
    }
  }
  if (profile != nullptr) profile->prune_end_us = obs::wall_micros_now();

  // One result slot per survivor, filled by a pool task and read by the
  // consumer (this thread) only after waiting that task's ticket.
  struct Slot {
    trace::Trace matches;
    std::string error;  // non-empty: segment skipped
    bool dictionary_pruned = false;
    std::uint64_t entries_decoded = 0;
    std::uint64_t bytes_scanned = 0;
    SegmentScanProfile profile;  // filled only when profiling
  };
  std::vector<Slot> slots(survivors.size());
  const bool profiling = profile != nullptr;
  ValidationCache* const validated = store.validation_cache();
  auto task = [&](std::size_t k) {
    const std::size_t i = survivors[k];
    Slot& local = slots[k];
    if (profiling) {
      local.profile.segment = i;
      local.profile.file = store.segments()[i].file;
      local.profile.start_us = obs::wall_micros_now();
    }
    std::string error;
    auto reader = SegmentReader::open(store.segment_path(i), &error, validated);
    if (!reader) {
      local.error = error;
    } else {
      // Resolve the query's key sets against this segment's interned
      // dictionaries once; the record loop then matches on integer ids
      // and never hashes a key.
      const auto& peers = reader->peer_dictionary();
      const IdMask peer_mask = resolve_mask(
          peers.size(), [&](std::size_t id) -> const crypto::PeerId& {
            return peers[id];
          },
          hot_peers);
      const IdMask cid_mask = resolve_mask(
          reader->cid_key_count(),
          [&](std::size_t id) -> const cid::Cid& {
            return reader->cid_key(static_cast<std::uint32_t>(id));
          },
          hot_cids);
      if (!peer_mask.any || !cid_mask.any) {
        local.dictionary_pruned = true;
      } else {
        local.bytes_scanned = reader->footer().body_bytes;
        RawRecord raw;
        trace::TraceEntry entry;
        if (profiling) {
          // Profiled decode: clock each next_raw()/match pair. The extra
          // clock reads only happen on this branch, so unprofiled scans
          // pay nothing.
          std::int64_t t0 = obs::wall_micros_now();
          while (reader->next_raw(raw)) {
            const std::int64_t t1 = obs::wall_micros_now();
            local.profile.decode_us += t1 - t0;
            ++local.entries_decoded;
            ++local.profile.entries;
            const bool hit = raw.timestamp >= lo && raw.timestamp <= hi &&
                             peer_mask.pass(raw.peer) &&
                             cid_mask.pass(raw.cid);
            if (hit) {
              reader->materialize(raw, entry);
              local.matches.append(entry);
              ++local.profile.matched;
            }
            t0 = obs::wall_micros_now();
            local.profile.match_us += t0 - t1;
          }
          local.profile.decode_us += obs::wall_micros_now() - t0;
        } else {
          while (reader->next_raw(raw)) {
            ++local.entries_decoded;
            if (raw.timestamp >= lo && raw.timestamp <= hi &&
                peer_mask.pass(raw.peer) && cid_mask.pass(raw.cid)) {
              reader->materialize(raw, entry);
              local.matches.append(entry);
            }
          }
        }
      }
    }
    if (profiling) local.profile.end_us = obs::wall_micros_now();
  };

  // Bounded read-ahead: at most `window` survivors are decoded or queued
  // ahead of the one the consumer is visiting, so memory is bounded by the
  // matches of that many segments. The consumer submits the next survivor
  // once it has visited one; pool workers never wait, so concurrent scans
  // sharing the pool cannot stall each other.
  ScanPool& pool = store.scan_pool();
  const std::size_t window = 2 * pool.size();
  std::vector<ScanPool::Ticket> tickets(survivors.size());
  std::size_t submitted = 0;
  const auto submit_next = [&] {
    const std::size_t k = submitted++;
    tickets[k] = pool.submit([&task, k] { task(k); });
  };
  while (submitted < survivors.size() && submitted < window) submit_next();

  for (std::size_t k = 0; k < survivors.size(); ++k) {
    tickets[k].wait();
    Slot slot = std::move(slots[k]);
    if (!slot.error.empty()) {
      ++stats.segments_skipped;
      store.skip_segment("skipping segment during scan: " + slot.error);
    } else if (slot.dictionary_pruned) {
      ++stats.segments_pruned_dictionary;
      if (profiling) profile->segments.push_back(std::move(slot.profile));
    } else {
      ++stats.segments_scanned;
      stats.entries_decoded += slot.entries_decoded;
      stats.bytes_scanned += slot.bytes_scanned;
      if (profiling) profile->segments.push_back(std::move(slot.profile));
      for (const auto& entry : slot.matches.entries()) {
        visit(entry);
        ++stats.entries_matched;
      }
    }
    if (submitted < survivors.size()) submit_next();
  }

  if (store.options().obs != nullptr) {
    // Skipped segments were counted by skip_segment().
    obs::MetricsRegistry& metrics = store.options().obs->metrics;
    metrics
        .counter("ipfsmon_tracestore_segments_scanned_total",
                 "Segments decoded by scan queries")
        .inc(stats.segments_scanned);
    metrics
        .counter("ipfsmon_tracestore_segments_pruned_total",
                 "Segments skipped via footer time range or Bloom filters")
        .inc(stats.segments_pruned_time + stats.segments_pruned_bloom +
             stats.segments_pruned_dictionary);
    metrics
        .counter("ipfsmon_tracestore_scan_entries_total",
                 "Entries streamed to scan visitors")
        .inc(stats.entries_matched);
    metrics
        .counter("ipfsmon_tracestore_scan_bytes_total",
                 "Segment body bytes decoded by scan queries")
        .inc(stats.bytes_scanned);
  }
  return stats;
}

}  // namespace ipfsmon::tracestore
