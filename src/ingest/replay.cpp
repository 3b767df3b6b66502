#include "ingest/replay.hpp"

#include <chrono>
#include <thread>

#include "util/codec.hpp"

namespace ipfsmon::ingest {

namespace {

std::int64_t wall_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::uint64_t fold_entry_checksum(std::uint64_t seed,
                                  const trace::TraceEntry& entry) {
  // Canonical little-endian rendering of every field; the CID's binary
  // encoding is length-prefixed so adjacent fields can't alias.
  std::uint8_t fixed[8 + 32 + 4 + 2 + 1 + 4 + 4];
  std::uint8_t* p = fixed;
  util::store_le(p, static_cast<std::uint64_t>(entry.timestamp));
  p += 8;
  for (const auto byte : entry.peer.digest()) *p++ = byte;
  util::store_le(p, entry.address.ip);
  p += 4;
  util::store_le(p, entry.address.port);
  p += 2;
  *p++ = static_cast<std::uint8_t>(entry.type);
  util::store_le(p, entry.monitor);
  p += 4;
  util::store_le(p, entry.flags);
  std::uint64_t h = util::fnv1a64(util::BytesView(fixed, sizeof(fixed)), seed);
  const util::Bytes cid = entry.cid.encode();
  std::uint8_t len[4];
  util::store_le(len, static_cast<std::uint32_t>(cid.size()));
  h = util::fnv1a64(util::BytesView(len, 4), h);
  return util::fnv1a64(cid, h);
}

ReplayDriver::ReplayDriver(sim::Scheduler& scheduler,
                           const tracestore::TraceStore& store,
                           ReplayOptions options)
    : scheduler_(scheduler),
      options_(options),
      cursor_(store) {}

void ReplayDriver::start(Sink sink) {
  sink_ = std::move(sink);
  // Advance to the first entry inside [start, stop).
  trace::TraceEntry entry;
  while (cursor_.next(entry)) {
    if (entry.timestamp < options_.start) continue;
    if (options_.stop && entry.timestamp >= *options_.stop) break;
    pending_ = entry;
    have_pending_ = true;
    break;
  }
  if (!have_pending_) {
    stats_.done = true;
    return;
  }
  stats_.first = pending_.timestamp;
  if (options_.speedup > 0) {
    pace_origin_us_ = wall_now_us();
    pace_sim_origin_ = pending_.timestamp;
  }
  schedule_next();
}

void ReplayDriver::schedule_next() {
  scheduler_.post_at(pending_.timestamp, [this] { pump(); });
}

void ReplayDriver::pump() {
  if (options_.speedup > 0) {
    // Sleep until this batch's wall-clock due time. Pacing shapes wall
    // time only — delivery order, SimTimes, and checksums are identical
    // at every speedup.
    const double sim_elapsed_s =
        static_cast<double>(pending_.timestamp - pace_sim_origin_) / 1e9;
    const std::int64_t due_us =
        pace_origin_us_ +
        static_cast<std::int64_t>(sim_elapsed_s / options_.speedup * 1e6);
    const std::int64_t now_us = wall_now_us();
    if (due_us > now_us) {
      std::this_thread::sleep_for(std::chrono::microseconds(due_us - now_us));
    }
  }

  // Deliver every entry sharing this timestamp, then park on the next one.
  const util::SimTime batch_time = pending_.timestamp;
  ++stats_.batches;
  while (have_pending_ && pending_.timestamp == batch_time) {
    trace::TraceEntry entry = pending_;
    if (options_.remark_flags) flagger_.mark(entry);
    ++stats_.entries;
    stats_.last = entry.timestamp;
    stats_.checksum = fold_entry_checksum(stats_.checksum, entry);
    if (sink_) sink_(entry);

    have_pending_ = false;
    trace::TraceEntry next;
    while (cursor_.next(next)) {
      if (next.timestamp < options_.start) continue;
      if (options_.stop && next.timestamp >= *options_.stop) break;
      pending_ = next;
      have_pending_ = true;
      break;
    }
  }
  if (have_pending_) {
    schedule_next();
  } else {
    stats_.done = true;
  }
}

ReplayStats replay_store(const tracestore::TraceStore& store,
                         const ReplayDriver::Sink& sink,
                         ReplayOptions options) {
  sim::Scheduler scheduler;
  ReplayDriver driver(scheduler, store, options);
  driver.start(sink);
  scheduler.run_all();
  return driver.stats();
}

}  // namespace ipfsmon::ingest
