#include "analysis/aggregate.hpp"

#include <algorithm>
#include <unordered_map>

#include "cid/multicodec.hpp"

namespace ipfsmon::analysis {

ShareAccumulator::ShareAccumulator(
    std::function<std::string(const trace::TraceEntry&)> group)
    : group_(std::move(group)) {}

void ShareAccumulator::add(const trace::TraceEntry& entry) {
  if (!entry.is_request()) return;
  ++counts_[group_(entry)];
}

std::vector<ShareRow> ShareAccumulator::rows() const {
  std::uint64_t total = 0;
  for (const auto& [label, count] : counts_) total += count;
  std::vector<ShareRow> rows;
  rows.reserve(counts_.size());
  for (const auto& [label, count] : counts_) {
    const double share = total == 0 ? 0.0
                                    : 100.0 * static_cast<double>(count) /
                                          static_cast<double>(total);
    rows.push_back(ShareRow{label, count, share});
  }
  std::sort(rows.begin(), rows.end(), [](const ShareRow& a, const ShareRow& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.label < b.label;
  });
  return rows;
}

ShareAccumulator ShareAccumulator::by_codec() {
  return ShareAccumulator([](const trace::TraceEntry& e) {
    return std::string(cid::multicodec_name(e.cid.codec()));
  });
}

ShareAccumulator ShareAccumulator::by_country(const net::GeoDatabase& geo) {
  return ShareAccumulator(
      [&geo](const trace::TraceEntry& e) { return geo.lookup(e.address); });
}

RequestTypeAccumulator::RequestTypeAccumulator(util::SimDuration bucket)
    : bucket_(bucket) {}

void RequestTypeAccumulator::add(const trace::TraceEntry& e) {
  if (!e.is_request()) return;
  const util::SimTime start = (e.timestamp / bucket_) * bucket_;
  TypeBucket& b = buckets_[start];
  b.bucket_start = start;
  if (e.type == bitswap::WantType::WantBlock) {
    ++b.want_block;
  } else {
    ++b.want_have;
  }
}

std::vector<TypeBucket> RequestTypeAccumulator::buckets() const {
  std::vector<TypeBucket> out;
  out.reserve(buckets_.size());
  for (const auto& [start, b] : buckets_) out.push_back(b);
  return out;
}

GroupRateAccumulator::GroupRateAccumulator(
    std::function<std::string(const crypto::PeerId&)> group_of,
    util::SimDuration bucket)
    : group_of_(std::move(group_of)), bucket_(bucket) {}

void GroupRateAccumulator::add(const trace::TraceEntry& e) {
  if (!e.is_request()) return;
  const util::SimTime start = (e.timestamp / bucket_) * bucket_;
  ++counts_[start][group_of_(e.peer)];
}

std::vector<GroupRateBucket> GroupRateAccumulator::buckets() const {
  const double bucket_seconds = util::to_seconds(bucket_);
  std::vector<GroupRateBucket> out;
  out.reserve(counts_.size());
  for (const auto& [start, groups] : counts_) {
    GroupRateBucket b;
    b.bucket_start = start;
    for (const auto& [group, count] : groups) {
      b.rate_per_second[group] =
          static_cast<double>(count) / bucket_seconds;
    }
    out.push_back(std::move(b));
  }
  return out;
}

void PeerRequestAccumulator::add(const trace::TraceEntry& e) {
  if (e.is_request()) ++counts_[e.peer];
}

std::vector<std::pair<crypto::PeerId, std::uint64_t>>
PeerRequestAccumulator::rows() const {
  std::vector<std::pair<crypto::PeerId, std::uint64_t>> out(counts_.begin(),
                                                            counts_.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return out;
}

}  // namespace ipfsmon::analysis
