#include "attacks/trace_attacks.hpp"

#include <algorithm>

namespace ipfsmon::attacks {

IdwAccumulator::IdwAccumulator(cid::Cid target) : target_(std::move(target)) {}

void IdwAccumulator::add(const trace::TraceEntry& e) {
  if (e.cid != target_) return;
  if (e.type == bitswap::WantType::Cancel) {
    const auto it = hits_.find(e.peer);
    if (it != hits_.end()) it->second.cancelled = true;
    return;
  }
  if (!e.is_clean()) return;
  auto& hit = hits_[e.peer];
  hit.peer = e.peer;
  hit.address = e.address;
  hit.request_times.push_back(e.timestamp);
}

std::vector<IdwHit> IdwAccumulator::hits() const {
  std::vector<IdwHit> out;
  out.reserve(hits_.size());
  for (const auto& [peer, hit] : hits_) out.push_back(hit);
  std::sort(out.begin(), out.end(), [](const IdwHit& a, const IdwHit& b) {
    const util::SimTime ta =
        a.request_times.empty() ? 0 : a.request_times.front();
    const util::SimTime tb =
        b.request_times.empty() ? 0 : b.request_times.front();
    if (ta != tb) return ta < tb;
    return a.peer < b.peer;
  });
  return out;
}

TnwAccumulator::TnwAccumulator(crypto::PeerId target)
    : target_(std::move(target)) {}

void TnwAccumulator::add(const trace::TraceEntry& e) {
  if (e.peer != target_) return;
  if (e.type == bitswap::WantType::Cancel) {
    const auto it = hits_.find(e.cid);
    if (it != hits_.end()) it->second.cancelled = true;
    return;
  }
  auto [it, inserted] = hits_.try_emplace(e.cid);
  TnwHit& hit = it->second;
  if (inserted) {
    hit.cid = e.cid;
    hit.first_type = e.type;
    hit.first_seen = e.timestamp;
  }
  hit.last_seen = std::max(hit.last_seen, e.timestamp);
  ++hit.observations;
}

std::vector<TnwHit> TnwAccumulator::hits() const {
  std::vector<TnwHit> out;
  out.reserve(hits_.size());
  for (const auto& [cid, hit] : hits_) out.push_back(hit);
  std::sort(out.begin(), out.end(), [](const TnwHit& a, const TnwHit& b) {
    if (a.first_seen != b.first_seen) return a.first_seen < b.first_seen;
    return a.cid < b.cid;
  });
  return out;
}

}  // namespace ipfsmon::attacks
