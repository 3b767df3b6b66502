#include "analysis/popularity.hpp"

#include <algorithm>
#include <unordered_set>

namespace ipfsmon::analysis {

namespace {
std::vector<std::pair<cid::Cid, std::uint64_t>> top_of(
    const std::unordered_map<cid::Cid, std::uint64_t>& scores, std::size_t k) {
  std::vector<std::pair<cid::Cid, std::uint64_t>> out(scores.begin(),
                                                      scores.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;  // deterministic tiebreak
  });
  if (out.size() > k) out.resize(k);
  return out;
}

std::vector<double> values_of(
    const std::unordered_map<cid::Cid, std::uint64_t>& scores) {
  std::vector<double> out;
  out.reserve(scores.size());
  for (const auto& [cid, count] : scores) {
    out.push_back(static_cast<double>(count));
  }
  return out;
}
}  // namespace

std::vector<double> PopularityScores::rrp_values() const {
  return values_of(rrp);
}

std::vector<double> PopularityScores::urp_values() const {
  return values_of(urp);
}

std::vector<std::pair<cid::Cid, std::uint64_t>> PopularityScores::top_rrp(
    std::size_t k) const {
  return top_of(rrp, k);
}

std::vector<std::pair<cid::Cid, std::uint64_t>> PopularityScores::top_urp(
    std::size_t k) const {
  return top_of(urp, k);
}

double PopularityScores::single_requester_share() const {
  if (urp.empty()) return 0.0;
  std::size_t singles = 0;
  for (const auto& [cid, count] : urp) {
    if (count == 1) ++singles;
  }
  return static_cast<double>(singles) / static_cast<double>(urp.size());
}

PopularityAccumulator::PopularityAccumulator(bool clean_only)
    : clean_only_(clean_only) {}

void PopularityAccumulator::add(const trace::TraceEntry& e) {
  if (!e.is_request()) return;
  if (clean_only_ && !e.is_clean()) return;
  ++rrp_[e.cid];
  requesters_[e.cid].insert(e.peer);
}

PopularityScores PopularityAccumulator::scores() const {
  PopularityScores scores;
  scores.rrp = rrp_;
  for (const auto& [cid, peers] : requesters_) {
    scores.urp[cid] = peers.size();
  }
  return scores;
}

}  // namespace ipfsmon::analysis
