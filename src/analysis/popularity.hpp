// Content-popularity scores (paper Sec. IV-D):
//  * RRP (raw request popularity)  — total requests per CID,
//  * URP (unique request popularity) — distinct requesting peers per CID.
// Computed over the clean entries of the unified trace.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "trace/trace.hpp"

namespace ipfsmon::analysis {

struct PopularityScores {
  std::unordered_map<cid::Cid, std::uint64_t> rrp;
  std::unordered_map<cid::Cid, std::uint64_t> urp;

  /// Score vectors (for ECDF/power-law fitting).
  std::vector<double> rrp_values() const;
  std::vector<double> urp_values() const;

  /// Top-k CIDs by the given score, descending.
  std::vector<std::pair<cid::Cid, std::uint64_t>> top_rrp(std::size_t k) const;
  std::vector<std::pair<cid::Cid, std::uint64_t>> top_urp(std::size_t k) const;

  /// Share of CIDs requested by exactly one peer (paper: >80%).
  double single_requester_share() const;
};

/// Both scores, fed entry by entry. Only request entries count (CANCELs
/// excluded); flagged duplicates/re-broadcasts are skipped when
/// `clean_only` is set (the paper's analyses filter both). Memory is the
/// per-CID requester sets, never the trace itself.
class PopularityAccumulator {
 public:
  explicit PopularityAccumulator(bool clean_only = true);

  void add(const trace::TraceEntry& entry);
  PopularityScores scores() const;

 private:
  bool clean_only_;
  std::unordered_map<cid::Cid, std::uint64_t> rrp_;
  std::unordered_map<cid::Cid, std::unordered_set<crypto::PeerId>> requesters_;
};

}  // namespace ipfsmon::analysis
