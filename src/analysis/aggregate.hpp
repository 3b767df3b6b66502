// Trace aggregations behind the paper's tables and time-series figures:
// Table I (share by multicodec), Table II (share by country), Fig. 4
// (requests per day by entry type), Fig. 6 (request rate per origin group).
// Each is an accumulator fed one entry at a time from a store scan or a
// unify pass, so no analysis needs the whole trace in memory.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/geo.hpp"
#include "trace/trace.hpp"

namespace ipfsmon::analysis {

struct ShareRow {
  std::string label;
  std::uint64_t count = 0;
  double share_percent = 0.0;
};

/// Grouped share table, fed entry by entry (scan visitors, unify sinks).
/// Only request entries count (no CANCELs); rows are sorted by count,
/// descending, then label.
class ShareAccumulator {
 public:
  explicit ShareAccumulator(
      std::function<std::string(const trace::TraceEntry&)> group);

  /// Table I: shares per multicodec (the paper feeds the raw traces).
  static ShareAccumulator by_codec();
  /// Table II: shares per origin country, resolved through the (synthetic)
  /// GeoIP database (the paper feeds clean entries only). `geo` must
  /// outlive the accumulator.
  static ShareAccumulator by_country(const net::GeoDatabase& geo);

  void add(const trace::TraceEntry& entry);
  std::vector<ShareRow> rows() const;

 private:
  std::function<std::string(const trace::TraceEntry&)> group_;
  std::unordered_map<std::string, std::uint64_t> counts_;
};

/// Fig. 4: per-bucket counts of WANT_BLOCK vs WANT_HAVE request entries.
struct TypeBucket {
  util::SimTime bucket_start = 0;
  std::uint64_t want_block = 0;
  std::uint64_t want_have = 0;
};

class RequestTypeAccumulator {
 public:
  explicit RequestTypeAccumulator(util::SimDuration bucket = util::kDay);

  void add(const trace::TraceEntry& entry);
  /// Non-empty buckets in ascending start order.
  std::vector<TypeBucket> buckets() const;

 private:
  util::SimDuration bucket_;
  std::map<util::SimTime, TypeBucket> buckets_;
};

/// Fig. 6: request rate (entries/s) per origin group over time buckets.
/// Counts every request it is fed; the paper feeds clean entries only.
struct GroupRateBucket {
  util::SimTime bucket_start = 0;
  std::map<std::string, double> rate_per_second;
};

class GroupRateAccumulator {
 public:
  explicit GroupRateAccumulator(
      std::function<std::string(const crypto::PeerId&)> group_of,
      util::SimDuration bucket = util::kHour);

  void add(const trace::TraceEntry& entry);
  /// Non-empty buckets in ascending start order.
  std::vector<GroupRateBucket> buckets() const;

 private:
  std::function<std::string(const crypto::PeerId&)> group_of_;
  util::SimDuration bucket_;
  std::map<util::SimTime, std::map<std::string, std::uint64_t>> counts_;
};

/// Requests per peer (activity structure helper).
class PeerRequestAccumulator {
 public:
  void add(const trace::TraceEntry& entry);
  /// Peers by request count, descending, then by peer ID.
  std::vector<std::pair<crypto::PeerId, std::uint64_t>> rows() const;

 private:
  std::unordered_map<crypto::PeerId, std::uint64_t> counts_;
};

}  // namespace ipfsmon::analysis
