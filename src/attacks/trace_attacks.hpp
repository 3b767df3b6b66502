// Passive privacy attacks on collected traces (paper Sec. VI-A):
//  * IDW — Identifying Data Wanters: who asked for a given CID?
//  * TNW — Tracking Node Wants: what did a given node ask for?
// Both are pure queries over the monitoring dataset, fed entry by entry
// from a unify pass or a Bloom-pruned store scan on the target; the
// monitoring setup *is* the attack infrastructure.
#pragma once

#include <map>
#include <unordered_map>
#include <vector>

#include "trace/trace.hpp"

namespace ipfsmon::attacks {

/// One node observed requesting the target CID.
struct IdwHit {
  crypto::PeerId peer;
  net::Address address;
  std::vector<util::SimTime> request_times;
  bool cancelled = false;  // a CANCEL followed — likely completed download
};

/// One CID a tracked node was observed wanting.
struct TnwHit {
  cid::Cid cid;
  bitswap::WantType first_type = bitswap::WantType::WantHave;
  util::SimTime first_seen = 0;
  util::SimTime last_seen = 0;
  std::size_t observations = 0;
  bool cancelled = false;
};

/// IDW: every peer that requested `target`, with request times, ordered by
/// first request. Uses clean (deduplicated) request entries for times;
/// CANCELs flag completion.
class IdwAccumulator {
 public:
  explicit IdwAccumulator(cid::Cid target);

  void add(const trace::TraceEntry& entry);
  std::vector<IdwHit> hits() const;

 private:
  cid::Cid target_;
  std::unordered_map<crypto::PeerId, IdwHit> hits_;
};

/// TNW: the full observed interest history of `target`, one row per CID,
/// ordered by first observation.
class TnwAccumulator {
 public:
  explicit TnwAccumulator(crypto::PeerId target);

  void add(const trace::TraceEntry& entry);
  std::vector<TnwHit> hits() const;

 private:
  crypto::PeerId target_;
  std::map<cid::Cid, TnwHit> hits_;
};

}  // namespace ipfsmon::attacks
