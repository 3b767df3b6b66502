// FederatedService: the coordinator-mode serving stack. Owns a
// Coordinator (landing segments from shippers), materializes the unified
// store, and serves it through a query::QueryService:
//
//   <root>/m-<id>/          per-monitor stores (written by the coordinator)
//   <root>/unified/         unify_to_store() output over the m-* stores
//   <root>/unified/UNIFIED_SOURCE   input fingerprint of the build
//
// Unification is the paper's Sec. IV-B dedup (5 s inter-monitor window by
// default) run out-of-core over the per-monitor stores in monitor-id
// order — the same deterministic input order the byte-identity property
// requires. refresh() re-unifies only when the coordinator landed new
// segments since the served store was built (tracked via UNIFIED_SOURCE),
// then reloads the engine so the manifest fingerprint — and with it every
// cached answer — rolls over.
//
// The service implements query::FederationSource, so the engine serves
// /v1/monitors, provenance sources on /v1/segments, and the coordinator's
// metrics on /metrics without depending on this layer.
#pragma once

#include <memory>
#include <mutex>
#include <string>

#include "federation/coordinator.hpp"
#include "query/engine.hpp"

namespace ipfsmon::federation {

struct FederatedOptions {
  CoordinatorOptions coordinator;
  query::QueryOptions query;
};

class FederatedService : public query::FederationSource {
 public:
  /// Starts the coordinator on `root`, builds (or reuses) the unified
  /// store, and opens the query service over it.
  static std::unique_ptr<FederatedService> start(const std::string& root,
                                                 FederatedOptions options = {},
                                                 std::string* error = nullptr);

  ~FederatedService() override;
  FederatedService(const FederatedService&) = delete;
  FederatedService& operator=(const FederatedService&) = delete;

  Coordinator& coordinator() { return *coordinator_; }
  query::QueryService& query() { return *query_; }

  /// Re-unifies when new segments landed and reloads the engine. Cheap
  /// when nothing changed. Returns false only on a build/reload failure.
  bool refresh(std::string* error = nullptr);

  /// The served unified store directory ("<root>/unified").
  const std::string& unified_dir() const { return unified_dir_; }

  // query::FederationSource
  std::vector<query::FederationSource::Monitor> monitors() override;
  std::vector<query::FederationSource::SegmentSource> segment_sources()
      override;
  std::string metrics_text() override;

 private:
  FederatedService() = default;

  /// Rebuilds <root>/unified from the per-monitor stores when the landed
  /// segment set differs from UNIFIED_SOURCE. Sets `*rebuilt` accordingly.
  bool unify_if_changed(bool* rebuilt, std::string* error);

  std::string root_;
  std::string unified_dir_;
  FederatedOptions options_;
  std::unique_ptr<Coordinator> coordinator_;
  std::unique_ptr<query::QueryService> query_;
  std::mutex refresh_mu_;  // serializes unify/reload cycles
};

}  // namespace ipfsmon::federation
